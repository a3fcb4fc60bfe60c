/**
 * @file
 * The per-layer ladder: after a traced exploration, time one public
 * function of each layer on inputs the workload produced (terminated
 * states, their constraint sets and expression DAGs, the program's
 * static blocks). Each rung runs under its own trace span and yields
 * one or more named per-layer metrics.
 */

#ifndef S2E_PERFBENCH_LADDER_HH
#define S2E_PERFBENCH_LADDER_HH

#include <map>
#include <string>

#include "trace.hh"
#include "workloads.hh"

namespace perfbench {

using Metrics = std::map<std::string, double>;

/** Run every rung against an explored session; `work_dir` receives
 *  the spill-I/O rung's files (removed again before returning). */
void runLadder(Session &session, uint64_t seed,
               const std::string &work_dir, Trace &trace,
               Metrics &out);

} // namespace perfbench

#endif // S2E_PERFBENCH_LADDER_HH
