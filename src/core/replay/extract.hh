#pragma once

/**
 * @file
 * Witness extraction: turn a terminated ExecutionState into a
 * complete concrete replay witness (core/replay/witness.hh).
 */

#include <memory>
#include <string>

#include "core/replay/witness.hh"

namespace s2e::expr {
class ExprBuilder;
}
namespace s2e::obs {
class PhaseProfiler;
}
namespace s2e::solver {
struct SolverOptions;
}

namespace s2e::core {

class ExecutionState;

namespace replay {

/** Outcome of extractWitness: a witness, or an error explaining why
 *  extraction failed (never a partial witness). */
struct ExtractResult {
    std::shared_ptr<const Witness> witness;
    std::string error;
};

/**
 * Extract a replay witness from a terminated state.
 *
 * Queries a *fresh* solver (model cache and incremental contexts
 * disabled, so the model depends only on the path constraints, never
 * on query history or worker schedule) for a satisfying assignment,
 * then completes it over every variable the path created: variables
 * the model misses — unconstrained inputs, or variables simplified
 * away during bit-blasting — are pinned by explicit value queries
 * under the model-augmented constraints, never defaulted to zero.
 * The completed assignment is validated by concretely evaluating
 * every path constraint; any violation fails the extraction.
 *
 * The fresh solver's queries are charged to the Solver phase of
 * `profiler` (the calling worker's; null charges nothing).
 */
ExtractResult extractWitness(const ExecutionState &state,
                             expr::ExprBuilder &builder,
                             const solver::SolverOptions &baseOptions,
                             obs::PhaseProfiler *profiler);

} // namespace replay
} // namespace s2e::core
