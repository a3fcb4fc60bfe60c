/**
 * @file
 * The benchmark's workloads, driven through the public API only
 * (core::Engine, tools::Ddt):
 *
 *   sym_alu    a branch-free ALU loop over two symbolic registers,
 *              1 worker (expression building and simplification);
 *   ddt_pcnet  DDT+ under local consistency with interface annotations
 *              on the pcnet (DMA) driver, 1 worker, witnesses on, a
 *              maxStates budget and no wall budget.
 *
 * The seed picks the sym_alu constants without changing how much work
 * they are. ddt_pcnet takes a separate searcher seed for the DDT+
 * RandomSearcher.
 */

#ifndef S2E_PERFBENCH_WORKLOADS_HH
#define S2E_PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.hh"
#include "tools/ddt.hh"

namespace perfbench {

/** sym_alu loop trip count (11 guest instructions per iteration). */
constexpr uint32_t kSymAluIterations = 150000;
/** DDT+ state budget: the run ends when this many paths exist. Small
 *  enough that one exploration takes about 1.2 s, so a run's median
 *  rests on dozens of them. */
constexpr size_t kDdtMaxStates = 256;

/** 64 KiB RAM and a console: the sym_alu machine. */
s2e::vm::MachineConfig smallMachine(const s2e::isa::Program &program);

/** gisa source of the sym_alu program; `symbolic` = false drops the
 *  s2e_symreg lines (the concrete-engine and vanilla ladder input). */
std::string symAluSource(uint64_t seed, bool symbolic);

/**
 * One set-up workload, ready to explore. Owns either a bare Engine or
 * a Ddt (which owns its engine and plugins).
 */
class Session
{
  public:
    /** Assemble, build the machine and construct the Engine or Ddt.
     *  `searcher_seed` only matters for ddt_pcnet. Throws
     *  std::invalid_argument on an unknown workload name. */
    Session(const std::string &workload, uint64_t seed,
            uint64_t searcher_seed);

    s2e::core::Engine &engine();
    /** The guest program (for ddt_pcnet assembled on first call). */
    const s2e::isa::Program &program();

    /** Engine::run() or Ddt::run(); bugs are filled for ddt_pcnet. */
    s2e::core::RunResult explore(std::vector<s2e::tools::DdtBug> *bugs);

  private:
    s2e::isa::Program program_;
    std::unique_ptr<s2e::core::Engine> engine_;
    std::unique_ptr<s2e::tools::Ddt> ddt_;
};

} // namespace perfbench

#endif // S2E_PERFBENCH_WORKLOADS_HH
