/**
 * @file
 * DDT+: automated testing of (closed-source) device drivers, the
 * paper's §6.1.1 tool rebuilt as plugin glue.
 *
 * DDT+ composes CodeSelector-style unit restriction (the driver code
 * region is the symbolic domain), the MemoryChecker, DataRaceDetector
 * and BugCheck analyzers, the CoverageTracker + PathKiller selectors,
 * symbolic hardware for the driver's NIC, and — under local
 * consistency — interface annotations that inject symbolic values at
 * the kernel/driver boundary (registry configuration, allocator
 * failure, ioctl arguments) while respecting the API contracts.
 * Without annotations it reverts to SC-SE, where the only symbolic
 * input is the hardware (exactly the paper's setup).
 */

#ifndef S2E_TOOLS_DDT_HH
#define S2E_TOOLS_DDT_HH

#include <memory>
#include <set>

#include "core/engine.hh"
#include "guest/drivers.hh"
#include "plugins/annotation.hh"
#include "plugins/bugcheck.hh"
#include "plugins/coverage.hh"
#include "plugins/memchecker.hh"
#include "plugins/pathkiller.hh"
#include "plugins/racedetector.hh"
#include "plugins/searchers.hh"

namespace s2e::tools {

/** DDT+ configuration. */
struct DdtConfig {
    guest::DriverKind driver = guest::DriverKind::Dma;
    core::ConsistencyModel model = core::ConsistencyModel::Lc;
    /** LC interface annotations (ignored for the SC / RC-CC models
     *  where they do not apply). */
    bool annotations = true;
    uint64_t maxInstructions = 20'000'000;
    double maxWallSeconds = 30.0;
    size_t maxStates = 4096;
    uint32_t pathKillerLoopVisits = 200;
    uint64_t stagnationBlocks = 0; // off: sweeps can starve rare paths
    uint64_t searcherSeed = 42;    // seeded Random path selection
    unsigned numWorkers = 1;
    /** Extract a replay witness for every eligible terminated path. */
    bool emitWitnesses = false;
    /** Optional witness output directory (EngineConfig::witnessDir). */
    std::string witnessDir;
    /** Replay this witness concretely instead of exploring: the engine
     *  goes solver-free, and the witness is the run's only input. */
    std::shared_ptr<const core::replay::Witness> replayWitness;
    /** Solver options passthrough (differential runs disable the model
     *  cache so serial and parallel witnesses match byte-for-byte). */
    solver::SolverOptions solverOptions;
};

/** One reproducible bug (paper §6.1.1). With emitWitnesses, the
 *  inputs that reproduce it are the witness of state stateId's path. */
struct DdtBug {
    std::string kind;
    std::string message;
    int stateId;
};

/** DDT+ run outcome. */
struct DdtResult {
    std::vector<DdtBug> bugs;
    std::set<std::string> bugKinds; ///< deduplicated bug classes
    size_t pathsExplored = 0;
    double driverCoverage = 0.0; ///< basic-block fraction
    /** Solver-resilience summary (mirrors run.solverFailures /
     *  run.degradedStates): paths killed by a solver give-up and paths
     *  that survived one via degradation. */
    size_t solverFailures = 0;
    size_t degradedStates = 0;
    core::RunResult run;
};

/** The DDT+ tool. */
class Ddt
{
  public:
    explicit Ddt(DdtConfig config);
    ~Ddt();

    /** Explore the driver and collect bugs. */
    DdtResult run();

    core::Engine &engine() { return *engine_; }
    const plugins::MemoryChecker &memoryChecker() const { return *memChecker_; }
    const plugins::DataRaceDetector &raceDetector() const { return *races_; }
    const plugins::BugCheck &bugCheck() const { return *bugCheck_; }
    const plugins::CoverageTracker &coverage() const { return *coverage_; }

  private:
    void installAnnotations();

    DdtConfig config_;
    isa::Program program_;
    std::unique_ptr<core::Engine> engine_;
    std::unique_ptr<plugins::Annotation> annotation_;
    std::unique_ptr<plugins::MemoryChecker> memChecker_;
    std::unique_ptr<plugins::DataRaceDetector> races_;
    std::unique_ptr<plugins::BugCheck> bugCheck_;
    std::unique_ptr<plugins::CoverageTracker> coverage_;
    std::unique_ptr<plugins::PathKiller> pathKiller_;
};

/** Shared helper: machine config for a kernel+driver+harness system. */
vm::MachineConfig driverMachine(guest::DriverKind kind,
                                const isa::Program &program);

/** Shared helper: assemble kernel + driver + harness. */
isa::Program driverProgram(guest::DriverKind kind);

} // namespace s2e::tools

#endif // S2E_TOOLS_DDT_HH
