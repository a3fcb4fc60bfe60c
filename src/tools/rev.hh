/**
 * @file
 * REV+: reverse engineering of binary drivers (paper §6.1.2).
 *
 * The online half runs the driver under RC-OC (overapproximate
 * consistency: unconstrained symbolic hardware and configuration) to
 * reach as many basic blocks as fast as possible, recording execution
 * traces with the ExecutionTracer. The offline half reconstructs the
 * driver's control-flow graph from the trace fragments and emits
 * synthesized pseudo-driver code with the hardware protocol (port and
 * MMIO access sequences) attached to each block.
 *
 * The RevNIC baseline (the ad-hoc tool the paper compares against in
 * Table 5) is reproduced as concrete random testing: repeated
 * concrete runs with fuzzed configuration and packets.
 */

#ifndef S2E_TOOLS_REV_HH
#define S2E_TOOLS_REV_HH

#include <map>
#include <memory>
#include <set>

#include "analysis/cfg.hh"
#include "core/engine.hh"
#include "guest/drivers.hh"
#include "plugins/coverage.hh"
#include "plugins/pathkiller.hh"
#include "plugins/tracer.hh"

namespace s2e::tools {

/** Configuration for a REV+ run. */
struct RevConfig {
    guest::DriverKind driver = guest::DriverKind::Dma;
    /** RC-OC per the paper; LC/SC-SE selectable for comparison. */
    core::ConsistencyModel model = core::ConsistencyModel::RcOc;
    uint64_t maxInstructions = 3'000'000;
    double maxWallSeconds = 30.0;
    size_t maxStates = 512;
    uint64_t stagnationBlocks = 20'000;
    /** Exploration worker threads (EngineConfig::numWorkers). */
    unsigned numWorkers = 1;
    /** Extract a replay witness for every eligible terminated path. */
    bool emitWitnesses = false;
    /** Optional witness output directory (EngineConfig::witnessDir). */
    std::string witnessDir;
    /** Replay this witness concretely instead of exploring. */
    std::shared_ptr<const core::replay::Witness> replayWitness;
};

/** Reconstructed control-flow graph of the driver. */
struct RecoveredCfg {
    struct Block {
        uint32_t pc = 0;
        std::set<uint32_t> successors;
        /** Hardware accesses observed in this block:
         *  (port, isWrite) pairs. */
        std::set<std::pair<uint32_t, bool>> hardwareAccesses;
        uint64_t timesObserved = 0;
    };
    std::map<uint32_t, Block> blocks;

    size_t blockCount() const { return blocks.size(); }
    size_t edgeCount() const;
    size_t hardwareOpCount() const;
};

/** REV+ run outcome. */
struct RevResult {
    RecoveredCfg cfg;
    double driverCoverage = 0.0;
    /** Coverage-over-time samples (seconds, covered blocks). */
    std::vector<std::pair<double, size_t>> coverageTimeline;
    size_t pathsExplored = 0;
    /** Trace entries lost to ExecutionTracer's per-path cap, summed
     *  over all ingested traces. Non-zero means the recovered CFG was
     *  built from truncated evidence. */
    uint64_t droppedTraceEntries = 0;

    /** What recursive-descent disassembly recovers from the driver
     *  ABI entry points alone (no runtime knowledge: the interrupt
     *  handler hangs off the runtime-written IVT and is invisible). */
    analysis::StaticCfg staticCfg;
    /** Static vs multi-path comparison; dynamicOnly lists the blocks
     *  only in-vivo execution discovered (the REV+ argument). */
    analysis::CfgDiff cfgDiff;

    core::RunResult run;
};

/** The REV+ tool. */
class Rev
{
  public:
    explicit Rev(RevConfig config);
    ~Rev();

    RevResult run();

    core::Engine &engine() { return *engine_; }

    /** Offline synthesis: emit pseudo-driver source from the CFG. */
    static std::string synthesizeDriver(const RecoveredCfg &cfg,
                                        const std::string &name);

  private:
    RevConfig config_;
    isa::Program program_;
    std::unique_ptr<core::Engine> engine_;
    std::unique_ptr<plugins::ExecutionTracer> tracer_;
    std::unique_ptr<plugins::CoverageTracker> coverage_;
    std::unique_ptr<plugins::PathKiller> pathKiller_;
};

/**
 * RevNIC baseline: concrete random testing of the same driver.
 * Each trial is an SC-CE run with fuzzed registry values and packets;
 * coverage accumulates across trials until the budget expires.
 */
struct RevNicBaselineResult {
    double driverCoverage = 0.0;
    std::vector<std::pair<double, size_t>> coverageTimeline;
    size_t trials = 0;
};

RevNicBaselineResult runRevNicBaseline(guest::DriverKind kind,
                                       double maxWallSeconds,
                                       uint64_t maxInstructions,
                                       uint64_t seed = 1);

} // namespace s2e::tools

#endif // S2E_TOOLS_REV_HH
