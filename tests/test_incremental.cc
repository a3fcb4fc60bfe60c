/**
 * @file
 * Incremental-vs-fresh solver differential suite: with per-path
 * incremental SAT contexts enabled, every guest workload must explore
 * exactly the same fork tree and reach the same per-path outcome
 * (terminal status + exit code, keyed by the schedule-independent
 * path id) as the fresh-solver-per-query oracle, at 1, 2 and 4
 * workers. Model *bits* may legitimately differ between the two modes
 * (the CDCL search runs over a different clause database), so test
 * cases are validated semantically — every per-path model must
 * satisfy that path's constraints — instead of being byte-compared.
 * The incremental runs must also show actual context reuse in the
 * merged telemetry, and the fresh runs none.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "core/engine.hh"
#include "expr/eval.hh"
#include "guest/drivers.hh"
#include "guest/kernel.hh"
#include "guest/layout.hh"
#include "guest/workloads.hh"
#include "obs/forktree.hh"
#include "support/differential.hh"

namespace s2e::core {
namespace {

using difftest::differentialConfig;
using difftest::machineFor;
using difftest::stressSource;
using guest::DriverKind;

/** The differential configuration; useIncremental is the variable
 *  under test. */
EngineConfig
configFor(unsigned workers, bool incremental)
{
    EngineConfig config = differentialConfig(workers);
    config.solverOptions.useIncremental = incremental;
    return config;
}

/** Everything one run contributes to the differential comparison. */
struct RunOutcome {
    /** path id -> "status:<name> exit:<code>" for every explored path. */
    std::map<std::string, std::string> paths;
    /** Canonical `s2e.fork_tree.v1` JSON (schedule-independent). */
    std::string forkTree;
    uint64_t ctxReuses = 0;
    uint64_t gatesSaved = 0;
};

/** Run the prepared engine to completion, validate every path's test
 *  case against its constraints, and collect the comparison data. */
RunOutcome
finishRun(Engine &engine)
{
    obs::ForkTreeRecorder recorder(engine.events());
    engine.run();
    RunOutcome out;
    for (const auto &s : engine.allStates()) {
        bool fresh =
            out.paths
                .emplace(s->pathId(),
                         strprintf("status:%s exit:%u",
                                   stateStatusName(s->status), s->exitCode))
                .second;
        EXPECT_TRUE(fresh) << "duplicate path id " << s->pathId();
        if (s->constraints.empty())
            continue;
        // The path's test case must satisfy the path's constraints —
        // semantic validation, deliberately not a bit-compare against
        // the other mode's model.
        expr::Assignment model;
        auto outcome =
            engine.solver().getInitialValues(s->constraints, &model);
        EXPECT_TRUE(outcome.isSat())
            << "path " << s->pathId() << " has no test case";
        if (outcome.isSat()) {
            for (ExprRef c : s->constraints)
                EXPECT_TRUE(expr::evaluateBool(c, model))
                    << "model violates a constraint on path "
                    << s->pathId();
        }
    }
    out.forkTree = recorder.toCanonicalJson();
    out.ctxReuses = engine.solver().stats().get("solver.ctx_reuses");
    out.gatesSaved = engine.solver().stats().get("solver.gates_saved");
    return out;
}

// --- Workload runners ----------------------------------------------------

RunOutcome
runLicense(unsigned workers, bool incremental)
{
    std::string src = guest::kernelSource() + guest::licenseCheckSource();
    Engine engine(machineFor(src), configFor(workers, incremental));
    auto &state = engine.initialState();
    uint32_t key_addr = guest::addConfigString(state, engine.builder(), 0,
                                               "AAAAAAAA");
    guest::setConfig(state, engine.builder(), guest::kCfgLicensePtr,
                     key_addr);
    engine.makeMemSymbolic(state, key_addr, guest::kLicenseKeyLen,
                           "license");
    return finishRun(engine);
}

RunOutcome
runUrlParser(unsigned workers, bool incremental)
{
    std::string src = guest::kernelSource() + guest::urlParserSource();
    Engine engine(machineFor(src), configFor(workers, incremental));
    auto &state = engine.initialState();
    std::string url = "http://ab";
    for (size_t i = 0; i <= url.size(); ++i)
        state.mem.write(guest::kUrlBuffer + static_cast<uint32_t>(i),
                        Value(i < url.size() ? url[i] : 0), 1,
                        engine.builder());
    engine.makeMemSymbolic(state, guest::kUrlBuffer + 7, 2, "url");
    return finishRun(engine);
}

RunOutcome
runLua(unsigned workers, bool incremental)
{
    std::string src = guest::kernelSource() + guest::luaSource();
    Engine engine(machineFor(src), configFor(workers, incremental));
    auto &state = engine.initialState();
    std::string program = "!1+2;";
    for (size_t i = 0; i <= program.size(); ++i)
        state.mem.write(guest::kLuaInput + static_cast<uint32_t>(i),
                        Value(i < program.size() ? program[i] : 0), 1,
                        engine.builder());
    engine.makeMemSymbolic(state, guest::kLuaInput + 1, 1, "lua");
    return finishRun(engine);
}

RunOutcome
runPing(unsigned workers, bool incremental)
{
    std::string src = guest::kernelSource() +
                      guest::driverSource(DriverKind::Dma) +
                      guest::pingSource(/*patched=*/true);
    Engine engine(machineFor(src, guest::kRamSize, /*loopback=*/true),
                  configFor(workers, incremental));
    guest::setConfig(engine.initialState(), engine.builder(),
                     guest::kCfgCardType, 0);
    return finishRun(engine);
}

RunOutcome
runStress(unsigned workers, bool incremental)
{
    Engine engine(machineFor(stressSource(), 64 * 1024),
                  configFor(workers, incremental));
    return finishRun(engine);
}

// --- The differential check ----------------------------------------------

constexpr unsigned kWorkerCounts[] = {1, 2, 4};

/** Fresh-serial oracle vs incremental × {1, 2, 4} workers.
 *  expect_gates is separate from expect_reuse: constraints that blast
 *  to pure wiring (single-bit masks) create zero Tseitin gates, so
 *  their guards honestly save zero gates on reuse. */
void
expectIncrementalMatchesFresh(RunOutcome (*run)(unsigned, bool),
                              bool expect_reuse, bool expect_gates)
{
    RunOutcome fresh = run(1, /*incremental=*/false);
    EXPECT_EQ(fresh.ctxReuses, 0u) << "fresh oracle used the context";
    for (unsigned w : kWorkerCounts) {
        RunOutcome inc = run(w, /*incremental=*/true);
        EXPECT_EQ(fresh.paths, inc.paths)
            << "per-path outcomes diverged with " << w << " workers";
        EXPECT_EQ(fresh.forkTree, inc.forkTree)
            << "fork tree diverged with " << w << " workers";
        if (expect_reuse) {
            EXPECT_GT(inc.ctxReuses, 0u)
                << "no context reuse with " << w << " workers";
        }
        if (expect_gates) {
            EXPECT_GT(inc.gatesSaved, 0u)
                << "no gates saved with " << w << " workers";
        }
    }
}

TEST(IncrementalDifferential, LicenseCheck)
{
    expectIncrementalMatchesFresh(runLicense, /*expect_reuse=*/true,
                                  /*expect_gates=*/true);
}

TEST(IncrementalDifferential, UrlParser)
{
    expectIncrementalMatchesFresh(runUrlParser, /*expect_reuse=*/true,
                                  /*expect_gates=*/true);
}

TEST(IncrementalDifferential, LuaInterpreter)
{
    expectIncrementalMatchesFresh(runLua, /*expect_reuse=*/true,
                                  /*expect_gates=*/true);
}

TEST(IncrementalDifferential, PingConcretePath)
{
    // Concrete workload: exercises the binding/unbinding around
    // device, DMA and interrupt handling even when (almost) no
    // queries reach the SAT layer.
    expectIncrementalMatchesFresh(runPing, /*expect_reuse=*/false,
                                  /*expect_gates=*/false);
}

TEST(IncrementalDifferential, ForkStorm)
{
    // The nine testi constraints are single-bit extractions — all
    // wiring, no gates — so only reuse is asserted.
    expectIncrementalMatchesFresh(runStress, /*expect_reuse=*/true,
                                  /*expect_gates=*/false);
}

TEST(IncrementalDifferential, StressPathCountIsExact)
{
    RunOutcome inc = runStress(2, /*incremental=*/true);
    EXPECT_EQ(inc.paths.size(), 512u);
}

} // namespace
} // namespace s2e::core
