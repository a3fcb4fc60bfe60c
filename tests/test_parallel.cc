/**
 * @file
 * Worker-count differential suite: exploration must produce exactly
 * the same *set* of paths at every worker count — only scheduling
 * order may differ. Every workload runs at numWorkers ∈ {1, 2, 4} and
 * the per-path outcomes (terminal status, final registers and flags, a
 * memory digest, console output and the solver-generated test case)
 * are compared keyed by the deterministic path id. Also covers the
 * Searcher as each worker's pick policy (live at every worker count,
 * pinned selection order at one worker), the canonical fork-tree
 * property (a parallel run's sorted `s2e.fork_tree.v1` JSON
 * byte-matches the 1-worker one) and the relaxed-atomic Stats slots
 * under thread contention.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "core/engine.hh"
#include "guest/drivers.hh"
#include "guest/kernel.hh"
#include "guest/layout.hh"
#include "guest/workloads.hh"
#include "obs/forktree.hh"
#include "obs/report.hh"
#include "plugins/searchers.hh"
#include "support/differential.hh"
#include "support/stats.hh"
#include "tools/ddt.hh"

namespace s2e::core {
namespace {

using difftest::differentialConfig;
using difftest::expectSamePathSets;
using difftest::machineFor;
using difftest::pathFingerprints;
using difftest::stressSource;
using guest::DriverKind;

constexpr unsigned kWorkerCounts[] = {2, 4};

std::string
workersLabel(unsigned workers)
{
    return strprintf("%u workers", workers);
}

// --- Workload runners ----------------------------------------------------

/** Install `searcher` on `engine` unless it is null (keep the
 *  default depth-first one). */
void
maybeSetSearcher(Engine &engine, std::unique_ptr<Searcher> searcher)
{
    if (searcher)
        engine.setSearcher(std::move(searcher));
}

std::map<std::string, std::string>
runLicense(unsigned workers, std::unique_ptr<Searcher> searcher = nullptr)
{
    std::string src = guest::kernelSource() + guest::licenseCheckSource();
    Engine engine(machineFor(src), differentialConfig(workers));
    maybeSetSearcher(engine, std::move(searcher));
    auto &state = engine.initialState();
    uint32_t key_addr = guest::addConfigString(state, engine.builder(), 0,
                                               "AAAAAAAA");
    guest::setConfig(state, engine.builder(), guest::kCfgLicensePtr,
                     key_addr);
    engine.makeMemSymbolic(state, key_addr, guest::kLicenseKeyLen,
                           "license");
    engine.run();
    return pathFingerprints(engine);
}

std::map<std::string, std::string>
runUrlParser(unsigned workers)
{
    std::string src = guest::kernelSource() + guest::urlParserSource();
    Engine engine(machineFor(src), differentialConfig(workers));
    auto &state = engine.initialState();
    std::string url = "http://ab"; // two symbolic tail bytes + NUL
    for (size_t i = 0; i <= url.size(); ++i)
        state.mem.write(guest::kUrlBuffer + static_cast<uint32_t>(i),
                        Value(i < url.size() ? url[i] : 0), 1,
                        engine.builder());
    engine.makeMemSymbolic(state, guest::kUrlBuffer + 7, 2, "url");
    engine.run();
    return pathFingerprints(engine);
}

std::map<std::string, std::string>
runLua(unsigned workers)
{
    std::string src = guest::kernelSource() + guest::luaSource();
    Engine engine(machineFor(src), differentialConfig(workers));
    auto &state = engine.initialState();
    std::string program = "!1+2;";
    for (size_t i = 0; i <= program.size(); ++i)
        state.mem.write(guest::kLuaInput + static_cast<uint32_t>(i),
                        Value(i < program.size() ? program[i] : 0), 1,
                        engine.builder());
    // One symbolic byte in operand position: the lexer forks on its
    // character class, the interpreter on the value.
    engine.makeMemSymbolic(state, guest::kLuaInput + 1, 1, "lua");
    engine.run();
    return pathFingerprints(engine);
}

std::map<std::string, std::string>
runPing(unsigned workers)
{
    std::string src = guest::kernelSource() +
                      guest::driverSource(DriverKind::Dma) +
                      guest::pingSource(/*patched=*/true);
    Engine engine(machineFor(src, guest::kRamSize, /*loopback=*/true),
                  differentialConfig(workers));
    guest::setConfig(engine.initialState(), engine.builder(),
                     guest::kCfgCardType, 0);
    engine.run();
    return pathFingerprints(engine);
}

std::map<std::string, std::string>
runStress(unsigned workers, std::unique_ptr<Searcher> searcher = nullptr)
{
    Engine engine(machineFor(stressSource(), 64 * 1024),
                  differentialConfig(workers));
    maybeSetSearcher(engine, std::move(searcher));
    engine.run();
    return pathFingerprints(engine);
}

/**
 * Branches that never fork: re-tests of already-taken conditions and
 * a masked bound check. Three forking bits give eight paths; each
 * re-test and the bound check must be decided, not forked, by the
 * solver against the path constraints.
 */
const char *
retestSource()
{
    return R"(
        .entry main
    main:
        movi sp, 0x8000
        s2e_symreg r1
        movi r5, 0
        testi r1, 1
        jeq b1
        ori r5, 1
    b1: testi r1, 1      ; re-test
        jeq b2
        ori r5, 16
    b2: testi r1, 2
        jeq b3
        ori r5, 2
    b3: testi r1, 2      ; re-test
        jeq b4
        ori r5, 32
    b4: testi r1, 4
        jeq b5
        ori r5, 4
    b5: mov r6, r1
        andi r6, 255     ; masked bound check: always below 256
        cmpi r6, 256
        jb b6
        movi r5, 99      ; unreachable
    b6: hlt
    )";
}

std::map<std::string, std::string>
runRetest(unsigned workers)
{
    Engine engine(machineFor(retestSource(), 64 * 1024),
                  differentialConfig(workers));
    engine.run();
    return pathFingerprints(engine);
}

/** DDT+ over the PIO NIC under SC-SE: the only symbolic input is the
 *  hardware and the workload terminates without run budgets. DDT+
 *  installs its own seeded RandomSearcher; `dfs` replaces it with the
 *  depth-first oracle. */
std::map<std::string, std::string>
runDdtPio(unsigned workers, uint64_t searcher_seed, bool dfs)
{
    tools::DdtConfig config;
    config.driver = DriverKind::Pio;
    config.model = ConsistencyModel::ScSe;
    config.annotations = false;
    config.maxInstructions = 0;
    config.maxWallSeconds = 0;
    config.numWorkers = workers;
    config.searcherSeed = searcher_seed;
    config.solverOptions.useModelCache = false;
    tools::Ddt ddt(config);
    if (dfs)
        ddt.engine().setSearcher(
            std::make_unique<plugins::DepthFirstSearcher>());
    ddt.run();
    return pathFingerprints(ddt.engine());
}

// --- Differential tests --------------------------------------------------

TEST(ParallelDifferential, LicenseCheckPathSetInvariant)
{
    auto serial = runLicense(1);
    EXPECT_GT(serial.size(), 4u); // the key ladder forks many paths
    for (unsigned w : kWorkerCounts)
        expectSamePathSets(serial, runLicense(w), workersLabel(w));
}

TEST(ParallelDifferential, UrlParserPathSetInvariant)
{
    auto serial = runUrlParser(1);
    EXPECT_GT(serial.size(), 2u);
    for (unsigned w : kWorkerCounts)
        expectSamePathSets(serial, runUrlParser(w), workersLabel(w));
}

TEST(ParallelDifferential, LuaPathSetInvariant)
{
    auto serial = runLua(1);
    EXPECT_GT(serial.size(), 2u);
    for (unsigned w : kWorkerCounts)
        expectSamePathSets(serial, runLua(w), workersLabel(w));
}

TEST(ParallelDifferential, PingPathSetInvariant)
{
    // Single concrete path: exercises devices, DMA and interrupt
    // delivery under the worker pool.
    auto serial = runPing(1);
    EXPECT_GE(serial.size(), 1u);
    for (unsigned w : kWorkerCounts)
        expectSamePathSets(serial, runPing(w), workersLabel(w));
}

TEST(ParallelDifferential, ForkStormPathSetInvariant)
{
    // ≥ 500 live states: stresses the work-stealing queue, the shared
    // TB cache and concurrent fork bookkeeping.
    auto serial = runStress(1);
    EXPECT_EQ(serial.size(), 512u);
    for (unsigned w : kWorkerCounts)
        expectSamePathSets(serial, runStress(w), workersLabel(w));
}

// The re-test workload is the one built for abstract interpretation:
// every non-forking branch in it is statically decidable. The query
// pipeline must decide them all the same, at every worker count.

TEST(AbsintEngineDifferential, RetestWorkload)
{
    auto serial = runRetest(1);
    EXPECT_EQ(serial.size(), 8u); // 3 forking bits, no bogus forks
    for (unsigned w : kWorkerCounts)
        expectSamePathSets(serial, runRetest(w), workersLabel(w));
}

TEST(AbsintEngineDifferential, RetestPathCountIsExactAndPruned)
{
    Engine engine(machineFor(retestSource(), 64 * 1024),
                  differentialConfig(1));
    RunResult r = engine.run();
    // Only the three first tests fork: each re-test and the masked
    // bound check has its infeasible side pruned.
    EXPECT_EQ(r.forks, 7u);
    EXPECT_EQ(r.statesCreated, 8u);
    // r5 = 17*b0 + 34*b1 + 4*b2 on every path: each re-test takes the
    // side its first test took, and the unreachable block (r5 = 99)
    // never runs.
    std::set<uint32_t> r5s;
    for (const auto &s : engine.allStates()) {
        EXPECT_EQ(s->status, StateStatus::Halted) << s->pathId();
        ASSERT_TRUE(s->cpu.regs[5].isConcrete()) << s->pathId();
        r5s.insert(static_cast<uint32_t>(s->cpu.regs[5].concrete()));
    }
    EXPECT_EQ(r5s, (std::set<uint32_t>{0, 4, 17, 21, 34, 38, 51, 55}));
}

TEST(ParallelDifferential, WorkerTelemetryReported)
{
    // One worker is a pool of one: it reports its busy time like any
    // other pool. Pooled phase seconds are normalized by workers ×
    // wall-clock, so the fractions sum to at most 1 at any count.
    for (unsigned workers : {1u, 2u, 4u}) {
        EngineConfig config = differentialConfig(workers);
        config.profileExecution = true;
        Engine engine(machineFor(stressSource(), 64 * 1024), config);
        RunResult r = engine.run();
        EXPECT_EQ(r.workers, workers);
        ASSERT_EQ(r.workerBusySeconds.size(), workers);
        double busy = 0;
        for (double s : r.workerBusySeconds) {
            EXPECT_GE(s, 0.0);
            busy += s;
        }
        EXPECT_GT(busy, 0.0);
        EXPECT_EQ(r.statesCreated, 512u);
        EXPECT_EQ(r.completed, 512u);

        obs::RunReport report("telemetry");
        report.captureEngine(engine, r);
        EXPECT_GT(report.phaseFractionSum(), 0.0) << workersLabel(workers);
        EXPECT_LE(report.phaseFractionSum(), 1.0) << workersLabel(workers);
    }
}

// --- The Searcher picks within each worker's shard -----------------------

/** Depth-first, counting its select() calls. The count is a plain
 *  integer on purpose: the engine serializes every Searcher call under
 *  one mutex, and the tsan gate flags any call that escapes it. */
class CountingSearcher : public Searcher
{
  public:
    explicit CountingSearcher(uint64_t &calls) : calls_(calls) {}
    const char *name() const override { return "counting-dfs"; }
    ExecutionState *
    select(const std::vector<ExecutionState *> &active) override
    {
        ++calls_;
        return active.back();
    }

  private:
    uint64_t &calls_;
};

TEST(SearcherPerWorker, SelectIsCalledAtEveryWorkerCount)
{
    auto oracle = runStress(1);
    for (unsigned w : kWorkerCounts) {
        uint64_t calls = 0;
        auto run = runStress(w, std::make_unique<CountingSearcher>(calls));
        EXPECT_GT(calls, 0u) << "Searcher never consulted with "
                             << workersLabel(w);
        expectSamePathSets(oracle, run, workersLabel(w));
    }
}

TEST(SearcherPerWorker, RandomSearcherPathSetsMatchDepthFirst)
{
    // No state budget: every schedule explores the whole tree, so
    // random picks change the order in which paths run, never the set.
    // DDT+ installs RandomSearcher(searcherSeed) itself.
    auto license = runLicense(1);
    auto storm = runStress(1);
    auto ddt = runDdtPio(1, 7, /*dfs=*/true);
    EXPECT_GT(ddt.size(), 4u);
    for (unsigned w : {1u, 2u, 4u}) {
        std::string what = "random@" + workersLabel(w);
        expectSamePathSets(
            license,
            runLicense(w, std::make_unique<plugins::RandomSearcher>(7)),
            "license " + what);
        expectSamePathSets(
            storm,
            runStress(w, std::make_unique<plugins::RandomSearcher>(7)),
            "storm " + what);
        expectSamePathSets(ddt, runDdtPio(w, 7, /*dfs=*/false),
                           "ddt " + what);
    }
}

/** FNV-1a-64 of `text`, as 16 hex digits. */
std::string
fnvDigest(const std::string &text)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    for (char c : text)
        h = (h ^ static_cast<uint8_t>(c)) * 0x100000001b3ULL;
    return strprintf("%016llx", static_cast<unsigned long long>(h));
}

/** Path ids in the order a 1-worker fork storm retired them. The state
 *  budget runs out mid-storm, so the order of picks decides which
 *  paths exist at all; short timeslices make every path return to
 *  its shard many times before it ends. */
std::string
retirementOrder(std::unique_ptr<Searcher> searcher)
{
    EngineConfig config = differentialConfig(1);
    config.maxStatesCreated = 40;
    config.timesliceBlocks = 4;
    Engine engine(machineFor(stressSource(), 64 * 1024), config);
    engine.setSearcher(std::move(searcher));
    std::string order;
    engine.events().onStateKill.subscribe(
        [&order](ExecutionState &s) { order += s.pathId() + " "; });
    RunResult r = engine.run();
    EXPECT_EQ(r.statesCreated, 40u);
    EXPECT_EQ(r.completed, 40u);
    return order;
}

TEST(SearcherPerWorker, OneWorkerSelectionOrderIsPinned)
{
    // Pins every pick of a 1-worker run: what the Searcher is shown at
    // each select (its shard, in insertion order, with terminated
    // states gone) and when states retire. Record new digests only with
    // the reason.
    std::string dfs =
        retirementOrder(std::make_unique<plugins::DepthFirstSearcher>());
    std::string bfs =
        retirementOrder(std::make_unique<plugins::BreadthFirstSearcher>());
    EXPECT_NE(dfs, bfs);
    EXPECT_EQ(fnvDigest(dfs), "9589e55b85bc10bf") << dfs;
    EXPECT_EQ(fnvDigest(bfs), "ab5d98c4b52fe69a") << bfs;
}

// --- Fork-tree canonicalization property ---------------------------------

TEST(ParallelForkTree, CanonicalJsonMatchesSerialByteForByte)
{
    auto canonical_tree = [](unsigned workers) {
        Engine engine(machineFor(stressSource(), 64 * 1024),
                      differentialConfig(workers));
        obs::ForkTreeRecorder recorder(engine.events());
        engine.run();
        return recorder.toCanonicalJson();
    };
    std::string serial = canonical_tree(1);
    EXPECT_NE(serial.find("\"s2e.fork_tree.v1\""), std::string::npos);
    EXPECT_NE(serial.find("\"canonical\":true"), std::string::npos);
    for (unsigned w : kWorkerCounts)
        EXPECT_EQ(serial, canonical_tree(w))
            << "canonical fork tree diverged with " << w << " workers";
}

// --- Relaxed-atomic hot counters under contention ------------------------

TEST(ParallelStats, SlotCountersSurviveContention)
{
    Stats stats;
    uint64_t &counter = stats.counterSlot("hammer.count");
    uint64_t &watermark = stats.counterSlot("hammer.max");
    SiteCounterCache sites(stats, "hammer.site");
    static const char *kSites[4] = {"alpha", "beta", "gamma", "delta"};

    constexpr unsigned kThreads = 8;
    constexpr uint64_t kIters = 20000;
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] {
            for (uint64_t i = 0; i < kIters; ++i) {
                Stats::bump(counter);
                Stats::raiseTo(watermark, t * kIters + i + 1);
                Stats::bump(sites.slot(kSites[(t + i) % 4]));
            }
        });
    for (auto &th : threads)
        th.join();

    EXPECT_EQ(Stats::read(counter), kThreads * kIters);
    EXPECT_EQ(Stats::read(watermark), kThreads * kIters);
    uint64_t site_total = 0;
    for (const char *site : kSites)
        site_total += Stats::read(sites.slot(site));
    EXPECT_EQ(site_total, kThreads * kIters);
}

TEST(ParallelStats, RaiseToIsAtomicMaxUnderRacingWriters)
{
    // Adversarial watermark audit: writers race strictly *descending*
    // sequences from different starting points. A read-compare-store
    // raiseTo loses the race when a smaller value lands between the
    // read and the store; the CAS max loop must always converge on
    // the global maximum, and never move downward at any point.
    Stats stats;
    uint64_t &watermark = stats.counterSlot("race.max");
    constexpr unsigned kThreads = 8;
    constexpr uint64_t kIters = 50000;
    constexpr uint64_t kTrueMax = kThreads * kIters;
    std::atomic<bool> go{false};
    std::atomic<bool> sawDecrease{false};
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] {
            while (!go.load(std::memory_order_acquire)) {
            }
            // Thread t publishes (t+1)*kIters down to t*kIters+1, so
            // high maxima are proposed early and every later proposal
            // tries to drag the watermark down.
            uint64_t prev = 0;
            for (uint64_t i = 0; i < kIters; ++i) {
                Stats::raiseTo(watermark, (t + 1) * kIters - i);
                uint64_t now = Stats::read(watermark);
                if (now < prev)
                    sawDecrease.store(true, std::memory_order_relaxed);
                prev = now;
            }
        });
    go.store(true, std::memory_order_release);
    for (auto &th : threads)
        th.join();
    EXPECT_EQ(Stats::read(watermark), kTrueMax);
    EXPECT_FALSE(sawDecrease.load());
}

} // namespace
} // namespace s2e::core
