/** @file Tests for the observability layer: phase profiler, fork-tree
 *  recorder, heartbeats, run reports — plus the event-hub unsubscribe
 *  and tracer-truncation plumbing they rely on. */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>

#include "core/engine.hh"
#include "obs/forktree.hh"
#include "obs/heartbeat.hh"
#include "obs/json.hh"
#include "obs/profiler.hh"
#include "obs/report.hh"
#include "plugins/tracer.hh"
#include "vm/devices.hh"

namespace s2e::obs {
namespace {

vm::MachineConfig
machineFor(const std::string &source, uint32_t ram = 256 * 1024)
{
    vm::MachineConfig m;
    m.ramSize = ram;
    m.program = isa::assemble(source);
    m.deviceSetup = [](vm::DeviceSet &devices) {
        devices.add(std::make_unique<vm::ConsoleDevice>());
    };
    return m;
}

/** Three sequential symbolic branches -> 8 paths, 7 forks. */
const char *kThreeBranches = R"(
        .entry main
    main:
        movi sp, 0x8000
        s2e_symreg r1
        movi r5, 0
        testi r1, 1
        jeq b1
        ori r5, 1
    b1: testi r1, 2
        jeq b2
        ori r5, 2
    b2: testi r1, 4
        jeq b3
        ori r5, 4
    b3: hlt
)";

// ---------------------------------------------------------------- Signal

TEST(Signal, UnsubscribeStopsDeliveryAndKeepsOtherHandlesValid)
{
    core::Signal<int> sig;
    EXPECT_TRUE(sig.empty());

    int a = 0, b = 0;
    size_t ha = sig.subscribe([&](int v) { a += v; });
    size_t hb = sig.subscribe([&](int v) { b += v; });
    EXPECT_FALSE(sig.empty());

    sig.emit(5);
    EXPECT_EQ(a, 5);
    EXPECT_EQ(b, 5);

    sig.unsubscribe(ha);
    sig.emit(3);
    EXPECT_EQ(a, 5); // no longer delivered
    EXPECT_EQ(b, 8); // hb unaffected

    sig.unsubscribe(hb);
    EXPECT_TRUE(sig.empty());

    // Double and stale unsubscribes are harmless no-ops.
    sig.unsubscribe(ha);
    sig.unsubscribe(12345);
    sig.emit(1);
    EXPECT_EQ(a, 5);
    EXPECT_EQ(b, 8);
}

// ------------------------------------------------------------- Profiler

uint64_t g_fakeNow = 0;
uint64_t
fakeClock()
{
    return g_fakeNow;
}

TEST(PhaseProfiler, ExclusiveTimeChargesInnermostSpanOnly)
{
    PhaseProfiler p(true);
    p.setClockForTest(&fakeClock);
    g_fakeNow = 0;

    p.push(Phase::ConcreteExec);
    g_fakeNow = 100;
    p.push(Phase::SymbolicExec); // 100ns so far belong to ConcreteExec
    g_fakeNow = 250;
    p.pop(); // 150ns belong to SymbolicExec
    g_fakeNow = 400;
    p.pop(); // another 150ns for ConcreteExec

    EXPECT_EQ(p.stat(Phase::ConcreteExec).spans, 1u);
    EXPECT_EQ(p.stat(Phase::ConcreteExec).exclusiveNanos, 250u);
    EXPECT_EQ(p.stat(Phase::SymbolicExec).spans, 1u);
    EXPECT_EQ(p.stat(Phase::SymbolicExec).exclusiveNanos, 150u);
    EXPECT_EQ(p.stat(Phase::Solver).spans, 0u);
    EXPECT_DOUBLE_EQ(p.totalSeconds(), 400e-9);
}

TEST(PhaseProfiler, NestedSameSpanAndReset)
{
    PhaseProfiler p(true);
    p.setClockForTest(&fakeClock);
    g_fakeNow = 0;

    p.push(Phase::Solver);
    g_fakeNow = 10;
    p.push(Phase::Solver); // nested solver-in-solver
    g_fakeNow = 30;
    p.pop();
    g_fakeNow = 35;
    p.pop();

    EXPECT_EQ(p.stat(Phase::Solver).spans, 2u);
    EXPECT_EQ(p.stat(Phase::Solver).exclusiveNanos, 35u);

    p.reset();
    EXPECT_EQ(p.stat(Phase::Solver).spans, 0u);
    EXPECT_DOUBLE_EQ(p.totalSeconds(), 0.0);
}

TEST(PhaseProfiler, DisabledRecordsNothing)
{
    PhaseProfiler p(false);
    p.setClockForTest(&fakeClock);
    g_fakeNow = 0;
    {
        PhaseSpan s(p, Phase::Translate);
        g_fakeNow = 1000;
    }
    EXPECT_EQ(p.stat(Phase::Translate).spans, 0u);
    EXPECT_DOUBLE_EQ(p.totalSeconds(), 0.0);

    // The nullable-pointer form used by the solver must also be safe.
    PhaseSpan null_span(static_cast<PhaseProfiler *>(nullptr),
                        Phase::Solver);
}

TEST(PhaseProfiler, FlushToStatsUsesSetSemantics)
{
    PhaseProfiler p(true);
    p.setClockForTest(&fakeClock);
    g_fakeNow = 0;
    p.push(Phase::Fork);
    g_fakeNow = 500;
    p.pop();

    Stats stats;
    p.flushTo(stats, "engine.phase");
    p.flushTo(stats, "engine.phase"); // repeat flush must not double
    EXPECT_DOUBLE_EQ(stats.seconds("engine.phase.fork"), 500e-9);
    EXPECT_EQ(stats.get("engine.phase.fork.spans"), 1u);
    EXPECT_EQ(stats.get("engine.phase.translate.spans"), 0u);
}

// ----------------------------------------------------------- JsonWriter

TEST(JsonWriter, SeparatorsAndEscaping)
{
    JsonWriter w;
    w.beginObject();
    w.field("a", 1);
    w.key("arr").beginArray();
    w.value(uint64_t(2)).value("x").value(true).null();
    w.endArray();
    w.field("s", std::string("q\"z\n"));
    w.field("f", 0.5);
    w.endObject();
    EXPECT_EQ(w.str(),
              "{\"a\":1,\"arr\":[2,\"x\",true,null],"
              "\"s\":\"q\\\"z\\n\",\"f\":0.5}");
}

TEST(JsonWriter, NonFiniteDoublesBecomeNull)
{
    JsonWriter w;
    w.beginArray().value(1.0 / 0.0).endArray();
    EXPECT_EQ(w.str(), "[null]");
}

// ------------------------------------------------------------ Fork tree

TEST(ForkTree, RecordsMultiPathRunAndDotRoundTrips)
{
    core::Engine engine(machineFor(kThreeBranches), core::EngineConfig{});
    ForkTreeRecorder recorder(engine.events());
    core::RunResult r = engine.run();
    ASSERT_EQ(r.statesCreated, 8u);

    EXPECT_EQ(recorder.forkCount(), 7u);
    EXPECT_EQ(recorder.nodes().size(), 8u);

    // Every non-root node has a parent that lists it as a child, a
    // recorded condition, and a terminal status. nodes() returns a
    // snapshot copy; take it once so lookups stay in one map.
    size_t roots = 0;
    const auto nodes = recorder.nodes();
    for (const auto &[id, node] : nodes) {
        EXPECT_TRUE(node.finished) << "state " << id;
        EXPECT_EQ(node.status, "halted");
        if (node.parent < 0) {
            roots++;
            continue;
        }
        EXPECT_FALSE(node.condition.empty());
        const ForkNode &parent = nodes.at(node.parent);
        EXPECT_NE(std::find(parent.children.begin(),
                            parent.children.end(), id),
                  parent.children.end());
    }
    EXPECT_EQ(roots, 1u);

    // DOT round-trip: re-parse the export and compare the node set and
    // edge set against the recorded tree.
    std::string dot = recorder.toDot();
    std::set<int> dot_nodes;
    std::set<std::pair<int, int>> dot_edges;
    std::istringstream in(dot);
    std::string line;
    while (std::getline(in, line)) {
        int from = 0, to = 0;
        if (std::sscanf(line.c_str(), "  n%d -> n%d", &from, &to) == 2)
            dot_edges.insert({from, to});
        else if (std::sscanf(line.c_str(), "  n%d [", &from) == 1)
            dot_nodes.insert(from);
    }
    std::set<int> expect_nodes;
    std::set<std::pair<int, int>> expect_edges;
    for (const auto &[id, node] : recorder.nodes()) {
        expect_nodes.insert(id);
        for (int child : node.children)
            expect_edges.insert({id, child});
    }
    EXPECT_EQ(dot_nodes, expect_nodes);
    EXPECT_EQ(dot_edges, expect_edges);
    EXPECT_EQ(dot_edges.size(), 7u);

    // JSON export carries the schema id and one entry per node.
    std::string json = recorder.toJson();
    EXPECT_NE(json.find("\"schema\":\"s2e.fork_tree.v1\""),
              std::string::npos);
    EXPECT_NE(json.find("\"forks\":7"), std::string::npos);
}

TEST(ForkTree, DestructorUnsubscribesFromTheHub)
{
    core::Engine engine(machineFor(kThreeBranches), core::EngineConfig{});
    {
        ForkTreeRecorder recorder(engine.events());
        EXPECT_FALSE(engine.events().onExecutionFork.empty());
    }
    EXPECT_TRUE(engine.events().onExecutionFork.empty());
    EXPECT_TRUE(engine.events().onStateKill.empty());
    engine.run(); // must not touch the destroyed recorder
}

// ------------------------------------------------------------ Heartbeat

TEST(Heartbeat, SamplesEveryNBlocks)
{
    core::Engine engine(machineFor(kThreeBranches), core::EngineConfig{});
    Heartbeat::Config config;
    config.everyBlocks = 1; // beat on every block
    config.log = false;
    Heartbeat heartbeat(engine, config);
    engine.run();

    const auto &records = heartbeat.records();
    ASSERT_FALSE(records.empty());
    uint64_t last_blocks = 0;
    for (const HeartbeatRecord &r : records) {
        EXPECT_GT(r.blocks, last_blocks);
        last_blocks = r.blocks;
        EXPECT_GE(r.wallSeconds, 0.0);
    }
    EXPECT_GT(records.back().instructions, 0u);
}

// ----------------------------------------------------------- Run report

TEST(RunReport, CapturesEngineAndFractionsSumBelowOne)
{
    core::EngineConfig config;
    config.profileExecution = true;
    core::Engine engine(machineFor(kThreeBranches), config);
    core::RunResult r = engine.run();

    RunReport report("test_run");
    report.captureEngine(engine, r);
    report.setMetric("paths", double(r.statesCreated));
    report.addNote("three-branch workload");

    EXPECT_EQ(report.states().size(), 8u);
    EXPECT_GT(report.phaseFractionSum(), 0.0);
    EXPECT_LE(report.phaseFractionSum(), 1.0);

    bool saw_symbolic = false;
    for (const auto &row : report.phases()) {
        EXPECT_GE(row.fraction, 0.0);
        if (row.name == "symbolic" && row.spans > 0)
            saw_symbolic = true;
    }
    EXPECT_TRUE(saw_symbolic);

    std::string json = report.toJson();
    EXPECT_NE(json.find("\"schema\":\"s2e.run_report.v1\""),
              std::string::npos);
    EXPECT_NE(json.find("\"phases\""), std::string::npos);
    EXPECT_NE(json.find("\"states\""), std::string::npos);
    EXPECT_NE(json.find("three-branch workload"), std::string::npos);

    long depth = 0;
    bool in_string = false, escaped = false;
    for (char c : json) {
        if (escaped) {
            escaped = false;
            continue;
        }
        if (c == '\\') {
            escaped = true;
        } else if (c == '"') {
            in_string = !in_string;
        } else if (!in_string) {
            if (c == '{' || c == '[')
                depth++;
            else if (c == '}' || c == ']')
                depth--;
        }
        EXPECT_GE(depth, 0);
    }
    EXPECT_EQ(depth, 0);
    EXPECT_FALSE(in_string);
}

TEST(RunReport, WriteFileRoundTrip)
{
    RunReport report("test_write");
    report.setMetric("answer", 42.0);
    std::string path = "test_obs_report_tmp.json";
    ASSERT_TRUE(report.writeFile(path));
    std::ifstream in(path);
    std::string contents((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
    std::remove(path.c_str());
    EXPECT_NE(contents.find("\"answer\":42"), std::string::npos);
}

// -------------------------------------------------- Engine integration

TEST(EngineProfile, DisabledProfilerStaysEmpty)
{
    core::EngineConfig config;
    config.profileExecution = false;
    core::Engine engine(machineFor(kThreeBranches), config);
    engine.run();
    EXPECT_FALSE(engine.profiler().enabled());
    EXPECT_DOUBLE_EQ(engine.profiler().totalSeconds(), 0.0);
    for (size_t i = 0; i < kNumPhases; ++i)
        EXPECT_EQ(engine.profiler().stat(static_cast<Phase>(i)).spans,
                  0u);
}

TEST(EngineProfile, SymbolicRunChargesSymbolicAndForkPhases)
{
    core::EngineConfig config;
    config.profileExecution = true;
    core::Engine engine(machineFor(kThreeBranches), config);
    engine.run();
    const PhaseProfiler &p = engine.profiler();
    EXPECT_GT(p.stat(Phase::Translate).spans, 0u);
    EXPECT_GT(p.stat(Phase::ConcreteExec).spans, 0u);
    EXPECT_GT(p.stat(Phase::SymbolicExec).spans, 0u);
    EXPECT_EQ(p.stat(Phase::Fork).spans, 7u);
    // run() flushed the breakdown into the stats registry.
    EXPECT_EQ(engine.stats().get("engine.phase.fork.spans"), 7u);
}

TEST(EngineProfile, SymbolicSpanOpensOncePerBlock)
{
    // One block (hlt ends it) whose ALU ops all read a symbolic
    // register: the symbolic span opens at the first and covers the
    // rest of the block, inside the slice's one concrete span.
    core::EngineConfig config;
    config.profileExecution = true;
    core::Engine engine(machineFor(R"(
        .entry main
    main:
        movi sp, 0x8000
        s2e_symreg r1
        add r2, r1
        xor r2, r1
        mul r2, r1
        hlt
    )"), config);
    core::RunResult r = engine.run();
    EXPECT_EQ(r.statesCreated, 1u);
    const PhaseProfiler &p = engine.profiler();
    EXPECT_EQ(p.stat(Phase::SymbolicExec).spans, 1u);
    EXPECT_EQ(p.stat(Phase::ConcreteExec).spans, 1u);

    RunReport report("one_block");
    report.captureEngine(engine, r);
    ASSERT_EQ(report.states().size(), 1u);
    EXPECT_GE(report.states()[0].symInstructions, 3u);
    EXPECT_GT(report.phaseFractionSum(), 0.0);
    EXPECT_LE(report.phaseFractionSum(), 1.0);
}

TEST(RunReport, WitnessExtractionStaysOutOfWorkerPhases)
{
    // Witnesses are extracted on their own thread with its own
    // profiler: the worker phase table still sums to at most one
    // workers x wall, and the extractor reports its own slots.
    for (unsigned workers : {1u, 4u}) {
        core::EngineConfig config;
        config.profileExecution = true;
        config.emitWitnesses = true;
        config.numWorkers = workers;
        core::Engine engine(machineFor(kThreeBranches), config);
        core::RunResult r = engine.run();
        EXPECT_EQ(r.witnessesEmitted, 8u);

        RunReport report("witness_run");
        report.captureEngine(engine, r);
        EXPECT_GT(report.phaseFractionSum(), 0.0) << workers;
        EXPECT_LE(report.phaseFractionSum(), 1.0) << workers;
        EXPECT_GE(engine.stats().get("engine.witness.backlog_peak"), 1u);
        std::string json = report.toJson();
        EXPECT_NE(json.find("engine.witness.extract_s"), std::string::npos);
        EXPECT_NE(json.find("engine.witness.backlog_peak"),
                  std::string::npos);
    }
}

TEST(EngineProfile, ConcreteSliceOpensOneSpan)
{
    // Eleven blocks, all concrete, in one 64-block timeslice.
    core::EngineConfig config;
    config.profileExecution = true;
    core::Engine engine(machineFor(R"(
        .entry main
    main:
        movi sp, 0x8000
        movi r10, 10
    loop:
        subi r10, 1
        cmpi r10, 0
        jne loop
        hlt
    )"), config);
    core::RunResult r = engine.run();
    const PhaseProfiler &p = engine.profiler();
    EXPECT_EQ(p.stat(Phase::ConcreteExec).spans, 1u);
    EXPECT_EQ(p.stat(Phase::SymbolicExec).spans, 0u);
    EXPECT_EQ(engine.stats().get("engine.phase.concrete.spans"), 1u);

    RunReport report("concrete_slice");
    report.captureEngine(engine, r);
    EXPECT_GT(report.phaseFractionSum(), 0.0);
    EXPECT_LE(report.phaseFractionSum(), 1.0);
}

// ------------------------------------------------------ Tracer dropped

TEST(TracerDropped, PerPathCapIsCountedNotSilent)
{
    core::Engine engine(machineFor(R"(
        .entry main
    main:
        movi sp, 0x8000
        movi r10, 20
    loop:
        subi r10, 1
        cmpi r10, 0
        jne loop
        hlt
    )"),
                        core::EngineConfig{});
    plugins::ExecutionTracer::Config config;
    config.maxEntriesPerPath = 4;
    plugins::ExecutionTracer tracer(engine, config);
    engine.run();

    ASSERT_EQ(tracer.finishedTraces().size(), 1u);
    const plugins::TraceState &trace = tracer.finishedTraces()[0].second;
    EXPECT_EQ(trace.entries.size(), 4u);
    EXPECT_GT(trace.dropped, 0u);
}

} // namespace
} // namespace s2e::obs
