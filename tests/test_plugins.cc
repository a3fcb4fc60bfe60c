/** @file Tests for selectors and analyzers (the plugin suite). */

#include <gtest/gtest.h>

#include "core/engine.hh"
#include "core/replay/replayer.hh"
#include "guest/drivers.hh"
#include "guest/kernel.hh"
#include "plugins/annotation.hh"
#include "plugins/bugcheck.hh"
#include "plugins/codeselector.hh"
#include "plugins/energy.hh"
#include "plugins/coverage.hh"
#include "plugins/memchecker.hh"
#include "plugins/pathkiller.hh"
#include "plugins/perfprofile.hh"
#include "plugins/privacy.hh"
#include "plugins/racedetector.hh"
#include "plugins/searchers.hh"
#include "plugins/tracer.hh"
#include "vm/devices.hh"
#include "vm/nic.hh"

namespace s2e::plugins {
namespace {

using core::Engine;
using core::EngineConfig;
using core::StateStatus;

vm::MachineConfig
machineFor(const std::string &source)
{
    vm::MachineConfig m;
    m.ramSize = guest::kRamSize; // room for the guest stack at 0x7F000
    m.program = isa::assemble(source);
    m.deviceSetup = [](vm::DeviceSet &devices) {
        devices.add(std::make_unique<vm::ConsoleDevice>());
        devices.add(std::make_unique<vm::DmaNic>());
    };
    return m;
}

TEST(StaticBlocks, LinearSweepFindsBlocks)
{
    isa::Program p = isa::assemble(R"(
        .org 0x1000
    entry:
        movi r1, 0
        cmpi r1, 5
        jne skip
        addi r1, 1
    skip:
        hlt
    )");
    StaticBlocks blocks = staticBasicBlocks(p, 0x1000, 0x1100);
    // Blocks: entry..jne | addi | skip(hlt)
    EXPECT_EQ(blocks.count(), 3u);
    EXPECT_TRUE(blocks.starts.count(0x1000));
    EXPECT_TRUE(blocks.starts.count(p.symbol("skip")));
}

TEST(StaticBlocks, CallTargetsAreLeaders)
{
    isa::Program p = isa::assemble(R"(
        .org 0x1000
    main:
        call fn
        hlt
    fn:
        ret
    )");
    StaticBlocks blocks = staticBasicBlocks(p, 0x1000, 0x1100);
    EXPECT_TRUE(blocks.starts.count(p.symbol("fn")));
    EXPECT_EQ(blocks.count(), 3u); // main, after-call(hlt), fn
}

TEST(Coverage, TracksExecutedInstructions)
{
    const char *src = R"(
        .entry main
    main:
        movi sp, 0x8000
        s2e_symreg r1
        cmpi r1, 5
        jb low
        movi r2, 1
        hlt
    low:
        movi r2, 2
        hlt
    )";
    vm::MachineConfig m = machineFor(src);
    Engine engine(m, EngineConfig{});
    CoverageTracker coverage(engine);
    engine.run();
    // Both sides of the branch are covered across paths.
    EXPECT_GT(coverage.coveredInstructions(), 6u);
    StaticBlocks blocks = staticBasicBlocks(m.program, 0, 0x100);
    EXPECT_EQ(coverage.coveredBlocks(blocks), blocks.count());
    EXPECT_DOUBLE_EQ(coverage.coverageFraction(blocks), 1.0);
}

TEST(Coverage, TimelineGrowsMonotonically)
{
    Engine engine(machineFor(R"(
        .entry main
    main:
        movi sp, 0x8000
        s2e_symreg r1
        cmpi r1, 5
        jb a
    a:  hlt
    )"),
                  EngineConfig{});
    CoverageTracker coverage(engine);
    engine.run();
    const auto &timeline = coverage.timeline();
    ASSERT_FALSE(timeline.empty());
    for (size_t i = 1; i < timeline.size(); ++i) {
        EXPECT_GE(timeline[i].first, timeline[i - 1].first);
        EXPECT_GT(timeline[i].second, timeline[i - 1].second);
    }
}

TEST(Searchers, BfsVsDfsOrder)
{
    std::vector<core::ExecutionState *> fake;
    Engine engine(machineFor(".entry m\nm: hlt\n"), EngineConfig{});
    auto &s = engine.initialState();
    auto clone1 = s.clone(100);
    fake.push_back(&s);
    fake.push_back(clone1.get());
    DepthFirstSearcher dfs;
    BreadthFirstSearcher bfs;
    EXPECT_EQ(dfs.select(fake), clone1.get());
    EXPECT_EQ(bfs.select(fake), &s);
}

TEST(Searchers, RandomIsDeterministicPerSeed)
{
    Engine engine(machineFor(".entry m\nm: hlt\n"), EngineConfig{});
    auto &s = engine.initialState();
    auto c1 = s.clone(100);
    auto c2 = s.clone(101);
    std::vector<core::ExecutionState *> fake{&s, c1.get(), c2.get()};
    RandomSearcher a(7), b(7);
    for (int i = 0; i < 20; ++i)
        EXPECT_EQ(a.select(fake), b.select(fake));
}

TEST(Annotation, CallbackFiresAtPc)
{
    vm::MachineConfig m = machineFor(R"(
        .entry main
    main:
        movi r1, 1
    hook_site:
        movi r2, 2
        hlt
    )");
    uint32_t hook_pc = m.program.symbol("hook_site");
    Engine engine(m, EngineConfig{});
    Annotation annotation(engine);
    int fired = 0;
    annotation.at(hook_pc, [&](core::ExecutionState &state, Engine &) {
        fired++;
        EXPECT_EQ(state.cpu.regs[1].concrete(), 1u);
    });
    engine.run();
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(annotation.hitCount(hook_pc), 1u);
}

TEST(Annotation, CanInjectSymbolicValues)
{
    vm::MachineConfig m = machineFor(R"(
        .entry main
    main:
        movi sp, 0x8000
        movi r1, 42
    hook_site:
        cmpi r1, 42
        jeq same
        movi r2, 1
        hlt
    same:
        movi r2, 2
        hlt
    )");
    Engine engine(m, EngineConfig{});
    Annotation annotation(engine);
    annotation.at(m.program.symbol("hook_site"),
                  [](core::ExecutionState &state, Engine &eng) {
                      eng.makeRegSymbolic(state, 1, "injected");
                  });
    core::RunResult r = engine.run();
    EXPECT_EQ(r.statesCreated, 2u); // injection enabled both sides
}

TEST(Tracer, RecordsBlocksAndPortIo)
{
    Engine engine(machineFor(R"(
        .entry main
    main:
        movi r1, 'x'
        out 0x10, r1
        in r2, 0x11
        hlt
    )"),
                  EngineConfig{});
    ExecutionTracer tracer(engine);
    engine.run();
    ASSERT_EQ(tracer.finishedTraces().size(), 1u);
    const auto &trace = tracer.finishedTraces()[0].second.entries;
    int blocks = 0, outs = 0, ins = 0;
    for (const auto &e : trace) {
        if (e.kind == TraceEntry::Kind::Block)
            blocks++;
        if (e.kind == TraceEntry::Kind::PortOut) {
            outs++;
            EXPECT_EQ(e.addr, 0x10u);
            EXPECT_EQ(e.value, static_cast<uint32_t>('x'));
        }
        if (e.kind == TraceEntry::Kind::PortIn)
            ins++;
    }
    EXPECT_GE(blocks, 1);
    EXPECT_EQ(outs, 1);
    EXPECT_EQ(ins, 1);
}

TEST(PathKiller, KillsPollingLoop)
{
    Engine engine(machineFor(R"(
        .entry main
    main:
        jmp main              ; hot polling loop, no new coverage
    )"),
                  EngineConfig{});
    CoverageTracker coverage(engine);
    PathKiller::Config config;
    config.maxLoopVisits = 50;
    PathKiller killer(engine, coverage, config);
    core::RunResult r = engine.run();
    EXPECT_FALSE(r.budgetExhausted);
    EXPECT_EQ(killer.pathsKilled(), 1u);
    EXPECT_EQ(engine.allStates()[0]->status, StateStatus::Killed);
}

TEST(PathKiller, StagnationSweepKeepsOnePath)
{
    Engine engine(machineFor(R"(
        .entry main
    main:
        movi sp, 0x8000
        s2e_symreg r1
        cmpi r1, 5
        jb spin               ; both paths spin without new coverage
    spin:
        movi r2, 1000
    spin2:
        subi r2, 1
        cmpi r2, 0
        jne spin2
        hlt
    )"),
                  EngineConfig{});
    CoverageTracker coverage(engine);
    PathKiller::Config config;
    config.stagnationBlocks = 100;
    PathKiller killer(engine, coverage, config);
    engine.run();
    EXPECT_GE(killer.stagnationSweeps(), 1u);
}

TEST(PerfProfile, CountsAlongPaths)
{
    Engine engine(machineFor(R"(
        .entry main
    main:
        movi sp, 0x8000
        s2e_symreg r1
        cmpi r1, 5
        jb short_path
        ; long path: touch lots of memory
        movi r2, 0
        movi r3, 0x4000
    loop:
        stw [r3], r2
        addi r3, 64
        addi r2, 1
        cmpi r2, 100
        jb loop
        hlt
    short_path:
        hlt
    )"),
                  EngineConfig{});
    PerformanceProfile profile(engine);
    engine.run();
    ASSERT_EQ(profile.results().size(), 2u);
    auto env = profile.envelope();
    EXPECT_EQ(env.paths, 2u);
    EXPECT_GT(env.maxInstructions, env.minInstructions + 400);
    EXPECT_GT(env.maxCacheMisses, env.minCacheMisses);
}

TEST(PerfProfile, BestCaseSearchAbandonsWorsePaths)
{
    Engine engine(machineFor(R"(
        .entry main
    main:
        movi sp, 0x8000
        s2e_symreg r1
        cmpi r1, 5
        jb quick
        movi r2, 0
    slow:
        addi r2, 1
        cmpi r2, 2000
        jb slow
        hlt
    quick:
        hlt
    )"),
                  EngineConfig{});
    PerformanceProfile::Config config;
    config.findBestCase = true;
    PerformanceProfile profile(engine, config);
    // Breadth-first makes the quick path complete before the slow one
    // has executed 2000 iterations.
    engine.setSearcher(std::make_unique<BreadthFirstSearcher>());
    engine.run();
    EXPECT_GE(profile.pathsAbandoned(), 1u);
}

TEST(BugCheck, CollectsCrashWithInputs)
{
    const char *source = R"(
        .entry main
    main:
        movi sp, 0x8000
        s2e_symreg r1
        cmpi r1, 0x1234
        jne fine
        movi r9, 0x0FFFFFF0
        ldw r8, [r9]          ; out-of-bounds crash on the magic value
    fine:
        hlt
    )";
    EngineConfig config;
    config.emitWitnesses = true;
    Engine engine(machineFor(source), config);
    BugCheck bugcheck(engine);
    engine.run();
    ASSERT_GE(bugcheck.crashes().size(), 1u);
    const auto &crash = bugcheck.crashes()[0];
    EXPECT_EQ(crash.kind, "crash");

    // The reproduction input is the crashing path's witness.
    std::string path;
    for (const auto &s : engine.allStates())
        if (s->id() == crash.stateId)
            path = s->pathId();
    std::shared_ptr<const core::replay::Witness> witness;
    for (const auto &w : engine.witnesses())
        if (w->pathId == path)
            witness = w;
    ASSERT_TRUE(witness) << "no witness for crashing path " << path;
    // The reproduction input must be the magic value.
    ASSERT_EQ(witness->inputs.size(), 1u);
    EXPECT_EQ(witness->inputs[0].value, 0x1234u);

    // And it drives a solver-free replay to the crash.
    core::replay::ReplayEngine replay(machineFor(source), EngineConfig{},
                                      witness);
    core::replay::ReplayResult verdict = replay.run();
    EXPECT_TRUE(verdict.ok) << verdict.divergence;
    EXPECT_EQ(verdict.solverQueries, 0u);
    EXPECT_EQ(verdict.terminalStatus,
              static_cast<uint8_t>(StateStatus::Crashed));
    EXPECT_EQ(verdict.terminalPc, crash.pc);
}

TEST(MemChecker, DetectsOverflowThroughKernelHooks)
{
    std::string src = guest::kernelSource() + R"(
        .org 0x20000
    unit_main:
        movi sp, 0x7F000
        movi r0, 4
        movi r1, 16
        int 0x30
        mov r10, r1
        ; write one byte past the 16-byte chunk
        stb [r10+16], r1
        movi r0, 5
        mov r1, r10
        int 0x30
        hlt
        .entry unit_main
    )";
    vm::MachineConfig m = machineFor(src);
    core::EngineConfig config;
    config.unitRanges = {{0x20000, 0x28000}};
    Engine engine(m, config);
    Annotation annotation(engine);
    MemoryChecker::Config mc;
    mc.heapBase = guest::kHeapBase;
    mc.heapEnd = guest::kHeapEnd;
    mc.nullGuardEnd = 0x100;
    mc.allocReturnPc = m.program.symbol("sys_alloc_done");
    mc.freeEntryPc = m.program.symbol("sys_free_entry");
    MemoryChecker checker(engine, annotation, mc);
    engine.run();
    bool overflow = false;
    for (const auto &r : checker.reports())
        if (r.kind == "overflow")
            overflow = true;
    EXPECT_TRUE(overflow);
}

TEST(MemChecker, DetectsLeak)
{
    std::string src = guest::kernelSource() + R"(
        .org 0x20000
    unit_main:
        movi sp, 0x7F000
        movi r0, 4
        movi r1, 16
        int 0x30             ; allocated, never freed
        hlt
        .entry unit_main
    )";
    vm::MachineConfig m = machineFor(src);
    core::EngineConfig config;
    config.unitRanges = {{0x20000, 0x28000}};
    Engine engine(m, config);
    Annotation annotation(engine);
    MemoryChecker::Config mc;
    mc.heapBase = guest::kHeapBase;
    mc.heapEnd = guest::kHeapEnd;
    mc.allocReturnPc = m.program.symbol("sys_alloc_done");
    mc.freeEntryPc = m.program.symbol("sys_free_entry");
    MemoryChecker checker(engine, annotation, mc);
    engine.run();
    bool leak = false;
    for (const auto &r : checker.reports())
        if (r.kind == "leak")
            leak = true;
    EXPECT_TRUE(leak);
}

TEST(MemChecker, DetectsUseAfterFree)
{
    std::string src = guest::kernelSource() + R"(
        .org 0x20000
    unit_main:
        movi sp, 0x7F000
        movi r0, 4
        movi r1, 16
        int 0x30
        mov r10, r1
        movi r0, 5
        mov r1, r10
        int 0x30
        ldb r2, [r10+4]      ; read after free
        hlt
        .entry unit_main
    )";
    vm::MachineConfig m = machineFor(src);
    core::EngineConfig config;
    config.unitRanges = {{0x20000, 0x28000}};
    Engine engine(m, config);
    Annotation annotation(engine);
    MemoryChecker::Config mc;
    mc.heapBase = guest::kHeapBase;
    mc.heapEnd = guest::kHeapEnd;
    mc.allocReturnPc = m.program.symbol("sys_alloc_done");
    mc.freeEntryPc = m.program.symbol("sys_free_entry");
    MemoryChecker checker(engine, annotation, mc);
    engine.run();
    bool uaf = false;
    for (const auto &r : checker.reports())
        if (r.kind == "use-after-free")
            uaf = true;
    EXPECT_TRUE(uaf);
}

TEST(MemChecker, NullGuardCatchesNullDeref)
{
    std::string src = guest::kernelSource() + R"(
        .org 0x20000
    unit_main:
        movi sp, 0x7F000
        movi r10, 0
        stb [r10+4], r10     ; null write
        hlt
        .entry unit_main
    )";
    vm::MachineConfig m = machineFor(src);
    core::EngineConfig config;
    config.unitRanges = {{0x20000, 0x28000}};
    Engine engine(m, config);
    Annotation annotation(engine);
    MemoryChecker::Config mc;
    mc.heapBase = guest::kHeapBase;
    mc.heapEnd = guest::kHeapEnd;
    mc.nullGuardEnd = 0x100;
    mc.allocReturnPc = m.program.symbol("sys_alloc_done");
    mc.freeEntryPc = m.program.symbol("sys_free_entry");
    MemoryChecker checker(engine, annotation, mc);
    engine.run();
    bool null_deref = false;
    for (const auto &r : checker.reports())
        if (r.kind == "null-deref")
            null_deref = true;
    EXPECT_TRUE(null_deref);
}

TEST(RaceDetector, FlagsIsrMainlineConflict)
{
    // Mainline increments a counter with interrupts enabled while the
    // timer ISR also writes it.
    Engine engine(machineFor(R"(
        .org 0x100
        .word isr            ; timer vector
        .org 0x400
        .entry main
    main:
        movi sp, 0x8000
        movi r1, 20
        out 0x21, r1         ; timer period
        movi r1, 1
        out 0x20, r1         ; timer start
        sti
        movi r2, 0
    loop:
        movi r4, 0x6000
        ldw r5, [r4]         ; unprotected RMW on the shared counter
        addi r5, 1
        stw [r4], r5
        addi r2, 1
        cmpi r2, 50
        jb loop
        cli
        hlt
    isr:
        push r4
        push r5
        movi r4, 0x6000
        ldw r5, [r4]
        addi r5, 1
        stw [r4], r5
        pop r5
        pop r4
        iret
    )"),
                  EngineConfig{});
    // Add a timer device for this test.
    DataRaceDetector::Config config;
    config.watchBase = 0x6000;
    config.watchEnd = 0x6004;
    DataRaceDetector detector(engine, config);
    // The default machineFor has no timer; add via initial state.
    engine.initialState().devices.add(
        std::make_unique<vm::TimerDevice>());
    engine.run();
    ASSERT_GE(detector.reports().size(), 1u);
    EXPECT_EQ(detector.reports()[0].kind, "data-race");
}

TEST(CodeSelector, InclusionRangeGatesForking)
{
    // The symbolic branch lies outside the inclusion range: no fork.
    vm::MachineConfig m = machineFor(R"(
        .entry main
        .org 0x0
    main:
        movi sp, 0x8000
        s2e_symreg r1
        jmp outside
        .org 0x2000
    outside:
        cmpi r1, 5
        jb a
    a:  hlt
    )");
    Engine engine(m, EngineConfig{});
    CodeSelector selector(engine,
                          {{0x0, 0x1000, /*include=*/true}});
    core::RunResult r = engine.run();
    EXPECT_EQ(r.statesCreated, 1u); // concretized, not forked
    EXPECT_GT(selector.toggles(), 0u);
}

TEST(CodeSelector, ForkingAllowedInsideRange)
{
    vm::MachineConfig m = machineFor(R"(
        .entry main
    main:
        movi sp, 0x8000
        s2e_symreg r1
        cmpi r1, 5
        jb a
    a:  hlt
    )");
    Engine engine(m, EngineConfig{});
    CodeSelector selector(engine, {{0x0, 0x1000, true}});
    core::RunResult r = engine.run();
    EXPECT_EQ(r.statesCreated, 2u);
}

TEST(CodeSelector, ExclusionRangeDefaultsToMultiPath)
{
    CodeSelector::Range excl{0x5000, 0x6000, false};
    vm::MachineConfig m = machineFor(".entry m\nm: hlt\n");
    Engine engine(m, EngineConfig{});
    CodeSelector selector(engine, {excl});
    EXPECT_TRUE(selector.multiPathAt(0x100));
    EXPECT_FALSE(selector.multiPathAt(0x5800));
    EXPECT_TRUE(selector.multiPathAt(0x6000));
}

TEST(CodeSelector, FirstMatchingRangeWins)
{
    vm::MachineConfig m = machineFor(".entry m\nm: hlt\n");
    Engine engine(m, EngineConfig{});
    CodeSelector selector(engine, {{0x100, 0x200, false},
                                   {0x0, 0x1000, true}});
    EXPECT_FALSE(selector.multiPathAt(0x150));
    EXPECT_TRUE(selector.multiPathAt(0x250));
    EXPECT_FALSE(selector.multiPathAt(0x2000)); // outside all includes
}

TEST(EnergyProfile, MemoryHeavyPathCostsMore)
{
    Engine engine(machineFor(R"(
        .entry main
    main:
        movi sp, 0x8000
        s2e_symreg r1
        cmpi r1, 5
        jb cheap
        ; expensive path: loads, stores and multiplies
        movi r2, 0
        movi r3, 0x4000
    heavy:
        ldw r4, [r3]
        muli r4, 3
        stw [r3], r4
        addi r3, 4
        addi r2, 1
        cmpi r2, 30
        jb heavy
        hlt
    cheap:
        hlt
    )"),
                  EngineConfig{});
    EnergyProfile energy(engine);
    engine.run();
    ASSERT_EQ(energy.results().size(), 2u);
    auto [lo, hi] = energy.envelope();
    EXPECT_GT(hi, lo * 3); // the heavy loop dominates
    EXPECT_GE(energy.hungriestPath(), 0);
}

TEST(EnergyProfile, PerPathAccountingIsolated)
{
    Engine engine(machineFor(R"(
        .entry main
    main:
        movi sp, 0x8000
        s2e_symreg r1
        cmpi r1, 5
        jb a
    a:  hlt
    )"),
                  EngineConfig{});
    EnergyProfile energy(engine);
    engine.run();
    ASSERT_EQ(energy.results().size(), 2u);
    // Both paths executed nearly identical code: costs must be close.
    double a = energy.results()[0].picojoules;
    double b = energy.results()[1].picojoules;
    EXPECT_NEAR(a, b, std::max(a, b) * 0.5);
    EXPECT_GT(a, 0);
}

TEST(PrivacyAnalyzer, DetectsSecretLeakThroughCopying)
{
    // The guest copies the secret through memory, massages it, and
    // writes the derived value to a port: a leak must be reported.
    Engine engine(machineFor(R"(
        .entry main
    main:
        movi sp, 0x8000
        ; r1 already holds the secret (injected host-side)
        movi r3, 0x4000
        stw [r3], r1         ; copy through memory
        ldw r2, [r3]
        xori r2, 0x55        ; "encrypt"
        out 0x10, r2         ; ship it out
        hlt
    )"),
                  EngineConfig{});
    PrivacyAnalyzer privacy(engine);
    auto &state = engine.initialState();
    expr::ExprRef secret =
        engine.makeRegSymbolic(state, 1, "credit_card");
    privacy.markSecret(secret);
    engine.run();
    ASSERT_GE(privacy.leaks().size(), 1u);
    EXPECT_EQ(privacy.leaks()[0].kind, "privacy-leak");
}

TEST(PrivacyAnalyzer, NoFalseLeakForUnrelatedData)
{
    Engine engine(machineFor(R"(
        .entry main
    main:
        movi sp, 0x8000
        ; r1 already holds the secret (injected host-side)
        s2e_symreg r2        ; unrelated symbolic data
        out 0x10, r2
        movi r3, 7
        out 0x10, r3         ; concrete output
        hlt
    )"),
                  EngineConfig{});
    PrivacyAnalyzer privacy(engine);
    auto &state = engine.initialState();
    expr::ExprRef secret =
        engine.makeRegSymbolic(state, 1, "secret");
    privacy.markSecret(secret);
    engine.run();
    EXPECT_TRUE(privacy.leaks().empty());
}

TEST(PrivacyAnalyzer, MarkSecretRangeCoversMemory)
{
    Engine engine(machineFor(R"(
        .entry main
    main:
        movi sp, 0x8000
        movi r3, 0x4000
        ldb r2, [r3+2]       ; read one secret byte
        out 0x10, r2         ; leak it
        hlt
    )"),
                  EngineConfig{});
    PrivacyAnalyzer privacy(engine);
    auto &state = engine.initialState();
    engine.makeMemSymbolic(state, 0x4000, 8, "card_number");
    privacy.markSecretRange(state, 0x4000, 8);
    engine.run();
    ASSERT_GE(privacy.leaks().size(), 1u);
}

TEST(MaxCoverageSearcher, PrefersUncoveredStates)
{
    Engine engine(machineFor(".entry m\nm: hlt\n"), EngineConfig{});
    CoverageTracker coverage(engine);
    MaxCoverageSearcher searcher(coverage, 1);
    auto &s = engine.initialState();
    auto clone = s.clone(5);
    std::vector<core::ExecutionState *> active{&s, clone.get()};
    // Nothing covered yet: picks the first uncovered.
    EXPECT_EQ(searcher.select(active), &s);
}

} // namespace
} // namespace s2e::plugins
