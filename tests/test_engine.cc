/** @file End-to-end tests for the selective symbolic execution engine. */

#include <gtest/gtest.h>

#include <random>

#include "core/engine.hh"
#include "dbt/semantics.hh"
#include "expr/eval.hh"
#include "vm/devices.hh"
#include "vm/nic.hh"
#include "plugins/searchers.hh"

namespace s2e::core {
namespace {

using vm::ConsoleDevice;
using vm::DeviceSet;

vm::MachineConfig
machineFor(const std::string &source, uint32_t ram = 256 * 1024)
{
    vm::MachineConfig m;
    m.ramSize = ram;
    m.program = isa::assemble(source);
    m.deviceSetup = [](DeviceSet &devices) {
        devices.add(std::make_unique<ConsoleDevice>());
        devices.add(std::make_unique<vm::TimerDevice>());
        devices.add(std::make_unique<vm::DmaNic>());
    };
    return m;
}

/** Collect final register r-values of all terminated states. */
std::vector<uint32_t>
finalRegValues(Engine &engine, unsigned reg)
{
    std::vector<uint32_t> out;
    for (const auto &s : engine.allStates()) {
        const Value &v = s->cpu.regs[reg];
        if (v.isConcrete())
            out.push_back(v.concrete());
    }
    std::sort(out.begin(), out.end());
    return out;
}

/**
 * The micro-op table (dbt::evalBinary / dbt::evalUnary) against the
 * expression semantics: lowerAlu on constant operands must fold to the
 * table's value at width 32, and on variables (alone or mixed with a
 * constant, as the engine builds them) must evaluate to it, so the
 * builder's rewrites agree with the table too.
 */
TEST(Semantics, AluTableMatchesExpressionBuilder)
{
    std::vector<uint32_t> values = {0,          1,          31,
                                    32,         33,         0x7FFFFFFF,
                                    0x80000000, 0xFFFFFFFF};
    std::mt19937 rng(25);
    for (int i = 0; i < 8; ++i)
        values.push_back(static_cast<uint32_t>(rng()));

    ExprBuilder bld;
    ExprRef x = bld.var("x", 32);
    ExprRef y = bld.var("y", 32);
    expr::Evaluator ev;
    unsigned alu_ops = 0;
    for (unsigned u = 0; u <= static_cast<unsigned>(dbt::UOp::S2Op); ++u) {
        auto op = static_cast<dbt::UOp>(u);
        bool unary = dbt::isAluUnary(op);
        if (!unary && !dbt::isAluBinary(op))
            continue;
        alu_ops++;
        for (uint32_t a : values) {
            for (uint32_t b : values) {
                SCOPED_TRACE(testing::Message()
                             << "uop " << u << " a=" << a << " b=" << b);
                uint32_t want = unary ? dbt::evalUnary(op, a)
                                      : dbt::evalBinary(op, a, b);
                ExprRef ca = bld.constant(a, 32);
                ExprRef cb = unary ? nullptr : bld.constant(b, 32);
                ExprRef folded = lowerAlu(op, ca, cb, bld);
                ASSERT_TRUE(folded->isConstant());
                EXPECT_EQ(folded->width(), 32u);
                EXPECT_EQ(folded->value(), want);

                expr::Assignment asg;
                asg.set(x, a);
                asg.set(y, b);
                ev.reset(asg);
                EXPECT_EQ(ev.evaluate(lowerAlu(op, x, unary ? nullptr : y,
                                               bld)),
                          want);
                if (unary)
                    continue;
                EXPECT_EQ(ev.evaluate(lowerAlu(op, x, cb, bld)), want);
                EXPECT_EQ(ev.evaluate(lowerAlu(op, ca, y, bld)), want);
            }
        }
    }
    EXPECT_EQ(alu_ops, 18u);
}

TEST(Engine, ConcreteExecutionMatchesFastMachine)
{
    Engine engine(machineFor(R"(
        .entry main
    main:
        movi sp, 0x8000
        movi r1, 0
        movi r2, 1
    loop:
        add r1, r2
        addi r2, 1
        cmpi r2, 11
        jne loop
        hlt
    )"),
                  EngineConfig{});
    RunResult r = engine.run();
    EXPECT_EQ(r.statesCreated, 1u);
    EXPECT_EQ(r.completed, 1u);
    EXPECT_EQ(engine.allStates()[0]->cpu.regs[1].concrete(), 55u);
    EXPECT_EQ(engine.allStates()[0]->status, StateStatus::Halted);
}

TEST(Engine, SymbolicBranchForksTwoPaths)
{
    Engine engine(machineFor(R"(
        .entry main
    main:
        movi sp, 0x8000
        s2e_symreg r1
        cmpi r1, 100
        jb less
        movi r2, 2
        hlt
    less:
        movi r2, 1
        hlt
    )"),
                  EngineConfig{});
    RunResult r = engine.run();
    EXPECT_EQ(r.statesCreated, 2u);
    EXPECT_EQ(r.forks, 1u);
    EXPECT_EQ(finalRegValues(engine, 2), (std::vector<uint32_t>{1, 2}));
}

TEST(Engine, NestedForksEnumerateAllPaths)
{
    // Three sequential symbolic branches -> 8 paths.
    Engine engine(machineFor(R"(
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
    )"),
                  EngineConfig{});
    RunResult r = engine.run();
    EXPECT_EQ(r.statesCreated, 8u);
    EXPECT_EQ(finalRegValues(engine, 5),
              (std::vector<uint32_t>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(Engine, SymRangeConstrainsValues)
{
    // r1 in [5, 6]: exactly two paths through the equality ladder.
    Engine engine(machineFor(R"(
        .entry main
    main:
        movi sp, 0x8000
        s2e_symrange r1, 5, 6
        cmpi r1, 5
        jeq five
        movi r2, 60
        hlt
    five:
        movi r2, 50
        hlt
    )"),
                  EngineConfig{});
    RunResult r = engine.run();
    EXPECT_EQ(r.statesCreated, 2u);
    EXPECT_EQ(finalRegValues(engine, 2), (std::vector<uint32_t>{50, 60}));
}

TEST(Engine, InfeasibleBranchNotForked)
{
    Engine engine(machineFor(R"(
        .entry main
    main:
        movi sp, 0x8000
        s2e_symrange r1, 0, 9
        cmpi r1, 100
        ja impossible
        movi r2, 1
        hlt
    impossible:
        movi r2, 2
        hlt
    )"),
                  EngineConfig{});
    RunResult r = engine.run();
    EXPECT_EQ(r.statesCreated, 1u);
    EXPECT_EQ(engine.allStates()[0]->cpu.regs[2].concrete(), 1u);
}

TEST(Engine, S2KillSetsExitCode)
{
    Engine engine(machineFor(R"(
        .entry main
    main:
        s2e_kill 7
    )"),
                  EngineConfig{});
    engine.run();
    EXPECT_EQ(engine.allStates()[0]->status, StateStatus::Killed);
    EXPECT_EQ(engine.allStates()[0]->exitCode, 7u);
}

TEST(Engine, S2AssertConcreteFailureCrashes)
{
    Engine engine(machineFor(R"(
        .entry main
    main:
        movi r1, 0
        s2e_assert r1
        hlt
    )"),
                  EngineConfig{});
    int bugs = 0;
    engine.events().onBug.subscribe(
        [&](ExecutionState &, const std::string &) { bugs++; });
    engine.run();
    EXPECT_EQ(bugs, 1);
    EXPECT_EQ(engine.allStates()[0]->status, StateStatus::Crashed);
}

TEST(Engine, S2AssertSymbolicMayFailReportsBug)
{
    Engine engine(machineFor(R"(
        .entry main
    main:
        movi sp, 0x8000
        s2e_symrange r1, 0, 5
        s2e_assert r1      ; may be zero -> bug; survivors have r1 != 0
        hlt
    )"),
                  EngineConfig{});
    int bugs = 0;
    engine.events().onBug.subscribe(
        [&](ExecutionState &, const std::string &) { bugs++; });
    engine.run();
    EXPECT_EQ(bugs, 1);
    // The state survives with the constraint r1 != 0.
    EXPECT_EQ(engine.allStates()[0]->status, StateStatus::Halted);
    uint64_t v = 0;
    ASSERT_TRUE(engine.solver()
                    .getValue(engine.allStates()[0]->constraints,
                              engine.allStates()[0]->cpu.regs[1].toExpr(
                                  engine.builder()),
                              &v)
                    .isSat());
    EXPECT_NE(v, 0u);
}

TEST(Engine, ConsoleOutputIsPerPath)
{
    Engine engine(machineFor(R"(
        .entry main
        .equ CONSOLE, 0x10
    main:
        movi sp, 0x8000
        s2e_symreg r1
        cmpi r1, 10
        jb small
        movi r2, 'B'
        out CONSOLE, r2
        hlt
    small:
        movi r2, 'A'
        out CONSOLE, r2
        hlt
    )"),
                  EngineConfig{});
    engine.run();
    std::vector<std::string> outputs;
    for (const auto &s : engine.allStates()) {
        auto *console = s->devices.get<ConsoleDevice>("console");
        ASSERT_NE(console, nullptr);
        outputs.push_back(console->output());
    }
    std::sort(outputs.begin(), outputs.end());
    EXPECT_EQ(outputs, (std::vector<std::string>{"A", "B"}));
}

TEST(Engine, LazyConcretizationThroughMemory)
{
    // Symbolic value round-trips through memory without forcing a
    // concrete value; the branch afterwards still forks.
    Engine engine(machineFor(R"(
        .entry main
        .equ BUF, 0x4000
    main:
        movi sp, 0x8000
        s2e_symreg r1
        movi r3, BUF
        stw [r3], r1       ; symbolic data to memory
        ldw r2, [r3]       ; read it back
        cmpi r2, 42
        jeq yes
        movi r4, 0
        hlt
    yes:
        movi r4, 1
        hlt
    )"),
                  EngineConfig{});
    RunResult r = engine.run();
    EXPECT_EQ(r.statesCreated, 2u);
    EXPECT_EQ(finalRegValues(engine, 4), (std::vector<uint32_t>{0, 1}));
}

TEST(Engine, SubByteSymbolicMemoryAccess)
{
    // Store a symbolic word, read one byte of it.
    Engine engine(machineFor(R"(
        .entry main
        .equ BUF, 0x4000
    main:
        movi sp, 0x8000
        s2e_symreg r1
        movi r3, BUF
        stw [r3], r1
        ldb r2, [r3+1]     ; byte 1 of the symbolic word
        cmpi r2, 0x7F
        ja high
        movi r4, 0
        hlt
    high:
        movi r4, 1
        hlt
    )"),
                  EngineConfig{});
    RunResult r = engine.run();
    EXPECT_EQ(r.statesCreated, 2u);
}

TEST(Engine, SymbolicPointerTableLookup)
{
    // data[idx] for idx in [0,3]; checks the ite-chain resolution.
    Engine engine(machineFor(R"(
        .entry main
    main:
        movi sp, 0x8000
        s2e_symrange r1, 0, 3
        movi r3, table
        add r3, r1
        ldb r2, [r3]       ; symbolic pointer read
        cmpi r2, 30
        jeq hit
        movi r4, 0
        hlt
    hit:
        movi r4, 1
        hlt
        .align 4
    table:
        .byte 10, 20, 30, 40
    )"),
                  EngineConfig{});
    RunResult r = engine.run();
    // Two outcomes: r2 == 30 (idx 2) and r2 != 30.
    EXPECT_EQ(r.statesCreated, 2u);
    ASSERT_EQ(finalRegValues(engine, 4), (std::vector<uint32_t>{0, 1}));
    // On the hit path, idx must be 2.
    for (const auto &s : engine.allStates()) {
        if (s->cpu.regs[4].concrete() == 1) {
            uint64_t lo = 0, hi = 0;
            ASSERT_TRUE(engine.solver()
                            .getRange(s->constraints,
                                      s->cpu.regs[1].toExpr(
                                          engine.builder()),
                                      &lo, &hi)
                            .isSat());
            EXPECT_EQ(lo, 2u);
            EXPECT_EQ(hi, 2u);
        }
    }
}

TEST(Engine, S2DisDisablesForking)
{
    Engine engine(machineFor(R"(
        .entry main
    main:
        movi sp, 0x8000
        s2e_symreg r1
        s2e_dis
        cmpi r1, 100
        jb less
        movi r2, 2
        hlt
    less:
        movi r2, 1
        hlt
    )"),
                  EngineConfig{});
    RunResult r = engine.run();
    EXPECT_EQ(r.statesCreated, 1u); // concretized instead of forked
}

TEST(Engine, ScCeIgnoresSymbolicInjection)
{
    EngineConfig config;
    config.model = ConsistencyModel::ScCe;
    Engine engine(machineFor(R"(
        .entry main
    main:
        movi sp, 0x8000
        movi r1, 7
        s2e_symreg r1       ; no-op under SC-CE
        cmpi r1, 100
        jb less
        movi r2, 2
        hlt
    less:
        movi r2, 1
        hlt
    )"),
                  config);
    RunResult r = engine.run();
    EXPECT_EQ(r.statesCreated, 1u);
    EXPECT_EQ(engine.allStates()[0]->cpu.regs[2].concrete(), 1u);
}

TEST(Engine, UnitRangesRestrictForking)
{
    // The branch lives outside the unit: under LC, a symbolic branch
    // in the environment aborts the path.
    vm::MachineConfig m = machineFor(R"(
        .entry main
        .org 0x0
    main:
        movi sp, 0x8000
        s2e_symreg r1
        jmp envcode
        .org 0x1000
    envcode:
        cmpi r1, 100      ; environment branches on symbolic data
        jb less
        movi r2, 2
        hlt
    less:
        movi r2, 1
        hlt
    )");
    EngineConfig config;
    config.model = ConsistencyModel::Lc;
    config.unitRanges = {{0x0, 0x1000}}; // env starts at 0x1000
    Engine engine(m, config);
    RunResult r = engine.run();
    EXPECT_EQ(r.statesCreated, 1u);
    EXPECT_EQ(r.aborted, 1u);
    EXPECT_EQ(engine.allStates()[0]->status, StateStatus::Aborted);
}

TEST(Engine, ScUeConcretizesEnvironmentBranch)
{
    vm::MachineConfig m = machineFor(R"(
        .entry main
        .org 0x0
    main:
        movi sp, 0x8000
        s2e_symreg r1
        jmp envcode
        .org 0x1000
    envcode:
        cmpi r1, 100
        jb less
        movi r2, 2
        hlt
    less:
        movi r2, 1
        hlt
    )");
    EngineConfig config;
    config.model = ConsistencyModel::ScUe;
    config.unitRanges = {{0x0, 0x1000}};
    Engine engine(m, config);
    RunResult r = engine.run();
    // One path only: the env branch was concretized, not forked.
    EXPECT_EQ(r.statesCreated, 1u);
    EXPECT_EQ(r.aborted, 0u);
    EXPECT_EQ(engine.allStates()[0]->status, StateStatus::Halted);
}

TEST(Engine, ScSeForksInEnvironment)
{
    vm::MachineConfig m = machineFor(R"(
        .entry main
        .org 0x0
    main:
        movi sp, 0x8000
        s2e_symreg r1
        jmp envcode
        .org 0x1000
    envcode:
        cmpi r1, 100
        jb less
        movi r2, 2
        hlt
    less:
        movi r2, 1
        hlt
    )");
    EngineConfig config;
    config.model = ConsistencyModel::ScSe;
    config.unitRanges = {{0x0, 0x1000}};
    Engine engine(m, config);
    RunResult r = engine.run();
    EXPECT_EQ(r.statesCreated, 2u);
}

TEST(Engine, RcCcForksWithoutFeasibility)
{
    // Under RC-CC even an infeasible edge is followed.
    EngineConfig config;
    config.model = ConsistencyModel::RcCc;
    Engine engine(machineFor(R"(
        .entry main
    main:
        movi sp, 0x8000
        s2e_symrange r1, 0, 9
        cmpi r1, 100
        ja impossible       ; infeasible, but RC-CC follows it anyway
        movi r2, 1
        hlt
    impossible:
        movi r2, 2
        hlt
    )"),
                  config);
    RunResult r = engine.run();
    EXPECT_EQ(r.statesCreated, 2u);
    EXPECT_EQ(finalRegValues(engine, 2), (std::vector<uint32_t>{1, 2}));
}

TEST(Engine, SoftwareInterruptDispatch)
{
    Engine engine(machineFor(R"(
        .entry main
        .org 0x100          ; interrupt vector table
        .space 0xC0         ; vectors 0..0x2F
        .word syscall       ; vector 0x30
        .org 0x400
    main:
        movi sp, 0x8000
        movi r1, 5
        int 0x30
        addi r1, 100        ; after return: r1 = 5*2 + 100
        hlt
    syscall:
        add r1, r1
        iret
    )"),
                  EngineConfig{});
    RunResult r = engine.run();
    EXPECT_EQ(r.completed, 1u);
    EXPECT_EQ(engine.allStates()[0]->cpu.regs[1].concrete(), 110u);
}

TEST(Engine, UnhandledInterruptCrashes)
{
    Engine engine(machineFor(R"(
        .entry main
    main:
        movi sp, 0x8000
        int 0x5            ; vector table empty -> handler 0
        hlt
    )"),
                  EngineConfig{});
    engine.run();
    EXPECT_EQ(engine.allStates()[0]->status, StateStatus::Crashed);
}

TEST(Engine, TimerInterruptFires)
{
    Engine engine(machineFor(R"(
        .entry main
        .equ TIMER_CTRL, 0x20
        .equ TIMER_PERIOD, 0x21
        .org 0x100
        .word timer_isr     ; vector 0 = timer
        .org 0x400
    main:
        movi sp, 0x8000
        movi r5, 0          ; tick counter
        movi r1, 50
        out TIMER_PERIOD, r1
        movi r1, 1
        out TIMER_CTRL, r1
        sti
    wait:
        cmpi r5, 3
        jb wait
        cli
        hlt
    timer_isr:
        addi r5, 1
        iret
    )"),
                  EngineConfig{});
    RunResult r = engine.run();
    EXPECT_EQ(r.completed, 1u);
    EXPECT_EQ(engine.allStates()[0]->cpu.regs[5].concrete(), 3u);
}

TEST(Engine, NicDmaTransmit)
{
    Engine engine(machineFor(R"(
        .entry main
        .equ NIC_CMD, 0x50
        .equ NIC_TXADDR, 0x52
        .equ NIC_TXLEN, 0x53
        .equ PKT, 0x4000
    main:
        movi sp, 0x8000
        movi r1, PKT
        movi r2, 0x11223344
        stw [r1], r2
        out NIC_TXADDR, r1
        movi r2, 4
        out NIC_TXLEN, r2
        movi r2, 2          ; TXSTART
        out NIC_CMD, r2
        hlt
    )"),
                  EngineConfig{});
    engine.run();
    auto *nic = engine.allStates()[0]->devices.get<vm::DmaNic>("dmanic");
    ASSERT_NE(nic, nullptr);
    ASSERT_EQ(nic->transmitted().size(), 1u);
    EXPECT_EQ(nic->transmitted()[0],
              (std::vector<uint8_t>{0x44, 0x33, 0x22, 0x11}));
}

TEST(Engine, SymbolicHardwareReturnsSymbolic)
{
    EngineConfig config;
    config.model = ConsistencyModel::ScSe;
    config.symbolicPortRanges = {{0x50, 0x57}}; // the DMA NIC
    Engine engine(machineFor(R"(
        .entry main
        .equ NIC_STATUS, 0x51
    main:
        movi sp, 0x8000
        in r1, NIC_STATUS   ; symbolic hardware
        testi r1, 1
        jeq notready
        movi r2, 1
        hlt
    notready:
        movi r2, 0
        hlt
    )"),
                  config);
    RunResult r = engine.run();
    EXPECT_EQ(r.statesCreated, 2u); // both hardware behaviors explored
}

TEST(Engine, GetInitialValuesGiveCrashInputs)
{
    // The engine can produce the concrete input that reaches a branch.
    Engine engine(machineFor(R"(
        .entry main
    main:
        movi sp, 0x8000
        s2e_symreg r1
        cmpi r1, 0xDEAD
        jne ok
        s2e_kill 1         ; "crash" on the magic value
    ok:
        hlt
    )"),
                  EngineConfig{});
    engine.run();
    const ExecutionState *crash_state = nullptr;
    for (const auto &s : engine.allStates())
        if (s->status == StateStatus::Killed)
            crash_state = s.get();
    ASSERT_NE(crash_state, nullptr);
    expr::Assignment model;
    ASSERT_TRUE(engine.solver()
                    .getInitialValues(crash_state->constraints, &model)
                    .isSat());
    // Reconstruct r1's initial value from the model: it must be 0xDEAD.
    // r1 held the lone symbolic variable.
    ASSERT_EQ(model.values().size(), 1u);
    EXPECT_EQ(model.values().begin()->second, 0xDEADu);
}

TEST(Engine, EventsFireDuringRun)
{
    Engine engine(machineFor(R"(
        .entry main
    main:
        movi sp, 0x8000
        s2e_symreg r1
        cmpi r1, 5
        jb a
    a:  movi r2, 1
        stw [sp-4], r2
        hlt
    )"),
                  EngineConfig{});
    int forks = 0, blocks = 0, mem_accesses = 0, kills = 0;
    engine.events().onExecutionFork.subscribe(
        [&](const ForkInfo &) { forks++; });
    engine.events().onBlockExecute.subscribe(
        [&](ExecutionState &, const dbt::TranslationBlock &) { blocks++; });
    engine.events().onMemoryAccess.subscribe(
        [&](ExecutionState &, const MemAccessInfo &) { mem_accesses++; });
    engine.events().onStateKill.subscribe(
        [&](ExecutionState &) { kills++; });
    engine.run();
    EXPECT_EQ(forks, 1);
    EXPECT_GT(blocks, 0);
    EXPECT_GT(mem_accesses, 0);
    EXPECT_EQ(kills, 2);
}

TEST(Engine, InstrMarkingFiresExecutionEvents)
{
    Engine engine(machineFor(R"(
        .entry main
    main:
        movi r1, 0
    loop:
        addi r1, 1
        cmpi r1, 5
        jne loop
        hlt
    )"),
                  EngineConfig{});
    // Mark only the addi instruction (it is at pc 6).
    int executions = 0;
    engine.events().onInstrTranslation.subscribe(
        [](ExecutionState &, uint32_t, const isa::Instruction &instr,
           bool *mark) {
            if (instr.op == isa::Opcode::AddI)
                *mark = true;
        });
    engine.events().onInstrExecution.subscribe(
        [&](ExecutionState &, uint32_t) { executions++; });
    engine.run();
    EXPECT_EQ(executions, 5); // the loop body ran 5 times
}

TEST(Engine, InstructionBudgetStopsRun)
{
    EngineConfig config;
    config.maxInstructions = 500;
    Engine engine(machineFor(R"(
        .entry main
    main:
        jmp main
    )"),
                  config);
    RunResult r = engine.run();
    EXPECT_TRUE(r.budgetExhausted);
    EXPECT_EQ(engine.allStates()[0]->status,
              StateStatus::BudgetExceeded);
}

TEST(Engine, MaxStatesSuppressesForks)
{
    EngineConfig config;
    config.maxStatesCreated = 4;
    Engine engine(machineFor(R"(
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
    )"),
                  config);
    RunResult r = engine.run();
    EXPECT_LE(r.statesCreated, 4u);
}

TEST(Engine, OutOfBoundsAccessCrashes)
{
    Engine engine(machineFor(R"(
        .entry main
    main:
        movi r1, 0x0FFFFFF0   ; beyond 256 KB RAM, below MMIO
        ldw r2, [r1]
        hlt
    )"),
                  EngineConfig{});
    engine.run();
    EXPECT_EQ(engine.allStates()[0]->status, StateStatus::Crashed);
}

TEST(Engine, SelfModifyingCodeWorksSymbolically)
{
    Engine engine(machineFor(R"(
        .entry main
    main:
        movi r5, 0
    loop:
    site:
        movi r9, 111
        cmpi r5, 1
        jeq done
        movi r1, site+2
        movi r2, 222
        stb [r1], r2
        addi r5, 1
        jmp loop
    done:
        hlt
    )"),
                  EngineConfig{});
    engine.run();
    EXPECT_EQ(engine.allStates()[0]->cpu.regs[9].concrete(), 222u);
}

TEST(Engine, ForkDepthTracksLineage)
{
    Engine engine(machineFor(R"(
        .entry main
    main:
        movi sp, 0x8000
        s2e_symreg r1
        cmpi r1, 5
        jb a
    a:  cmpi r1, 50
        jb b
    b:  hlt
    )"),
                  EngineConfig{});
    engine.run();
    uint32_t max_depth = 0;
    for (const auto &s : engine.allStates())
        max_depth = std::max(max_depth, s->forkDepth());
    EXPECT_GE(max_depth, 1u);
    // Parent ids must refer to existing states.
    for (const auto &s : engine.allStates()) {
        if (s->parentId() >= 0) {
            EXPECT_LT(static_cast<size_t>(s->parentId()),
                      engine.allStates().size());
        }
    }
}

TEST(Engine, SymbolicMmioHardware)
{
    // MMIO reads from a configured range return fresh symbolic data.
    EngineConfig config;
    config.model = ConsistencyModel::ScSe;
    config.symbolicMmioRanges = {{0xF0001000u, 0xF0001010u}};
    vm::MachineConfig m;
    m.ramSize = 64 * 1024;
    m.program = isa::assemble(R"(
        .entry main
    main:
        movi sp, 0x8000
        movi r3, 0xF0001000
        ldw r1, [r3+4]       ; symbolic MMIO read
        cmpi r1, 0
        jeq zero
        movi r2, 1
        hlt
    zero:
        movi r2, 0
        hlt
    )");
    m.deviceSetup = [](DeviceSet &devices) {
        devices.add(std::make_unique<vm::MmioNic>());
    };
    Engine engine(m, config);
    RunResult r = engine.run();
    EXPECT_EQ(r.statesCreated, 2u);
    EXPECT_GT(engine.stats().get("engine.symbolic_hardware_reads"), 0u);
}

TEST(Engine, MmioUnmappedAccessCrashes)
{
    Engine engine(machineFor(R"(
        .entry main
    main:
        movi r3, 0xF0FF0000  ; MMIO window, no device there
        ldw r1, [r3]
        hlt
    )"),
                  EngineConfig{});
    engine.run();
    EXPECT_EQ(engine.allStates()[0]->status, StateStatus::Crashed);
}

TEST(Engine, SymbolicPointerWindowConstrains)
{
    // With a small window, a wide symbolic pointer gets constrained
    // into one window (the paper's soft page-granularity constraint).
    EngineConfig config;
    config.symPointerWindow = 32;
    Engine engine(machineFor(R"(
        .entry main
    main:
        movi sp, 0x8000
        s2e_symrange r1, 0, 200  ; wider than the 32-byte window
        movi r3, 0x4000
        add r3, r1
        ldb r2, [r3]
        hlt
    )"),
                  config);
    engine.run();
    EXPECT_GT(engine.stats().get(
                  "engine.symbolic_pointer_window_constrained"),
              0u);
    // The surviving path's pointer must fit one 32-byte window.
    const auto &state = *engine.allStates()[0];
    uint64_t lo = 0, hi = 0;
    ASSERT_TRUE(engine.solver()
                    .getRange(state.constraints,
                              state.cpu.regs[1].toExpr(engine.builder()),
                              &lo, &hi)
                    .isSat());
    EXPECT_LE(hi - lo, 31u);
}

TEST(Engine, ForkStatePluginApi)
{
    // `site` is a jump target, so it leads its own translation block:
    // a fork at its first instruction re-executes only that block in
    // the child, preserving the injected register value.
    Engine engine(machineFor(R"(
        .entry main
    main:
        movi sp, 0x8000
        movi r1, 5
        jmp site
    site:
        cmpi r1, 0
        jeq injected
        movi r2, 1
        hlt
    injected:
        movi r2, 2
        hlt
    )"),
                  EngineConfig{});
    // Eagerly fork at `site` and make the child take the failure
    // value — the environment-behavior injection DDT+ uses.
    vm::MachineConfig m2 = machineFor("nop\n"); // for symbol lookup only
    (void)m2;
    bool done = false;
    engine.events().onInstrTranslation.subscribe(
        [&](ExecutionState &, uint32_t, const isa::Instruction &instr,
            bool *mark) {
            if (instr.op == isa::Opcode::Cmp ||
                instr.op == isa::Opcode::CmpI)
                *mark = true;
        });
    engine.events().onInstrExecution.subscribe(
        [&](ExecutionState &state, uint32_t) {
            if (done)
                return;
            done = true;
            ExecutionState *child = engine.forkState(state);
            ASSERT_NE(child, nullptr);
            child->cpu.regs[1] = core::Value(0u);
        });
    engine.run();
    std::vector<uint32_t> results = finalRegValues(engine, 2);
    EXPECT_EQ(results, (std::vector<uint32_t>{1, 2}));
}

TEST(Engine, IretRestoresSymbolicFlags)
{
    // Flags packed/unpacked across an interrupt survive even when
    // they are symbolic at delivery time.
    Engine engine(machineFor(R"(
        .entry main
        .org 0x100
        .space 0xC0
        .word handler        ; vector 0x30
        .org 0x400
    main:
        movi sp, 0x8000
        s2e_symrange r1, 0, 9
        cmpi r1, 5           ; symbolic flags now live
        int 0x30             ; push/pop them across the syscall
        jb less
        movi r2, 1
        hlt
    less:
        movi r2, 2
        hlt
    handler:
        iret
    )"),
                  EngineConfig{});
    RunResult r = engine.run();
    // The branch after iret still sees the symbolic comparison.
    EXPECT_EQ(r.statesCreated, 2u);
    EXPECT_EQ(finalRegValues(engine, 2), (std::vector<uint32_t>{1, 2}));
}

TEST(Engine, StatsTrackSolverAndForks)
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
    engine.run();
    EXPECT_GT(engine.solver().stats().get("solver.queries"), 0u);
    EXPECT_EQ(engine.stats().get("engine.forks"), 1u);
    EXPECT_GT(engine.stats().get("engine.memory_high_watermark"), 0u);
}

// --- Solver resilience: graceful degradation under injected faults ---

TEST(Engine, FaultInjectedForkPointDegradesNotDrops)
{
    // Force Unknown on the two checkBranch queries at the only fork
    // point. The engine must suppress the fork, follow the
    // concrete-evaluated side, and finish the run — never lose both
    // sides, never pretend the branch was infeasible.
    Engine engine(machineFor(R"(
        .entry main
    main:
        movi sp, 0x8000
        s2e_symreg r1
        cmpi r1, 100
        jb less
        movi r2, 2
        hlt
    less:
        movi r2, 1
        hlt
    )"),
                  EngineConfig{});
    int degrade_events = 0;
    bool saw_fatal = false;
    engine.events().onSolverDegraded.subscribe(
        [&](ExecutionState &, const SolverDegradeInfo &info) {
            degrade_events++;
            saw_fatal = saw_fatal || info.fatal;
        });
    // Queries 1+2 = checkBranch's two sides; query 3 (the degradation
    // getValue fallback) succeeds and picks the concrete side.
    solver::FaultPolicy policy;
    policy.enabled = true;
    policy.triggerQueries = {1, 2};
    engine.solver().setFaultPolicy(policy);

    RunResult r = engine.run();
    EXPECT_EQ(r.forks, 0u); // fork suppressed...
    EXPECT_EQ(r.statesCreated, 1u);
    EXPECT_EQ(r.completed, 1u); // ...but the run completes
    EXPECT_EQ(r.solverFailures, 0u);
    EXPECT_EQ(r.degradedStates, 1u);
    EXPECT_GE(degrade_events, 1);
    EXPECT_FALSE(saw_fatal);
    EXPECT_GT(engine.stats().get("engine.solver_degraded"), 0u);
    EXPECT_GT(engine.stats().get("engine.forks_suppressed_degraded"), 0u);
    // The surviving state took exactly one side under a constraint
    // (never both dropped): r2 is 1 or 2 and the state is degraded.
    const auto &s = *engine.allStates()[0];
    EXPECT_TRUE(s.degraded);
    EXPECT_GE(s.degradeCount, 1u);
    uint32_t r2 = s.cpu.regs[2].concrete();
    EXPECT_TRUE(r2 == 1 || r2 == 2);
    EXPECT_FALSE(s.constraints.empty());
}

TEST(Engine, UnknownPlusUnsatBranchForcesDefiniteSideWithoutFallback)
{
    // Degraded branch with one *definite* side: the true side times
    // out but the false side is proved infeasible, so the true side is
    // forced — the engine must take it directly, without spending the
    // concretization getValue query the both-Unknown path needs.
    Engine engine(machineFor(R"(
        .entry main
    main:
        movi sp, 0x8000
        s2e_symreg r1
        movi r2, 0
        cmpi r1, 10
        jb low
        hlt                ; r1 >= 10: no further branches
    low:
        cmpi r1, 20        ; under r1 < 10: true side forced
        jb lower
        movi r2, 9         ; infeasible side
        hlt
    lower:
        movi r2, 1
        hlt
    )"),
                  EngineConfig{});
    // Queries 1+2 fork the first branch. Query 3 (second branch, true
    // side) is forced Unknown; query 4 (false side, r1 >= 20 under
    // r1 < 10) is genuinely Unsat.
    solver::FaultPolicy policy;
    policy.enabled = true;
    policy.triggerQueries = {3};
    engine.solver().setFaultPolicy(policy);

    RunResult r = engine.run();
    EXPECT_EQ(r.forks, 1u);
    EXPECT_EQ(r.statesCreated, 2u);
    EXPECT_EQ(r.completed, 2u);
    EXPECT_EQ(r.solverFailures, 0u);
    EXPECT_EQ(r.degradedStates, 1u);
    EXPECT_GT(engine.stats().get("engine.forks_suppressed_degraded"), 0u);
    // Exactly 4 facade queries: the forced side needed no getValue.
    EXPECT_EQ(engine.solver().queryCount(), 4u);
    for (const auto &s : engine.allStates()) {
        ASSERT_TRUE(s->cpu.regs[2].isConcrete());
        uint32_t r2 = s->cpu.regs[2].concrete();
        if (s->degraded) {
            // The degraded path took the forced (feasible) side, never
            // the infeasible r2 = 9 one.
            EXPECT_EQ(r2, 1u);
            EXPECT_GE(s->degradeCount, 1u);
        } else {
            EXPECT_EQ(r2, 0u);
        }
    }
}

TEST(Engine, FaultInjectedConcretizeKillsWithSolverFailure)
{
    // Every query returns Unknown: the store-address concretization
    // cannot produce a value, so the state dies as SolverFailure (not
    // Unsat — the path was never proved infeasible).
    Engine engine(machineFor(R"(
        .entry main
    main:
        movi sp, 0x8000
        s2e_symreg r1
        stw [r1], r1       ; symbolic store address -> concretize
        hlt
    )"),
                  EngineConfig{});
    solver::FaultPolicy policy;
    policy.enabled = true;
    policy.unknownRate = 1.0;
    engine.solver().setFaultPolicy(policy);

    RunResult r = engine.run();
    EXPECT_EQ(r.solverFailures, 1u);
    EXPECT_EQ(r.degradedStates, 0u);
    EXPECT_EQ(engine.allStates()[0]->status, StateStatus::SolverFailure);
    EXPECT_GT(engine.stats().get("engine.solver_failures"), 0u);
}

TEST(Engine, RateBasedFaultRunCompletesAndAccounts)
{
    // 10%-Unknown storm over a multi-branch program: the run must
    // complete without panic, and every state is accounted for —
    // cleanly completed, degraded, or killed as a solver failure.
    Engine engine(machineFor(R"(
        .entry main
    main:
        movi sp, 0x8000
        s2e_symreg r1
        s2e_symreg r2
        cmpi r1, 10
        jb a
    a:  cmpi r2, 20
        jb c
    c:  cmpi r1, 50
        jb e
    e:  hlt
    )"),
                  EngineConfig{});
    solver::FaultPolicy policy;
    policy.enabled = true;
    policy.seed = 7;
    policy.unknownRate = 0.10;
    engine.solver().setFaultPolicy(policy);

    RunResult r = engine.run();
    EXPECT_GT(engine.solver().stats().get("solver.faults_injected"), 0u);
    // Every created state ended in an accounted bucket.
    size_t accounted = 0;
    for (const auto &s : engine.allStates()) {
        EXPECT_FALSE(s->isActive());
        switch (s->status) {
          case StateStatus::Halted:
          case StateStatus::Killed:
          case StateStatus::SolverFailure:
            accounted++;
            break;
          default:
            break;
        }
    }
    EXPECT_EQ(accounted, r.statesCreated);
    EXPECT_EQ(r.completed + r.solverFailures, r.statesCreated);
    // The storm actually bit somewhere: at least one degradation or
    // failure was recorded (seed 7 at 10% over dozens of queries).
    EXPECT_GE(engine.stats().get("engine.solver_degraded") +
                  engine.stats().get("engine.solver_failures"),
              1u);
}

TEST(Engine, DegradedFlagInheritedByForkedChildren)
{
    // A degradation before a later fork point marks both resulting
    // paths as best-effort (the blind spot taints the whole subtree).
    Engine engine(machineFor(R"(
        .entry main
    main:
        movi sp, 0x8000
        s2e_symreg r1
        s2e_symreg r2
        cmpi r1, 100
        jb less
    less:
        cmpi r2, 7
        jb tiny
    tiny:
        hlt
    )"),
                  EngineConfig{});
    // Degrade only the first branch (queries 1 and 2), let everything
    // after succeed (query 3 = fallback getValue, 4+5 = second branch).
    solver::FaultPolicy policy;
    policy.enabled = true;
    policy.triggerQueries = {1, 2};
    engine.solver().setFaultPolicy(policy);

    RunResult r = engine.run();
    EXPECT_EQ(r.forks, 1u); // second branch still forks
    EXPECT_EQ(r.statesCreated, 2u);
    EXPECT_EQ(r.degradedStates, 2u); // child inherited the flag
    for (const auto &s : engine.allStates())
        EXPECT_TRUE(s->degraded);
}

} // namespace
} // namespace s2e::core
