/**
 * @file
 * Static-analysis framework tests: the TB verifier (one seeded
 * corruption per invariant), the dataflow passes, the optimization
 * pipeline, differential equivalence of optimized vs naive execution
 * over the guest workloads, and static CFG recovery with the
 * static-vs-multi-path diff.
 */

#include <gtest/gtest.h>

#include <set>

#include "analysis/cfg.hh"
#include "analysis/dataflow.hh"
#include "analysis/passes.hh"
#include "analysis/verifier.hh"
#include "core/engine.hh"
#include "dbt/fastexec.hh"
#include "dbt/semantics.hh"
#include "guest/drivers.hh"
#include "guest/kernel.hh"
#include "guest/layout.hh"
#include "guest/workloads.hh"
#include "plugins/tracer.hh"
#include "support/logging.hh"
#include "tools/ddt.hh"
#include "tools/rev.hh"
#include "vm/devices.hh"
#include "vm/nic.hh"

namespace s2e::analysis {
namespace {

using dbt::MicroOp;
using dbt::TranslationBlock;
using dbt::UOp;

// --- Builders --------------------------------------------------------------

MicroOp
op(UOp o, uint16_t dst = 0, uint16_t a = 0, uint16_t b = 0,
   uint32_t imm = 0, uint8_t reg = 0)
{
    MicroOp m;
    m.op = o;
    m.dst = dst;
    m.a = a;
    m.b = b;
    m.imm = imm;
    m.reg = reg;
    return m;
}

/** One-instruction TB from a raw op list. */
TranslationBlock
makeTb(std::vector<MicroOp> ops, uint16_t num_temps)
{
    TranslationBlock tb;
    tb.pc = 0x1000;
    tb.byteSize = 1;
    tb.numTemps = num_temps;
    tb.ops = std::move(ops);
    tb.instrPcs = {0x1000};
    tb.instrOpIndex = {0};
    tb.marked = {false};
    tb.origOpCount = static_cast<uint32_t>(tb.ops.size());
    tb.origNumTemps = num_temps;
    return tb;
}

dbt::Translator
rawTranslator()
{
    dbt::TranslatorConfig c;
    c.optimize = false;
    c.verify = false;
    return dbt::Translator(c);
}

/** Translate the first block of an assembled source. */
std::shared_ptr<TranslationBlock>
translateFirst(const std::string &source, dbt::Translator &&t)
{
    dbt::FastMachine m(64 * 1024);
    m.load(isa::assemble(source));
    dbt::CodeReader reader = [&m](uint32_t a, uint8_t *out) {
        if (a >= m.mem.size())
            return false;
        *out = m.mem[a];
        return true;
    };
    return t.translate(m.pc, reader);
}

// --- Verifier: valid blocks ------------------------------------------------

TEST(Verifier, AcceptsTranslatedBlocks)
{
    for (const char *src : {
             "movi r1, 5\n add r1, r1\n hlt\n",
             "movi r1, 1\n cmpi r1, 5\n jne done\n done: hlt\n",
             "movi r1, 0x100\n ldw r2, [r1]\n stw [r1+4], r2\n hlt\n",
             "s2e_symreg r1\n cmpi r1, 3\n jeq t\n t: hlt\n",
             "movi r1, 2\n push r1\n pop r2\n ret\n",
         }) {
        auto tb = translateFirst(src, rawTranslator());
        VerifyResult r = verifyBlock(*tb);
        EXPECT_TRUE(r.ok) << src << ": " << r.error;
    }
}

TEST(Verifier, AcceptsEmptyDecodeFaultBlock)
{
    TranslationBlock tb;
    tb.pc = 0x1000;
    EXPECT_TRUE(verifyBlock(tb).ok);
}

// --- Verifier: seeded corruptions, one per invariant -----------------------

TEST(Verifier, RejectsMissingTerminator)
{
    auto tb = makeTb({op(UOp::Const, 0, 0, 0, 7)}, 1);
    VerifyResult r = verifyBlock(tb);
    ASSERT_FALSE(r.ok);
    EXPECT_NE(r.error.find("terminator"), std::string::npos);
}

TEST(Verifier, RejectsTerminatorMidBlock)
{
    auto tb = makeTb({op(UOp::Goto, 0, 0, 0, 0x2000),
                      op(UOp::Goto, 0, 0, 0, 0x2000)},
                     0);
    VerifyResult r = verifyBlock(tb);
    ASSERT_FALSE(r.ok);
    EXPECT_EQ(r.opIndex, 0u);
}

TEST(Verifier, RejectsUseBeforeDefinition)
{
    // t0 consumed by SetReg before anything defines it.
    auto tb = makeTb({op(UOp::SetReg, 0, /*a=*/0, 0, 0, /*reg=*/1),
                      op(UOp::Halt)},
                     1);
    VerifyResult r = verifyBlock(tb);
    ASSERT_FALSE(r.ok);
    EXPECT_NE(r.error.find("before definition"), std::string::npos);
}

TEST(Verifier, RejectsOperandTempOutOfRange)
{
    auto tb = makeTb({op(UOp::Const, 0, 0, 0, 1),
                      op(UOp::Add, 0, /*a=*/0, /*b=*/9), op(UOp::Halt)},
                     1);
    VerifyResult r = verifyBlock(tb);
    ASSERT_FALSE(r.ok);
    EXPECT_NE(r.error.find("out of range"), std::string::npos);
}

TEST(Verifier, RejectsDstTempOutOfRange)
{
    auto tb = makeTb({op(UOp::Const, /*dst=*/5, 0, 0, 1), op(UOp::Halt)},
                     1);
    ASSERT_FALSE(verifyBlock(tb).ok);
}

TEST(Verifier, RejectsRegisterIdOutOfRange)
{
    auto tb = makeTb({op(UOp::GetReg, 0, 0, 0, 0, /*reg=*/16),
                      op(UOp::Halt)},
                     1);
    VerifyResult r = verifyBlock(tb);
    ASSERT_FALSE(r.ok);
    EXPECT_NE(r.error.find("register"), std::string::npos);
}

TEST(Verifier, RejectsFlagIdOutOfRange)
{
    auto tb = makeTb({op(UOp::GetFlag, 0, 0, 0, 0, /*reg=*/4),
                      op(UOp::Halt)},
                     1);
    VerifyResult r = verifyBlock(tb);
    ASSERT_FALSE(r.ok);
    EXPECT_NE(r.error.find("flag"), std::string::npos);
}

TEST(Verifier, RejectsBadAccessSize)
{
    auto corrupt = makeTb({op(UOp::Const, 0, 0, 0, 0x100),
                           op(UOp::Load, 1, 0), op(UOp::Halt)},
                          2);
    corrupt.ops[1].size = 3;
    VerifyResult r = verifyBlock(corrupt);
    ASSERT_FALSE(r.ok);
    EXPECT_NE(r.error.find("size"), std::string::npos);
}

TEST(Verifier, RejectsBadS2OpPayload)
{
    auto tb = makeTb({op(UOp::S2Op, 0, 0, 0, /*imm=*/0x77),
                      op(UOp::Halt)},
                     0);
    VerifyResult r = verifyBlock(tb);
    ASSERT_FALSE(r.ok);
    EXPECT_NE(r.error.find("s2op"), std::string::npos);
}

TEST(Verifier, RejectsS2OpRegisterOutOfRange)
{
    auto tb = makeTb(
        {op(UOp::S2Op, 0, 0, 0,
            static_cast<uint32_t>(isa::Opcode::S2SymReg), /*reg=*/20),
         op(UOp::Halt)},
        0);
    ASSERT_FALSE(verifyBlock(tb).ok);
}

TEST(Verifier, RejectsInstrMapSizeMismatch)
{
    auto tb = makeTb({op(UOp::Halt)}, 0);
    tb.instrOpIndex.push_back(0); // one more entry than instrPcs
    ASSERT_FALSE(verifyBlock(tb).ok);
}

TEST(Verifier, RejectsDecreasingInstrOpIndex)
{
    auto tb = makeTb({op(UOp::Const, 0, 0, 0, 1), op(UOp::Halt)}, 1);
    tb.instrPcs = {0x1000, 0x1002};
    tb.instrOpIndex = {1, 0};
    tb.marked = {false, false};
    ASSERT_FALSE(verifyBlock(tb).ok);
}

TEST(Verifier, RejectsInstrOpIndexBeyondOps)
{
    auto tb = makeTb({op(UOp::Halt)}, 0);
    tb.instrOpIndex = {5};
    ASSERT_FALSE(verifyBlock(tb).ok);
}

TEST(Verifier, RejectsOpsInEmptyBlock)
{
    TranslationBlock tb;
    tb.pc = 0x1000;
    tb.ops.push_back(op(UOp::Halt));
    ASSERT_FALSE(verifyBlock(tb).ok);
}

// --- Dataflow --------------------------------------------------------------

TEST(Dataflow, DefUseChains)
{
    auto tb = makeTb({op(UOp::Const, 0, 0, 0, 1),      // t0 = 1
                      op(UOp::Const, 1, 0, 0, 2),      // t1 = 2
                      op(UOp::Add, 2, 0, 1),           // t2 = t0 + t1
                      op(UOp::SetReg, 0, 2, 0, 0, 3),  // r3 = t2
                      op(UOp::Halt)},
                     3);
    DefUse du = computeDefUse(tb);
    EXPECT_EQ(du.temps[0].def, 0);
    EXPECT_EQ(du.temps[1].def, 1);
    EXPECT_EQ(du.temps[2].def, 2);
    ASSERT_EQ(du.temps[0].uses.size(), 1u);
    EXPECT_EQ(du.temps[0].uses[0], 2u);
    ASSERT_EQ(du.temps[2].uses.size(), 1u);
    EXPECT_EQ(du.temps[2].uses[0], 3u);
}

TEST(Dataflow, LivenessMarksDeadTempChain)
{
    // t0..t2 feed only each other; nothing escapes.
    auto tb = makeTb({op(UOp::Const, 0, 0, 0, 1), op(UOp::Const, 1, 0, 0, 2),
                      op(UOp::Add, 2, 0, 1), op(UOp::Halt)},
                     3);
    Liveness lv = computeLiveness(tb);
    EXPECT_FALSE(lv.liveOps[0]);
    EXPECT_FALSE(lv.liveOps[1]);
    EXPECT_FALSE(lv.liveOps[2]);
    EXPECT_TRUE(lv.liveOps[3]);
    EXPECT_EQ(lv.deadTempOps, 3u);
}

TEST(Dataflow, LivenessFlagsLiveOutOfBlock)
{
    // A single SetFlag with no in-block reader must stay: flags are
    // architectural state the next block (or an interrupt) reads.
    auto tb = makeTb({op(UOp::Const, 0, 0, 0, 1),
                      op(UOp::SetFlag, 0, 0, 0, 0, /*flag=*/0),
                      op(UOp::Halt)},
                     1);
    Liveness lv = computeLiveness(tb);
    EXPECT_TRUE(lv.liveOps[1]);
    EXPECT_EQ(lv.deadFlagWrites, 0u);
}

TEST(Dataflow, LivenessFindsOverwrittenFlagWrite)
{
    auto tb = makeTb({op(UOp::Const, 0, 0, 0, 1),
                      op(UOp::SetFlag, 0, 0, 0, 0, /*flag=*/0),
                      op(UOp::Const, 1, 0, 0, 0),
                      op(UOp::SetFlag, 0, 1, 0, 0, /*flag=*/0),
                      op(UOp::Halt)},
                     2);
    Liveness lv = computeLiveness(tb);
    EXPECT_FALSE(lv.liveOps[1]); // overwritten before any read
    EXPECT_TRUE(lv.liveOps[3]);  // final writer: live out
    EXPECT_EQ(lv.deadFlagWrites, 1u);
}

TEST(Dataflow, LivenessGetFlagKeepsWriter)
{
    auto tb = makeTb({op(UOp::Const, 0, 0, 0, 1),
                      op(UOp::SetFlag, 0, 0, 0, 0, /*flag=*/2),
                      op(UOp::GetFlag, 1, 0, 0, 0, /*flag=*/2),
                      op(UOp::SetReg, 0, 1, 0, 0, 5),
                      op(UOp::Const, 2, 0, 0, 0),
                      op(UOp::SetFlag, 0, 2, 0, 0, /*flag=*/2),
                      op(UOp::Halt)},
                     3);
    Liveness lv = computeLiveness(tb);
    EXPECT_TRUE(lv.liveOps[1]); // read by the GetFlag at index 2
    EXPECT_TRUE(lv.liveOps[5]);
}

TEST(Dataflow, ConstantsPropagateThroughRegisters)
{
    auto tb = makeTb({op(UOp::Const, 0, 0, 0, 21),
                      op(UOp::SetReg, 0, 0, 0, 0, /*reg=*/1),
                      op(UOp::GetReg, 1, 0, 0, 0, /*reg=*/1),
                      op(UOp::Add, 2, 1, 1),
                      op(UOp::SetReg, 0, 2, 0, 0, /*reg=*/2),
                      op(UOp::Halt)},
                     3);
    Constants c = computeConstants(tb);
    ASSERT_TRUE(c.result[2].has_value());
    EXPECT_EQ(*c.result[2], 21u);
    ASSERT_TRUE(c.result[3].has_value());
    EXPECT_EQ(*c.result[3], 42u);
}

TEST(Dataflow, ConstantsStopAtLoads)
{
    auto tb = makeTb({op(UOp::Const, 0, 0, 0, 0x100),
                      op(UOp::Load, 1, 0), op(UOp::Add, 2, 1, 1),
                      op(UOp::Halt)},
                     3);
    tb.ops[1].size = 4;
    Constants c = computeConstants(tb);
    EXPECT_FALSE(c.result[1].has_value());
    EXPECT_FALSE(c.result[2].has_value());
}

TEST(Dataflow, ConstantsInvalidatedByS2Op)
{
    auto tb = makeTb(
        {op(UOp::Const, 0, 0, 0, 7),
         op(UOp::SetReg, 0, 0, 0, 0, /*reg=*/1),
         op(UOp::S2Op, 0, 0, 0,
            static_cast<uint32_t>(isa::Opcode::S2SymReg), /*reg=*/1),
         op(UOp::GetReg, 1, 0, 0, 0, /*reg=*/1), op(UOp::Halt)},
        2);
    Constants c = computeConstants(tb);
    EXPECT_FALSE(c.result[3].has_value());
}

TEST(Dataflow, FoldBinaryMatchesInterpreterEdgeCases)
{
    // The documented gisa edge cases: division by zero, INT_MIN/-1,
    // shift counts >= 32.
    EXPECT_EQ(dbt::evalBinary(UOp::UDiv, 5, 0), 0xFFFFFFFFu);
    EXPECT_EQ(dbt::evalBinary(UOp::SDiv, 5, 0), 0xFFFFFFFFu);
    EXPECT_EQ(dbt::evalBinary(UOp::SDiv, 0x80000000u, 0xFFFFFFFFu),
              0x80000000u);
    EXPECT_EQ(dbt::evalBinary(UOp::URem, 5, 0), 5u);
    EXPECT_EQ(dbt::evalBinary(UOp::SRem, 5, 0), 5u);
    EXPECT_EQ(dbt::evalBinary(UOp::SRem, 5, 0xFFFFFFFFu), 0u);
    EXPECT_EQ(dbt::evalBinary(UOp::Shl, 1, 32), 0u);
    EXPECT_EQ(dbt::evalBinary(UOp::Shr, 0x80000000u, 32), 0u);
    EXPECT_EQ(dbt::evalBinary(UOp::Sar, 0x80000000u, 32), 0xFFFFFFFFu);
    EXPECT_EQ(dbt::evalBinary(UOp::Sar, 0x40000000u, 32), 0u);
    EXPECT_EQ(dbt::evalBinary(UOp::CmpSlt, 0xFFFFFFFFu, 0), 1u);
}

// --- Passes ----------------------------------------------------------------

TEST(Passes, ConstantFoldTurnsKnownBranchIntoGoto)
{
    // The optimized twin of Translator.BlockEndsAtBranch: all-constant
    // inputs make the jne statically decided.
    std::string src = "movi r1, 1\n"
                      "cmpi r1, 5\n"
                      "jne skip\n"
                      "nop\n"
                      "skip: hlt\n";
    isa::Program prog = isa::assemble(src);
    auto tb = translateFirst(src,
                             dbt::Translator(dbt::TranslatorConfig{
                                 .optimize = true, .verify = true}));
    ASSERT_FALSE(tb->ops.empty());
    EXPECT_EQ(tb->ops.back().op, UOp::Goto);
    // 1 != 5: the branch is taken, so the Goto targets `skip`.
    EXPECT_EQ(tb->ops.back().imm, prog.symbol("skip"));
}

TEST(Passes, DeadFlagElimRemovesOverwrittenWriters)
{
    auto raw = translateFirst("movi r1, 1\n movi r2, 2\n"
                              "add r1, r2\n add r1, r2\n hlt\n",
                              rawTranslator());
    TranslationBlock tb = *raw;
    PassStats stats;
    size_t removed = deadFlagElim(tb, &stats);
    // The first add fully materializes Z/N/C/V; the second overwrites
    // all four before anything reads them.
    EXPECT_GE(removed, 4u);
    EXPECT_EQ(stats.deadFlagOps, removed);
    EXPECT_TRUE(verifyBlock(tb).ok);
}

TEST(Passes, DeadFlagElimKeepsReadFlags)
{
    auto raw = translateFirst("movi r1, 1\n cmpi r1, 1\n jeq t\n t: hlt\n",
                              rawTranslator());
    TranslationBlock tb = *raw;
    size_t z_writes_before = 0;
    for (const auto &o : tb.ops)
        if (o.op == UOp::SetFlag && o.reg == 0)
            z_writes_before++;
    deadFlagElim(tb);
    size_t z_writes_after = 0;
    for (const auto &o : tb.ops)
        if (o.op == UOp::SetFlag && o.reg == 0)
            z_writes_after++;
    // cmpi's Z write feeds the jeq: it must survive.
    EXPECT_EQ(z_writes_before, z_writes_after);
}

TEST(Passes, DeadTempElimDropsStrandedChains)
{
    TranslationBlock tb =
        makeTb({op(UOp::Const, 0, 0, 0, 1), op(UOp::Const, 1, 0, 0, 2),
                op(UOp::Add, 2, 0, 1), op(UOp::Const, 3, 0, 0, 9),
                op(UOp::SetReg, 0, 3, 0, 0, 1), op(UOp::Halt)},
               4);
    PassStats stats;
    size_t removed = deadTempElim(tb, &stats);
    EXPECT_EQ(removed, 3u);
    EXPECT_EQ(stats.deadTempOps, 3u);
    ASSERT_EQ(tb.ops.size(), 3u);
    EXPECT_EQ(tb.ops[0].op, UOp::Const);
    EXPECT_TRUE(verifyBlock(tb).ok);
}

TEST(Passes, CompactTempsRenumbersDensely)
{
    TranslationBlock tb =
        makeTb({op(UOp::Const, 7, 0, 0, 1),
                op(UOp::SetReg, 0, 7, 0, 0, 1), op(UOp::Halt)},
               9);
    compactTemps(tb);
    EXPECT_EQ(tb.numTemps, 1u);
    EXPECT_EQ(tb.ops[0].dst, 0u);
    EXPECT_EQ(tb.ops[1].a, 0u);
    EXPECT_TRUE(verifyBlock(tb).ok);
}

TEST(Passes, OptimizeBlockShrinksAluHeavyBlock)
{
    auto raw = translateFirst("movi r1, 0\n movi r2, 0\n"
                              "add r1, r2\n xor r2, r1\n mul r2, r1\n"
                              "sub r1, r2\n cmpi r10, 0\n jne out\n"
                              "out: hlt\n",
                              rawTranslator());
    TranslationBlock tb = *raw;
    PassStats stats;
    optimizeBlock(tb, &stats);
    EXPECT_LT(tb.ops.size(), raw->ops.size());
    EXPECT_LE(tb.numTemps, raw->numTemps);
    EXPECT_GT(stats.deadFlagOps, 0u);
    // More than 5% of the emitted micro-ops must be gone (the
    // bench_overhead acceptance shape, checked here deterministically).
    EXPECT_LT(static_cast<double>(tb.ops.size()),
              0.95 * static_cast<double>(raw->ops.size()));
    EXPECT_TRUE(verifyBlock(tb).ok);
}

TEST(Passes, OptimizeRemapsInstructionBoundaries)
{
    dbt::TranslatorConfig opt_cfg;
    opt_cfg.optimize = true;
    opt_cfg.verify = true;
    auto tb = translateFirst("movi r1, 1\n movi r2, 2\n"
                             "add r1, r2\n add r2, r1\n hlt\n",
                             dbt::Translator(opt_cfg));
    ASSERT_EQ(tb->instrPcs.size(), 5u);
    ASSERT_EQ(tb->instrOpIndex.size(), 5u);
    // Boundaries stay sorted and inside ops[] after op removal.
    for (size_t i = 0; i < tb->instrOpIndex.size(); ++i) {
        EXPECT_LE(tb->instrOpIndex[i], tb->ops.size());
        if (i > 0) {
            EXPECT_GE(tb->instrOpIndex[i], tb->instrOpIndex[i - 1]);
        }
    }
    // origOpCount preserves the pre-optimization size for metrics.
    EXPECT_GT(tb->origOpCount, tb->ops.size());
}

TEST(Passes, InstrPcForOpBinarySearchMatchesLinearReference)
{
    TranslationBlock tb;
    tb.pc = 0x100;
    tb.instrPcs = {0x100, 0x106, 0x10C, 0x10D};
    // Duplicate boundaries happen when optimization empties an
    // instruction's op range.
    tb.instrOpIndex = {0, 3, 3, 7};
    for (size_t idx = 0; idx < 10; ++idx) {
        uint32_t expected = tb.pc;
        for (size_t i = 0; i < tb.instrOpIndex.size(); ++i) {
            if (tb.instrOpIndex[i] > idx)
                break;
            expected = tb.instrPcs[i];
        }
        EXPECT_EQ(tb.instrPcForOp(idx), expected) << "op index " << idx;
    }
}

// --- Differential: fastexec ------------------------------------------------

/**
 * Run a program through the vanilla executor twice (optimized /
 * naive) and through a 1-worker Engine with no symbolic input, TB
 * optimization on and off; all four must agree on the instruction
 * count, final pc, registers, flags and RAM. Programs here must stay
 * inside what the vanilla machine models: no port I/O, no interrupts.
 */
void
expectFastEquivalence(const std::string &source)
{
    constexpr uint32_t kRam = 64 * 1024;
    constexpr uint64_t kBudget = 1'000'000;
    dbt::FastMachine opt(kRam), naive(kRam);
    isa::Program prog = isa::assemble(source);
    opt.load(prog);
    naive.load(prog);
    dbt::TranslatorConfig on, off;
    on.optimize = true;
    on.verify = true;
    off.optimize = false;
    off.verify = true;
    dbt::FastRunResult ro = dbt::fastRun(opt, kBudget, nullptr, on);
    dbt::FastRunResult rn = dbt::fastRun(naive, kBudget, nullptr, off);

    EXPECT_EQ(ro.instructions, rn.instructions) << source;
    EXPECT_EQ(ro.halted, rn.halted);
    EXPECT_EQ(ro.finalPc, rn.finalPc);
    EXPECT_EQ(opt.pc, naive.pc);
    for (unsigned r = 0; r < isa::kNumRegs; ++r)
        EXPECT_EQ(opt.regs[r], naive.regs[r]) << "r" << r << ": " << source;
    for (unsigned f = 0; f < 4; ++f)
        EXPECT_EQ(opt.flags[f], naive.flags[f]) << "flag " << f;
    EXPECT_EQ(opt.mem, naive.mem) << source;

    for (bool optimize : {true, false}) {
        SCOPED_TRACE(optimize ? "engine, TB-opt on" : "engine, TB-opt off");
        vm::MachineConfig machine;
        machine.ramSize = kRam;
        machine.program = prog;
        core::EngineConfig config;
        config.optimizeTb = optimize;
        config.verifyTb = true;
        config.maxInstructions = kBudget;
        core::Engine engine(machine, config);
        engine.run();
        ASSERT_EQ(engine.allStates().size(), 1u);
        const core::ExecutionState &s = *engine.allStates().front();
        EXPECT_EQ(s.status == core::StateStatus::Halted, rn.halted);
        EXPECT_EQ(s.instrCount, rn.instructions);
        EXPECT_EQ(s.cpu.pc, rn.finalPc);
        for (unsigned r = 0; r < isa::kNumRegs; ++r) {
            ASSERT_TRUE(s.cpu.regs[r].isConcrete());
            EXPECT_EQ(s.cpu.regs[r].concrete(), naive.regs[r]) << "r" << r;
        }
        for (unsigned f = 0; f < 4; ++f) {
            ASSERT_TRUE(s.cpu.flags[f].isConcrete());
            EXPECT_EQ(s.cpu.flags[f].concrete(), naive.flags[f])
                << "flag " << f;
        }
        std::vector<uint8_t> ram(kRam);
        for (uint32_t a = 0; a < kRam; ++a)
            ASSERT_TRUE(s.mem.readConcreteByte(a, &ram[a])) << a;
        EXPECT_EQ(ram, naive.mem);
    }
}

TEST(Differential, FastAluLoop)
{
    expectFastEquivalence(R"(
        .entry main
    main:
        movi r1, 0x1234
        movi r2, 0x9876
        movi r10, 500
    loop:
        add r1, r2
        xor r2, r1
        shli r1, 3
        shri r1, 1
        mul r2, r1
        or r1, r2
        and r2, r1
        sub r1, r2
        subi r10, 1
        cmpi r10, 0
        jne loop
        hlt
    )");
}

TEST(Differential, FastDivisionEdgeCases)
{
    expectFastEquivalence(R"(
        .entry main
    main:
        movi r1, 100
        movi r2, 0
        udiv r1, r2       ; /0 -> all-ones
        movi r3, 0x80000000
        movi r4, -1
        sdiv r3, r4       ; INT_MIN / -1 -> INT_MIN
        movi r5, 17
        movi r6, 0
        urem r5, r6       ; rem by 0 -> a
        movi r7, 33
        sari r7, 40       ; shift >= 32
        hlt
    )");
}

TEST(Differential, FastMemoryAndStack)
{
    expectFastEquivalence(R"(
        .entry main
    main:
        movi sp, 0x8000
        movi r1, 0xDEADBEEF
        movi r2, 0x400
        stw [r2], r1
        ldw r3, [r2]
        stb [r2+8], r3
        ldbs r4, [r2+8]
        sth [r2+12], r3
        ldhs r5, [r2+12]
        push r3
        push r4
        pop r6
        pop r7
        call fn
        hlt
    fn:
        addi r1, 1
        ret
    )");
}

TEST(Differential, FastFlagConsumers)
{
    // Every Jcc condition, each consuming flags from a different
    // producer distance.
    expectFastEquivalence(R"(
        .entry main
    main:
        movi r9, 0
        movi r1, 5
        cmpi r1, 5
        jeq a
        movi r9, 99
    a:  cmpi r1, 6
        jne b
        movi r9, 98
    b:  cmpi r1, 9
        jb c
        movi r9, 97
    c:  cmpi r1, 2
        ja d
        movi r9, 96
    d:  movi r2, -3
        cmpi r2, 1
        jlt e
        movi r9, 95
    e:  cmpi r2, -9
        jgt f
        movi r9, 94
    f:  testi r1, 4
        jne g
        movi r9, 93
    g:  hlt
    )");
}

TEST(Differential, FastJumpTable)
{
    expectFastEquivalence(R"(
        .entry main
    main:
        movi sp, 0x8000
        movi r8, 0
        movi r1, 2          ; selector
        shli r1, 2
        movi r2, table
        add r2, r1
        ldw r3, [r2]
        jmp r3
    case0:
        addi r8, 1
        hlt
    case1:
        addi r8, 2
        hlt
    case2:
        addi r8, 4
        hlt
    table:
        .word case0, case1, case2
    )");
}

// --- Differential: full engine over the guest workloads --------------------

using core::Engine;
using core::EngineConfig;
using core::ExecutionState;
using core::StateStatus;

vm::MachineConfig
machineFor(const std::string &source)
{
    vm::MachineConfig m;
    m.ramSize = guest::kRamSize;
    m.program = isa::assemble(source);
    m.deviceSetup = [](vm::DeviceSet &devices) {
        devices.add(std::make_unique<vm::ConsoleDevice>());
        devices.add(std::make_unique<vm::TimerDevice>());
        auto nic = std::make_unique<vm::DmaNic>();
        nic->setLoopback(true);
        devices.add(std::move(nic));
    };
    return m;
}

std::string
consoleOf(const ExecutionState &state)
{
    auto *console = state.devices.get<vm::ConsoleDevice>("console");
    return console ? console->output() : "";
}

/**
 * Canonical rendering of an expression DAG. The builder orders the
 * operands of commutative nodes by allocation order (pointer value),
 * which differs between two engines — and within one engine depends
 * on how many dead expressions were ever built. Sort the rendered
 * operands instead so structurally equal-modulo-commutativity
 * expressions compare equal.
 */
std::string
renderExpr(core::ExprRef e)
{
    using expr::Kind;
    if (e->isConstant())
        return strprintf("c%llu:w%u",
                         static_cast<unsigned long long>(e->value()),
                         e->width());
    if (e->isVariable())
        return e->name() + strprintf(":w%u", e->width());
    std::vector<std::string> kids;
    for (unsigned i = 0; i < e->arity(); ++i)
        kids.push_back(renderExpr(e->kid(i)));
    switch (e->kind()) {
      case Kind::Add:
      case Kind::Mul:
      case Kind::And:
      case Kind::Or:
      case Kind::Xor:
      case Kind::Eq:
        std::sort(kids.begin(), kids.end());
        break;
      default:
        break;
    }
    std::string s = strprintf("(%s w%u a%u", expr::kindName(e->kind()),
                              e->width(), e->aux());
    for (const auto &k : kids)
        s += " " + k;
    return s + ")";
}

/** Structural rendering of a Value: symbolic expressions are compared
 *  by their canonical form — expressions are hash-consed per engine,
 *  so pointer identity never holds across two engines. */
std::string
render(const core::Value &v)
{
    if (v.isConcrete())
        return std::to_string(v.concrete());
    return "sym:" + renderExpr(v.expr());
}

/**
 * Serialize everything architecturally observable about a finished
 * path into one string: status, exit code, console output, registers,
 * flags, the concrete memory image and the port-I/O trace.
 */
std::string
summarize(const ExecutionState &state, const plugins::TraceState *trace)
{
    std::string s;
    s += "status=" + std::to_string(static_cast<int>(state.status));
    s += " exit=" + std::to_string(state.exitCode);
    s += " console=[" + consoleOf(state) + "]";
    for (unsigned r = 0; r < isa::kNumRegs; ++r)
        s += " r" + std::to_string(r) + "=" + render(state.cpu.regs[r]);
    for (unsigned f = 0; f < 4; ++f)
        s += " f" + std::to_string(f) + "=" + render(state.cpu.flags[f]);
    // Concrete memory image as sparse nonzero bytes; symbolic bytes
    // are covered by the path outcomes and register expressions.
    s += " mem:";
    for (uint32_t a = 0; a < state.mem.size(); ++a) {
        uint8_t byte = 0;
        if (state.mem.readConcreteByte(a, &byte) && byte != 0)
            s += strprintf("%x=%02x,", a, byte);
    }
    s += " io:";
    if (trace)
        for (const auto &e : trace->entries)
            s += strprintf("%d@%x=%x/%u,", static_cast<int>(e.kind),
                           e.addr, e.value, e.size);
    return s;
}

/**
 * Run with the optimizer on and off; the multisets of final path
 * outcomes must match exactly (sorted: fork bookkeeping may number
 * sibling states differently, but every path must have its twin).
 */
void
expectEngineEquivalence(
    const std::string &source,
    const std::function<void(Engine &)> &setup = {},
    uint64_t max_instructions = 3'000'000)
{
    std::vector<std::string> outcomes[2];
    for (int pass = 0; pass < 2; ++pass) {
        EngineConfig config;
        config.optimizeTb = pass == 0;
        config.verifyTb = true;
        config.maxInstructions = max_instructions;
        Engine engine(machineFor(source), config);
        plugins::ExecutionTracer::Config tc;
        tc.traceBlocks = false;
        tc.tracePortIo = true;
        plugins::ExecutionTracer tracer(engine, tc);
        if (setup)
            setup(engine);
        engine.run();
        for (const auto &s : engine.allStates())
            outcomes[pass].push_back(summarize(*s, tracer.traceOf(*s)));
        std::sort(outcomes[pass].begin(), outcomes[pass].end());
    }
    ASSERT_EQ(outcomes[0].size(), outcomes[1].size());
    for (size_t i = 0; i < outcomes[0].size(); ++i)
        EXPECT_EQ(outcomes[0][i], outcomes[1][i]) << "path " << i;
}

void
writeGuestString(Engine &engine, uint32_t addr, const std::string &text)
{
    auto &state = engine.initialState();
    for (size_t i = 0; i <= text.size(); ++i)
        state.mem.write(addr + static_cast<uint32_t>(i),
                        core::Value(i < text.size() ? text[i] : 0), 1,
                        engine.builder());
}

TEST(Differential, EngineKernelSyscalls)
{
    expectEngineEquivalence(guest::kernelSource() + R"(
        .org 0x30000
        .entry main
    main:
        movi sp, 0x7F000
        movi r0, 3
        movi r1, msg
        movi r2, 5
        int 0x30
        movi r0, 4
        movi r1, 32
        int 0x30
        hlt
    msg:
        .asciz "hello"
    )");
}

TEST(Differential, EngineUrlParser)
{
    expectEngineEquivalence(
        guest::kernelSource() + guest::urlParserSource(),
        [](Engine &e) {
            writeGuestString(e, guest::kUrlBuffer, "http://a/b/c/d");
        });
}

TEST(Differential, EngineLuaInterpreter)
{
    expectEngineEquivalence(
        guest::kernelSource() + guest::luaSource(), [](Engine &e) {
            writeGuestString(e, guest::kLuaInput, "a=6;b=7;!a*b+(2-1);");
        });
}

TEST(Differential, EngineLicenseCheckConcrete)
{
    expectEngineEquivalence(
        guest::kernelSource() + guest::licenseCheckSource(),
        [](Engine &e) {
            auto &state = e.initialState();
            uint32_t key = guest::addConfigString(state, e.builder(), 0,
                                                  "S212340Z");
            guest::setConfig(state, e.builder(), guest::kCfgLicensePtr,
                             key);
        });
}

TEST(Differential, EngineLicenseCheckSymbolic)
{
    // Multi-path: the full key symbolic. Same forks, same paths, same
    // final expressions with the optimizer on or off.
    expectEngineEquivalence(
        guest::kernelSource() + guest::licenseCheckSource(),
        [](Engine &e) {
            auto &state = e.initialState();
            uint32_t key = guest::addConfigString(state, e.builder(), 0,
                                                  "AAAAAAAA");
            guest::setConfig(state, e.builder(), guest::kCfgLicensePtr,
                             key);
            e.makeMemSymbolic(state, key, 8, "license");
        });
}

// --- Static CFG recovery ---------------------------------------------------

TEST(Cfg, StraightLineIsOneBlock)
{
    isa::Program prog = isa::assemble(R"(
        .entry main
    main:
        movi r1, 1
        addi r1, 2
        hlt
    )");
    StaticCfg cfg = recoverStaticCfg(prog, {prog.entry}, 0, 0x1000);
    ASSERT_EQ(cfg.blocks.size(), 1u);
    const auto &blk = cfg.blocks.begin()->second;
    EXPECT_EQ(blk.instrPcs.size(), 3u);
    EXPECT_TRUE(blk.successors.empty());
    EXPECT_FALSE(blk.indirectExit);
    EXPECT_TRUE(cfg.unresolvedIndirects.empty());
}

TEST(Cfg, DiamondWithDominators)
{
    isa::Program prog = isa::assemble(R"(
        .entry main
    main:
        cmpi r1, 0
        jeq left
        movi r2, 1
        jmp join
    left:
        movi r2, 2
        jmp join
    join:
        hlt
    )");
    StaticCfg cfg = recoverStaticCfg(prog, {prog.entry}, 0, 0x1000);
    ASSERT_EQ(cfg.blocks.size(), 4u);
    uint32_t entry = prog.entry;
    uint32_t join = prog.symbol("join");
    uint32_t left = prog.symbol("left");
    EXPECT_EQ(cfg.blocks.at(entry).successors.size(), 2u);
    // Both arms are dominated by the entry, and so is the join (its
    // two predecessors are siblings).
    EXPECT_EQ(cfg.blocks.at(left).idom, entry);
    EXPECT_EQ(cfg.blocks.at(join).idom, entry);
    EXPECT_EQ(cfg.blocks.at(entry).idom, entry);
}

TEST(Cfg, CallHasCalleeAndReturnSuccessors)
{
    isa::Program prog = isa::assemble(R"(
        .entry main
    main:
        call fn
        hlt
    fn:
        movi r1, 1
        ret
    )");
    StaticCfg cfg = recoverStaticCfg(prog, {prog.entry}, 0, 0x1000);
    uint32_t fn = prog.symbol("fn");
    const auto &entry_blk = cfg.blocks.at(prog.entry);
    EXPECT_EQ(entry_blk.successors.size(), 2u);
    EXPECT_TRUE(entry_blk.successors.count(fn));
    // The ret's target is statically unknown.
    ASSERT_EQ(cfg.unresolvedIndirects.size(), 1u);
    EXPECT_TRUE(cfg.blocks.at(fn).indirectExit ||
                !cfg.blocks.at(fn).successors.empty());
}

TEST(Cfg, IndirectJumpReportedUnresolved)
{
    isa::Program prog = isa::assemble(R"(
        .entry main
    main:
        movi r1, target
        jmp r1
    target:
        hlt
    )");
    StaticCfg cfg = recoverStaticCfg(prog, {prog.entry}, 0, 0x1000);
    ASSERT_EQ(cfg.unresolvedIndirects.size(), 1u);
    // Recursive descent does NOT follow the register value: `target`
    // is never decoded.
    EXPECT_FALSE(cfg.containsBlock(prog.symbol("target")));
    std::string report = cfg.toString();
    EXPECT_NE(report.find("unresolved indirect"), std::string::npos);
}

TEST(Cfg, JumpTableBlocksAreDynamicOnly)
{
    // The REV+ acceptance example: a jmpr jump table. Static recursive
    // descent stops at the indirect jump; multi-path execution reaches
    // the cases. diffCfg must report them as dynamic-only.
    std::string src = R"(
        .entry main
    main:
        movi sp, 0x8000
        movi r1, 1          ; selector
        shli r1, 2
        movi r2, table
        add r2, r1
        ldw r3, [r2]
        jmp r3
    case0:
        movi r8, 10
        hlt
    case1:
        movi r8, 20
        hlt
    table:
        .word case0, case1
    )";
    isa::Program prog = isa::assemble(src);
    StaticCfg cfg = recoverStaticCfg(prog, {prog.entry}, 0, 0x1000);
    EXPECT_EQ(cfg.unresolvedIndirects.size(), 1u);
    EXPECT_FALSE(cfg.containsBlock(prog.symbol("case1")));

    // Dynamic: run it on the engine and collect executed block pcs.
    vm::MachineConfig m;
    m.ramSize = 64 * 1024;
    m.program = prog;
    Engine engine(m, EngineConfig{});
    std::set<uint32_t> dynamic_pcs;
    engine.events().onBlockExecute.subscribe(
        [&](ExecutionState &, const TranslationBlock &tb) {
            dynamic_pcs.insert(tb.pc);
        });
    engine.run();

    CfgDiff diff = diffCfg(cfg, dynamic_pcs);
    ASSERT_GE(diff.dynamicOnly.size(), 1u);
    EXPECT_TRUE(std::count(diff.dynamicOnly.begin(),
                           diff.dynamicOnly.end(),
                           prog.symbol("case1")));
    // The shared part covers the entry straight-line code.
    EXPECT_FALSE(diff.shared.empty());
    EXPECT_NE(diff.toString().find("dynamic-only"), std::string::npos);
}

TEST(Cfg, RevReportsIsrBlocksAsDynamicOnly)
{
    // The driver's interrupt handler is hooked up by writing the IVT
    // at runtime; the static CFG (rooted at the driver ABI exports)
    // cannot reach it. REV+'s multi-path run does.
    tools::RevConfig config;
    config.driver = guest::DriverKind::Pio;
    config.maxWallSeconds = 15;
    tools::Rev rev(config);
    tools::RevResult result = rev.run();

    EXPECT_GT(result.staticCfg.blocks.size(), 3u);
    uint32_t isr =
        tools::driverProgram(guest::DriverKind::Pio).symbol("drv_isr");
    // Statically invisible…
    EXPECT_EQ(result.staticCfg.instrPcs.count(isr), 0u);
    // …but discovered by the multi-path run.
    EXPECT_GE(result.cfgDiff.dynamicOnly.size(), 1u);
    EXPECT_TRUE(std::count(result.cfgDiff.dynamicOnly.begin(),
                           result.cfgDiff.dynamicOnly.end(), isr));
    EXPECT_FALSE(result.cfgDiff.shared.empty());
}

} // namespace
} // namespace s2e::analysis
