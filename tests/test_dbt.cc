/** @file Tests for the translator, TB cache and the vanilla executor. */

#include <gtest/gtest.h>

#include "dbt/fastexec.hh"
#include "dbt/translator.hh"
#include "isa/assembler.hh"

namespace s2e::dbt {
namespace {

using isa::assemble;
using isa::Program;

FastMachine
makeMachine(const std::string &source, uint32_t ram = 64 * 1024)
{
    FastMachine m(ram);
    m.load(assemble(source));
    return m;
}

TEST(Translator, StraightLineBlock)
{
    FastMachine m = makeMachine(R"(
        movi r1, 1
        movi r2, 2
        add r1, r2
        hlt
    )");
    Translator t;
    CodeReader reader = [&](uint32_t a, uint8_t *out) {
        if (a >= m.mem.size())
            return false;
        *out = m.mem[a];
        return true;
    };
    auto tb = t.translate(0, reader);
    EXPECT_EQ(tb->instrPcs.size(), 4u);
    EXPECT_EQ(tb->ops.back().op, UOp::Halt);
}

TEST(Translator, BlockEndsAtBranch)
{
    FastMachine m = makeMachine(R"(
        movi r1, 1
        cmpi r1, 5
        jne skip
        nop
    skip:
        hlt
    )");
    // Raw lowering shape: with all-constant inputs the optimizer
    // would legitimately fold this jne to a Goto (pinned over in
    // test_analysis), so translate unoptimized here.
    Translator t(TranslatorConfig{.optimize = false});
    CodeReader reader = [&](uint32_t a, uint8_t *out) {
        *out = m.mem[a];
        return true;
    };
    auto tb = t.translate(0, reader);
    EXPECT_EQ(tb->instrPcs.size(), 3u); // movi, cmpi, jne
    EXPECT_EQ(tb->ops.back().op, UOp::Branch);
}

TEST(Translator, MaxInstrsChainsWithGoto)
{
    std::string src;
    for (int i = 0; i < 40; ++i)
        src += "nop\n";
    src += "hlt\n";
    FastMachine m = makeMachine(src);
    Translator t; // default max 16 instrs
    CodeReader reader = [&](uint32_t a, uint8_t *out) {
        *out = m.mem[a];
        return true;
    };
    auto tb = t.translate(0, reader);
    EXPECT_EQ(tb->instrPcs.size(), 16u);
    EXPECT_EQ(tb->ops.back().op, UOp::Goto);
    EXPECT_EQ(tb->ops.back().imm, 16u); // 16 nops = 16 bytes
}

TEST(Translator, DecodeFaultGivesEmptyBlock)
{
    FastMachine m(1024);
    m.mem[0] = 0xEE; // invalid opcode
    Translator t;
    CodeReader reader = [&](uint32_t a, uint8_t *out) {
        *out = m.mem[a];
        return true;
    };
    auto tb = t.translate(0, reader);
    EXPECT_TRUE(tb->instrPcs.empty());
}

TEST(Translator, InstrPcForOpMapsBack)
{
    FastMachine m = makeMachine("movi r1, 1\nmovi r2, 2\nhlt\n");
    Translator t;
    CodeReader reader = [&](uint32_t a, uint8_t *out) {
        *out = m.mem[a];
        return true;
    };
    auto tb = t.translate(0, reader);
    // First instruction's ops map to pc 0; second to 6 (movi is 6 bytes).
    EXPECT_EQ(tb->instrPcForOp(0), 0u);
    EXPECT_EQ(tb->instrPcForOp(tb->instrOpIndex[1]), 6u);
}

TEST(FastExec, ArithmeticLoop)
{
    // Sum 1..10 into r1.
    FastMachine m = makeMachine(R"(
        .entry main
    main:
        movi r1, 0
        movi r2, 1
    loop:
        add r1, r2
        addi r2, 1
        cmpi r2, 11
        jne loop
        hlt
    )");
    FastRunResult r = fastRun(m, 100000);
    EXPECT_TRUE(r.halted);
    EXPECT_EQ(m.regs[1], 55u);
}

TEST(FastExec, SignedComparisons)
{
    FastMachine m = makeMachine(R"(
        .entry main
    main:
        movi r1, -5
        cmpi r1, 3
        jlt neg
        movi r2, 0
        hlt
    neg:
        movi r2, 1
        hlt
    )");
    FastRunResult r = fastRun(m, 1000);
    EXPECT_TRUE(r.halted);
    EXPECT_EQ(m.regs[2], 1u); // -5 < 3 signed
}

TEST(FastExec, UnsignedComparisons)
{
    FastMachine m = makeMachine(R"(
        .entry main
    main:
        movi r1, -5       ; 0xFFFFFFFB unsigned: huge
        cmpi r1, 3
        jb below
        movi r2, 0
        hlt
    below:
        movi r2, 1
        hlt
    )");
    fastRun(m, 1000);
    EXPECT_EQ(m.regs[2], 0u); // 0xFFFFFFFB is not < 3 unsigned
}

TEST(FastExec, CallRetAndStack)
{
    FastMachine m = makeMachine(R"(
        .entry main
    main:
        movi sp, 0x8000
        movi r1, 5
        call double
        hlt
    double:
        add r1, r1
        ret
    )");
    FastRunResult r = fastRun(m, 1000);
    EXPECT_TRUE(r.halted);
    EXPECT_EQ(m.regs[1], 10u);
    EXPECT_EQ(m.regs[isa::kRegSp], 0x8000u); // balanced
}

TEST(FastExec, MemoryLoadStoreWidths)
{
    FastMachine m = makeMachine(R"(
        .entry main
        .equ BUF, 0x4000
    main:
        movi r10, BUF
        movi r1, 0x12345678
        stw [r10], r1
        ldb r2, [r10]         ; 0x78
        ldb r3, [r10+3]       ; 0x12
        ldh r4, [r10]         ; 0x5678
        movi r1, 0x80
        stb [r10+8], r1
        ldbs r5, [r10+8]      ; sign-extended -128
        hlt
    )");
    fastRun(m, 1000);
    EXPECT_EQ(m.regs[2], 0x78u);
    EXPECT_EQ(m.regs[3], 0x12u);
    EXPECT_EQ(m.regs[4], 0x5678u);
    EXPECT_EQ(m.regs[5], 0xFFFFFF80u);
}

TEST(FastExec, IndirectJumpTable)
{
    FastMachine m = makeMachine(R"(
        .entry main
    main:
        movi r1, table
        ldw r2, [r1+4]     ; second entry
        jmp r2
    a:  movi r3, 1
        hlt
    b:  movi r3, 2
        hlt
        .align 4
    table:
        .word a, b
    )");
    fastRun(m, 1000);
    EXPECT_EQ(m.regs[3], 2u);
}

TEST(FastExec, FibonacciRecursive)
{
    FastMachine m = makeMachine(R"(
        .entry main
    main:
        movi sp, 0x8000
        movi r1, 10
        call fib
        hlt
    ; fib(n) in r1 -> r1
    fib:
        cmpi r1, 2
        jlt fib_base
        push r1
        subi r1, 1
        call fib          ; fib(n-1)
        mov r2, r1
        pop r1
        push r2
        subi r1, 2
        call fib          ; fib(n-2)
        pop r2
        add r1, r2
        ret
    fib_base:
        ret
    )");
    FastRunResult r = fastRun(m, 1000000);
    EXPECT_TRUE(r.halted);
    EXPECT_EQ(m.regs[1], 55u); // fib(10)
}

TEST(FastExec, DivisionTotalSemantics)
{
    FastMachine m = makeMachine(R"(
        .entry main
    main:
        movi r1, 100
        movi r2, 0
        udiv r1, r2      ; division by zero -> all ones
        movi r3, 7
        movi r4, 0
        urem r3, r4      ; rem by zero -> dividend
        hlt
    )");
    fastRun(m, 1000);
    EXPECT_EQ(m.regs[1], 0xFFFFFFFFu);
    EXPECT_EQ(m.regs[3], 7u);
}

TEST(FastExec, AccessNearTopOfAddressSpaceStaysInBounds)
{
    // addr + size wraps past 2^32 at 0xFFFFFFFE: the loads must read 0
    // and the stores must be dropped, as at any out-of-range address.
    FastMachine m = makeMachine(R"(
        .entry main
    main:
        movi r1, 0x12345678
        movi r2, 7
        movi r3, 7
        movi r10, 0xFFFFFFFE
        ldw r2, [r10]
        stw [r10], r1
        ldhs r3, [r10]
        sth [r10], r1
        hlt
    )");
    std::vector<uint8_t> before = m.mem;
    FastRunResult r = fastRun(m, 1000);
    EXPECT_TRUE(r.halted);
    EXPECT_EQ(m.regs[2], 0u);
    EXPECT_EQ(m.regs[3], 0u);
    EXPECT_EQ(m.mem, before);
}

TEST(FastExec, SelfModifyingCodeInvalidatesTb)
{
    // Overwrite the movi immediate in a loop body: the second pass
    // must execute the patched constant.
    FastMachine m = makeMachine(R"(
        .entry main
    main:
        movi r5, 0        ; pass counter
    again:
        movi r9, 111      ; <- patched below
        cmpi r5, 1
        jeq done
        ; patch the immediate byte of 'movi r9,111' to 222
        movi r1, patchsite+2
        movi r2, 222
        stb [r1], r2
        addi r5, 1
        jmp again
    done:
        hlt
        .org 0x200
    patchsite:
    )");
    // Place the patched movi at a known location by re-assembling with
    // explicit layout: simpler variant below patches its own loop.
    (void)m;

    FastMachine m2 = makeMachine(R"(
        .entry main
    main:
        movi r5, 0
    loop:
    site:
        movi r9, 111
        cmpi r5, 1
        jeq done
        movi r1, site+2   ; imm field of the movi (op, reg, imm32)
        movi r2, 222
        stb [r1], r2
        addi r5, 1
        jmp loop
    done:
        hlt
    )");
    FastRunResult r = fastRun(m2, 10000);
    EXPECT_TRUE(r.halted);
    EXPECT_EQ(m2.regs[9], 222u);
}

TEST(FastExec, InstructionBudgetStopsRun)
{
    FastMachine m = makeMachine(R"(
        .entry main
    main:
        jmp main
    )");
    FastRunResult r = fastRun(m, 1000);
    EXPECT_FALSE(r.halted);
    EXPECT_GE(r.instructions, 1000u);
}

TEST(FastExec, TbCacheHitsOnLoop)
{
    FastMachine m = makeMachine(R"(
        .entry main
    main:
        movi r1, 0
    loop:
        addi r1, 1
        cmpi r1, 100
        jne loop
        hlt
    )");
    TbCache cache;
    fastRun(m, 100000, &cache);
    EXPECT_EQ(m.regs[1], 100u);
    EXPECT_GT(cache.hits(), 90u);
    EXPECT_LE(cache.size(), 4u);
}

} // namespace
} // namespace s2e::dbt
