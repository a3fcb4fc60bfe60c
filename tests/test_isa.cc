/** @file Unit tests for gisa encode/decode and disassembly. */

#include <gtest/gtest.h>

#include "isa/isa.hh"
#include "support/rng.hh"

namespace s2e::isa {
namespace {

Instruction
roundTrip(const Instruction &in)
{
    std::vector<uint8_t> bytes;
    encode(in, bytes);
    EXPECT_EQ(bytes.size(), instrLength(in.op));
    Instruction out;
    EXPECT_TRUE(decode(bytes.data(), bytes.size(), out));
    return out;
}

TEST(Isa, RoundTripSimple)
{
    Instruction in;
    in.op = Opcode::Nop;
    Instruction out = roundTrip(in);
    EXPECT_EQ(out.op, Opcode::Nop);
    EXPECT_EQ(out.length, 1u);
}

TEST(Isa, RoundTripRegReg)
{
    Instruction in;
    in.op = Opcode::Add;
    in.r1 = 3;
    in.r2 = 12;
    Instruction out = roundTrip(in);
    EXPECT_EQ(out.op, Opcode::Add);
    EXPECT_EQ(out.r1, 3);
    EXPECT_EQ(out.r2, 12);
}

TEST(Isa, RoundTripRegImm)
{
    Instruction in;
    in.op = Opcode::MovI;
    in.r1 = 7;
    in.imm = 0xDEADBEEF;
    Instruction out = roundTrip(in);
    EXPECT_EQ(out.r1, 7);
    EXPECT_EQ(out.imm, 0xDEADBEEFu);
}

TEST(Isa, RoundTripMemory)
{
    Instruction in;
    in.op = Opcode::Ldw;
    in.r1 = 2;
    in.r2 = 15;
    in.imm = static_cast<uint32_t>(-8);
    Instruction out = roundTrip(in);
    EXPECT_EQ(out.r1, 2);
    EXPECT_EQ(out.r2, 15);
    EXPECT_EQ(static_cast<int32_t>(out.imm), -8);
}

TEST(Isa, RoundTripJcc)
{
    Instruction in;
    in.op = Opcode::Jcc;
    in.cc = Cond::Sle;
    in.imm = 0x1234;
    Instruction out = roundTrip(in);
    EXPECT_EQ(out.cc, Cond::Sle);
    EXPECT_EQ(out.imm, 0x1234u);
}

TEST(Isa, RoundTripInt)
{
    Instruction in;
    in.op = Opcode::Int;
    in.imm = 0x30;
    Instruction out = roundTrip(in);
    EXPECT_EQ(out.imm, 0x30u);
}

TEST(Isa, RoundTripPortIo)
{
    Instruction in;
    in.op = Opcode::InI;
    in.r1 = 4;
    in.imm = 0x1234;
    Instruction out = roundTrip(in);
    EXPECT_EQ(out.r1, 4);
    EXPECT_EQ(out.imm, 0x1234u);
}

TEST(Isa, RoundTripS2SymRange)
{
    Instruction in;
    in.op = Opcode::S2SymRange;
    in.r1 = 9;
    in.imm = 5;
    in.imm2 = 500;
    Instruction out = roundTrip(in);
    EXPECT_EQ(out.r1, 9);
    EXPECT_EQ(out.imm, 5u);
    EXPECT_EQ(out.imm2, 500u);
}

TEST(Isa, DecodeRejectsInvalidOpcode)
{
    uint8_t buf[4] = {0xEE, 0, 0, 0};
    Instruction out;
    EXPECT_FALSE(decode(buf, sizeof(buf), out));
}

TEST(Isa, DecodeRejectsShortBuffer)
{
    Instruction in;
    in.op = Opcode::MovI;
    in.r1 = 1;
    in.imm = 42;
    std::vector<uint8_t> bytes;
    encode(in, bytes);
    Instruction out;
    EXPECT_FALSE(decode(bytes.data(), 3, out));
    EXPECT_TRUE(decode(bytes.data(), bytes.size(), out));
}

TEST(Isa, DecodeRejectsBadRegister)
{
    // Class C instruction with r2 = 16 (invalid).
    uint8_t buf[3] = {static_cast<uint8_t>(Opcode::Add), 1, 16};
    Instruction out;
    EXPECT_FALSE(decode(buf, sizeof(buf), out));
}

TEST(Isa, DecodeRejectsBadCond)
{
    uint8_t buf[6] = {static_cast<uint8_t>(Opcode::Jcc), 99, 0, 0, 0, 0};
    Instruction out;
    EXPECT_FALSE(decode(buf, sizeof(buf), out));
}

TEST(Isa, BlockTerminators)
{
    EXPECT_TRUE(isBlockTerminator(Opcode::Jmp));
    EXPECT_TRUE(isBlockTerminator(Opcode::Ret));
    EXPECT_TRUE(isBlockTerminator(Opcode::Int));
    EXPECT_TRUE(isBlockTerminator(Opcode::Hlt));
    EXPECT_FALSE(isBlockTerminator(Opcode::Add));
    EXPECT_FALSE(isBlockTerminator(Opcode::Ldw));
    EXPECT_FALSE(isBlockTerminator(Opcode::S2SymReg));
}

TEST(Isa, DisassemblyMentionsOperands)
{
    Instruction in;
    in.op = Opcode::Ldw;
    in.r1 = 2;
    in.r2 = 15;
    in.imm = 8;
    std::string s = in.toString();
    EXPECT_NE(s.find("ldw"), std::string::npos);
    EXPECT_NE(s.find("r2"), std::string::npos);
    EXPECT_NE(s.find("sp"), std::string::npos); // r15 prints as sp
}

/** Property: random valid instructions round-trip exactly. */
TEST(Isa, PropertyRandomRoundTrip)
{
    Rng rng(31337);
    const Opcode all[] = {
        Opcode::Nop,   Opcode::Hlt,   Opcode::Ret,   Opcode::Push,
        Opcode::Pop,   Opcode::Mov,   Opcode::Add,   Opcode::Sub,
        Opcode::Cmp,   Opcode::MovI,  Opcode::AddI,  Opcode::CmpI,
        Opcode::Ldb,   Opcode::Ldw,   Opcode::Stw,   Opcode::Jmp,
        Opcode::Call,  Opcode::Jcc,   Opcode::Int,   Opcode::InI,
        Opcode::OutI,  Opcode::InR,   Opcode::OutR,  Opcode::S2SymMem,
        Opcode::S2SymReg, Opcode::S2SymRange, Opcode::S2Kill,
    };
    for (int iter = 0; iter < 500; ++iter) {
        Instruction in;
        in.op = all[rng.below(sizeof(all) / sizeof(all[0]))];
        in.r1 = static_cast<uint8_t>(rng.below(kNumRegs));
        in.r2 = static_cast<uint8_t>(rng.below(kNumRegs));
        in.cc = static_cast<Cond>(rng.below(10));
        in.imm = static_cast<uint32_t>(rng.next());
        in.imm2 = static_cast<uint32_t>(rng.next());

        // Restrict immediates to what the encoding can hold.
        if (in.op == Opcode::Int || in.op == Opcode::S2Kill)
            in.imm &= 0xFF;
        if (in.op == Opcode::InI || in.op == Opcode::OutI)
            in.imm &= 0xFFFF;

        std::vector<uint8_t> bytes;
        encode(in, bytes);
        Instruction out;
        ASSERT_TRUE(decode(bytes.data(), bytes.size(), out))
            << opcodeName(in.op);
        EXPECT_EQ(out.op, in.op);
        unsigned len = instrLength(in.op);
        if (len >= 2 && in.op != Opcode::Int && in.op != Opcode::S2Kill &&
            len != 5 && in.op != Opcode::Jcc) {
            EXPECT_EQ(out.r1, in.r1) << opcodeName(in.op);
        }
        if (len == 3 || len == 7) {
            EXPECT_EQ(out.r2, in.r2) << opcodeName(in.op);
        }
        if (len >= 5 || in.op == Opcode::Int || in.op == Opcode::S2Kill ||
            in.op == Opcode::InI || in.op == Opcode::OutI) {
            EXPECT_EQ(out.imm, in.imm) << opcodeName(in.op);
        }
        if (in.op == Opcode::S2SymRange) {
            EXPECT_EQ(out.imm2, in.imm2);
        }
    }
}

} // namespace
} // namespace s2e::isa
