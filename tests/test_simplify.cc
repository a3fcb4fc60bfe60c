/** @file Tests for the bitfield-theory simplifier (§5 of the paper). */

#include <gtest/gtest.h>

#include "expr/builder.hh"
#include "expr/eval.hh"
#include "expr/simplify.hh"
#include "support/rng.hh"

namespace s2e::expr {
namespace {

class SimplifyTest : public ::testing::Test
{
  protected:
    ExprBuilder b;
    Simplifier simp{b};
};

TEST_F(SimplifyTest, KnownBitsConstant)
{
    KnownBits kb = knownBits(b.constant(0xA5, 8));
    EXPECT_TRUE(kb.allKnown(8));
    EXPECT_EQ(kb.value(), 0xA5u);
}

TEST_F(SimplifyTest, KnownBitsVariableUnknown)
{
    KnownBits kb = knownBits(b.var("x", 8));
    EXPECT_EQ(kb.zeros | kb.ones, 0u);
}

TEST_F(SimplifyTest, KnownBitsAndMask)
{
    // x & 0x0F: high nibble known zero.
    KnownBits kb = knownBits(b.bAnd(b.var("x", 8), b.constant(0x0F, 8)));
    EXPECT_EQ(kb.zeros & 0xF0u, 0xF0u);
}

TEST_F(SimplifyTest, KnownBitsOrSetsOnes)
{
    KnownBits kb = knownBits(b.bOr(b.var("x", 8), b.constant(0xF0, 8)));
    EXPECT_EQ(kb.ones & 0xF0u, 0xF0u);
}

TEST_F(SimplifyTest, KnownBitsShl)
{
    // x << 4: low nibble known zero.
    KnownBits kb = knownBits(b.shl(b.var("x", 8), b.constant(4, 8)));
    EXPECT_EQ(kb.zeros & 0x0Fu, 0x0Fu);
}

TEST_F(SimplifyTest, KnownBitsZExt)
{
    KnownBits kb = knownBits(b.zext(b.var("x", 8), 32));
    EXPECT_EQ(kb.zeros & 0xFFFFFF00u, 0xFFFFFF00u);
}

TEST_F(SimplifyTest, KnownBitsAddLowBits)
{
    // (x & ~1) + 1 has bit 0 known one.
    ExprRef e = b.add(b.bAnd(b.var("x", 8), b.constant(0xFE, 8)),
                      b.constant(1, 8));
    KnownBits kb = knownBits(e);
    EXPECT_EQ(kb.ones & 1u, 1u);
}

TEST_F(SimplifyTest, KnownBitsContradictionMakesEqFalse)
{
    // (x | 1) == (y & ~1) is statically false: bit 0 differs.
    ExprRef lhs = b.bOr(b.var("x", 8), b.constant(1, 8));
    ExprRef rhs = b.bAnd(b.var("y", 8), b.constant(0xFE, 8));
    KnownBits kb = knownBits(b.eq(lhs, rhs));
    EXPECT_TRUE(kb.allKnown(1));
    EXPECT_EQ(kb.value(), 0u);
}

TEST_F(SimplifyTest, CollapsesFullyKnownExpression)
{
    // (x & 0) | 0x42 simplifies to the constant 0x42.
    ExprRef e = b.bOr(b.bAnd(b.var("x", 8), b.constant(0, 8)),
                      b.constant(0x42, 8));
    EXPECT_EQ(simp.simplify(e), b.constant(0x42, 8));
}

TEST_F(SimplifyTest, DropsMaskCoveringDemandedBits)
{
    // extract low byte of (x & 0xFF): the mask is redundant.
    ExprRef x = b.var("x", 32);
    ExprRef e = b.extract(b.bAnd(x, b.constant(0xFF, 32)), 0, 8);
    EXPECT_EQ(simp.simplify(e), b.extract(x, 0, 8));
}

TEST_F(SimplifyTest, DropsOrOutsideDemandedBits)
{
    // extract low byte of (x | 0xFF00): the Or touches ignored bits.
    ExprRef x = b.var("x", 32);
    ExprRef e = b.extract(b.bOr(x, b.constant(0xFF00, 32)), 0, 8);
    EXPECT_EQ(simp.simplify(e), b.extract(x, 0, 8));
}

TEST_F(SimplifyTest, FlagExtractionPattern)
{
    // The DBT computes flags as ((res & 0x80000000) >> 31); testing
    // bit 7 of an 8-bit zext'ed value folds away everything else.
    ExprRef x = b.var("x", 8);
    ExprRef wide = b.zext(x, 32);
    // bit 31 of zext(x,32) is known zero -> whole expression is 0.
    ExprRef flag =
        b.lshr(b.bAnd(wide, b.constant(0x80000000u, 32)),
               b.constant(31, 32));
    EXPECT_EQ(simp.simplify(flag), b.constant(0, 32));
}

TEST_F(SimplifyTest, StatsTrackDrops)
{
    simp.resetStats();
    ExprRef x = b.var("x", 32);
    ExprRef e = b.extract(b.bOr(x, b.constant(0xFF00, 32)), 0, 8);
    simp.simplify(e);
    EXPECT_GE(simp.stats().opsDropped, 1u);
}

/**
 * Soundness property: simplify(e) must evaluate identically to e on
 * random assignments, for randomly generated bitfield-flavored
 * expressions (masks, shifts, extracts, ors).
 */
TEST_F(SimplifyTest, PropertySimplifyPreservesSemantics)
{
    Rng rng(77);
    ExprRef x = b.var("x", 32);
    ExprRef y = b.var("y", 32);

    for (int iter = 0; iter < 400; ++iter) {
        // Random expression built from bitfieldy ops.
        ExprRef e = rng.chance(0.5) ? x : y;
        int depth = 1 + static_cast<int>(rng.below(5));
        for (int d = 0; d < depth; ++d) {
            switch (rng.below(8)) {
              case 0:
                e = b.bAnd(e, b.constant(rng.next(), 32));
                break;
              case 1:
                e = b.bOr(e, b.constant(rng.next(), 32));
                break;
              case 2:
                e = b.bXor(e, b.constant(rng.next(), 32));
                break;
              case 3:
                e = b.shl(e, b.constant(rng.below(32), 32));
                break;
              case 4:
                e = b.lshr(e, b.constant(rng.below(32), 32));
                break;
              case 5:
                e = b.add(e, rng.chance(0.5) ? y : x);
                break;
              case 6: {
                unsigned off = rng.below(24);
                e = b.zext(b.extract(e, off, 8), 32);
                break;
              }
              default:
                e = b.bNot(e);
                break;
            }
        }
        ExprRef s = simp.simplify(e);
        for (int trial = 0; trial < 8; ++trial) {
            Assignment a;
            a.set(x, rng.next());
            a.set(y, rng.next());
            ASSERT_EQ(evaluate(e, a), evaluate(s, a))
                << "expr: " << e->toString()
                << "\nsimplified: " << s->toString();
        }
    }
}

/**
 * Soundness property for the known-bits analysis itself: every bit
 * the lattice claims to know must match the evaluator on random
 * assignments, across randomly composed expressions.
 */
TEST_F(SimplifyTest, PropertyKnownBitsAreSound)
{
    Rng rng(4242);
    ExprRef x = b.var("kx", 32);
    ExprRef y = b.var("ky", 32);

    for (int iter = 0; iter < 300; ++iter) {
        ExprRef e = rng.chance(0.5) ? x : y;
        int depth = 1 + static_cast<int>(rng.below(6));
        for (int d = 0; d < depth; ++d) {
            switch (rng.below(10)) {
              case 0: e = b.bAnd(e, b.constant(rng.next(), 32)); break;
              case 1: e = b.bOr(e, b.constant(rng.next(), 32)); break;
              case 2: e = b.bXor(e, rng.chance(0.5) ? x : y); break;
              case 3: e = b.shl(e, b.constant(rng.below(32), 32)); break;
              case 4: e = b.lshr(e, b.constant(rng.below(32), 32)); break;
              case 5: e = b.ashr(e, b.constant(rng.below(32), 32)); break;
              case 6: e = b.add(e, b.constant(rng.next(), 32)); break;
              case 7:
                e = b.zext(b.extract(e, rng.below(16), 8), 32);
                break;
              case 8:
                e = b.sext(b.extract(e, rng.below(16), 8), 32);
                break;
              default: e = b.bNot(e); break;
            }
        }
        KnownBits kb = knownBits(e);
        ASSERT_EQ(kb.zeros & kb.ones, 0u);
        for (int trial = 0; trial < 6; ++trial) {
            Assignment a;
            a.set(x, rng.next());
            a.set(y, rng.next());
            uint64_t v = evaluate(e, a);
            ASSERT_EQ(v & kb.zeros, 0u) << e->toString();
            ASSERT_EQ(v & kb.ones, kb.ones) << e->toString();
        }
    }
}

/** Random 32-bit expression exercising *every* Expr kind (the earlier
 *  properties stay on bitfieldy shapes; this one is the full grammar,
 *  including division, comparisons, ite, concat and sign handling). */
ExprRef
randomAllKinds(ExprBuilder &b, Rng &rng, const std::vector<ExprRef> &vars,
               unsigned depth)
{
    if (depth == 0 || rng.chance(0.25)) {
        if (rng.chance(0.3))
            return b.constant(rng.next(), 32);
        return vars[rng.below(vars.size())];
    }
    ExprRef l = randomAllKinds(b, rng, vars, depth - 1);
    ExprRef r = randomAllKinds(b, rng, vars, depth - 1);
    switch (rng.below(24)) {
      case 0: return b.add(l, r);
      case 1: return b.sub(l, r);
      case 2: return b.mul(l, r);
      case 3: return b.udiv(l, r);
      case 4: return b.sdiv(l, r);
      case 5: return b.urem(l, r);
      case 6: return b.srem(l, r);
      case 7: return b.bAnd(l, r);
      case 8: return b.bOr(l, r);
      case 9: return b.bXor(l, r);
      case 10: return b.bNot(l);
      case 11: return b.neg(l);
      case 12: return b.shl(l, b.constant(rng.below(40), 32));
      case 13: return b.lshr(l, b.constant(rng.below(40), 32));
      case 14: return b.ashr(l, b.constant(rng.below(40), 32));
      case 15:
        return b.concat(b.extract(l, 16, 16), b.extract(r, 0, 16));
      case 16: return b.zext(b.extract(l, rng.below(16), 8), 32);
      case 17: return b.sext(b.extract(l, rng.below(16), 8), 32);
      case 18: return b.zext(b.eq(l, r), 32);
      case 19: return b.zext(b.ult(l, r), 32);
      case 20: return b.zext(b.ule(l, r), 32);
      case 21: return b.zext(b.slt(l, r), 32);
      case 22: return b.zext(b.sle(l, r), 32);
      default: return b.ite(b.ult(l, r), l, r);
    }
}

/** Full-grammar equivalence: simplify() must preserve the value of
 *  random trees over every Expr kind on random models. */
TEST_F(SimplifyTest, PropertyAllKindsSimplifyPreservesSemantics)
{
    Rng rng(20260808);
    std::vector<ExprRef> vars = {b.var("p", 32), b.var("q", 32),
                                 b.var("r", 32)};
    for (int iter = 0; iter < 500; ++iter) {
        ExprRef e = randomAllKinds(b, rng, vars, 4);
        ExprRef s = simp.simplify(e);
        for (int trial = 0; trial < 8; ++trial) {
            Assignment a;
            for (ExprRef v : vars)
                a.set(v, rng.next());
            ASSERT_EQ(evaluate(e, a), evaluate(s, a))
                << "expr: " << e->toString()
                << "\nsimplified: " << s->toString();
        }
    }
}

/** simplifyDemanded may change bits outside the demanded mask but must
 *  agree on every demanded bit, for random trees and random masks. */
TEST_F(SimplifyTest, PropertyDemandedBitsAgreeOnDemandedBits)
{
    Rng rng(5150);
    std::vector<ExprRef> vars = {b.var("dp", 32), b.var("dq", 32),
                                 b.var("dr", 32)};
    for (int iter = 0; iter < 500; ++iter) {
        ExprRef e = randomAllKinds(b, rng, vars, 4);
        uint64_t demanded = rng.next() & 0xFFFFFFFFu;
        if (demanded == 0)
            demanded = 1;
        ExprRef s = simp.simplifyDemandedBits(e, demanded);
        for (int trial = 0; trial < 8; ++trial) {
            Assignment a;
            for (ExprRef v : vars)
                a.set(v, rng.next());
            ASSERT_EQ(evaluate(e, a) & demanded, evaluate(s, a) & demanded)
                << "expr: " << e->toString() << "\ndemanded: " << std::hex
                << demanded << "\nsimplified: " << s->toString();
        }
    }
}

TEST_F(SimplifyTest, SimplifyIsIdempotent)
{
    ExprRef x = b.var("x", 32);
    ExprRef e = b.extract(b.bOr(b.bAnd(x, b.constant(0xFFFF, 32)),
                                b.constant(0xAA0000, 32)),
                          0, 16);
    ExprRef s1 = simp.simplify(e);
    ExprRef s2 = simp.simplify(s1);
    EXPECT_EQ(s1, s2);
}

TEST_F(SimplifyTest, ReducesNodeCountOnFlagPatterns)
{
    // A chain of flag computations (mask, shift, or) typical of DBT
    // output; the simplifier should shrink it.
    ExprRef x = b.var("x", 32);
    ExprRef flags = b.constant(0, 32);
    for (int i = 0; i < 6; ++i) {
        ExprRef bit = b.lshr(b.bAnd(x, b.constant(1u << i, 32)),
                             b.constant(i, 32));
        flags = b.bOr(b.shl(bit, b.constant(i, 32)), flags);
    }
    // Consumer only looks at bit 0.
    ExprRef test = b.bAnd(flags, b.constant(1, 32));
    ExprRef s = simp.simplify(test);
    EXPECT_LE(s->nodeCount(), test->nodeCount());
}

TEST_F(SimplifyTest, LongStreamKeepsCachesBoundedAndResultsExact)
{
    // Distinct expressions, enough to pass both caps several times:
    // each call adds memo and abstract-value entries for new nodes.
    ExprRef x = b.var("x", 32);
    ExprRef y = b.var("y", 32);
    constexpr uint32_t kExprs = 3 * Simplifier::kMaxMemoEntries / 4;
    size_t memo_clears = 0, fact_clears = 0;
    size_t last_memo = 0, last_facts = 0;
    for (uint32_t i = 0; i < kExprs; ++i) {
        ExprRef e = b.bAnd(b.bOr(b.add(x, b.constant(i, 32)),
                                 b.shl(y, b.constant(i % 31, 32))),
                           b.constant(0xFFFF, 32));
        ExprRef out = simp.simplify(e);
        ASSERT_LE(simp.memoSize(), Simplifier::kMaxMemoEntries) << i;
        ASSERT_LE(simp.factCacheSize(), Simplifier::kMaxFactEntries) << i;
        memo_clears += simp.memoSize() < last_memo;
        fact_clears += simp.factCacheSize() < last_facts;
        last_memo = simp.memoSize();
        last_facts = simp.factCacheSize();
        // A cleared cache never changes an answer.
        Simplifier fresh(b);
        ASSERT_EQ(out, fresh.simplify(e)) << i;
    }
    EXPECT_GE(memo_clears, 1u);
    EXPECT_GE(fact_clears, 1u);
}

} // namespace
} // namespace s2e::expr
