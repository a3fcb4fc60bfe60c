/**
 * @file
 * Static value-analysis (absint) suite: abstract-domain algebra,
 * transfer-function soundness against the concrete evaluator (the
 * simplifier's known-bits collapse is built on it), and the
 * constraint-driven backward refinement of the Analyzer.
 */

#include <gtest/gtest.h>

#include "expr/absint/absval.hh"
#include "expr/absint/analyzer.hh"
#include "expr/builder.hh"
#include "expr/eval.hh"
#include "support/rng.hh"

namespace s2e {
namespace {

using expr::Assignment;
using expr::ExprBuilder;
using expr::ExprRef;
using expr::absint::AbsValue;
using expr::absint::Analyzer;

// --- Abstract domain algebra ---------------------------------------------

TEST(AbsValue, ConstantIsSingleton)
{
    AbsValue v = AbsValue::constant(42, 8);
    EXPECT_TRUE(v.isConstant());
    EXPECT_EQ(v.constantValue(), 42u);
    EXPECT_TRUE(v.contains(42));
    EXPECT_FALSE(v.contains(41));
    EXPECT_TRUE(v.kb.allKnown(8));
}

TEST(AbsValue, ReduceFeedsKnownBitsIntoBounds)
{
    // Bit 7 known one forces umin >= 0x80.
    KnownBits kb;
    kb.ones = 0x80;
    AbsValue v = AbsValue::bits(kb, 8);
    EXPECT_GE(v.umin, 0x80u);
    EXPECT_LE(v.umax, 0xFFu);
}

TEST(AbsValue, ReduceFeedsBoundsIntoKnownBits)
{
    // [0xF0, 0xF3]: the common prefix 0xF0 pins the top six bits.
    AbsValue v = AbsValue::range(0xF0, 0xF3, 8);
    EXPECT_EQ(v.kb.ones & 0xF0u, 0xF0u);
    EXPECT_EQ(v.kb.zeros & 0x0Cu, 0x0Cu);
}

TEST(AbsValue, MeetOfDisjointIntervalsIsBottom)
{
    AbsValue a = AbsValue::range(0, 9, 8);
    AbsValue b = AbsValue::range(20, 30, 8);
    EXPECT_TRUE(a.meet(b).isBottom());
}

TEST(AbsValue, MeetNarrowsJoinWidens)
{
    AbsValue a = AbsValue::range(0, 20, 8);
    AbsValue b = AbsValue::range(10, 30, 8);
    AbsValue m = a.meet(b);
    EXPECT_EQ(m.umin, 10u);
    EXPECT_EQ(m.umax, 20u);
    AbsValue j = a.join(b);
    EXPECT_EQ(j.umin, 0u);
    EXPECT_EQ(j.umax, 30u);
}

TEST(AbsValue, ConflictingKnownBitsAreBottom)
{
    KnownBits one, zero;
    one.ones = 1;
    zero.zeros = 1;
    EXPECT_TRUE(
        AbsValue::bits(one, 8).meet(AbsValue::bits(zero, 8)).isBottom());
}

TEST(AbsValue, SignedRangeWrapsToUnsigned)
{
    // [-2, 1] signed over 8 bits straddles the wrap: unsigned bounds
    // must stay full-range, signed bounds must hold.
    AbsValue v = AbsValue::signedRange(-2, 1, 8);
    EXPECT_EQ(v.smin, -2);
    EXPECT_EQ(v.smax, 1);
    EXPECT_TRUE(v.contains(0xFE)); // -2
    EXPECT_TRUE(v.contains(1));
}

// --- Transfer-function soundness -----------------------------------------

/** Random expression over every Expr kind (the generator's shape
 *  mirrors DBT output: arithmetic over masked/shifted variables with
 *  comparisons and ites mixed in). */
ExprRef
randomExpr(ExprBuilder &b, Rng &rng, const std::vector<ExprRef> &vars,
           unsigned depth)
{
    if (depth == 0 || rng.chance(0.25)) {
        if (rng.chance(0.3))
            return b.constant(rng.next(), 32);
        return vars[rng.below(vars.size())];
    }
    ExprRef a = randomExpr(b, rng, vars, depth - 1);
    ExprRef c = randomExpr(b, rng, vars, depth - 1);
    switch (rng.below(24)) {
      case 0: return b.add(a, c);
      case 1: return b.sub(a, c);
      case 2: return b.mul(a, c);
      case 3: return b.udiv(a, c);
      case 4: return b.sdiv(a, c);
      case 5: return b.urem(a, c);
      case 6: return b.srem(a, c);
      case 7: return b.bAnd(a, c);
      case 8: return b.bOr(a, c);
      case 9: return b.bXor(a, c);
      case 10: return b.bNot(a);
      case 11: return b.neg(a);
      case 12: return b.shl(a, b.constant(rng.below(40), 32));
      case 13: return b.lshr(a, b.constant(rng.below(40), 32));
      case 14: return b.ashr(a, b.constant(rng.below(40), 32));
      case 15:
        return b.concat(b.extract(a, 0, 16), b.extract(c, 0, 16));
      case 16: return b.zext(b.extract(a, rng.below(16), 8), 32);
      case 17: return b.sext(b.extract(a, rng.below(16), 8), 32);
      case 18: return b.zext(b.eq(a, c), 32);
      case 19: return b.zext(b.ult(a, c), 32);
      case 20: return b.zext(b.ule(a, c), 32);
      case 21: return b.zext(b.slt(a, c), 32);
      case 22: return b.zext(b.sle(a, c), 32);
      default:
        return b.ite(b.ult(a, c), a, c);
    }
}

TEST(AbsintTransfer, PropertyEvalPureContainsConcreteValue)
{
    ExprBuilder b;
    Rng rng(1337);
    std::vector<ExprRef> vars = {b.var("a", 32), b.var("b", 32),
                                 b.var("c", 32)};
    for (int iter = 0; iter < 600; ++iter) {
        ExprRef e = randomExpr(b, rng, vars, 4);
        AbsValue v = expr::absint::evalPure(e);
        ASSERT_FALSE(v.isBottom()) << e->toString();
        for (int trial = 0; trial < 6; ++trial) {
            Assignment a;
            for (ExprRef var : vars)
                a.set(var, rng.next());
            uint64_t cv = expr::evaluate(e, a);
            ASSERT_TRUE(v.contains(cv))
                << "abs " << v.toString() << " misses " << cv << " of "
                << e->toString();
        }
    }
}

TEST(AbsintTransfer, MaskedValueHasTightBounds)
{
    ExprBuilder b;
    AbsValue v = expr::absint::evalPure(
        b.bAnd(b.var("x", 32), b.constant(0xFF, 32)));
    EXPECT_EQ(v.umax, 0xFFu);
    EXPECT_EQ(v.kb.zeros & 0xFFFFFF00u, 0xFFFFFF00u);
}

TEST(AbsintTransfer, ComparisonOfDisjointRangesFolds)
{
    ExprBuilder b;
    // (x & 0xF) < 0x100 is statically true.
    ExprRef e = b.ult(b.bAnd(b.var("x", 32), b.constant(0xF, 32)),
                      b.constant(0x100, 32));
    AbsValue v = expr::absint::evalPure(e);
    EXPECT_TRUE(v.isConstant());
    EXPECT_EQ(v.constantValue(), 1u);
}

// --- Backward refinement over constraint sets ----------------------------

TEST(AbsintAnalyzer, UltNarrowsVariableInterval)
{
    ExprBuilder b;
    Analyzer an;
    ExprRef x = b.var("x", 32);
    auto facts = an.analyze({b.ult(x, b.constant(10, 32))});
    ASSERT_FALSE(facts->bottom);
    AbsValue v = an.eval(x, *facts);
    EXPECT_EQ(v.umax, 9u);
}

TEST(AbsintAnalyzer, EqPinsVariableToConstant)
{
    ExprBuilder b;
    Analyzer an;
    ExprRef x = b.var("x", 32);
    auto facts = an.analyze({b.eq(x, b.constant(42, 32))});
    ASSERT_FALSE(facts->bottom);
    AbsValue v = an.eval(x, *facts);
    EXPECT_TRUE(v.isConstant());
    EXPECT_EQ(v.constantValue(), 42u);
}

TEST(AbsintAnalyzer, CrossConstraintFixpointPropagates)
{
    // x < 10 and y == x + 20 together bound y without any solver.
    ExprBuilder b;
    Analyzer an;
    ExprRef x = b.var("x", 32);
    ExprRef y = b.var("y", 32);
    auto facts = an.analyze(
        {b.ult(x, b.constant(10, 32)),
         b.eq(y, b.add(x, b.constant(20, 32)))});
    ASSERT_FALSE(facts->bottom);
    AbsValue v = an.eval(y, *facts);
    EXPECT_GE(v.umin, 20u);
    EXPECT_LE(v.umax, 29u);
}

TEST(AbsintAnalyzer, ContradictoryConstraintsGoBottom)
{
    ExprBuilder b;
    Analyzer an;
    ExprRef x = b.var("x", 32);
    auto facts = an.analyze({b.ult(x, b.constant(10, 32)),
                             b.ult(b.constant(20, 32), x)});
    EXPECT_TRUE(facts->bottom);
}

TEST(AbsintAnalyzer, PrefixSeedsExtensionAndCacheHitsExactSet)
{
    ExprBuilder b;
    Analyzer an;
    uint64_t computed = 0, reused = 0, iters = 0;
    an.bindCounters(&computed, &reused, &iters);
    ExprRef x = b.var("x", 32);
    std::vector<ExprRef> cs = {b.ult(x, b.constant(100, 32))};
    an.analyze(cs);
    EXPECT_EQ(computed, 1u);
    an.analyze(cs); // exact hit
    EXPECT_EQ(computed, 1u);
    EXPECT_EQ(reused, 1u);
    cs.push_back(b.ult(b.constant(10, 32), x)); // path appends
    auto facts = an.analyze(cs);
    EXPECT_EQ(computed, 2u);
    EXPECT_EQ(reused, 2u); // prefix seeded
    AbsValue v = an.eval(x, *facts);
    EXPECT_EQ(v.umin, 11u);
    EXPECT_EQ(v.umax, 99u);
}

/**
 * Refinement soundness: build a random witness assignment first, then
 * random constraints that hold under it — every refined fact must
 * still contain the witness's value at that node.
 */
TEST(AbsintAnalyzer, PropertyRefinedFactsContainWitness)
{
    Rng rng(9001);
    for (int iter = 0; iter < 200; ++iter) {
        ExprBuilder b;
        Analyzer an;
        std::vector<ExprRef> vars = {b.var("a", 32), b.var("b", 32),
                                     b.var("c", 32)};
        Assignment witness;
        for (ExprRef var : vars)
            witness.set(var, rng.next());

        std::vector<ExprRef> cs;
        for (unsigned k = 0; k < 1 + rng.below(4); ++k) {
            ExprRef e = randomExpr(b, rng, vars, 3);
            uint64_t v = expr::evaluate(e, witness);
            switch (rng.below(4)) {
              case 0:
                cs.push_back(b.eq(e, b.constant(v, 32)));
                break;
              case 1:
                cs.push_back(
                    b.ule(e, b.constant(v | rng.next(), 32)));
                break;
              case 2:
                cs.push_back(
                    b.uge(e, b.constant(v & rng.next(), 32)));
                break;
              default:
                // A whole random boolean that happens to hold.
                cs.push_back(expr::evaluate(e, witness) & 1
                                 ? b.extract(e, 0, 1)
                                 : b.lnot(b.extract(e, 0, 1)));
                break;
            }
        }
        auto facts = an.analyze(cs);
        ASSERT_FALSE(facts->bottom) << "witnessed set flagged bottom";
        for (const auto &[node, val] : facts->refined) {
            uint64_t cv = expr::evaluate(node, witness);
            ASSERT_TRUE(val.contains(cv))
                << "fact " << val.toString() << " at "
                << node->toString() << " excludes witness value " << cv;
        }
    }
}

} // namespace
} // namespace s2e
