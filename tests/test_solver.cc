/** @file Tests for the bit-blaster and the top-level solver. */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <unordered_set>

#include "expr/builder.hh"
#include "expr/eval.hh"
#include "expr/vars.hh"
#include "solver/bitblast.hh"
#include "solver/context.hh"
#include "solver/solver.hh"
#include "support/rng.hh"

namespace s2e::solver {
namespace {

using expr::Assignment;
using expr::ExprBuilder;
using expr::Kind;

class SolverTest : public ::testing::Test
{
  protected:
    ExprBuilder b;
    Solver solver{b};
};

/** Pigeonhole(n, m) at the expression level: unsatisfiable for n > m,
 *  immune to root-level unit propagation, needs many conflicts. */
std::vector<ExprRef>
pigeonhole(ExprBuilder &b, int n, int m)
{
    std::vector<std::vector<ExprRef>> p(n);
    for (int i = 0; i < n; ++i)
        for (int h = 0; h < m; ++h)
            p[i].push_back(b.freshVar("php", 1));
    std::vector<ExprRef> cs;
    for (int i = 0; i < n; ++i) {
        ExprRef any = b.falseExpr();
        for (int h = 0; h < m; ++h)
            any = b.lor(any, p[i][h]);
        cs.push_back(any);
    }
    for (int h = 0; h < m; ++h)
        for (int i = 0; i < n; ++i)
            for (int j = i + 1; j < n; ++j)
                cs.push_back(b.lnot(b.land(p[i][h], p[j][h])));
    return cs;
}

TEST_F(SolverTest, TrivialSat)
{
    EXPECT_TRUE(solver.mayBeTrue({}, b.trueExpr()).yes());
    EXPECT_TRUE(solver.mayBeTrue({}, b.falseExpr()).no());
}

TEST_F(SolverTest, VariableEquality)
{
    ExprRef x = b.var("x", 32);
    ExprRef c = b.eq(x, b.constant(42, 32));
    Assignment model;
    EXPECT_EQ(solver.checkSat({}, c, &model).result, CheckResult::Sat);
    EXPECT_EQ(expr::evaluate(x, model), 42u);
}

TEST_F(SolverTest, ContradictionUnsat)
{
    ExprRef x = b.var("x", 32);
    std::vector<ExprRef> cs = {b.eq(x, b.constant(1, 32))};
    EXPECT_TRUE(solver.mayBeTrue(cs, b.eq(x, b.constant(2, 32))).no());
}

TEST_F(SolverTest, MustBeTrue)
{
    ExprRef x = b.var("x", 8);
    std::vector<ExprRef> cs = {b.ult(x, b.constant(10, 8))};
    EXPECT_TRUE(solver.mustBeTrue(cs, b.ult(x, b.constant(11, 8))).yes());
    EXPECT_TRUE(solver.mustBeTrue(cs, b.ult(x, b.constant(5, 8))).no());
}

TEST_F(SolverTest, ArithmeticReasoning)
{
    // x + y == 10, x == 3  =>  y == 7.
    ExprRef x = b.var("x", 32);
    ExprRef y = b.var("y", 32);
    std::vector<ExprRef> cs = {
        b.eq(b.add(x, y), b.constant(10, 32)),
        b.eq(x, b.constant(3, 32)),
    };
    EXPECT_TRUE(solver.mustBeTrue(cs, b.eq(y, b.constant(7, 32))).yes());
}

TEST_F(SolverTest, MultiplicationInversion)
{
    // x * 3 == 21 over 16 bits: x == 7 possible... and also the
    // modular solutions; just check satisfiability and a witness.
    ExprRef x = b.var("x", 16);
    ExprRef c = b.eq(b.mul(x, b.constant(3, 16)), b.constant(21, 16));
    Assignment model;
    ASSERT_EQ(solver.checkSat({}, c, &model).result, CheckResult::Sat);
    uint64_t xv = expr::evaluate(x, model);
    EXPECT_EQ((xv * 3) & 0xFFFF, 21u);
}

TEST_F(SolverTest, DivisionSemantics)
{
    // x / 0 == 0xFF for all 8-bit x (total-function semantics).
    ExprRef x = b.var("x", 8);
    ExprRef q = b.udiv(x, b.constant(0, 8));
    EXPECT_TRUE(
        solver.mustBeTrue({}, b.eq(q, b.constant(0xFF, 8))).yes());
}

TEST_F(SolverTest, SignedComparisonReasoning)
{
    // -5 < x (signed) and x < 0 (signed) has solutions (e.g. -1).
    ExprRef x = b.var("x", 8);
    std::vector<ExprRef> cs = {
        b.slt(b.constant(0xFB, 8), x), // -5 < x
        b.slt(x, b.constant(0, 8)),
    };
    Assignment model;
    ASSERT_EQ(solver.checkSat(cs, b.trueExpr(), &model).result,
              CheckResult::Sat);
    int64_t xv = signExtend(expr::evaluate(x, model), 8);
    EXPECT_GT(xv, -5);
    EXPECT_LT(xv, 0);
}

TEST_F(SolverTest, ShiftReasoning)
{
    // (1 << x) == 16  =>  x == 4 (for x < 8).
    ExprRef x = b.var("x", 8);
    std::vector<ExprRef> cs = {
        b.eq(b.shl(b.constant(1, 8), x), b.constant(16, 8)),
        b.ult(x, b.constant(8, 8)),
    };
    EXPECT_TRUE(solver.mustBeTrue(cs, b.eq(x, b.constant(4, 8))).yes());
}

TEST_F(SolverTest, GetValueReturnsConsistentWitness)
{
    ExprRef x = b.var("x", 32);
    std::vector<ExprRef> cs = {b.ult(b.constant(100, 32), x),
                               b.ult(x, b.constant(110, 32))};
    uint64_t v = 0;
    ASSERT_TRUE(solver.getValue(cs, x, &v).isSat());
    EXPECT_GT(v, 100u);
    EXPECT_LT(v, 110u);
}

TEST_F(SolverTest, GetValueOnUnsatReturnsNothing)
{
    ExprRef x = b.var("x", 8);
    std::vector<ExprRef> cs = {b.ult(x, b.constant(1, 8)),
                               b.ult(b.constant(1, 8), x)};
    uint64_t v = 0;
    EXPECT_TRUE(solver.getValue(cs, x, &v).isUnsat());
}

TEST_F(SolverTest, GetRangeExact)
{
    ExprRef x = b.var("x", 8);
    std::vector<ExprRef> cs = {b.uge(x, b.constant(17, 8)),
                               b.ule(x, b.constant(63, 8))};
    uint64_t lo = 0, hi = 0;
    ASSERT_TRUE(solver.getRange(cs, x, &lo, &hi).isSat());
    EXPECT_EQ(lo, 17u);
    EXPECT_EQ(hi, 63u);
}

TEST_F(SolverTest, GetRangeOfDerivedExpr)
{
    ExprRef x = b.var("x", 8);
    std::vector<ExprRef> cs = {b.ule(x, b.constant(10, 8))};
    uint64_t lo = 0, hi = 0;
    ASSERT_TRUE(
        solver.getRange(cs, b.add(x, b.constant(5, 8)), &lo, &hi).isSat());
    EXPECT_EQ(lo, 5u);
    EXPECT_EQ(hi, 15u);
}

TEST_F(SolverTest, CheckBranchBothFeasible)
{
    ExprRef x = b.var("x", 8);
    auto f = solver.checkBranch({}, b.ult(x, b.constant(5, 8)));
    EXPECT_TRUE(f.trueSide.yes());
    EXPECT_TRUE(f.falseSide.yes());
}

TEST_F(SolverTest, CheckBranchOnlyOneFeasible)
{
    ExprRef x = b.var("x", 8);
    std::vector<ExprRef> cs = {b.ult(x, b.constant(3, 8))};
    auto f = solver.checkBranch(cs, b.ult(x, b.constant(10, 8)));
    EXPECT_TRUE(f.trueSide.yes());
    EXPECT_TRUE(f.falseSide.no());
}

TEST_F(SolverTest, IndependenceSlicing)
{
    // Unrelated constraints should not affect the query result and
    // should be sliced away (visible in stats).
    ExprRef x = b.var("x", 32);
    std::vector<ExprRef> cs;
    for (int i = 0; i < 10; ++i) {
        ExprRef z = b.freshVar("z", 32);
        cs.push_back(b.eq(z, b.constant(i, 32)));
    }
    cs.push_back(b.ult(x, b.constant(4, 32)));
    EXPECT_TRUE(solver.mayBeTrue(cs, b.eq(x, b.constant(3, 32))).yes());
    EXPECT_GT(solver.stats().get("solver.constraints_sliced_away"), 0u);
}

TEST_F(SolverTest, ModelCacheHitsOnRepeatedQueries)
{
    ExprRef x = b.var("x", 16);
    std::vector<ExprRef> cs = {b.ult(x, b.constant(100, 16))};
    EXPECT_TRUE(solver.mayBeTrue(cs, b.ult(x, b.constant(50, 16))).yes());
    uint64_t sat_before = solver.stats().get("solver.sat_queries");
    EXPECT_TRUE(solver.mayBeTrue(cs, b.ult(x, b.constant(50, 16))).yes());
    // Second identical query should reuse the cached model.
    EXPECT_EQ(solver.stats().get("solver.sat_queries"), sat_before);
}

TEST_F(SolverTest, GetInitialValuesCoversVariables)
{
    ExprRef x = b.var("x", 8);
    ExprRef y = b.var("y", 8);
    std::vector<ExprRef> cs = {b.eq(b.add(x, y), b.constant(9, 8)),
                               b.ult(x, b.constant(3, 8))};
    Assignment model;
    ASSERT_TRUE(solver.getInitialValues(cs, &model).isSat());
    for (ExprRef c : cs)
        EXPECT_TRUE(expr::evaluateBool(c, model));
}

TEST_F(SolverTest, IteConstraint)
{
    // ite(x < 5, 1, 2) == 2  =>  x >= 5
    ExprRef x = b.var("x", 8);
    ExprRef sel = b.ite(b.ult(x, b.constant(5, 8)), b.constant(1, 8),
                        b.constant(2, 8));
    std::vector<ExprRef> cs = {b.eq(sel, b.constant(2, 8))};
    EXPECT_TRUE(solver.mustBeTrue(cs, b.uge(x, b.constant(5, 8))).yes());
}

TEST_F(SolverTest, SymbolicPointerStyleIteChain)
{
    // Model of a symbolic memory read lowered to an ite chain: the
    // page-content-passing scheme from §5.
    ExprRef idx = b.var("idx", 8);
    ExprRef read = b.constant(0, 8);
    uint8_t content[16];
    for (int i = 0; i < 16; ++i)
        content[i] = static_cast<uint8_t>(i * 7 + 3);
    for (int i = 15; i >= 0; --i) {
        read = b.ite(b.eq(idx, b.constant(i, 8)),
                     b.constant(content[i], 8), read);
    }
    std::vector<ExprRef> cs = {b.ult(idx, b.constant(16, 8)),
                               b.eq(read, b.constant(content[11], 8))};
    Assignment model;
    ASSERT_EQ(solver.checkSat(cs, b.trueExpr(), &model).result,
              CheckResult::Sat);
    // content[11] is unique in the table, so idx must be 11.
    EXPECT_EQ(expr::evaluate(idx, model), 11u);
}

/**
 * Exhaustive bit-blaster verification on 4-bit operands: every binary
 * operator is checked against the evaluator for all 256 input pairs.
 */
class BlastExhaustiveTest : public ::testing::TestWithParam<Kind>
{
};

TEST_P(BlastExhaustiveTest, MatchesEvaluatorOn4Bits)
{
    Kind kind = GetParam();
    ExprBuilder b;
    Solver solver(b);
    ExprRef x = b.var("x", 4);
    ExprRef y = b.var("y", 4);

    ExprRef e;
    switch (kind) {
      case Kind::Add: e = b.add(x, y); break;
      case Kind::Sub: e = b.sub(x, y); break;
      case Kind::Mul: e = b.mul(x, y); break;
      case Kind::UDiv: e = b.udiv(x, y); break;
      case Kind::SDiv: e = b.sdiv(x, y); break;
      case Kind::URem: e = b.urem(x, y); break;
      case Kind::SRem: e = b.srem(x, y); break;
      case Kind::And: e = b.bAnd(x, y); break;
      case Kind::Or: e = b.bOr(x, y); break;
      case Kind::Xor: e = b.bXor(x, y); break;
      case Kind::Shl: e = b.shl(x, y); break;
      case Kind::LShr: e = b.lshr(x, y); break;
      case Kind::AShr: e = b.ashr(x, y); break;
      default: FAIL() << "unsupported kind";
    }

    for (uint64_t xv = 0; xv < 16; ++xv) {
        for (uint64_t yv = 0; yv < 16; ++yv) {
            uint64_t expect =
                expr::ExprBuilder::foldBinary(kind, xv, yv, 4);
            std::vector<ExprRef> cs = {
                b.eq(x, b.constant(xv, 4)),
                b.eq(y, b.constant(yv, 4)),
            };
            ASSERT_TRUE(
                solver.mustBeTrue(cs, b.eq(e, b.constant(expect, 4)))
                    .yes())
                << expr::kindName(kind) << "(" << xv << ", " << yv
                << ") != " << expect;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllBinaryOps, BlastExhaustiveTest,
    ::testing::Values(Kind::Add, Kind::Sub, Kind::Mul, Kind::UDiv,
                      Kind::SDiv, Kind::URem, Kind::SRem, Kind::And,
                      Kind::Or, Kind::Xor, Kind::Shl, Kind::LShr,
                      Kind::AShr),
    [](const ::testing::TestParamInfo<Kind> &info) {
        return expr::kindName(info.param);
    });

/** Exhaustive comparison-operator verification on 4-bit operands. */
class BlastCompareTest : public ::testing::TestWithParam<Kind>
{
};

TEST_P(BlastCompareTest, MatchesEvaluatorOn4Bits)
{
    Kind kind = GetParam();
    ExprBuilder b;
    Solver solver(b);
    ExprRef x = b.var("x", 4);
    ExprRef y = b.var("y", 4);

    ExprRef e;
    switch (kind) {
      case Kind::Eq: e = b.eq(x, y); break;
      case Kind::Ult: e = b.ult(x, y); break;
      case Kind::Ule: e = b.ule(x, y); break;
      case Kind::Slt: e = b.slt(x, y); break;
      case Kind::Sle: e = b.sle(x, y); break;
      default: FAIL();
    }

    for (uint64_t xv = 0; xv < 16; ++xv) {
        for (uint64_t yv = 0; yv < 16; ++yv) {
            bool expect =
                expr::ExprBuilder::foldBinary(kind, xv, yv, 4) != 0;
            std::vector<ExprRef> cs = {
                b.eq(x, b.constant(xv, 4)),
                b.eq(y, b.constant(yv, 4)),
            };
            ASSERT_TRUE(
                solver.mustBeTrue(cs, expect ? e : b.lnot(e)).yes())
                << expr::kindName(kind) << "(" << xv << ", " << yv << ")";
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllCompareOps, BlastCompareTest,
    ::testing::Values(Kind::Eq, Kind::Ult, Kind::Ule, Kind::Slt, Kind::Sle),
    [](const ::testing::TestParamInfo<Kind> &info) {
        return expr::kindName(info.param);
    });

/**
 * Regression: constant-divisor division once mis-blasted because the
 * mux gate's t == !f shortcut had inverted polarity (and a stale
 * seen_ flag bug lurked in conflict analysis). Exhaustive 4-bit check
 * with the divisor as an expression *constant* (not a constrained
 * variable), which exercises the constant-input gate shortcuts.
 */
TEST_F(SolverTest, ConstantOperandOpsExhaustive4Bit)
{
    ExprRef x = b.var("creg", 4);
    for (uint64_t d = 0; d < 16; ++d) {
        ExprRef dc = b.constant(d, 4);
        ExprRef ops[] = {b.udiv(x, dc), b.urem(x, dc), b.sdiv(x, dc),
                         b.srem(x, dc), b.shl(x, dc), b.lshr(x, dc)};
        Kind kinds[] = {Kind::UDiv, Kind::URem, Kind::SDiv,
                        Kind::SRem, Kind::Shl, Kind::LShr};
        for (int k = 0; k < 6; ++k) {
            for (uint64_t v = 0; v < 16; ++v) {
                uint64_t expect =
                    ExprBuilder::foldBinary(kinds[k], v, d, 4);
                std::vector<ExprRef> cs = {b.eq(x, b.constant(v, 4))};
                ASSERT_TRUE(
                    solver
                        .mustBeTrue(cs,
                                    b.eq(ops[k], b.constant(expect, 4)))
                        .yes())
                    << expr::kindName(kinds[k]) << "(" << v << ", " << d
                    << ")";
            }
        }
    }
}

TEST_F(SolverTest, SatModelsAreVerified)
{
    // Deep check that bigger blasted instances produce models that
    // satisfy the clause database (guards the CDCL invariants).
    sat::SatSolver ss;
    BitBlaster blaster(ss);
    ExprRef x = b.var("mv_x", 16);
    ExprRef y = b.var("mv_y", 16);
    blaster.assertTrue(
        b.eq(b.mul(x, y), b.constant(12345, 16)));
    blaster.assertTrue(b.ult(x, y));
    ASSERT_EQ(ss.solve(), sat::SatResult::Sat);
    EXPECT_TRUE(ss.verifyModel());
    uint64_t xv = blaster.modelValue(x);
    uint64_t yv = blaster.modelValue(y);
    EXPECT_EQ((xv * yv) & 0xFFFF, 12345u);
    EXPECT_LT(xv, yv);
}

/** Randomized cross-check: solver models satisfy original constraints. */
TEST_F(SolverTest, PropertyModelsSatisfyConstraints)
{
    Rng rng(55);
    for (int iter = 0; iter < 60; ++iter) {
        ExprRef x = b.freshVar("px", 16);
        ExprRef y = b.freshVar("py", 16);
        std::vector<ExprRef> cs;
        int n = 1 + static_cast<int>(rng.below(4));
        for (int i = 0; i < n; ++i) {
            ExprRef lhs = rng.chance(0.5) ? x : y;
            ExprRef rhs = rng.chance(0.5)
                              ? b.constant(rng.next(), 16)
                              : b.add(rng.chance(0.5) ? x : y,
                                      b.constant(rng.below(100), 16));
            switch (rng.below(3)) {
              case 0: cs.push_back(b.ult(lhs, rhs)); break;
              case 1: cs.push_back(b.ule(lhs, rhs)); break;
              default: cs.push_back(b.ne(lhs, rhs)); break;
            }
        }
        Assignment model;
        QueryOutcome res = solver.checkSat(cs, b.trueExpr(), &model);
        if (res.isSat()) {
            for (ExprRef c : cs)
                ASSERT_TRUE(expr::evaluateBool(c, model))
                    << c->toString();
        }
    }
}

TEST_F(SolverTest, WideWidthArithmetic)
{
    // 64-bit reasoning.
    ExprRef x = b.var("x", 64);
    std::vector<ExprRef> cs = {
        b.eq(b.mul(x, b.constant(1000000007ULL, 64)),
             b.constant(1000000007ULL * 123456789ULL, 64)),
        b.ult(x, b.constant(1ULL << 32, 64)),
    };
    uint64_t v = 0;
    ASSERT_TRUE(solver.getValue(cs, x, &v).isSat());
    EXPECT_EQ(v, 123456789u);
}

TEST_F(SolverTest, ConflictBudgetYieldsUnknown)
{
    // A hard multiplicative query with a 1-conflict budget cannot be
    // decided; the solver must answer Unknown rather than guessing.
    // Note: the query must be phrased so slicing keeps the hard
    // constraint (independence assumes the constraint set itself is
    // satisfiable; see Solver docs).
    SolverOptions opts;
    opts.maxConflicts = 1;
    opts.maxRetries = 0; // no escalation: test the raw budget
    opts.useModelCache = false;
    opts.useIndependence = false;
    Solver limited(b, opts);
    std::vector<ExprRef> cs = pigeonhole(b, 5, 4);

    QueryOutcome res = limited.checkSat(cs, b.trueExpr());
    EXPECT_TRUE(res.isUnknown());
    EXPECT_FALSE(res.timedOut); // conflict budget, not the deadline
    EXPECT_GT(limited.stats().get("solver.unknown_results"), 0u);

    // An unlimited solver proves it unsatisfiable.
    SolverOptions plain_opts;
    plain_opts.useIndependence = false;
    Solver plain(b, plain_opts);
    EXPECT_TRUE(plain.checkSat(cs, b.trueExpr()).isUnsat());
}

TEST_F(SolverTest, PredicateQueriesReportUnknownUnderBudget)
{
    // mayBeTrue / mustBeTrue / getRange must all surface Unknown (never
    // a silent definite answer) when the budget is too small.
    SolverOptions opts;
    opts.maxConflicts = 1;
    opts.maxRetries = 0;
    opts.useModelCache = false;
    opts.useIndependence = false;
    Solver limited(b, opts);
    std::vector<ExprRef> cs = pigeonhole(b, 5, 4);

    ExprRef x = b.var("pqx", 8);
    EXPECT_TRUE(limited.mayBeTrue(cs, b.ult(x, b.constant(5, 8)))
                    .isUnknown());
    EXPECT_TRUE(limited.mustBeTrue(cs, b.ult(x, b.constant(5, 8)))
                    .isUnknown());
    uint64_t lo = 0xAA, hi = 0xBB;
    auto range = limited.getRange(cs, x, &lo, &hi);
    EXPECT_TRUE(range.isUnknown());
    // Out-params untouched on a non-Sat outcome.
    EXPECT_EQ(lo, 0xAAu);
    EXPECT_EQ(hi, 0xBBu);

    // checkBranch: an Unknown true side must NOT be short-circuited
    // into a feasible false side (the old unsound fast path).
    auto f = limited.checkBranch(cs, b.ult(x, b.constant(5, 8)));
    EXPECT_TRUE(f.trueSide.isUnknown());
    EXPECT_TRUE(f.falseSide.isUnknown());
}

TEST_F(SolverTest, WallClockDeadlineYieldsTimedOutUnknown)
{
    // A 1µs deadline on a hard instance: Unknown with timedOut set.
    SolverOptions opts;
    opts.maxMicros = 1;
    opts.maxRetries = 0;
    opts.useModelCache = false;
    opts.useIndependence = false;
    opts.useSimplifier = false;
    Solver limited(b, opts);
    // PHP(8,7) generates hundreds of conflicts — far past the first
    // deadline check (every 4 conflicts / 256 decisions).
    std::vector<ExprRef> cs = pigeonhole(b, 8, 7);

    QueryOutcome res = limited.checkSat(cs, b.trueExpr());
    EXPECT_TRUE(res.isUnknown());
    EXPECT_TRUE(res.timedOut);
    EXPECT_GT(limited.stats().get("solver.timeouts"), 0u);
}

TEST_F(SolverTest, RetryEscalationSolvesAfterUnknown)
{
    // 1 conflict is not enough for PHP(5,4); a huge escalation factor
    // makes the single retry pass succeed. The outcome records the
    // retry, and the answer is the *correct* one (Unsat).
    SolverOptions opts;
    opts.maxConflicts = 1;
    opts.maxRetries = 1;
    opts.retryMultiplier = 1e6;
    opts.useModelCache = false;
    opts.useIndependence = false;
    Solver limited(b, opts);
    std::vector<ExprRef> cs = pigeonhole(b, 5, 4);

    QueryOutcome res = limited.checkSat(cs, b.trueExpr());
    EXPECT_TRUE(res.isUnsat());
    EXPECT_EQ(res.retries, 1u);
    EXPECT_EQ(limited.stats().get("solver.retries"), 1u);
    EXPECT_EQ(limited.stats().get("solver.unknown_results"), 0u);
}

TEST_F(SolverTest, FaultInjectionTriggersChosenQuery)
{
    ExprRef x = b.var("fx", 8);
    std::vector<ExprRef> cs = {b.ult(x, b.constant(10, 8))};

    FaultPolicy policy;
    policy.enabled = true;
    policy.triggerQueries = {2}; // second query fails
    solver.setFaultPolicy(policy);

    auto first = solver.mayBeTrue(cs, b.ult(x, b.constant(5, 8)));
    EXPECT_TRUE(first.yes());
    auto second = solver.mayBeTrue(cs, b.ult(x, b.constant(5, 8)));
    EXPECT_TRUE(second.isUnknown());
    EXPECT_TRUE(second.timedOut); // injected faults present as timeouts
    EXPECT_EQ(solver.stats().get("solver.faults_injected"), 1u);
    auto third = solver.mayBeTrue(cs, b.ult(x, b.constant(5, 8)));
    EXPECT_TRUE(third.yes());
}

TEST_F(SolverTest, FaultInjectionRateIsDeterministic)
{
    ExprRef x = b.var("frx", 8);
    std::vector<ExprRef> cs = {b.ult(x, b.constant(10, 8))};

    FaultPolicy policy;
    policy.enabled = true;
    policy.seed = 1234;
    policy.unknownRate = 0.5;

    auto run_pattern = [&] {
        solver.setFaultPolicy(policy); // resets RNG + query counter
        std::vector<bool> pattern;
        for (int i = 0; i < 32; ++i)
            pattern.push_back(
                solver.mayBeTrue(cs, b.ult(x, b.constant(5, 8)))
                    .isUnknown());
        return pattern;
    };

    auto a = run_pattern();
    auto bp = run_pattern();
    EXPECT_EQ(a, bp); // same seed => identical fault pattern
    EXPECT_TRUE(std::find(a.begin(), a.end(), true) != a.end());
    EXPECT_TRUE(std::find(a.begin(), a.end(), false) != a.end());

    // Clearing the policy stops injection.
    solver.setFaultPolicy(FaultPolicy{});
    for (int i = 0; i < 8; ++i)
        EXPECT_TRUE(solver.mayBeTrue(cs, b.ult(x, b.constant(5, 8)))
                        .yes());
}

TEST_F(SolverTest, GetRangeSingletonAfterConstraints)
{
    ExprRef x = b.var("rx", 16);
    std::vector<ExprRef> cs = {
        b.eq(b.bAnd(x, b.constant(0xFF00, 16)), b.constant(0x1200, 16)),
        b.eq(b.bAnd(x, b.constant(0x00FF, 16)), b.constant(0x0034, 16)),
    };
    uint64_t lo = 0, hi = 0;
    ASSERT_TRUE(solver.getRange(cs, x, &lo, &hi).isSat());
    EXPECT_EQ(lo, 0x1234u);
    EXPECT_EQ(hi, 0x1234u);
}

TEST_F(SolverTest, GetValueSlicesIndependentConstraints)
{
    // getValue over a huge pile of unrelated constraints must not
    // blast them all (this regressed into multi-second concretization
    // stalls during symbolic-pointer loops).
    ExprRef x = b.var("slx", 32);
    std::vector<ExprRef> cs = {b.ult(x, b.constant(50, 32))};
    for (int i = 0; i < 200; ++i) {
        ExprRef z = b.freshVar("slz", 32);
        cs.push_back(b.eq(b.mul(z, z), b.constant(i, 32)));
    }
    uint64_t sat_before = solver.stats().get("solver.sat_queries");
    uint64_t v = 0;
    ASSERT_TRUE(solver.getValue(cs, x, &v).isSat());
    EXPECT_LT(v, 50u);
    // At most a couple of SAT calls; never one per unrelated z.
    EXPECT_LE(solver.stats().get("solver.sat_queries"), sat_before + 2);
}

TEST_F(SolverTest, SimplifierAblationStillCorrect)
{
    SolverOptions opts;
    opts.useSimplifier = false;
    opts.useIndependence = false;
    opts.useModelCache = false;
    Solver plain(b, opts);
    ExprRef x = b.var("xa", 32);
    std::vector<ExprRef> cs = {
        b.eq(b.bAnd(x, b.constant(0xFF, 32)), b.constant(0x42, 32))};
    EXPECT_TRUE(plain.mayBeTrue(cs, b.trueExpr()).yes());
    EXPECT_TRUE(plain
                    .mustBeTrue(cs, b.eq(b.extract(x, 0, 8),
                                         b.constant(0x42, 8)))
                    .yes());
}

TEST(ModelRing, BoundedFifoOverwrite)
{
    ModelRing ring(3);
    auto mk = [](uint64_t id, uint64_t v) {
        Assignment a;
        a.setById(id, v);
        return a;
    };
    EXPECT_TRUE(ring.insert(mk(1, 10)));
    EXPECT_TRUE(ring.insert(mk(2, 20)));
    EXPECT_TRUE(ring.insert(mk(3, 30)));
    EXPECT_EQ(ring.size(), 3u);
    // A fourth insertion overwrites the oldest (id 1), not the newest.
    EXPECT_TRUE(ring.insert(mk(4, 40)));
    EXPECT_EQ(ring.size(), 3u);
    EXPECT_EQ(ring.findNewestFirst(
                  [](const Assignment &a) { return a.has(1); }),
              nullptr);
    for (uint64_t id : {2u, 3u, 4u})
        EXPECT_NE(ring.findNewestFirst(
                      [id](const Assignment &a) { return a.has(id); }),
                  nullptr);
}

TEST(ModelRing, NewestFirstLookupOrder)
{
    ModelRing ring(3);
    for (uint64_t i = 1; i <= 5; ++i) { // leaves {3, 4, 5}, newest 5
        Assignment a;
        a.setById(i, i);
        a.setById(99, i); // shared key: every model matches
        ASSERT_TRUE(ring.insert(std::move(a)));
    }
    const Assignment *hit = ring.findNewestFirst(
        [](const Assignment &a) { return a.has(99); });
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(hit->lookup(99), 5u); // newest wins
    EXPECT_EQ(ring.findNewestFirst(
                  [](const Assignment &a) { return a.has(2); }),
              nullptr); // evicted
}

TEST(ModelRing, DuplicateAssignmentsAreSkipped)
{
    // Regression companion to the ring conversion: repeat queries used
    // to re-insert the identical model and flush older entries.
    ModelRing ring(2);
    Assignment a;
    a.setById(7, 42);
    EXPECT_TRUE(ring.insert(a));
    EXPECT_FALSE(ring.insert(a)); // identical values() => skipped
    EXPECT_EQ(ring.size(), 1u);
    Assignment other;
    other.setById(8, 1);
    EXPECT_TRUE(ring.insert(other));
    EXPECT_FALSE(ring.insert(a)); // still cached, still skipped
    EXPECT_EQ(ring.size(), 2u);
}

TEST_F(SolverTest, CachedModelsMustCoverAllQueryVariables)
{
    // Regression: getValue caches a model over only the *sliced*
    // variables. A later getInitialValues whose constraint set has
    // more variables could hit that partial model (evaluate()'s
    // zero-default makes it "satisfy" the extra constraints) and
    // return it as-is — callers then see no binding at all for the
    // missing variables. The cache hit must extend the model to
    // explicit values covering every variable of the query.
    ExprRef x = b.var("cachx", 32);
    ExprRef y = b.var("cachy", 32);
    std::vector<ExprRef> cs1 = {b.ult(x, b.constant(50, 32))};
    uint64_t v = 0;
    ASSERT_TRUE(solver.getValue(cs1, x, &v).isSat()); // seeds the cache
    ASSERT_LT(v, 50u);

    std::vector<ExprRef> cs2 = {
        b.ult(x, b.constant(50, 32)),
        b.eq(y, b.constant(0, 32)), // y=0: satisfied by the zero-default
    };
    Assignment model;
    ASSERT_TRUE(solver.getInitialValues(cs2, &model).isSat());
    EXPECT_TRUE(model.has(x->varId()));
    EXPECT_TRUE(model.has(y->varId())) // failed before the fix
        << "cache hit returned a model that does not cover y";
    for (ExprRef c : cs2)
        EXPECT_TRUE(expr::evaluateBool(c, model));
}

/** Run a fixed query battery against one solver; collects outcome
 *  kinds plus verified witness values so two solvers can be compared
 *  even when their model bits legitimately differ. */
std::vector<std::string>
queryBattery(Solver &s, ExprBuilder &b, const std::vector<ExprRef> &vars)
{
    std::vector<std::string> log;
    std::vector<ExprRef> cs;
    auto outcome = [](const QueryOutcome &o) {
        return o.isSat() ? "sat" : o.isUnsat() ? "unsat" : "unknown";
    };
    for (size_t i = 0; i < vars.size(); ++i) {
        ExprRef x = vars[i];
        cs.push_back(b.ult(x, b.constant(100 + 10 * i, 32)));
        auto branch =
            s.checkBranch(cs, b.ult(x, b.constant(5, 32)));
        log.push_back(std::string("branchT:") + outcome(branch.trueSide));
        log.push_back(std::string("branchF:") + outcome(branch.falseSide));
        uint64_t v = 0;
        auto gv = s.getValue(cs, b.mul(x, x), &v);
        log.push_back(std::string("getValue:") + outcome(gv));
        log.push_back(
            std::string("must:") +
            outcome(s.mustBeTrue(cs, b.ult(x, b.constant(200, 32)))));
        log.push_back(
            std::string("may:") +
            outcome(s.mayBeTrue(cs, b.eq(x, b.constant(1000, 32)))));
        uint64_t lo = 0, hi = 0;
        auto gr = s.getRange(cs, x, &lo, &hi);
        log.push_back(std::string("range:") + outcome(gr) + ":" +
                      std::to_string(lo) + ":" + std::to_string(hi));
        Assignment m;
        auto gi = s.getInitialValues(cs, &m);
        log.push_back(std::string("init:") + outcome(gi));
        if (gi.isSat()) {
            for (ExprRef c : cs)
                EXPECT_TRUE(expr::evaluateBool(c, m));
        }
    }
    return log;
}

TEST_F(SolverTest, IncrementalContextMatchesFreshAcrossBattery)
{
    // The same battery through (a) a solver with a bound path context
    // and (b) the fresh-per-query oracle must agree on every outcome
    // kind and every range (models may differ bit-for-bit; witnesses
    // are validated semantically inside the battery).
    SolverOptions opts;
    opts.useModelCache = false; // force every query to reach SAT
    Solver incremental(b, opts);
    SolverOptions fresh_opts = opts;
    fresh_opts.useIncremental = false;
    Solver fresh(b, fresh_opts);

    std::vector<ExprRef> vars;
    for (int i = 0; i < 6; ++i)
        vars.push_back(b.freshVar("bat", 32));

    std::shared_ptr<IncrementalContext> slot;
    incremental.bindPathContext(&slot);
    auto inc_log = queryBattery(incremental, b, vars);
    incremental.bindPathContext(nullptr);
    auto fresh_log = queryBattery(fresh, b, vars);

    EXPECT_EQ(inc_log, fresh_log);
    EXPECT_NE(slot, nullptr); // the context was actually created
    EXPECT_GT(incremental.stats().get("solver.ctx_reuses"), 0u);
    EXPECT_GT(incremental.stats().get("solver.gates_saved"), 0u);
    EXPECT_EQ(fresh.stats().get("solver.ctx_reuses"), 0u);
}

TEST_F(SolverTest, IncrementalContextEvictionStaysCorrect)
{
    // A gate high-water of 1 forces an eviction on (nearly) every
    // query; answers must be unaffected and the telemetry must show
    // the evictions.
    SolverOptions opts;
    opts.useModelCache = false;
    opts.maxCtxGates = 1;
    Solver tiny(b, opts);
    std::shared_ptr<IncrementalContext> slot;
    tiny.bindPathContext(&slot);

    ExprRef x = b.var("evx", 32);
    std::vector<ExprRef> cs = {b.ult(x, b.constant(50, 32))};
    for (int i = 0; i < 8; ++i) {
        cs.push_back(b.ult(b.mul(x, b.constant(3 + i, 32)),
                           b.constant(1000 + i, 32)));
        EXPECT_TRUE(tiny.mayBeTrue(cs, b.ult(x, b.constant(40, 32))).yes());
        EXPECT_TRUE(
            tiny.mustBeTrue(cs, b.ult(x, b.constant(50, 32))).yes());
    }
    tiny.bindPathContext(nullptr);
    EXPECT_GT(tiny.stats().get("solver.ctx_evictions"), 0u);
}

TEST_F(SolverTest, IncrementalContextSurvivesInjectedFaults)
{
    // A forced-Unknown query must leave the persistent context usable:
    // subsequent queries on the same path answer correctly.
    SolverOptions opts;
    opts.useModelCache = false;
    Solver s(b, opts);
    std::shared_ptr<IncrementalContext> slot;
    s.bindPathContext(&slot);

    ExprRef x = b.var("fcx", 8);
    std::vector<ExprRef> cs = {b.ult(x, b.constant(10, 8))};
    ASSERT_TRUE(s.mayBeTrue(cs, b.ult(x, b.constant(5, 8))).yes());
    ASSERT_NE(slot, nullptr);

    FaultPolicy policy;
    policy.enabled = true;
    policy.triggerQueries = {1}; // next query fails
    s.setFaultPolicy(policy);
    EXPECT_TRUE(s.mayBeTrue(cs, b.ult(x, b.constant(5, 8))).isUnknown());
    s.setFaultPolicy(FaultPolicy{});

    cs.push_back(b.ugt(x, b.constant(3, 8)));
    EXPECT_TRUE(s.mustBeTrue(cs, b.ult(x, b.constant(10, 8))).yes());
    EXPECT_TRUE(s.mayBeTrue(cs, b.eq(x, b.constant(20, 8))).no());
    s.bindPathContext(nullptr);
}

TEST_F(SolverTest, IncrementalContextCoexistsWithModelCache)
{
    // Default options: model cache ON and incremental ON. Cache hits
    // bypass the context; misses go through it. Answers stay correct
    // and cached models keep satisfying the constraints they answer.
    std::shared_ptr<IncrementalContext> slot;
    solver.bindPathContext(&slot);
    ExprRef x = b.var("mcx", 32);
    std::vector<ExprRef> cs = {b.ult(x, b.constant(64, 32))};
    uint64_t v1 = 0, v2 = 0;
    ASSERT_TRUE(solver.getValue(cs, x, &v1).isSat());
    ASSERT_TRUE(solver.getValue(cs, x, &v2).isSat()); // cache hit path
    EXPECT_EQ(v1, v2);
    EXPECT_LT(v1, 64u);
    cs.push_back(b.ugt(x, b.constant(60, 32)));
    uint64_t v3 = 0;
    ASSERT_TRUE(solver.getValue(cs, x, &v3).isSat());
    EXPECT_GT(v3, 60u);
    EXPECT_LT(v3, 64u);
    solver.bindPathContext(nullptr);
}

// --- Memoized slicing against a reference slicer -------------------------

/** Independence slice by fresh walks: every call re-collects every
 *  constraint's variables with expr::collectVars. */
std::vector<ExprRef>
referenceSlice(const std::vector<ExprRef> &cs, ExprRef query)
{
    auto vars_of = [](ExprRef e) {
        std::set<uint64_t> ids;
        std::unordered_set<ExprRef> seen;
        expr::collectVars(e, seen,
                          [&](ExprRef v) { ids.insert(v->varId()); });
        return ids;
    };
    std::set<uint64_t> active = vars_of(query);
    std::vector<bool> in(cs.size(), false);
    for (bool grew = true; grew;) {
        grew = false;
        for (size_t i = 0; i < cs.size(); ++i) {
            std::set<uint64_t> vars = vars_of(cs[i]);
            if (in[i] || std::none_of(vars.begin(), vars.end(),
                                      [&](uint64_t v) {
                                          return active.count(v) != 0;
                                      }))
                continue;
            in[i] = true;
            grew = true;
            active.insert(vars.begin(), vars.end());
        }
    }
    std::vector<ExprRef> out;
    for (size_t i = 0; i < cs.size(); ++i)
        if (in[i])
            out.push_back(cs[i]);
    return out;
}

TEST(SliceDifferential, MemoizedSliceMatchesReference)
{
    ExprBuilder b;
    SolverOptions opts;
    opts.useSimplifier = false; // constraints reach slicing as built
    Solver memo(b, opts);
    opts.useIndependence = false; // solves exactly the slice it is given
    Solver ref(b, opts);

    // Roots draw on v0..v11; v12 and v13 appear only in queries, so
    // those queries are disjoint from every constraint.
    Rng rng(2024);
    std::vector<ExprRef> vars;
    for (int i = 0; i < 14; ++i)
        vars.push_back(b.var("v" + std::to_string(i), 8));
    auto atom = [&](size_t nvars) {
        for (;;) {
            ExprRef x = vars[rng.below(nvars)];
            ExprRef y = vars[rng.below(nvars)];
            ExprRef k = b.constant(rng.below(256), 8);
            ExprRef e;
            switch (rng.below(4)) {
              case 0: e = b.ult(b.add(x, y), k); break;
              case 1: e = b.ne(b.bAnd(x, k), b.constant(0, 8)); break;
              case 2: e = b.ule(x, b.bXor(y, k)); break;
              default: e = b.eq(b.sub(x, y), k); break;
            }
            if (!e->isConstant())
                return e;
        }
    };
    std::vector<ExprRef> roots;
    for (int i = 0; i < 40; ++i)
        roots.push_back(atom(12));
    struct Query {
        std::vector<ExprRef> cs; // shared and repeated roots
        ExprRef cond;
        ExprRef term;
    };
    std::vector<Query> battery(150);
    for (Query &t : battery) {
        size_t n = 2 + rng.below(11);
        for (size_t i = 0; i < n; ++i)
            t.cs.push_back(roots[rng.below(roots.size())]);
        // Some conditions contradict the path: those are Unsat.
        t.cond = rng.below(4) ? atom(rng.below(8) ? 12 : 14)
                              : b.lnot(t.cs[rng.below(n)]);
        t.term = b.add(vars[rng.below(14)], vars[rng.below(14)]);
    }

    uint64_t sliced_away = 0;
    size_t unsat = 0;
    auto run_battery = [&] {
        for (const Query &t : battery) {
            std::vector<ExprRef> slice = referenceSlice(t.cs, t.cond);
            ASSERT_EQ(memo.sliceIndependent(t.cs, t.cond), slice);
            QueryOutcome m = memo.checkSat(t.cs, t.cond);
            QueryOutcome r = ref.checkSat(slice, t.cond);
            ASSERT_EQ(m.result, r.result);
            unsat += m.isUnsat();
            sliced_away += 2 * (t.cs.size() - slice.size());

            std::vector<ExprRef> term_slice = referenceSlice(t.cs, t.term);
            uint64_t mv = 0, rv = 0;
            m = memo.getValue(t.cs, t.term, &mv);
            r = ref.getValue(term_slice, t.term, &rv);
            ASSERT_EQ(m.result, r.result);
            if (m.isSat()) {
                ASSERT_EQ(mv, rv);
            }
            sliced_away += t.cs.size() - term_slice.size();
            ASSERT_EQ(memo.stats().get("solver.constraints_sliced_away"),
                      sliced_away);
        }
    };
    run_battery();
    EXPECT_GT(sliced_away, 0u);
    EXPECT_GT(unsat, 0u);
    EXPECT_LT(unsat, battery.size());
    EXPECT_GT(memo.stats().get("solver.model_cache_hits"), 0u);
    EXPECT_EQ(memo.stats().get("solver.model_cache_hits"),
              ref.stats().get("solver.model_cache_hits"));

    // Push the memo past its cap with distinct roots: it clears
    // wholesale, and the same battery must answer the same again.
    ExprRef w = b.var("w", 32);
    bool cleared = false;
    for (uint64_t k = 0; k <= expr::VarSets::kMaxEntries; ++k) {
        size_t before = memo.varSets().size();
        memo.sliceIndependent({}, b.eq(w, b.constant(k, 32)));
        cleared = cleared || memo.varSets().size() < before;
    }
    EXPECT_TRUE(cleared);
    run_battery();
    EXPECT_EQ(memo.stats().get("solver.sat_queries"),
              ref.stats().get("solver.sat_queries"));
}

} // namespace
} // namespace s2e::solver
