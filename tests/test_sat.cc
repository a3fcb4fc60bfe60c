/** @file Unit tests for the CDCL SAT solver. */

#include <gtest/gtest.h>

#include "expr/builder.hh"
#include "expr/eval.hh"
#include "solver/bitblast.hh"
#include "solver/sat.hh"
#include "support/rng.hh"

namespace s2e::sat {
namespace {

using expr::ExprRef;

TEST(Sat, EmptyFormulaIsSat)
{
    SatSolver s;
    EXPECT_EQ(s.solve(), SatResult::Sat);
}

TEST(Sat, SingleUnit)
{
    SatSolver s;
    Var v = s.newVar();
    s.addClause(mkLit(v));
    EXPECT_EQ(s.solve(), SatResult::Sat);
    EXPECT_EQ(s.value(v), LBool::True);
}

TEST(Sat, ContradictoryUnits)
{
    SatSolver s;
    Var v = s.newVar();
    s.addClause(mkLit(v));
    EXPECT_FALSE(s.addClause(mkLit(v, true)));
    EXPECT_EQ(s.solve(), SatResult::Unsat);
}

TEST(Sat, SimpleImplicationChain)
{
    SatSolver s;
    Var a = s.newVar(), b = s.newVar(), c = s.newVar();
    s.addClause(mkLit(a));
    s.addClause(mkLit(a, true), mkLit(b)); // a -> b
    s.addClause(mkLit(b, true), mkLit(c)); // b -> c
    EXPECT_EQ(s.solve(), SatResult::Sat);
    EXPECT_EQ(s.value(c), LBool::True);
}

TEST(Sat, UnsatTriangle)
{
    SatSolver s;
    Var a = s.newVar(), b = s.newVar();
    s.addClause(mkLit(a), mkLit(b));
    s.addClause(mkLit(a), mkLit(b, true));
    s.addClause(mkLit(a, true), mkLit(b));
    s.addClause(mkLit(a, true), mkLit(b, true));
    EXPECT_EQ(s.solve(), SatResult::Unsat);
}

TEST(Sat, TautologyClauseIgnored)
{
    SatSolver s;
    Var a = s.newVar();
    EXPECT_TRUE(s.addClause(std::vector<Lit>{mkLit(a), mkLit(a, true)}));
    EXPECT_EQ(s.solve(), SatResult::Sat);
}

TEST(Sat, DuplicateLitsInClause)
{
    SatSolver s;
    Var a = s.newVar();
    s.addClause(std::vector<Lit>{mkLit(a), mkLit(a), mkLit(a)});
    EXPECT_EQ(s.solve(), SatResult::Sat);
    EXPECT_EQ(s.value(a), LBool::True);
}

TEST(Sat, AssumptionsRespected)
{
    SatSolver s;
    Var a = s.newVar(), b = s.newVar();
    s.addClause(mkLit(a, true), mkLit(b)); // a -> b
    EXPECT_EQ(s.solve({mkLit(a)}), SatResult::Sat);
    EXPECT_EQ(s.value(b), LBool::True);
    // Conflicting assumption.
    s.addClause(mkLit(b, true));
    EXPECT_EQ(s.solve({mkLit(a)}), SatResult::Unsat);
    // Still satisfiable without the assumption.
    EXPECT_EQ(s.solve(), SatResult::Sat);
    EXPECT_EQ(s.value(a), LBool::False);
}

TEST(Sat, PigeonHole3Into2IsUnsat)
{
    // PHP(3,2): 3 pigeons, 2 holes. Forces real conflict analysis.
    SatSolver s;
    Var p[3][2];
    for (auto &row : p)
        for (auto &v : row)
            v = s.newVar();
    for (int i = 0; i < 3; ++i)
        s.addClause(mkLit(p[i][0]), mkLit(p[i][1]));
    for (int h = 0; h < 2; ++h)
        for (int i = 0; i < 3; ++i)
            for (int j = i + 1; j < 3; ++j)
                s.addClause(mkLit(p[i][h], true), mkLit(p[j][h], true));
    EXPECT_EQ(s.solve(), SatResult::Unsat);
}

TEST(Sat, PigeonHole5Into4IsUnsat)
{
    SatSolver s;
    const int n = 5, m = 4;
    std::vector<std::vector<Var>> p(n, std::vector<Var>(m));
    for (auto &row : p)
        for (auto &v : row)
            v = s.newVar();
    for (int i = 0; i < n; ++i) {
        std::vector<Lit> clause;
        for (int h = 0; h < m; ++h)
            clause.push_back(mkLit(p[i][h]));
        s.addClause(clause);
    }
    for (int h = 0; h < m; ++h)
        for (int i = 0; i < n; ++i)
            for (int j = i + 1; j < n; ++j)
                s.addClause(mkLit(p[i][h], true), mkLit(p[j][h], true));
    EXPECT_EQ(s.solve(), SatResult::Unsat);
    EXPECT_GT(s.numConflicts(), 0u);
}

/** Encode PHP(n,m): n pigeons into m holes (unsat when n > m). With
 *  a guard, every clause is (¬guard ∨ ...) — active only while the
 *  guard is assumed, like an incremental-context constraint. */
void
addPigeonhole(SatSolver &s, int n, int m, Lit guard = -1)
{
    std::vector<std::vector<Var>> p(n, std::vector<Var>(m));
    for (auto &row : p)
        for (auto &v : row)
            v = s.newVar();
    auto add = [&](std::vector<Lit> clause) {
        if (guard >= 0)
            clause.push_back(litNot(guard));
        s.addClause(clause);
    };
    for (int i = 0; i < n; ++i) {
        std::vector<Lit> clause;
        for (int h = 0; h < m; ++h)
            clause.push_back(mkLit(p[i][h]));
        add(clause);
    }
    for (int h = 0; h < m; ++h)
        for (int i = 0; i < n; ++i)
            for (int j = i + 1; j < n; ++j)
                add({mkLit(p[i][h], true), mkLit(p[j][h], true)});
}

TEST(Sat, ConflictBudgetReturnsUnknown)
{
    // PHP(7,6) takes many conflicts; a budget of 1 must bail out.
    SatSolver s;
    addPigeonhole(s, 7, 6);
    EXPECT_EQ(s.solve({}, 1), SatResult::Unknown);
    EXPECT_FALSE(s.lastStopWasDeadline());
}

TEST(Sat, WallClockDeadlineReturnsUnknown)
{
    // A 1µs deadline on a hard instance must trip the wall-clock
    // check (every few conflicts / every few hundred decisions) and
    // be reported as a deadline stop, not a conflict-budget stop.
    SatSolver s;
    addPigeonhole(s, 9, 8);
    QueryBudget budget;
    budget.maxMicros = 1;
    EXPECT_EQ(s.solve({}, budget), SatResult::Unknown);
    EXPECT_TRUE(s.lastStopWasDeadline());
}

TEST(Sat, IncrementalResumeAfterBudgetExhaustion)
{
    // An exhausted budget leaves the solver reusable: learnt clauses
    // persist, and a later unlimited solve() on the same instance
    // reaches the definite answer.
    SatSolver s;
    addPigeonhole(s, 5, 4);
    QueryBudget tiny;
    tiny.maxConflicts = 1;
    ASSERT_EQ(s.solve({}, tiny), SatResult::Unknown);
    uint64_t conflicts_after_first = s.numConflicts();
    EXPECT_GE(conflicts_after_first, 1u);
    EXPECT_EQ(s.solve({}, QueryBudget{}), SatResult::Unsat);
    // The second run continued from the learnt state (conflict count
    // is cumulative, never reset).
    EXPECT_GT(s.numConflicts(), conflicts_after_first);
    // The solver still answers unrelated queries after the Unsat.
    EXPECT_EQ(s.solve({}, tiny), SatResult::Unsat);
}

/** Random 3-SAT instances cross-checked against brute force. */
TEST(Sat, PropertyRandom3SatMatchesBruteForce)
{
    s2e::Rng rng(2024);
    for (int iter = 0; iter < 200; ++iter) {
        int nvars = 4 + static_cast<int>(rng.below(7)); // 4..10
        int nclauses = 2 + static_cast<int>(rng.below(40));
        std::vector<std::vector<Lit>> clauses;
        for (int c = 0; c < nclauses; ++c) {
            std::vector<Lit> cl;
            for (int k = 0; k < 3; ++k)
                cl.push_back(mkLit(static_cast<Var>(rng.below(nvars)),
                                   rng.chance(0.5)));
            clauses.push_back(cl);
        }

        // Brute force reference.
        bool brute_sat = false;
        for (uint32_t m = 0; m < (1u << nvars) && !brute_sat; ++m) {
            bool all = true;
            for (const auto &cl : clauses) {
                bool any = false;
                for (Lit l : cl) {
                    bool val = (m >> litVar(l)) & 1;
                    if (litNeg(l) ? !val : val) {
                        any = true;
                        break;
                    }
                }
                if (!any) {
                    all = false;
                    break;
                }
            }
            brute_sat = all;
        }

        SatSolver s;
        for (int v = 0; v < nvars; ++v)
            s.newVar();
        bool early_unsat = false;
        for (const auto &cl : clauses)
            if (!s.addClause(cl))
                early_unsat = true;
        SatResult res = early_unsat ? SatResult::Unsat : s.solve();
        ASSERT_EQ(res == SatResult::Sat, brute_sat)
            << "iteration " << iter;

        // If SAT, the model must actually satisfy every clause.
        if (res == SatResult::Sat) {
            for (const auto &cl : clauses) {
                bool any = false;
                for (Lit l : cl)
                    if (s.modelTrue(l))
                        any = true;
                ASSERT_TRUE(any);
            }
        }
    }
}

TEST(Sat, BudgetEscalationSaturatesInsteadOfWrapping)
{
    // Regression: escalated() used to compute limit * multiplier in
    // double and cast straight back to int64_t — for limits near
    // INT64_MAX the cast was UB and in practice wrapped negative,
    // which solve() interprets as *unlimited*. It must saturate.
    constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
    QueryBudget huge;
    huge.maxConflicts = kMax - 1;
    huge.maxMicros = kMax / 2;
    QueryBudget up = huge.escalated(4.0);
    EXPECT_EQ(up.maxConflicts, kMax);
    EXPECT_EQ(up.maxMicros, kMax);
    EXPECT_FALSE(up.unlimited()); // saturated, NOT converted to -1
    // Repeated escalation stays pinned at the cap, still limited.
    QueryBudget up2 = up.escalated(4.0).escalated(4.0);
    EXPECT_EQ(up2.maxConflicts, kMax);
    EXPECT_EQ(up2.maxMicros, kMax);
    EXPECT_FALSE(up2.unlimited());
    // Unlimited fields (-1) stay unlimited; small fields still grow.
    QueryBudget small;
    small.maxConflicts = 100;
    QueryBudget sup = small.escalated(4.0);
    EXPECT_GT(sup.maxConflicts, 100);
    EXPECT_LT(sup.maxConflicts, 1000);
    EXPECT_EQ(sup.maxMicros, -1);
}

TEST(Sat, ActivationLiteralsSelectConstraintSubsets)
{
    // The incremental-context clause scheme: each constraint C is
    // asserted as (¬a ∨ C) and enabled by assuming a. Conflicting
    // constraints coexist in one database; per-query assumption sets
    // pick the active subset, and an Unsat answer under assumptions
    // must not poison the solver (the guarded DB stays satisfiable).
    SatSolver s;
    Var x = s.newVar();
    Var g1 = s.newVar(), g2 = s.newVar();
    s.addClause(mkLit(g1, true), mkLit(x));       // g1 -> x
    s.addClause(mkLit(g2, true), mkLit(x, true)); // g2 -> ¬x

    EXPECT_EQ(s.solve({mkLit(g1)}), SatResult::Sat);
    EXPECT_TRUE(s.modelTrue(mkLit(x)));
    EXPECT_EQ(s.solve({mkLit(g2)}), SatResult::Sat);
    EXPECT_TRUE(s.modelTrue(mkLit(x, true)));
    EXPECT_EQ(s.solve({mkLit(g1), mkLit(g2)}), SatResult::Unsat);
    EXPECT_FALSE(s.inConflict()); // no root-level poisoning
    // All guards off: trivially satisfiable again.
    EXPECT_EQ(s.solve(), SatResult::Sat);
    // And the conflicting pair is still Unsat on re-query.
    EXPECT_EQ(s.solve({mkLit(g2), mkLit(g1)}), SatResult::Unsat);
    EXPECT_FALSE(s.inConflict());
}

TEST(Sat, GrowsVarsAndClausesAfterSolve)
{
    // A persistent per-path context keeps adding constraints between
    // queries: newVar/addClause after a prior solve() must integrate
    // with watches, saved phases, and the VSIDS heap.
    SatSolver s;
    Var a = s.newVar(), b = s.newVar();
    s.addClause(mkLit(a), mkLit(b));
    ASSERT_EQ(s.solve(), SatResult::Sat);

    Var c = s.newVar(), d = s.newVar();
    s.addClause(mkLit(c, true), mkLit(d)); // c -> d
    ASSERT_EQ(s.solve({mkLit(c)}), SatResult::Sat);
    EXPECT_TRUE(s.modelTrue(mkLit(d)));

    // Grow by a guarded instance needing conflict analysis, then
    // solve under assumptions touching the earliest variables.
    Var g = s.newVar();
    addPigeonhole(s, 4, 3, mkLit(g));
    s.addClause(mkLit(a, true), mkLit(b, true));
    EXPECT_EQ(s.solve({mkLit(a)}), SatResult::Sat);
    EXPECT_TRUE(s.modelTrue(mkLit(b, true)));
    EXPECT_EQ(s.solve({mkLit(a), mkLit(g)}), SatResult::Unsat);
    EXPECT_FALSE(s.inConflict());
    EXPECT_EQ(s.solve({mkLit(a), mkLit(b)}), SatResult::Unsat);
    EXPECT_FALSE(s.inConflict());
}

TEST(Sat, BudgetedAssumptionSolveIsResumable)
{
    // Budget exhaustion inside an assumption-scoped solve leaves the
    // solver reusable for later queries with different assumptions —
    // the exact shape of an incremental-context query timing out.
    SatSolver s;
    Var g = s.newVar();
    addPigeonhole(s, 6, 5, mkLit(g));
    QueryBudget tiny;
    tiny.maxConflicts = 1;
    ASSERT_EQ(s.solve({mkLit(g)}, tiny), SatResult::Unknown);
    EXPECT_FALSE(s.inConflict());
    // Guard off: trivially Sat, the solver is not poisoned.
    EXPECT_EQ(s.solve({mkLit(g, true)}), SatResult::Sat);
    EXPECT_FALSE(s.inConflict());
    // Unlimited re-solve under the guard reaches the definite Unsat,
    // with the learnt clauses from the budgeted attempt carried over.
    EXPECT_EQ(s.solve({mkLit(g)}), SatResult::Unsat);
    EXPECT_FALSE(s.inConflict());
    EXPECT_EQ(s.solve(), SatResult::Sat);
}

TEST(Sat, WatchListsSpillPastInlineCapacity)
{
    // ¬a and ¬c are each watched by 16 clauses, four times the inline
    // capacity: the binary (a ∨ b_i) and the ternary (a ∨ c ∨ d_i),
    // whose watches move to ¬d_i once a is false.
    constexpr int kN = 16;
    SatSolver s;
    Var a = s.newVar(), c = s.newVar();
    std::vector<Var> b(kN), d(kN);
    for (int i = 0; i < kN; ++i) {
        b[i] = s.newVar();
        d[i] = s.newVar();
    }
    for (int i = 0; i < kN; ++i) {
        s.addClause(mkLit(a), mkLit(b[i]));
        s.addClause(mkLit(a), mkLit(c), mkLit(d[i]));
    }

    ASSERT_EQ(s.solve({mkLit(a, true), mkLit(c, true)}), SatResult::Sat);
    for (int i = 0; i < kN; ++i) {
        EXPECT_TRUE(s.modelTrue(mkLit(b[i])));
        EXPECT_TRUE(s.modelTrue(mkLit(d[i])));
    }
    EXPECT_TRUE(s.verifyModel());
    uint64_t props = s.numPropagations();
    EXPECT_GE(props, 2u * kN);

    // A conflict partway down ¬a's list: b_3 and b_11 exclude each
    // other, so ¬a is refuted and a becomes forced.
    s.addClause(mkLit(b[3], true), mkLit(b[11], true));
    EXPECT_EQ(s.solve({mkLit(a, true)}), SatResult::Unsat);
    EXPECT_FALSE(s.inConflict());
    ASSERT_EQ(s.solve(), SatResult::Sat);
    EXPECT_TRUE(s.modelTrue(mkLit(a)));
    EXPECT_TRUE(s.verifyModel());
    EXPECT_GT(s.numPropagations(), props);
}

TEST(Sat, ReduceDbDeletesLearntsAndStaysCorrect)
{
    // Guarded PHP(8,7) takes about 3400 conflicts, well over the ~1100
    // learnt clauses that trigger reduceDB (PHP(6,5) needs only 140),
    // which then frees the least active half. Each
    // conflict learns one clause unless it learns a unit (at most one
    // per variable) or ends the search, so fewer learnts than that
    // means some were deleted.
    SatSolver s;
    Var g = s.newVar();
    addPigeonhole(s, 8, 7, mkLit(g));
    ASSERT_EQ(s.solve({mkLit(g)}), SatResult::Unsat);
    EXPECT_FALSE(s.inConflict());
    EXPECT_LT(s.numLearnts() + static_cast<size_t>(s.numVars()) + 1,
              s.numConflicts());

    // The surviving learnt clauses and the watch lists they were
    // detached from still give right answers.
    ASSERT_EQ(s.solve(), SatResult::Sat);
    EXPECT_TRUE(s.verifyModel());
    EXPECT_EQ(s.solve({mkLit(g)}), SatResult::Unsat);
    ASSERT_EQ(s.solve({mkLit(g, true)}), SatResult::Sat);
    EXPECT_TRUE(s.verifyModel());
}

TEST(Sat, ShortAddClauseOverloadsMatchVector)
{
    // Every 1-, 2- and 3-literal clause over four variables, of which
    // v0 is true and v1 false at the root: duplicates, tautologies,
    // root-true and root-false literals all occur. The short overloads
    // must build exactly what the vector overload builds.
    constexpr int kVars = 4;
    constexpr Lit kLits = 2 * kVars;
    auto check = [](const std::vector<Lit> &lits) {
        SatSolver viaShort, viaVector;
        for (SatSolver *s : {&viaShort, &viaVector}) {
            for (int v = 0; v < kVars; ++v)
                s->newVar();
            s->addClause(std::vector<Lit>{mkLit(0)});
            s->addClause(std::vector<Lit>{mkLit(1, true)});
        }
        bool ok_short = false;
        switch (lits.size()) {
          case 1: ok_short = viaShort.addClause(lits[0]); break;
          case 2: ok_short = viaShort.addClause(lits[0], lits[1]); break;
          default:
            ok_short = viaShort.addClause(lits[0], lits[1], lits[2]);
            break;
        }
        bool ok_vector = viaVector.addClause(lits);
        ASSERT_EQ(ok_short, ok_vector);
        ASSERT_EQ(viaShort.numClauses(), viaVector.numClauses());
        ASSERT_EQ(viaShort.inConflict(), viaVector.inConflict());
        SatResult r = viaShort.solve();
        ASSERT_EQ(r, viaVector.solve());
        if (r != SatResult::Sat)
            return;
        for (Var v = 0; v < kVars; ++v)
            ASSERT_EQ(viaShort.value(v), viaVector.value(v));
    };
    for (Lit x = 0; x < kLits; ++x) {
        check({x});
        for (Lit y = 0; y < kLits; ++y) {
            check({x, y});
            for (Lit z = 0; z < kLits; ++z)
                check({x, y, z});
        }
    }
}

/** FNV-1a over the bytes of 64-bit words. */
struct Fnv64 {
    uint64_t h = 0xcbf29ce484222325ULL;

    void
    add(uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            h = (h ^ ((v >> (8 * i)) & 0xff)) * 0x100000001b3ULL;
    }
};

/** Fold one solve's outcome into the digest: the answer, the search
 *  counters and, after Sat, the full model. */
void
hashSolve(Fnv64 &fnv, const SatSolver &s, SatResult r)
{
    fnv.add(static_cast<uint64_t>(r));
    fnv.add(s.numConflicts());
    fnv.add(s.numDecisions());
    fnv.add(s.numPropagations());
    fnv.add(s.numLearnts());
    if (r == SatResult::Sat)
        for (Var v = 0; v < s.numVars(); ++v)
            fnv.add(static_cast<uint64_t>(s.value(v)));
}

/** Random term of width `w` over `vars` (all of width w). */
ExprRef
randomTerm(expr::ExprBuilder &b, Rng &rng,
           const std::vector<ExprRef> &vars, unsigned w, int depth)
{
    if (depth == 0 || rng.chance(0.25)) {
        if (rng.chance(0.7))
            return vars[rng.below(vars.size())];
        return b.constant(rng.next(), w);
    }
    auto sub = [&] { return randomTerm(b, rng, vars, w, depth - 1); };
    ExprRef x = sub();
    ExprRef y = sub();
    switch (rng.below(16)) {
      case 0: return b.add(x, y);
      case 1: return b.sub(x, y);
      case 2: return b.mul(x, y);
      case 3: return b.udiv(x, y);
      case 4: return b.urem(x, y);
      case 5: return b.sdiv(x, y);
      case 6: return b.srem(x, y);
      case 7: return b.bAnd(x, y);
      case 8: return b.bOr(x, y);
      case 9: return b.bXor(x, y);
      case 10: return rng.chance(0.5) ? b.bNot(x) : b.neg(x);
      case 11: return b.shl(x, y);
      case 12: return rng.chance(0.5) ? b.lshr(x, y) : b.ashr(x, y);
      case 13: {
        ExprRef t = sub();
        return b.ite(b.ult(x, y), t, y);
      }
      case 14: {
        unsigned half = w / 2;
        return b.concat(b.extract(x, half, w - half),
                        b.extract(y, 0, half));
      }
      default: {
        ExprRef narrow = b.extract(x, 1, w / 2);
        return rng.chance(0.5) ? b.zext(narrow, w) : b.sext(narrow, w);
      }
    }
}

/** Random width-1 comparison between two random terms. */
ExprRef
randomConstraint(expr::ExprBuilder &b, Rng &rng,
                 const std::vector<ExprRef> &vars, unsigned w)
{
    ExprRef l = randomTerm(b, rng, vars, w, 2);
    ExprRef r = randomTerm(b, rng, vars, w, 2);
    switch (rng.below(6)) {
      case 0: return b.eq(l, r);
      case 1: return b.ne(l, r);
      case 2: return b.ult(l, r);
      case 3: return b.ule(l, r);
      case 4: return b.slt(l, r);
      default: return b.sle(l, r);
    }
}

/**
 * Pins the CDCL search itself, not just its answers: a seeded stream
 * of random 3-CNF instances (a few large enough to run reduceDB) and
 * bit-blasted random expression sets, some solved repeatedly under
 * assumptions, hashed over each solve's answer, model, conflict,
 * decision, propagation and learnt-clause counts. Any change to the
 * clause literal order, the watcher order or the learnt-clause
 * handling changes the digest. A change that alters the search on
 * purpose must record the new digest and say why.
 */
TEST(Sat, SearchIsPinned)
{
    Fnv64 fnv;
    Rng rng(0x5a7);
    const QueryBudget cnf_budget{20000, -1};
    const QueryBudget blast_budget{300, -1};

    // Random 3-CNF near the satisfiability threshold. Even instances
    // use the three-literal overload, odd ones the vector overload;
    // both may see duplicate and complementary literals.
    for (int iter = 0; iter < 120; ++iter) {
        bool big = iter % 40 == 39;
        int nvars = big ? 150 : 20 + static_cast<int>(rng.below(60));
        int nclauses = nvars * (400 + static_cast<int>(rng.below(60))) / 100;
        SatSolver s;
        for (int v = 0; v < nvars; ++v)
            s.newVar();
        auto lit = [&] {
            return mkLit(static_cast<Var>(rng.below(nvars)), rng.chance(0.5));
        };
        for (int c = 0; c < nclauses; ++c) {
            Lit l0 = lit(), l1 = lit(), l2 = lit();
            bool ok = iter % 2 == 0
                          ? s.addClause(l0, l1, l2)
                          : s.addClause(std::vector<Lit>{l0, l1, l2});
            fnv.add(ok);
        }
        hashSolve(fnv, s, s.solve({}, cnf_budget));
        for (int q = 0; q < 3; ++q) {
            std::vector<Lit> assumptions;
            for (int k = 0; k < 3; ++k)
                assumptions.push_back(lit());
            hashSolve(fnv, s, s.solve(assumptions, cnf_budget));
        }
        fnv.add(s.numClauses());
    }

    // Bit-blasted random constraint sets, asserted directly or behind
    // activation literals and selected per query.
    expr::ExprBuilder b;
    for (int iter = 0; iter < 80; ++iter) {
        unsigned w = rng.chance(0.5) ? 6 : 10;
        std::vector<ExprRef> vars;
        int nv = 2 + static_cast<int>(rng.below(2));
        for (int v = 0; v < nv; ++v)
            vars.push_back(b.freshVar("pin", w));
        int nc = 1 + static_cast<int>(rng.below(3));
        SatSolver s;
        solver::BitBlaster blaster(s);
        if (iter % 2 == 0) {
            for (int c = 0; c < nc; ++c)
                blaster.assertTrue(randomConstraint(b, rng, vars, w));
            hashSolve(fnv, s, s.solve({}, blast_budget));
        } else {
            std::vector<Lit> guards;
            for (int c = 0; c < nc + 2; ++c) {
                guards.push_back(mkLit(s.newVar()));
                blaster.assertImplies(guards.back(),
                                      randomConstraint(b, rng, vars, w));
            }
            for (int q = 0; q < 4; ++q) {
                std::vector<Lit> assumptions;
                for (Lit g : guards)
                    if (rng.chance(0.6))
                        assumptions.push_back(g);
                hashSolve(fnv, s, s.solve(assumptions, blast_budget));
            }
        }
        fnv.add(blaster.numGates());
        fnv.add(s.numClauses());
    }

    EXPECT_EQ(fnv.h, 0x41ea4c5d7447ab40ULL)
        << std::hex << "digest 0x" << fnv.h;
}

/** A width-1 constraint whose blasting goes through `kind` at width
 *  `w` (>= 8), over the width-w variables x, y and the constant k. */
ExprRef
kindConstraint(expr::ExprBuilder &b, expr::Kind kind, unsigned w, ExprRef x,
               ExprRef y, uint64_t k)
{
    using expr::Kind;
    ExprRef kc = b.constant(k, w);
    unsigned half = w / 2;
    switch (kind) {
      case Kind::Constant: return b.eq(b.bXor(x, kc), y);
      case Kind::Variable: return b.ne(x, y);
      case Kind::Add: return b.eq(b.add(x, y), kc);
      case Kind::Sub: return b.eq(b.sub(x, y), kc);
      case Kind::Mul: return b.eq(b.mul(x, y), kc);
      case Kind::UDiv: return b.eq(b.udiv(x, y), kc);
      case Kind::SDiv: return b.eq(b.sdiv(x, y), kc);
      case Kind::URem: return b.eq(b.urem(x, y), kc);
      case Kind::SRem: return b.eq(b.srem(x, y), kc);
      case Kind::And: return b.eq(b.bAnd(x, y), kc);
      case Kind::Or: return b.eq(b.bOr(x, y), kc);
      case Kind::Xor: return b.eq(b.bXor(x, y), kc);
      case Kind::Not: return b.eq(b.bNot(x), y);
      case Kind::Neg: return b.eq(b.neg(x), y);
      // Variable amounts take the barrel shifter's power-of-two
      // branch; constant amounts take the rewiring branch.
      case Kind::Shl:
        return b.land(b.eq(b.shl(x, y), kc),
                      b.ult(b.shl(y, b.constant(3, w)), x));
      case Kind::LShr:
        return b.land(b.eq(b.lshr(x, y), kc),
                      b.ult(b.lshr(y, b.constant(half + 1, w)), x));
      case Kind::AShr:
        return b.land(b.eq(b.ashr(x, y), kc),
                      b.slt(b.ashr(y, b.constant(w - 1, w)), x));
      case Kind::Concat:
        return b.eq(b.concat(b.extract(x, 0, half), b.extract(y, half, half)),
                    kc);
      case Kind::Extract:
        return b.eq(b.extract(x, 3, half), b.extract(y, 1, half));
      case Kind::ZExt: return b.eq(b.zext(b.extract(x, 1, half), w), y);
      case Kind::SExt: return b.eq(b.sext(b.extract(x, 2, half), w), y);
      case Kind::Eq: return b.eq(b.add(x, kc), y);
      case Kind::Ult: return b.ult(b.add(x, kc), y);
      case Kind::Ule: return b.ule(x, b.sub(y, kc));
      case Kind::Slt: return b.slt(b.add(x, kc), y);
      case Kind::Sle: return b.sle(x, b.mul(y, kc));
      case Kind::Ite:
        return b.eq(b.ite(b.ult(x, kc), b.add(x, y), b.sub(y, x)), kc);
    }
    return b.trueExpr();
}

/**
 * Pins the CNF at the widths DDT+ mostly blasts: every expression
 * kind at widths 8 and 32, asserted directly and behind activation
 * literals, each in its own solver and then all kinds together in one
 * (which exercises gate sharing across kinds). The digest covers gate
 * and clause counts and every solve's answer, search counters and
 * model, so a change to any gate, its clauses or their order fails it.
 */
TEST(BitBlaster, CnfIsPinnedAtPowerOfTwoWidths)
{
    using expr::Kind;
    Fnv64 fnv;
    Rng rng(0xb1a57);
    const QueryBudget budget{400, -1};
    expr::ExprBuilder b;
    for (unsigned w : {8u, 32u}) {
        ExprRef x = b.freshVar("px", w);
        ExprRef y = b.freshVar("py", w);
        std::vector<ExprRef> all;
        for (int k = 0; k <= static_cast<int>(Kind::Ite); ++k)
            all.push_back(kindConstraint(b, static_cast<Kind>(k), w, x, y,
                                         rng.next()));
        for (bool guarded : {false, true}) {
            for (ExprRef c : all) {
                SatSolver s;
                solver::BitBlaster blaster(s);
                if (guarded) {
                    Lit g = mkLit(s.newVar());
                    blaster.assertImplies(g, c);
                    hashSolve(fnv, s, s.solve({g}, budget));
                    hashSolve(fnv, s, s.solve({litNot(g)}, budget));
                } else {
                    blaster.assertTrue(c);
                    hashSolve(fnv, s, s.solve({}, budget));
                }
                fnv.add(blaster.numGates());
                fnv.add(s.numClauses());
            }
            SatSolver s;
            solver::BitBlaster blaster(s);
            std::vector<Lit> guards;
            for (ExprRef c : all) {
                if (guarded) {
                    guards.push_back(mkLit(s.newVar()));
                    blaster.assertImplies(guards.back(), c);
                } else {
                    blaster.assertTrue(b.lor(c, b.eq(x, y)));
                }
            }
            for (int q = 0; q < 3; ++q) {
                std::vector<Lit> assumptions;
                for (Lit g : guards)
                    if (rng.chance(0.3))
                        assumptions.push_back(g);
                hashSolve(fnv, s, s.solve(assumptions, budget));
            }
            fnv.add(blaster.numGates());
            fnv.add(s.numClauses());
        }
    }
    EXPECT_EQ(fnv.h, 0x684f64bab75ef75dULL)
        << std::hex << "digest 0x" << fnv.h;
}

/**
 * A deep, wide DAG whose every node reads kids blasted long before,
 * so kid bits are read after the blaster's storage has grown many
 * times over (the sanitize label runs this under ASan). The blasted
 * circuit must still compute the evaluator's value.
 */
TEST(BitBlaster, DeepDagReadsKidsAcrossStorageGrowth)
{
    expr::ExprBuilder b;
    const unsigned w = 32;
    ExprRef x = b.freshVar("dx", w);
    ExprRef y = b.freshVar("dy", w);
    std::vector<ExprRef> layer{x, y};
    for (int i = 0; i < 40; ++i) {
        ExprRef a = layer[layer.size() - 1];
        ExprRef c = layer[layer.size() / 2];
        ExprRef next = i % 3 == 0   ? b.add(a, b.bXor(c, x))
                       : i % 3 == 1 ? b.concat(b.extract(a, 0, 16),
                                               b.extract(c, 8, 16))
                                    : b.ite(b.ult(a, c), b.sub(c, y), a);
        layer.push_back(next);
    }
    ExprRef root = layer.back();
    expr::Assignment at;
    at.set(x, 0x12345678);
    at.set(y, 0x9abcdef0);
    expr::Evaluator eval;
    eval.reset(at);
    uint64_t want = eval.evaluate(root);

    for (bool right : {true, false}) {
        SatSolver s;
        solver::BitBlaster blaster(s);
        blaster.assertTrue(b.eq(x, b.constant(0x12345678, w)));
        blaster.assertTrue(b.eq(y, b.constant(0x9abcdef0, w)));
        blaster.assertTrue(
            b.eq(root, b.constant(right ? want : want ^ 1, w)));
        EXPECT_EQ(s.solve(), right ? SatResult::Sat : SatResult::Unsat);
        if (right) {
            EXPECT_EQ(blaster.modelValue(x), 0x12345678u);
            EXPECT_EQ(blaster.modelValue(y), 0x9abcdef0u);
        }
    }
}

} // namespace
} // namespace s2e::sat
