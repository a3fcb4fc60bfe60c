/**
 * @file
 * Whole-path static value analysis over constraint sets.
 *
 * The Analyzer turns a path's constraint set into a FactMap of
 * refined AbsValues keyed by hash-consed node identity: asserting
 * `ult(x, 10)` narrows x's interval to [0, 9], asserting a branch
 * condition node pins that exact node (and, through backward
 * propagation, its operands) for every later query on the path. A
 * bounded fixpoint iterates forward evaluation and backward
 * refinement until nothing narrows.
 *
 * Fact sets are cached keyed by the constraint vector; since paths
 * grow by appending constraints, a cached prefix seeds the analysis
 * of its extensions (the common case is one new constraint on top of
 * an already-analyzed set).
 *
 * Everything here is an over-approximation: a fact map never excludes
 * a value some model of the constraints can produce. Bottom facts
 * mean the constraint set itself is statically contradictory — the
 * engine's path invariant rules that out for well-formed paths, so
 * consumers treat bottom as "no verdict" rather than Unsat.
 *
 * The solver does not consult the Analyzer (DESIGN.md has the
 * measurements); the repo benchmark's per-layer ladder times it.
 */

#ifndef S2E_EXPR_ABSINT_ANALYZER_HH
#define S2E_EXPR_ABSINT_ANALYZER_HH

#include <memory>
#include <vector>

#include "expr/absint/transfer.hh"

namespace s2e::expr::absint {

/** Facts derived from one constraint set. */
struct Facts {
    std::vector<ExprRef> key; ///< the analyzed constraint vector
    FactMap refined;          ///< node -> narrowed abstract value
    FactMap evalMemo;         ///< post-fixpoint query-time eval cache
    uint64_t generation = 0;  ///< unique id (scopes consumer memos)
    bool bottom = false;      ///< constraints statically contradictory
};

class Analyzer
{
  public:
    /** Wire the analyzer's activity counters to pre-registered Stats
     *  slots (all nullable; see Solver's absint.* counters). */
    void
    bindCounters(uint64_t *facts_computed, uint64_t *facts_reused,
                 uint64_t *fixpoint_iters)
    {
        factsComputed_ = facts_computed;
        factsReused_ = facts_reused;
        fixpointIters_ = fixpoint_iters;
    }

    /** Facts for a constraint set (cached; prefix-seeded). */
    std::shared_ptr<Facts> analyze(const std::vector<ExprRef> &constraints);

    /** Abstract value of `e` under the facts (memoized in `facts`). */
    AbsValue
    eval(ExprRef e, Facts &facts)
    {
        return evalExpr(e, &facts.refined, facts.evalMemo);
    }

  private:
    void runFixpoint(Facts &facts);
    void refineNode(ExprRef e, const AbsValue &required, Facts &facts,
                    FactMap &memo, bool &changed, unsigned depth,
                    unsigned &budget);

    std::vector<std::shared_ptr<Facts>> cache_; ///< newest at the back
    uint64_t nextGen_ = 1;
    uint64_t *factsComputed_ = nullptr;
    uint64_t *factsReused_ = nullptr;
    uint64_t *fixpointIters_ = nullptr;
};

} // namespace s2e::expr::absint

#endif // S2E_EXPR_ABSINT_ANALYZER_HH
