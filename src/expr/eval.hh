/**
 * @file
 * Concrete evaluation of expressions under a variable assignment.
 * Used to validate solver models, to concretize symbolic values, and
 * by tests as a ground-truth oracle.
 */

#ifndef S2E_EXPR_EVAL_HH
#define S2E_EXPR_EVAL_HH

#include <cstdint>
#include <unordered_map>

#include "expr/expr.hh"
#include "expr/nodetable.hh"

namespace s2e::expr {

/** Map from variable id to concrete value; absent variables read 0. */
class Assignment
{
  public:
    void
    set(ExprRef var, uint64_t value)
    {
        S2E_ASSERT(var->isVariable(), "Assignment::set on non-variable");
        values_[var->varId()] = value;
    }

    void setById(uint64_t id, uint64_t value) { values_[id] = value; }

    uint64_t
    lookup(uint64_t var_id) const
    {
        auto it = values_.find(var_id);
        return it == values_.end() ? 0 : it->second;
    }

    bool
    has(uint64_t var_id) const
    {
        return values_.count(var_id) != 0;
    }

    const std::unordered_map<uint64_t, uint64_t> &values() const
    {
        return values_;
    }

  private:
    std::unordered_map<uint64_t, uint64_t> values_;
};

/**
 * Reusable evaluator: evaluates expression DAGs under one assignment
 * at a time, memoizing every interior node's value in a NodeTable.
 * Roots evaluated under the same assignment share the memo, and
 * reset() forgets it while keeping the storage, so a caller that
 * tries many roots or many assignments allocates only while the table
 * grows.
 */
class Evaluator
{
  public:
    /** Evaluate under `a` from now on; `a` must outlive that use and
     *  stay unchanged until the next reset. */
    void reset(const Assignment &a);

    /** Value of `e` (truncated to its width) under the assignment of
     *  the last reset. Shared nodes are evaluated once. */
    uint64_t evaluate(ExprRef e);

    /** Evaluate a width-1 expression as a boolean. */
    bool
    evaluateBool(ExprRef e)
    {
        S2E_ASSERT(e->width() == 1, "evaluateBool on width-%u expr",
                   e->width());
        return evaluate(e) != 0;
    }

  private:
    uint64_t evalNode(ExprRef e);

    const Assignment *assignment_ = nullptr;
    NodeTable<uint64_t> memo_; ///< interior nodes only
};

/**
 * Evaluate an expression DAG to a concrete value (truncated to the
 * expression width). Shared nodes are evaluated once.
 */
inline uint64_t
evaluate(ExprRef e, const Assignment &assignment)
{
    Evaluator ev;
    ev.reset(assignment);
    return ev.evaluate(e);
}

/** Evaluate a width-1 expression as a boolean. */
inline bool
evaluateBool(ExprRef e, const Assignment &assignment)
{
    S2E_ASSERT(e->width() == 1, "evaluateBool on width-%u expr", e->width());
    return evaluate(e, assignment) != 0;
}

} // namespace s2e::expr

#endif // S2E_EXPR_EVAL_HH
