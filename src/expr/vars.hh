/**
 * @file
 * Variable collection over expression DAGs: the one walk behind the
 * solver's independence slicing and model restriction, and behind the
 * witness extractor's component partition. VarSets memoizes that walk
 * per root, so a constraint's DAG is walked once, not once per query.
 */

#ifndef S2E_EXPR_VARS_HH
#define S2E_EXPR_VARS_HH

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "expr/expr.hh"
#include "expr/nodetable.hh"

namespace s2e::expr {

/**
 * Call `onVar(var)` for each variable node reachable from `e` that
 * `seen` has not visited yet, in depth-first kid order, and add every
 * visited node to `seen` (a std::unordered_set<ExprRef> or a
 * NodeTable). Sharing one `seen` across several roots reports each
 * variable once over all of them; clear it between roots to get each
 * root's own variables.
 */
template <typename Seen, typename OnVar>
void
collectVars(ExprRef e, Seen &seen, OnVar &&onVar)
{
    if (e->isConstant() || !seen.insert(e).second)
        return;
    if (e->isVariable()) {
        onVar(e);
        return;
    }
    for (unsigned i = 0; i < e->arity(); ++i)
        collectVars(e->kid(i), seen, onVar);
}

/**
 * Memo from expression root to its variable ids, ascending and each
 * once: the first call for a root walks its DAG, later calls read the
 * stored set.
 *
 * Keys are raw `ExprRef`s, valid (and unique per structure) only as
 * long as the `ExprBuilder` that interned them; anything that compacts
 * or frees builder nodes must clear() the memo first. The memo holds
 * at most kMaxEntries roots and is cleared wholesale when a miss would
 * pass that. It is not thread-safe: each owner (one per solver, so one
 * per worker) uses it from one thread at a time.
 */
class VarSets
{
  public:
    static constexpr size_t kMaxEntries = 1u << 14;

    /** Variable ids of `e`. The view stays valid until the next call
     *  (a miss may move or clear the storage). */
    std::span<const uint64_t> of(ExprRef e);

    void clear();
    size_t size() const { return index_.size(); }

  private:
    struct Range {
        uint32_t begin;
        uint32_t end;
    };

    std::unordered_map<ExprRef, Range> index_;
    std::vector<uint64_t> ids_; ///< every entry's ids, back to back
    NodeTable<bool> seen_;      ///< walk scratch
};

} // namespace s2e::expr

#endif // S2E_EXPR_VARS_HH
