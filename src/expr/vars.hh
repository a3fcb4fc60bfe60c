/**
 * @file
 * Variable collection over expression DAGs: the one walk behind the
 * solver's independence slicing and model restriction, and behind the
 * witness extractor's component partition.
 */

#ifndef S2E_EXPR_VARS_HH
#define S2E_EXPR_VARS_HH

#include <unordered_set>

#include "expr/expr.hh"

namespace s2e::expr {

/**
 * Call `onVar(var)` for each variable node reachable from `e` that
 * `seen` has not visited yet, in depth-first kid order, and add every
 * visited node to `seen`. Sharing one `seen` across several roots
 * reports each variable once over all of them; clear it between roots
 * to get each root's own variables.
 */
template <typename OnVar>
void
collectVars(ExprRef e, std::unordered_set<ExprRef> &seen, OnVar &&onVar)
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

} // namespace s2e::expr

#endif // S2E_EXPR_VARS_HH
