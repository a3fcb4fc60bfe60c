/**
 * @file
 * Forward abstract transfer over the expression DAG.
 *
 * evalExpr computes an AbsValue for every node bottom-up, mirroring
 * ExprBuilder::foldBinary's total-function semantics exactly
 * (division by zero yields all-ones, shifts past the width yield
 * zero / sign-fill, ...). The simplifier's known-bits collapse and
 * expr::knownBits are built on it. When a refined fact map is
 * supplied (facts derived from path constraints, see analyzer.hh)
 * each node's transfer result is met with its recorded fact.
 */

#ifndef S2E_EXPR_ABSINT_TRANSFER_HH
#define S2E_EXPR_ABSINT_TRANSFER_HH

#include <unordered_map>

#include "expr/absint/absval.hh"
#include "expr/expr.hh"

namespace s2e::expr::absint {

/** Per-node abstract values, keyed by hash-consed node identity. */
using FactMap = std::unordered_map<ExprRef, AbsValue>;

/**
 * Abstract value of `e`: bottom-up transfer over the DAG, meeting the
 * per-node `refined` facts when provided (nullptr = context-free).
 * `memo` caches results across calls; the caller must scope it to one
 * fact set (facts narrow monotonically during a fixpoint, so a stale
 * memo is sound there — merely less precise).
 */
AbsValue evalExpr(ExprRef e, const FactMap *refined, FactMap &memo);

/** Context-free convenience entry (fresh memo per call). */
AbsValue evalPure(ExprRef e);

} // namespace s2e::expr::absint

#endif // S2E_EXPR_ABSINT_TRANSFER_HH
