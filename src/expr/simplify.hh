/**
 * @file
 * Bitfield-theory expression simplifier (paper §5).
 *
 * Machine-code translation produces flag-extraction expressions full
 * of masks, shifts and bit tests. The simplifier runs two passes over
 * the DAG:
 *
 *  1. bottom-up *known bits*: propagate which individual bits of every
 *     subexpression are statically 0 or 1; fully-known subexpressions
 *     collapse to constants;
 *  2. top-down *demanded bits*: propagate which bits the consumers
 *     actually look at; operations that only affect ignored bits are
 *     removed.
 */

#ifndef S2E_EXPR_SIMPLIFY_HH
#define S2E_EXPR_SIMPLIFY_HH

#include "expr/absint/transfer.hh"
#include "expr/builder.hh"
#include "expr/expr.hh"
#include "support/bitops.hh"

namespace s2e::expr {

/**
 * Compute the known-bits lattice value for an expression. Exposed for
 * tests and for the solver's fast path (a constraint whose known bits
 * pin it to 0/1 needs no SAT call). Backed by the absint transfer
 * functions, so interval reasoning feeds bit facts too (a singleton
 * range pins every bit).
 */
KnownBits knownBits(ExprRef e);

/** Statistics from a simplification run. */
struct SimplifyStats {
    uint64_t constantsFolded = 0;
    uint64_t opsDropped = 0;
};

/**
 * Bitfield simplifier. Stateless apart from its builder reference and
 * a memo table; reuse one instance across queries for memo hits.
 */
class Simplifier
{
  public:
    explicit Simplifier(ExprBuilder &builder) : builder_(builder) {}

    /**
     * Simplify an expression. The result is equivalent on all bits
     * (the top-level demanded mask is the full width).
     */
    ExprRef simplify(ExprRef e);

    /**
     * Demanded-bits entry point: the result agrees with `e` on every
     * bit of `demanded` under every assignment; bits outside the mask
     * are unspecified. Exposed for the property-equivalence suite.
     */
    ExprRef
    simplifyDemandedBits(ExprRef e, uint64_t demanded)
    {
        return simplifyDemanded(e, demanded);
    }

    const SimplifyStats &stats() const { return stats_; }
    void resetStats() { stats_ = SimplifyStats(); }

  private:
    ExprRef simplifyDemanded(ExprRef e, uint64_t demanded);

    ExprBuilder &builder_;
    SimplifyStats stats_;
    absint::FactMap pureAbs_; ///< context-free abstract-value cache
    // Memo keyed by (expr, demanded mask).
    struct Key {
        ExprRef e;
        uint64_t demanded;
        bool operator==(const Key &o) const
        {
            return e == o.e && demanded == o.demanded;
        }
    };
    struct KeyHash {
        size_t
        operator()(const Key &k) const
        {
            return std::hash<const void *>()(k.e) ^
                   std::hash<uint64_t>()(k.demanded * 0x9e3779b97f4a7c15ULL);
        }
    };
    std::unordered_map<Key, ExprRef, KeyHash> memo_;
};

} // namespace s2e::expr

#endif // S2E_EXPR_SIMPLIFY_HH
