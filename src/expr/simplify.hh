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

#include <vector>

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
 * two memo tables; reuse one instance across queries for memo hits.
 *
 * Both tables are pure caches (a hit returns what a recomputation
 * would), so a solver can keep one Simplifier for a whole run. Each is
 * bounded: when a top-level call leaves one holding more than its
 * kMax* entries, it is cleared wholesale. Clearing only between
 * top-level calls keeps one call's DAG walk memoized throughout.
 */
class Simplifier
{
  public:
    /** Caps on the (expr, demanded) memo and the abstract-value cache. */
    static constexpr size_t kMaxMemoEntries = 1u << 16;
    static constexpr size_t kMaxFactEntries = 1u << 16;

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
    ExprRef simplifyDemandedBits(ExprRef e, uint64_t demanded);

    const SimplifyStats &stats() const { return stats_; }
    void resetStats() { stats_ = SimplifyStats(); }

    /** Entries in the memo and in the abstract-value cache. */
    size_t memoSize() const { return memo_.size(); }
    size_t factCacheSize() const { return pureAbs_.size(); }

  private:
    ExprRef simplifyDemanded(ExprRef e, uint64_t demanded);
    /** Clear a table a top-level call left over its cap. */
    void trimCaches();

    ExprBuilder &builder_;
    SimplifyStats stats_;
    absint::FactMap pureAbs_; ///< context-free abstract-value cache

    /**
     * Memo keyed by (expr, demanded mask): linear probing over a
     * power-of-two array of flat slots, doubled above 3/4 load. A
     * solver looks every constraint up again on every query, so a hit
     * must cost one probe, not a bucket chain.
     */
    class Memo
    {
      public:
        /** The result stored for (e, demanded), or nullptr. */
        ExprRef find(ExprRef e, uint64_t demanded) const;
        void insert(ExprRef e, uint64_t demanded, ExprRef out);
        size_t size() const { return used_; }
        /** Drop every entry (the slot array keeps its size). */
        void clear();

      private:
        struct Slot {
            ExprRef e = nullptr; ///< nullptr marks a free slot
            uint64_t demanded = 0;
            ExprRef out = nullptr;
        };

        /** The slot holding (e, demanded), or the free slot where its
         *  probe ends. */
        size_t slotFor(ExprRef e, uint64_t demanded) const;
        void grow();

        std::vector<Slot> slots_;
        size_t used_ = 0;
    };
    Memo memo_;
};

} // namespace s2e::expr

#endif // S2E_EXPR_SIMPLIFY_HH
