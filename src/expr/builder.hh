/**
 * @file
 * Hash-consing expression builder with constant folding.
 *
 * The builder owns every Expr node it creates (arena allocation) and
 * guarantees structural uniqueness, so ExprRef pointer equality is
 * structural equality. Aggressive local folding keeps the DAG small
 * before the heavier bitfield simplifier (simplify.hh) runs.
 */

#ifndef S2E_EXPR_BUILDER_HH
#define S2E_EXPR_BUILDER_HH

#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "expr/expr.hh"

namespace s2e::expr {

/**
 * Factory and owner of all expression nodes. One builder per engine,
 * shared by all exploration workers. The hash-cons table is split into
 * kShards shards picked by the (remixed) node hash's high bits; each has
 * its own mutex, open-addressing table of 8-byte slots and arena of
 * 32-byte nodes, so interning a node is one find-or-insert probe under
 * one shard lock and workers interning unrelated nodes rarely contend.
 * Variables are numbered under a separate mutex, taken before (never
 * after) a shard lock.
 * Returned ExprRefs are immutable and never invalidated.
 */
class ExprBuilder
{
  public:
    ExprBuilder();
    ExprBuilder(const ExprBuilder &) = delete;
    ExprBuilder &operator=(const ExprBuilder &) = delete;

    // --- Leaves -----------------------------------------------------

    /** Bitvector constant of the given width (value truncated). */
    ExprRef constant(uint64_t value, unsigned width);

    ExprRef trueExpr() { return true_; }
    ExprRef falseExpr() { return false_; }
    ExprRef boolean(bool b) { return b ? true_ : false_; }

    /**
     * Fresh symbolic variable; every call returns a distinct variable
     * even for the same base name (a counter is appended).
     */
    ExprRef freshVar(const std::string &base, unsigned width);

    /** Named variable; repeated calls with the same name return the
     *  same variable (widths must then agree). */
    ExprRef var(const std::string &name, unsigned width);

    /** Number of variables created so far. */
    uint64_t
    numVars() const
    {
        std::lock_guard<std::mutex> lock(varMu_);
        return nextVarId_;
    }

    /** Look up a variable node by id (panics if unknown). */
    ExprRef varById(uint64_t id) const;

    // --- Arithmetic / bitwise ---------------------------------------

    ExprRef add(ExprRef a, ExprRef b);
    ExprRef sub(ExprRef a, ExprRef b);
    ExprRef mul(ExprRef a, ExprRef b);
    ExprRef udiv(ExprRef a, ExprRef b);
    ExprRef sdiv(ExprRef a, ExprRef b);
    ExprRef urem(ExprRef a, ExprRef b);
    ExprRef srem(ExprRef a, ExprRef b);

    ExprRef bAnd(ExprRef a, ExprRef b);
    ExprRef bOr(ExprRef a, ExprRef b);
    ExprRef bXor(ExprRef a, ExprRef b);
    ExprRef bNot(ExprRef a);
    ExprRef neg(ExprRef a);

    ExprRef shl(ExprRef a, ExprRef amount);
    ExprRef lshr(ExprRef a, ExprRef amount);
    ExprRef ashr(ExprRef a, ExprRef amount);

    // --- Width changers ---------------------------------------------

    /** Concat(high, low): width = high.width + low.width (<= 64). */
    ExprRef concat(ExprRef high, ExprRef low);

    /** Extract `width` bits starting at bit `offset`. */
    ExprRef extract(ExprRef a, unsigned offset, unsigned width);

    ExprRef zext(ExprRef a, unsigned width);
    ExprRef sext(ExprRef a, unsigned width);

    // --- Comparisons (result width 1) -------------------------------

    ExprRef eq(ExprRef a, ExprRef b);
    ExprRef ne(ExprRef a, ExprRef b);
    ExprRef ult(ExprRef a, ExprRef b);
    ExprRef ule(ExprRef a, ExprRef b);
    ExprRef ugt(ExprRef a, ExprRef b) { return ult(b, a); }
    ExprRef uge(ExprRef a, ExprRef b) { return ule(b, a); }
    ExprRef slt(ExprRef a, ExprRef b);
    ExprRef sle(ExprRef a, ExprRef b);
    ExprRef sgt(ExprRef a, ExprRef b) { return slt(b, a); }
    ExprRef sge(ExprRef a, ExprRef b) { return sle(b, a); }

    // --- Control ----------------------------------------------------

    ExprRef ite(ExprRef cond, ExprRef thenE, ExprRef elseE);

    // --- Boolean (width-1) helpers ----------------------------------

    ExprRef land(ExprRef a, ExprRef b) { return bAnd(a, b); }
    ExprRef lor(ExprRef a, ExprRef b) { return bOr(a, b); }
    ExprRef lnot(ExprRef a) { return bNot(a); }
    ExprRef implies(ExprRef a, ExprRef b) { return lor(lnot(a), b); }

    // --- Introspection ----------------------------------------------

    /** Total distinct nodes allocated (constants included). */
    size_t numNodes() const;

    /** Constant-fold a binary op on raw values (exposed for tests). */
    static uint64_t foldBinary(Kind kind, uint64_t a, uint64_t b,
                               unsigned width);

    /**
     * Deterministic structural total order used for commutative
     * canonicalization: compares kind/width/aux, constant values,
     * variable names, then kids recursively — never node addresses,
     * which depend on interning (i.e., worker-scheduling) order.
     */
    static bool structLess(ExprRef a, ExprRef b);

  private:
    ExprRef intern(Kind kind, unsigned width, unsigned aux, uint64_t value,
                   ExprRef k0, ExprRef k1, ExprRef k2,
                   const std::string *name);
    ExprRef binary(Kind kind, ExprRef a, ExprRef b);
    ExprRef compare(Kind kind, ExprRef a, ExprRef b);

    static constexpr unsigned kShardBits = 4;
    static constexpr size_t kShards = size_t{1} << kShardBits;

    /** A table slot: the node's 32-bit hash tag and its index in the
     *  shard's arena plus one; index 0 marks an empty slot. The probe
     *  start and the shard both come from the tag, so growing the table
     *  rehashes slots without reading a node. */
    struct Slot {
        uint32_t tag = 0;
        uint32_t index = 0;
    };
    static_assert(sizeof(Slot) == 8, "intern slots are 8 bytes");

    /** Nodes per arena chunk; chunks never move, so ExprRefs stay valid. */
    static constexpr unsigned kChunkBits = 6;
    static constexpr size_t kChunkNodes = size_t{1} << kChunkBits;

    /** Linear-probing table (power-of-two size from 16, at most 3/4
     *  full) over the shard's own chunked arena. Both are allocated on
     *  the shard's first insert, which keeps a new builder (one per
     *  engine) cheap to construct. */
    struct alignas(64) Shard {
        mutable std::mutex mu;
        std::vector<Slot> slots;
        std::vector<std::unique_ptr<Expr[]>> chunks;
        size_t size = 0;

        Expr &
        node(size_t index)
        {
            return chunks[index >> kChunkBits][index & (kChunkNodes - 1)];
        }
    };

    Shard shards_[kShards];

    mutable std::mutex varMu_; ///< guards the four variable members below
    std::deque<std::string> names_;
    std::unordered_map<std::string, ExprRef> namedVars_;
    std::vector<ExprRef> varsById_;
    uint64_t nextVarId_ = 0;
    ExprRef true_ = nullptr;
    ExprRef false_ = nullptr;
};

} // namespace s2e::expr

#endif // S2E_EXPR_BUILDER_HH
