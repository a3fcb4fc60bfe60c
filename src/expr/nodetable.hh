/**
 * @file
 * Flat per-walk memo keyed by expression node: the storage behind the
 * reusable evaluator and the variable-set walk.
 */

#ifndef S2E_EXPR_NODETABLE_HH
#define S2E_EXPR_NODETABLE_HH

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "expr/expr.hh"

namespace s2e::expr {

/**
 * Open-addressing table from expression node to a `V`, for memos that
 * one walk fills and the next walk forgets. clear() bumps a stamp
 * instead of touching the slots, so a table reused walk after walk
 * allocates only while it grows. A table grown past kKeptSlots by one
 * large DAG is freed by clear(), so it does not keep that DAG's
 * footprint between walks.
 */
template <typename V>
class NodeTable
{
  public:
    static constexpr size_t kKeptSlots = size_t{1} << 16;

    /** The value stored for `e` since the last clear(), or nullptr.
     *  The pointer is valid until the next insert or clear. */
    V *
    find(ExprRef e)
    {
        if (slots_.empty())
            return nullptr;
        Slot &s = slots_[slotFor(e)];
        return s.stamp == stamp_ ? &s.value : nullptr;
    }
    const V *
    find(ExprRef e) const
    {
        if (slots_.empty())
            return nullptr;
        const Slot &s = slots_[slotFor(e)];
        return s.stamp == stamp_ ? &s.value : nullptr;
    }

    /** Store `value` for `e` unless `e` has a value already. Returns
     *  the stored value and whether it was inserted, as
     *  std::unordered_map::insert does. */
    std::pair<V *, bool>
    insert(ExprRef e, V value = V{})
    {
        if (V *old = find(e))
            return {old, false};
        // At most half full: probe sequences stay short.
        if (2 * (live_ + 1) > slots_.size())
            grow();
        Slot &s = slots_[slotFor(e)];
        s = Slot{e, value, stamp_};
        ++live_;
        return {&s.value, true};
    }

    void
    clear()
    {
        live_ = 0;
        if (slots_.size() > kKeptSlots) {
            slots_ = {};
        } else if (++stamp_ == 0) {
            // Stamp wrap-around: every slot must read as free again.
            for (Slot &s : slots_)
                s.stamp = 0;
            stamp_ = 1;
        }
    }

    /** Entries stored since the last clear(). */
    size_t size() const { return live_; }
    size_t capacity() const { return slots_.size(); }

  private:
    struct Slot {
        ExprRef node = nullptr;
        V value{};
        uint32_t stamp = 0; ///< live iff equal to stamp_
    };

    /** `e`'s live slot, or the first free one on its probe path. */
    size_t
    slotFor(ExprRef e) const
    {
        size_t mask = slots_.size() - 1;
        auto i = static_cast<size_t>((e->hash() * 0x9e3779b97f4a7c15ULL) >>
                                     32);
        for (;; ++i) {
            const Slot &s = slots_[i & mask];
            if (s.stamp != stamp_ || s.node == e)
                return i & mask;
        }
    }

    void
    grow()
    {
        std::vector<Slot> old(std::max<size_t>(64, 2 * slots_.size()));
        old.swap(slots_);
        for (const Slot &s : old)
            if (s.stamp == stamp_)
                slots_[slotFor(s.node)] = s;
    }

    std::vector<Slot> slots_; ///< power-of-two size, linear probing
    size_t live_ = 0;
    uint32_t stamp_ = 1;
};

} // namespace s2e::expr

#endif // S2E_EXPR_NODETABLE_HH
