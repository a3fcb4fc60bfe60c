#include "expr/vars.hh"

#include <algorithm>

namespace s2e::expr {

std::span<const uint64_t>
VarSets::of(ExprRef e)
{
    auto it = index_.find(e);
    if (it == index_.end()) {
        if (index_.size() >= kMaxEntries)
            clear();
        auto begin = static_cast<uint32_t>(ids_.size());
        collectVars(e, seen_,
                    [&](ExprRef v) { ids_.push_back(v->varId()); });
        seen_.clear();
        std::sort(ids_.begin() + begin, ids_.end());
        auto end = static_cast<uint32_t>(ids_.size());
        it = index_.emplace(e, Range{begin, end}).first;
    }
    return {ids_.data() + it->second.begin,
            ids_.data() + it->second.end};
}

void
VarSets::clear()
{
    index_.clear();
    ids_.clear();
}

} // namespace s2e::expr
