#include "solver/sat.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <new>

#include "support/logging.hh"

namespace s2e::sat {

void *
SatSolver::Arena::allocate(size_t bytes)
{
    constexpr size_t kFirstChunk = 4096;
    constexpr size_t kMaxChunk = 64 * 1024;
    // Clause blocks are whole numbers of 4-byte words and watch arrays
    // whole numbers of watchers, so in an arena of either kind every
    // block stays aligned.
    static_assert(alignof(Clause) <= alignof(Lit) &&
                  sizeof(Clause) % alignof(Lit) == 0);
    static_assert(sizeof(Watcher) % alignof(Watcher) == 0);
    if (bytes > left_) {
        size_t grown = kFirstChunk << std::min<size_t>(chunks_.size(), 4);
        size_t chunk = std::max(bytes, std::min(grown, kMaxChunk));
        chunks_.push_back(std::make_unique_for_overwrite<std::byte[]>(chunk));
        next_ = chunks_.back().get();
        left_ = chunk;
    }
    void *p = next_;
    next_ += bytes;
    left_ -= bytes;
    return p;
}

void
SatSolver::WatchList::grow(Arena &spill)
{
    uint32_t cap = cap_ * 2;
    auto *grown = static_cast<Watcher *>(spill.allocate(cap * sizeof(Watcher)));
    std::copy(data(), data() + size_, grown);
    heap_ = grown;
    cap_ = cap;
}

SatSolver::WatchTable::~WatchTable()
{
    // The lists own nothing: their outgrown arrays go with spill_.
    std::free(lists_);
}

void
SatSolver::WatchTable::addVar()
{
    if (size_ + 2 > cap_) {
        size_t cap = cap_ ? 2 * cap_ : 64;
        void *grown = std::realloc(lists_, cap * sizeof(WatchList));
        if (!grown)
            throw std::bad_alloc();
        lists_ = static_cast<WatchList *>(grown);
        cap_ = cap;
    }
    lists_[size_++].init();
    lists_[size_++].init();
}

SatSolver::SatSolver() = default;

SatSolver::~SatSolver()
{
    // Problem clauses go with arena_.
    for (Clause *c : learnts_)
        ::operator delete(c);
}

Var
SatSolver::newVar()
{
    Var v = static_cast<Var>(assigns_.size());
    assigns_.push_back(LBool::Undef);
    phase_.push_back(false);
    reason_.push_back(nullptr);
    level_.push_back(0);
    activity_.push_back(0.0);
    seen_.push_back(0);
    watches_.addVar();
    // heapInsert without the sift: a new variable's activity, 0, is
    // no higher than any other, so it stays at the bottom.
    heapPos_.push_back(static_cast<int>(heap_.size()));
    heap_.push_back(v);
    return v;
}

bool
SatSolver::addClause(const std::vector<Lit> &lits)
{
    addTmp_.assign(lits.begin(), lits.end());
    return addClauseInPlace(addTmp_.data(), addTmp_.size());
}

bool
SatSolver::addClauseInPlace(Lit *lits, size_t n)
{
    S2E_ASSERT(decisionLevel() == 0, "addClause above root level");
    if (!ok_)
        return false;

    // Sort, dedupe, drop false literals, detect tautologies and
    // satisfied clauses; the kept literals are compacted to the front.
    // Two and three literals (every Tseitin clause) are sorted by a
    // compare-exchange network, to the same order std::sort gives.
    auto order = [&](size_t i, size_t j) {
        if (lits[j] < lits[i])
            std::swap(lits[i], lits[j]);
    };
    if (n == 2) {
        order(0, 1);
    } else if (n == 3) {
        order(0, 1);
        order(1, 2);
        order(0, 1);
    } else {
        std::sort(lits, lits + n);
    }
    size_t kept = 0;
    Lit prev = -1;
    for (size_t i = 0; i < n; ++i) {
        Lit l = lits[i];
        S2E_ASSERT(litVar(l) < numVars(), "clause uses unknown var");
        if (l == prev)
            continue;
        if (prev >= 0 && l == litNot(prev))
            return true; // tautology: x | !x
        LBool v = litValue(l);
        if (v == LBool::True)
            return true; // already satisfied at root
        if (v == LBool::False)
            continue; // root-false literal: drop
        lits[kept++] = l;
        prev = l;
    }

    if (kept == 0) {
        ok_ = false;
        return false;
    }
    if (kept == 1) {
        enqueue(lits[0], nullptr);
        if (propagate() != nullptr) {
            ok_ = false;
            return false;
        }
        return true;
    }

    Clause *c = newClause(arena_.allocate(Clause::bytes(kept)), lits, kept,
                          false);
    clauses_.push_back(c);
    attachClause(c);
    return true;
}

SatSolver::Clause *
SatSolver::newClause(void *mem, const Lit *lits, size_t n, bool learnt)
{
    auto *c = new (mem) Clause;
    c->activity = 0;
    c->learnt = learnt;
    c->size = static_cast<uint32_t>(n);
    std::memcpy(c->begin(), lits, n * sizeof(Lit));
    return c;
}

void
SatSolver::attachClause(Clause *c)
{
    S2E_ASSERT(c->size >= 2, "attach of short clause");
    watches_.push(litNot((*c)[0]), {c, (*c)[1]});
    watches_.push(litNot((*c)[1]), {c, (*c)[0]});
}

void
SatSolver::enqueue(Lit l, Clause *reason)
{
    Var v = litVar(l);
    S2E_ASSERT(assigns_[v] == LBool::Undef, "enqueue of assigned var");
    assigns_[v] = lboolFrom(!litNeg(l));
    phase_[v] = !litNeg(l);
    reason_[v] = reason;
    level_[v] = decisionLevel();
    trail_.push_back(l);
}

SatSolver::Clause *
SatSolver::propagate()
{
    while (qhead_ < trail_.size()) {
        Lit p = trail_[qhead_++];
        propagations_++;
        WatchList &ws = watches_[p];
        size_t i = 0, j = 0;
        while (i < ws.size()) {
            Watcher w = ws[i];
            if (litValue(w.blocker) == LBool::True) {
                ws[j++] = ws[i++];
                continue;
            }
            Clause *c = w.clause;
            Clause &lits = *c;
            // Normalize so lits[0] is the other watched literal.
            Lit not_p = litNot(p);
            if (lits[0] == not_p)
                std::swap(lits[0], lits[1]);
            S2E_ASSERT(lits[1] == not_p, "watch invariant broken");
            Lit first = lits[0];
            if (first != w.blocker && litValue(first) == LBool::True) {
                ws[j++] = {c, first};
                i++;
                continue;
            }
            // Look for a new literal to watch.
            bool moved = false;
            for (size_t k = 2; k < lits.size; ++k) {
                if (litValue(lits[k]) != LBool::False) {
                    std::swap(lits[1], lits[k]);
                    watches_.push(litNot(lits[1]), {c, first});
                    moved = true;
                    break;
                }
            }
            if (moved) {
                i++;
                continue;
            }
            // Clause is unit or conflicting.
            ws[j++] = {c, first};
            i++;
            if (litValue(first) == LBool::False) {
                // Conflict: copy remaining watchers and bail.
                while (i < ws.size())
                    ws[j++] = ws[i++];
                ws.truncate(j);
                qhead_ = trail_.size();
                return c;
            }
            enqueue(first, c);
        }
        ws.truncate(j);
    }
    return nullptr;
}

void
SatSolver::analyze(Clause *conflict, std::vector<Lit> &out_learnt,
                   int &out_btlevel)
{
    out_learnt.clear();
    out_learnt.push_back(0); // placeholder for the asserting literal
    int path_count = 0;
    Lit p = -1;
    size_t index = trail_.size();

    Clause *c = conflict;
    do {
        S2E_ASSERT(c != nullptr, "analyze hit a decision without reason");
        bumpClauseActivity(c);
        for (Lit q : *c) {
            if (q == p)
                continue;
            Var v = litVar(q);
            if (!seen_[v] && level_[v] > 0) {
                seen_[v] = 1;
                bumpVarActivity(v);
                if (level_[v] >= decisionLevel())
                    path_count++;
                else
                    out_learnt.push_back(q);
            }
        }
        // Select next literal on the trail to expand.
        while (!seen_[litVar(trail_[index - 1])])
            index--;
        index--;
        p = trail_[index];
        c = reason_[litVar(p)];
        seen_[litVar(p)] = 0;
        path_count--;
    } while (path_count > 0);
    out_learnt[0] = litNot(p);

    // Clause minimization: drop literals implied by the rest.
    // (Light-weight local check: a literal whose reason's literals are
    // all already in the clause or at level 0 is redundant.)
    auto redundant = [&](Lit l) {
        Clause *r = reason_[litVar(l)];
        if (!r)
            return false;
        for (Lit q : *r) {
            Var v = litVar(q);
            if (v == litVar(l))
                continue;
            if (level_[v] > 0 && !seen_[v])
                return false;
        }
        return true;
    };
    // Mark for the redundancy check; remember every marked variable
    // so the scratch flags are fully cleared afterwards (stale flags
    // would corrupt later conflict analyses).
    marked_.clear();
    for (Lit l : out_learnt) {
        seen_[litVar(l)] = 1;
        marked_.push_back(litVar(l));
    }
    size_t w = 1;
    for (size_t r = 1; r < out_learnt.size(); ++r) {
        if (!redundant(out_learnt[r]))
            out_learnt[w++] = out_learnt[r];
    }
    for (Var v : marked_)
        seen_[v] = 0;
    out_learnt.resize(w);

    // Compute backtrack level: highest level among lits[1..].
    out_btlevel = 0;
    if (out_learnt.size() > 1) {
        size_t max_i = 1;
        for (size_t k = 2; k < out_learnt.size(); ++k)
            if (level_[litVar(out_learnt[k])] >
                level_[litVar(out_learnt[max_i])])
                max_i = k;
        std::swap(out_learnt[1], out_learnt[max_i]);
        out_btlevel = level_[litVar(out_learnt[1])];
    }
}

void
SatSolver::cancelUntil(int lvl)
{
    if (decisionLevel() <= lvl)
        return;
    for (size_t i = trail_.size(); i > static_cast<size_t>(trailLim_[lvl]);
         --i) {
        Var v = litVar(trail_[i - 1]);
        assigns_[v] = LBool::Undef;
        reason_[v] = nullptr;
        if (heapPos_[v] < 0)
            heapInsert(v);
    }
    trail_.resize(trailLim_[lvl]);
    trailLim_.resize(lvl);
    qhead_ = trail_.size();
}

Lit
SatSolver::pickBranchLit()
{
    while (!heapEmpty()) {
        Var v = heapPopMax();
        if (assigns_[v] == LBool::Undef)
            return mkLit(v, !phase_[v]);
    }
    return -1;
}

void
SatSolver::bumpVarActivity(Var v)
{
    activity_[v] += varInc_;
    if (activity_[v] > 1e100) {
        for (auto &a : activity_)
            a *= 1e-100;
        varInc_ *= 1e-100;
    }
    if (heapPos_[v] >= 0)
        heapUpdate(v);
}

void
SatSolver::bumpClauseActivity(Clause *c)
{
    if (!c->learnt)
        return;
    c->activity += static_cast<float>(claInc_);
    if (c->activity > 1e20f) {
        for (Clause *lc : learnts_)
            lc->activity *= 1e-20f;
        claInc_ *= 1e-20;
    }
}

void
SatSolver::decayActivities()
{
    varInc_ /= 0.95;
    claInc_ /= 0.999;
}

void
SatSolver::reduceDB()
{
    // Remove the least active half of the learnt clauses, keeping
    // clauses that are currently reasons. The survivors stay in
    // activity order.
    std::sort(learnts_.begin(), learnts_.end(),
              [](Clause *a, Clause *b) { return a->activity > b->activity; });
    auto isLocked = [&](Clause *c) {
        Lit first = (*c)[0];
        return litValue(first) == LBool::True &&
               reason_[litVar(first)] == c;
    };
    size_t limit = learnts_.size() / 2;
    size_t kept = 0;
    for (size_t i = 0; i < learnts_.size(); ++i) {
        Clause *c = learnts_[i];
        if (i < limit || isLocked(c) || c->size == 2) {
            learnts_[kept++] = c;
        } else {
            // Detach from watch lists.
            for (int k = 0; k < 2; ++k) {
                WatchList &ws = watches_[litNot((*c)[k])];
                for (size_t x = 0; x < ws.size(); ++x) {
                    if (ws[x].clause == c) {
                        ws[x] = ws.back();
                        ws.pop_back();
                        break;
                    }
                }
            }
            ::operator delete(c);
        }
    }
    learnts_.resize(kept);
}

bool
SatSolver::verifyModel() const
{
    for (const Clause *c : clauses_) {
        bool any = false;
        for (Lit l : *c)
            if (modelTrue(l))
                any = true;
        if (!any)
            return false;
    }
    return true;
}

int64_t
SatSolver::lubyWindow(uint64_t restarts)
{
    // Luby sequence via Knuth's reluctant-doubling pair, scaled by a
    // base window of 128 conflicts.
    uint64_t u = 1, v = 1;
    for (uint64_t i = 0; i < restarts; ++i) {
        if ((u & (~u + 1)) == v) {
            u++;
            v = 1;
        } else {
            v <<= 1;
        }
    }
    return static_cast<int64_t>(v) * 128;
}

SatResult
SatSolver::solve(const std::vector<Lit> &assumptions,
                 const QueryBudget &budget)
{
    lastStopDeadline_ = false;
    if (!ok_)
        return SatResult::Unsat;
    cancelUntil(0);

    uint64_t restarts = 0;
    int64_t restart_budget = lubyWindow(restarts);
    uint64_t conflicts_this_call = 0;
    uint64_t decisions_this_call = 0;
    size_t learnt_cap = clauses_.size() / 2 + 1000;

    // Wall-clock deadline, checked every few conflicts (and
    // periodically between decisions, for instances that propagate for
    // a long time without conflicting).
    const bool has_deadline = budget.maxMicros >= 0;
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::microseconds(has_deadline ? budget.maxMicros : 0);
    constexpr uint64_t kConflictCheckMask = 0x3;   // every 4 conflicts
    constexpr uint64_t kDecisionCheckMask = 0xFF;  // every 256 decisions
    auto deadline_hit = [&] {
        return has_deadline &&
               std::chrono::steady_clock::now() >= deadline;
    };

    for (;;) {
        Clause *conflict = propagate();
        if (conflict != nullptr) {
            conflicts_++;
            conflicts_this_call++;
            restart_budget--;
            if (decisionLevel() == 0) {
                ok_ = false;
                return SatResult::Unsat;
            }
            int bt_level = 0;
            analyze(conflict, learnt_, bt_level);
            cancelUntil(bt_level);
            if (learnt_.size() == 1) {
                enqueue(learnt_[0], nullptr);
            } else {
                Clause *c = newClause(
                    ::operator new(Clause::bytes(learnt_.size())),
                    learnt_.data(), learnt_.size(), true);
                learnts_.push_back(c);
                attachClause(c);
                bumpClauseActivity(c);
                enqueue(learnt_[0], c);
            }
            decayActivities();
            if (budget.maxConflicts >= 0 &&
                conflicts_this_call >
                    static_cast<uint64_t>(budget.maxConflicts)) {
                cancelUntil(0);
                return SatResult::Unknown;
            }
            if ((conflicts_this_call & kConflictCheckMask) == 0 &&
                deadline_hit()) {
                lastStopDeadline_ = true;
                cancelUntil(0);
                return SatResult::Unknown;
            }
            continue;
        }

        if (restart_budget <= 0) {
            restarts++;
            restart_budget = lubyWindow(restarts);
            cancelUntil(0);
            continue;
        }
        if (learnts_.size() > learnt_cap) {
            reduceDB();
            learnt_cap += learnt_cap / 2;
        }

        // Apply assumptions as pseudo-decisions in order.
        if (static_cast<size_t>(decisionLevel()) < assumptions.size()) {
            Lit a = assumptions[decisionLevel()];
            LBool v = litValue(a);
            if (v == LBool::True) {
                trailLim_.push_back(static_cast<int>(trail_.size()));
                continue;
            }
            if (v == LBool::False) {
                // Assumptions conflict with the formula.
                cancelUntil(0);
                return SatResult::Unsat;
            }
            trailLim_.push_back(static_cast<int>(trail_.size()));
            enqueue(a, nullptr);
            continue;
        }

        Lit next = pickBranchLit();
        if (next < 0) {
            // Full satisfying assignment: snapshot it as the model and
            // restore the solver to root level so more clauses can be
            // added afterwards.
            model_ = assigns_;
            cancelUntil(0);
            return SatResult::Sat;
        }
        decisions_++;
        if ((++decisions_this_call & kDecisionCheckMask) == 0 &&
            deadline_hit()) {
            lastStopDeadline_ = true;
            cancelUntil(0);
            return SatResult::Unknown;
        }
        trailLim_.push_back(static_cast<int>(trail_.size()));
        enqueue(next, nullptr);
    }
}

// --- Indexed binary max-heap over activity ---------------------------

void
SatSolver::heapInsert(Var v)
{
    heapPos_[v] = static_cast<int>(heap_.size());
    heap_.push_back(v);
    heapSiftUp(heapPos_[v]);
}

void
SatSolver::heapUpdate(Var v)
{
    heapSiftUp(heapPos_[v]);
}

Var
SatSolver::heapPopMax()
{
    Var top = heap_[0];
    heapPos_[top] = -1;
    Var last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) {
        heap_[0] = last;
        heapPos_[last] = 0;
        heapSiftDown(0);
    }
    return top;
}

void
SatSolver::heapSiftUp(int i)
{
    Var v = heap_[i];
    while (i > 0) {
        int parent = (i - 1) / 2;
        if (activity_[heap_[parent]] >= activity_[v])
            break;
        heap_[i] = heap_[parent];
        heapPos_[heap_[i]] = i;
        i = parent;
    }
    heap_[i] = v;
    heapPos_[v] = i;
}

void
SatSolver::heapSiftDown(int i)
{
    Var v = heap_[i];
    int n = static_cast<int>(heap_.size());
    for (;;) {
        int child = 2 * i + 1;
        if (child >= n)
            break;
        if (child + 1 < n &&
            activity_[heap_[child + 1]] > activity_[heap_[child]])
            child++;
        if (activity_[heap_[child]] <= activity_[v])
            break;
        heap_[i] = heap_[child];
        heapPos_[heap_[i]] = i;
        i = child;
    }
    heap_[i] = v;
    heapPos_[v] = i;
}

} // namespace s2e::sat
