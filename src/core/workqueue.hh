/**
 * @file
 * Per-worker shards of runnable states for multi-path exploration.
 *
 * Each worker owns one shard: its states in insertion order (states
 * seeded at the start of a round, then fork children in the order the
 * owner publishes them). The owner picks what runs next from its whole
 * shard with a caller-supplied policy — the engine's Searcher — and the
 * picked state stays in its slot while it runs, marked running. A
 * worker whose shard is empty steals the oldest state that is not
 * running from the front of another shard (the states closest to the
 * fork-tree root and hence the largest subtrees) and appends it to its
 * own.
 *
 * Ownership protocol: only the worker running a state may touch the
 * state's mutable fields, and only a state that is not running may
 * move to another shard. The shard mutexes double as the
 * release/acquire edge that publishes all writes the previous owner
 * made.
 *
 * Termination: `pending` counts the states in all shards, running or
 * not. take() returns nullptr only when pending reaches zero, i.e.
 * every state has left the queue — an empty shard alone means nothing
 * while another worker still runs a state that may fork.
 *
 * Idle waiting is epoch/predicate based: a waiter snapshots the push
 * epoch *before* scanning the shards, so any push it could have missed
 * either landed before the snapshot (the scan finds it — the push
 * writes the shard before bumping the epoch) or after (the epoch
 * moved and the predicate refuses to sleep). Blocked workers
 * genuinely sleep — no timed polling.
 * Pushes take the wait mutex only when a sleeper exists (seq_cst
 * fences on the epoch bump and the waiter count close the classic
 * flag/flag race), so the hot fork path is two uncontended atomics
 * past the shard lock.
 */

#ifndef S2E_CORE_WORKQUEUE_HH
#define S2E_CORE_WORKQUEUE_HH

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <vector>

#include "support/logging.hh"

namespace s2e::core {

class ExecutionState;

class WorkQueue
{
  public:
    explicit WorkQueue(unsigned workers) : shards_(workers)
    {
        S2E_ASSERT(workers >= 1, "work queue needs at least one shard");
    }

    WorkQueue(const WorkQueue &) = delete;
    WorkQueue &operator=(const WorkQueue &) = delete;

    /** Append a state the queue has not seen before (seeded states and
     *  published fork children) to `worker`'s shard. */
    void
    add(unsigned worker, ExecutionState *state)
    {
        pending_.fetch_add(1, std::memory_order_relaxed);
        Shard &shard = shardOf(worker);
        {
            std::lock_guard<std::mutex> lock(shard.mu);
            shard.states.push_back(state);
        }
        published();
    }

    /**
     * The next state for `worker` to run. With a non-empty shard,
     * `pick(states)` chooses one of them (the shard in insertion
     * order, called under the shard lock); otherwise the oldest
     * stealable state of another shard moves to this one. The result
     * is marked running until put() or finish(). Sleeps while other
     * workers hold every remaining state; returns nullptr once every
     * state has left the queue.
     */
    template <class Pick>
    ExecutionState *
    take(unsigned worker, Pick &&pick)
    {
        Shard &own = shardOf(worker);
        while (true) {
            // Epoch before scan: a push that beats the scan is found
            // in its shard; one that loses bumps the epoch and the
            // wait predicate below refuses to sleep. seq_cst pairs
            // with the pusher's epoch-bump/waiter-check ordering.
            uint64_t seen = pushEpoch_.load(std::memory_order_seq_cst);
            {
                std::lock_guard<std::mutex> lock(own.mu);
                if (!own.states.empty()) {
                    const std::vector<ExecutionState *> &states =
                        own.states;
                    own.running = pick(states);
                    S2E_ASSERT(own.running, "pick chose no state");
                    return own.running;
                }
            }
            for (size_t i = 1; i < shards_.size(); ++i) {
                unsigned victim =
                    (worker + i) % static_cast<unsigned>(shards_.size());
                if (ExecutionState *s = stealOldest(victim)) {
                    std::lock_guard<std::mutex> lock(own.mu);
                    own.states.push_back(s);
                    own.running = s;
                    return s;
                }
            }
            if (pending_.load(std::memory_order_acquire) == 0)
                return nullptr;
            std::unique_lock<std::mutex> lock(waitMu_);
            waiters_.fetch_add(1, std::memory_order_seq_cst);
            waitStats_.sleeps.fetch_add(1, std::memory_order_relaxed);
            cv_.wait(lock, [&] {
                return pushEpoch_.load(std::memory_order_relaxed) !=
                           seen ||
                       pending_.load(std::memory_order_relaxed) == 0;
            });
            waiters_.fetch_sub(1, std::memory_order_relaxed);
            lock.unlock();
            waitStats_.wakeups.fetch_add(1, std::memory_order_relaxed);
        }
    }

    /** The running state's slice ended: it keeps its slot and other
     *  workers may steal it again. */
    void
    put(unsigned worker)
    {
        Shard &own = shardOf(worker);
        {
            std::lock_guard<std::mutex> lock(own.mu);
            own.running = nullptr;
        }
        published();
    }

    /** The running state left for good (terminated, or parked at a
     *  merge point): drop it from its slot. */
    void
    finish(unsigned worker)
    {
        Shard &own = shardOf(worker);
        {
            std::lock_guard<std::mutex> lock(own.mu);
            // The running state is usually the newest (depth-first),
            // so search from the back.
            auto it = std::find(own.states.rbegin(), own.states.rend(),
                                own.running);
            S2E_ASSERT(it != own.states.rend(),
                       "finish without a running state");
            own.states.erase(std::next(it).base());
            own.running = nullptr;
        }
        left(1);
    }

    /**
     * Drop every state of `worker`'s shard for which `leaves(state)`
     * holds — the running one included — appending them to `out` in
     * slot order.
     */
    template <class Leaves>
    void
    sweep(unsigned worker, Leaves &&leaves,
          std::vector<ExecutionState *> &out)
    {
        Shard &own = shardOf(worker);
        size_t removed = 0;
        {
            std::lock_guard<std::mutex> lock(own.mu);
            auto keep = own.states.begin();
            for (ExecutionState *s : own.states) {
                if (!leaves(s)) {
                    *keep++ = s;
                    continue;
                }
                out.push_back(s);
                if (s == own.running)
                    own.running = nullptr;
            }
            removed = static_cast<size_t>(own.states.end() - keep);
            own.states.erase(keep, own.states.end());
        }
        if (removed)
            left(removed);
    }

    /** States currently in the queue, running or not. */
    size_t
    pending() const
    {
        return pending_.load(std::memory_order_acquire);
    }

    /** Idle-wait introspection (tests and the wakeup stress bench). */
    struct WaitStats {
        /** Times a worker went to sleep in take(). */
        std::atomic<uint64_t> sleeps{0};
        /** Times a sleeping worker was woken (predicate satisfied). */
        std::atomic<uint64_t> wakeups{0};
        /** Pushes that found a sleeper and paid for a notify. */
        std::atomic<uint64_t> notifies{0};
        /** Pushes that skipped the wait mutex (no sleeper). */
        std::atomic<uint64_t> notifySkips{0};
    };
    const WaitStats &waitStats() const { return waitStats_; }

  private:
    struct Shard {
        std::mutex mu;
        /** Insertion order; the running state keeps its slot. */
        std::vector<ExecutionState *> states;
        /** The state the owner is running (thieves skip it). */
        ExecutionState *running = nullptr;
    };

    Shard &
    shardOf(unsigned worker)
    {
        return shards_[worker % shards_.size()];
    }

    /** A state became takeable (added, or its slice ended). */
    void
    published()
    {
        // Publish the push to the wait predicate *before* checking for
        // sleepers; take() registers as a waiter before re-reading the
        // epoch. Both sides seq_cst: one of them must see the other.
        pushEpoch_.fetch_add(1, std::memory_order_seq_cst);
        if (waiters_.load(std::memory_order_seq_cst) > 0) {
            waitStats_.notifies.fetch_add(1, std::memory_order_relaxed);
            std::lock_guard<std::mutex> lock(waitMu_);
            cv_.notify_one();
        } else {
            waitStats_.notifySkips.fetch_add(1,
                                             std::memory_order_relaxed);
        }
    }

    /** `n` states left the queue for good. */
    void
    left(size_t n)
    {
        if (pending_.fetch_sub(n, std::memory_order_acq_rel) == n) {
            // Everyone must wake to observe termination.
            std::lock_guard<std::mutex> lock(waitMu_);
            cv_.notify_all();
        }
    }

    /** Remove and return the oldest state of `victim`'s shard that is
     *  not running, or nullptr. */
    ExecutionState *
    stealOldest(unsigned victim)
    {
        Shard &shard = shards_[victim];
        std::lock_guard<std::mutex> lock(shard.mu);
        for (auto it = shard.states.begin(); it != shard.states.end();
             ++it) {
            if (*it == shard.running)
                continue;
            ExecutionState *s = *it;
            shard.states.erase(it);
            return s;
        }
        return nullptr;
    }

    // std::deque constructs shards in place; Shard itself is immovable
    // (it holds a mutex).
    std::deque<Shard> shards_;
    std::atomic<size_t> pending_{0};
    /** Bumped after every push; the waiters' sleep predicate. */
    std::atomic<uint64_t> pushEpoch_{0};
    /** Workers currently inside the cv wait (or registering for it). */
    std::atomic<uint32_t> waiters_{0};
    std::mutex waitMu_;
    std::condition_variable cv_;
    WaitStats waitStats_;
};

} // namespace s2e::core

#endif // S2E_CORE_WORKQUEUE_HH
