/**
 * @file
 * Work-stealing scheduler queue for parallel multi-path exploration.
 *
 * Each worker owns a deque shard: it pushes and pops ready states at
 * the back (depth-first, cache-warm), while idle workers steal from
 * the front of other shards (breadth-first, stealing the states
 * closest to the fork-tree root and hence the largest subtrees —
 * the classic Cilk-style split).
 *
 * Ownership protocol: a state is either queued here or being executed
 * by exactly one worker; only that worker may touch the state's
 * mutable fields. The shard mutexes double as the release/acquire
 * edge that publishes all writes the previous owner made.
 *
 * Termination: `pending` counts states that are queued or held by a
 * worker. take() returns nullptr only when pending reaches zero, i.e.
 * every path has finished — an empty shard alone means nothing while
 * another worker still runs a state that may fork.
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

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>

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

    /** Schedule a state the queue has not seen before (initial states
     *  and fork children). Safe from any worker. */
    void
    add(unsigned worker, ExecutionState *state)
    {
        pending_.fetch_add(1, std::memory_order_relaxed);
        pushBack(worker, state);
    }

    /** Re-queue a still-active state after a timeslice. */
    void
    put(unsigned worker, ExecutionState *state)
    {
        pushBack(worker, state);
    }

    /** A state previously returned by take() finished for good. */
    void
    finish()
    {
        if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
            // Everyone must wake to observe termination.
            std::lock_guard<std::mutex> lock(waitMu_);
            cv_.notify_all();
        }
    }

    /**
     * Dequeue the next state for `worker`: its own shard first, then
     * steal. Sleeps while other workers hold the remaining states;
     * returns nullptr once every path has finished.
     */
    ExecutionState *
    take(unsigned worker)
    {
        while (true) {
            // Epoch before scan: a push that beats the scan is found
            // in its shard; one that loses bumps the epoch and the
            // wait predicate below refuses to sleep. seq_cst pairs
            // with the pusher's epoch-bump/waiter-check ordering.
            uint64_t seen = pushEpoch_.load(std::memory_order_seq_cst);
            if (ExecutionState *s = popBack(worker))
                return s;
            for (size_t i = 1; i < shards_.size(); ++i) {
                unsigned victim =
                    (worker + i) % static_cast<unsigned>(shards_.size());
                if (ExecutionState *s = stealFront(victim))
                    return s;
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

    /** States currently queued or held by workers. */
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
        std::deque<ExecutionState *> q;
    };

    void
    pushBack(unsigned worker, ExecutionState *state)
    {
        Shard &shard = shards_[worker % shards_.size()];
        {
            std::lock_guard<std::mutex> lock(shard.mu);
            shard.q.push_back(state);
        }
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

    ExecutionState *
    popBack(unsigned worker)
    {
        Shard &shard = shards_[worker % shards_.size()];
        std::lock_guard<std::mutex> lock(shard.mu);
        if (shard.q.empty())
            return nullptr;
        ExecutionState *s = shard.q.back();
        shard.q.pop_back();
        return s;
    }

    ExecutionState *
    stealFront(unsigned victim)
    {
        Shard &shard = shards_[victim];
        std::lock_guard<std::mutex> lock(shard.mu);
        if (shard.q.empty())
            return nullptr;
        ExecutionState *s = shard.q.front();
        shard.q.pop_front();
        return s;
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
