/**
 * @file
 * WorkQueue tests: the owner picks from its whole shard in insertion
 * order, thieves take the oldest state that is not running, a sweep
 * drops states in slot order, a starved worker genuinely sleeps
 * (near-zero thread CPU), pushes with no sleeper skip the notify, and
 * the sleep/wakeup/notify ledger balances under churn.
 */

#include <gtest/gtest.h>

#include <pthread.h>
#include <time.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "core/workqueue.hh"

namespace s2e::core {
namespace {

/** The queue treats states as opaque pointers; fake tokens keep these
 *  tests free of machine setup. */
ExecutionState *
fakeState(size_t i)
{
    static char tokens[64];
    return reinterpret_cast<ExecutionState *>(&tokens[i]);
}

/** Depth-first picks: the newest state of the shard. */
ExecutionState *
newest(const std::vector<ExecutionState *> &shard)
{
    return shard.back();
}

/** CPU seconds consumed by `thread` (itimer-quality granularity). */
double
threadCpuSeconds(pthread_t thread)
{
    clockid_t cid;
    if (pthread_getcpuclockid(thread, &cid) != 0)
        return -1;
    struct timespec ts;
    if (clock_gettime(cid, &ts) != 0)
        return -1;
    return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

TEST(WorkQueueShards, PickSeesInsertionOrderAndThievesSkipRunningState)
{
    WorkQueue q(2);
    for (size_t i = 0; i < 3; ++i)
        q.add(0, fakeState(i));
    // The owner's pick sees its whole shard, oldest first, and may
    // choose any slot.
    std::vector<ExecutionState *> seen;
    ExecutionState *running =
        q.take(0, [&](const std::vector<ExecutionState *> &shard) {
            seen = shard;
            return shard[1];
        });
    EXPECT_EQ(running, fakeState(1));
    EXPECT_EQ(seen, (std::vector<ExecutionState *>{
                        fakeState(0), fakeState(1), fakeState(2)}));
    // A thief takes the oldest state that is not running...
    EXPECT_EQ(q.take(1, newest), fakeState(0));
    q.finish(1);
    // ...and skips the running one, which keeps its slot.
    EXPECT_EQ(q.take(1, newest), fakeState(2));
    q.finish(1);
    EXPECT_EQ(q.pending(), 1u);
    q.put(0);
    EXPECT_EQ(q.take(1, newest), fakeState(1)); // released: stealable
    q.finish(1);
    EXPECT_EQ(q.take(0, newest), nullptr);
}

TEST(WorkQueueShards, SweepDropsStatesInSlotOrder)
{
    WorkQueue q(1);
    for (size_t i = 0; i < 6; ++i)
        q.add(0, fakeState(i));
    ASSERT_EQ(q.take(0, newest), fakeState(5));
    std::vector<ExecutionState *> out;
    q.sweep(
        0,
        [](ExecutionState *s) {
            return s == fakeState(1) || s == fakeState(3) ||
                   s == fakeState(5);
        },
        out);
    EXPECT_EQ(out, (std::vector<ExecutionState *>{
                       fakeState(1), fakeState(3), fakeState(5)}));
    EXPECT_EQ(q.pending(), 3u);
    std::vector<ExecutionState *> seen;
    q.take(0, [&](const std::vector<ExecutionState *> &shard) {
        seen = shard;
        return shard.front();
    });
    EXPECT_EQ(seen, (std::vector<ExecutionState *>{
                        fakeState(0), fakeState(2), fakeState(4)}));
}

TEST(WorkQueueWait, StarvedWorkerSleepsInsteadOfSpinning)
{
    // Worker 0 holds the only pending state; worker 1 has nothing to
    // take or steal and must block in take() without burning CPU (the
    // old implementation polled on a 1 ms timer; this asserts the
    // epoch wait actually sleeps).
    WorkQueue q(2);
    q.add(0, fakeState(0));
    ASSERT_EQ(q.take(0, newest), fakeState(0)); // now running: not stealable

    std::atomic<pthread_t> waiter_handle{};
    std::atomic<bool> handle_ready{false};
    std::thread waiter([&] {
        waiter_handle.store(pthread_self());
        handle_ready.store(true, std::memory_order_release);
        // Blocks until the put below.
        EXPECT_EQ(q.take(1, newest), fakeState(0));
        q.finish(1);
        EXPECT_EQ(q.take(1, newest), nullptr); // pending hit zero
    });
    while (!handle_ready.load(std::memory_order_acquire))
        std::this_thread::yield();
    // Give the waiter ample time to be asleep, then sample its CPU use.
    std::this_thread::sleep_for(std::chrono::milliseconds(250));
    double cpu = threadCpuSeconds(waiter_handle.load());
    EXPECT_GE(q.waitStats().sleeps.load(), 1u);
    if (cpu >= 0) {
        EXPECT_LT(cpu, 0.050) << "starved worker burned CPU while idle";
    }
    q.put(0); // release the state; the waiter steals and finishes it
    waiter.join();
    EXPECT_EQ(q.pending(), 0u);
}

TEST(WorkQueueWait, PushesWithoutSleepersSkipTheNotify)
{
    WorkQueue q(2);
    constexpr size_t kPushes = 64;
    for (size_t i = 0; i < kPushes; ++i)
        q.add(0, fakeState(i % 8));
    // Nobody was waiting: every push must take the fast path.
    EXPECT_EQ(q.waitStats().notifySkips.load(), kPushes);
    EXPECT_EQ(q.waitStats().notifies.load(), 0u);
    for (size_t i = 0; i < kPushes; ++i) {
        EXPECT_NE(q.take(0, newest), nullptr);
        q.finish(0);
    }
    EXPECT_EQ(q.take(0, newest), nullptr);
}

TEST(WorkQueueWait, SleeperIsNotifiedOnPush)
{
    WorkQueue q(2);
    q.add(0, fakeState(0));
    ASSERT_EQ(q.take(0, newest), fakeState(0)); // running; pending 1

    std::thread waiter([&] {
        EXPECT_EQ(q.take(1, newest), fakeState(0));
        q.finish(1);
        EXPECT_EQ(q.take(1, newest), nullptr);
    });
    // Wait until the worker registered its sleep, then release the
    // held state so it becomes stealable.
    while (q.waitStats().sleeps.load() == 0)
        std::this_thread::yield();
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    q.put(0);
    waiter.join();
    EXPECT_GE(q.waitStats().notifies.load(), 1u);
}

TEST(WorkQueueWait, WakeupLedgerBalancesUnderChurn)
{
    // Producer/consumer churn: the consumer mostly keeps up, so most
    // pushes find no sleeper (notifySkips), while every sleep is paid
    // back by exactly one wakeup once the run quiesces.
    WorkQueue q(2);
    constexpr size_t kStates = 4000;
    std::thread consumer([&] {
        size_t done = 0;
        while (done < kStates) {
            if (q.take(1, newest) != nullptr) {
                q.finish(1);
                ++done;
            }
        }
        EXPECT_EQ(q.take(1, newest), nullptr);
    });
    for (size_t i = 0; i < kStates; ++i)
        q.add(0, fakeState(i % 8));
    consumer.join();

    const auto &ws = q.waitStats();
    // Every push either paid a notify or skipped it — no third path.
    EXPECT_EQ(ws.notifies.load() + ws.notifySkips.load(), kStates);
    // A hot producer/consumer pair should skip often; if this ever
    // reads zero the waiter-count fast path has regressed to
    // notify-per-push.
    EXPECT_GT(ws.notifySkips.load(), 0u);
    // At quiescence every sleep has completed its matching wakeup.
    EXPECT_EQ(ws.sleeps.load(), ws.wakeups.load());
}

} // namespace
} // namespace s2e::core
