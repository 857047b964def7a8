/**
 * @file
 * Tests for the concurrency primitives under the parallel DPP data
 * plane: ThreadPool scheduling/quiesce and BoundedQueue MPMC
 * semantics (blocking, bounding, close/drain), the latency samplers
 * behind the hedge trigger, and concurrent IoTrace recording. The
 * MPMC and sampler stress cases are the ones tier-1 runs under TSan
 * (-DDSI_SANITIZE=thread).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <numeric>
#include <thread>
#include <vector>

#include "common/bounded_queue.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/thread_pool.h"
#include "dwrf/source.h"

namespace dsi {
namespace {

TEST(ThreadPool, ExecutesEverySubmittedTask)
{
    ThreadPool pool(4);
    std::atomic<int> done{0};
    for (int i = 0; i < 100; ++i)
        pool.submit([&done] { ++done; });
    pool.wait();
    EXPECT_EQ(done.load(), 100);
    EXPECT_EQ(pool.pending(), 0u);
    EXPECT_EQ(pool.size(), 4u);
}

TEST(ThreadPool, ZeroThreadsClampsToOne)
{
    ThreadPool pool(0);
    EXPECT_EQ(pool.size(), 1u);
    std::atomic<bool> ran{false};
    pool.submit([&ran] { ran = true; });
    pool.wait();
    EXPECT_TRUE(ran.load());
}

TEST(ThreadPool, TasksRunConcurrently)
{
    // Two tasks that each wait for the other can only finish if the
    // pool really runs them on distinct threads.
    ThreadPool pool(2);
    std::atomic<int> arrived{0};
    for (int i = 0; i < 2; ++i) {
        pool.submit([&arrived] {
            ++arrived;
            while (arrived.load() < 2)
                std::this_thread::yield();
        });
    }
    pool.wait();
    EXPECT_EQ(arrived.load(), 2);
}

TEST(ThreadPool, WaitIsReusableAcrossBatches)
{
    ThreadPool pool(3);
    std::atomic<int> done{0};
    for (int round = 0; round < 5; ++round) {
        for (int i = 0; i < 20; ++i)
            pool.submit([&done] { ++done; });
        pool.wait();
        EXPECT_EQ(done.load(), (round + 1) * 20);
    }
}

TEST(ThreadPool, DestructorDrainsPendingTasks)
{
    std::atomic<int> done{0};
    {
        ThreadPool pool(1);
        for (int i = 0; i < 50; ++i)
            pool.submit([&done] { ++done; });
    }
    EXPECT_EQ(done.load(), 50);
}

TEST(ThreadPool, HardwareConcurrencyIsPositive)
{
    EXPECT_GE(ThreadPool::hardwareConcurrency(), 1u);
}

TEST(BoundedQueue, FifoWithinCapacity)
{
    BoundedQueue<int> q(4);
    EXPECT_TRUE(q.push(1));
    EXPECT_TRUE(q.push(2));
    EXPECT_EQ(q.size(), 2u);
    EXPECT_EQ(q.pop().value(), 1);
    EXPECT_EQ(q.pop().value(), 2);
    EXPECT_EQ(q.size(), 0u);
}

TEST(BoundedQueue, TryPushRespectsBound)
{
    BoundedQueue<int> q(2);
    EXPECT_TRUE(q.tryPush(1));
    EXPECT_TRUE(q.tryPush(2));
    EXPECT_FALSE(q.tryPush(3)); // full
    q.pop();
    EXPECT_TRUE(q.tryPush(3));
}

TEST(BoundedQueue, TryPopOnEmptyReturnsNothing)
{
    BoundedQueue<int> q(2);
    EXPECT_FALSE(q.tryPop().has_value());
    q.push(7);
    EXPECT_EQ(q.tryPop().value(), 7);
}

TEST(BoundedQueue, PushBlocksUntilSpace)
{
    BoundedQueue<int> q(1);
    ASSERT_TRUE(q.push(1));
    std::atomic<bool> pushed{false};
    std::thread producer([&] {
        EXPECT_TRUE(q.push(2)); // blocks: queue full
        pushed = true;
    });
    // Give the producer a chance to block, then make room.
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    EXPECT_FALSE(pushed.load());
    EXPECT_EQ(q.pop().value(), 1);
    producer.join();
    EXPECT_TRUE(pushed.load());
    EXPECT_EQ(q.pop().value(), 2);
}

TEST(BoundedQueue, CloseUnblocksProducerAndConsumer)
{
    BoundedQueue<int> q(1);
    ASSERT_TRUE(q.push(1));
    std::thread producer([&] {
        EXPECT_FALSE(q.push(2)); // blocked, then closed -> false
    });
    // No consumer runs until close(), so the producer can only be
    // released by the close itself.
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    q.close();
    producer.join();
    EXPECT_TRUE(q.closed());
    EXPECT_FALSE(q.push(3));           // pushes after close fail fast
    EXPECT_EQ(q.pop().value(), 1);     // close still drains contents
    EXPECT_FALSE(q.pop().has_value()); // closed + empty

    // A consumer blocked on an empty queue is released by close too.
    BoundedQueue<int> empty(1);
    std::thread consumer([&] {
        EXPECT_FALSE(empty.pop().has_value());
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    empty.close();
    consumer.join();
}

TEST(BoundedQueue, MpmcStressDeliversEveryItemOnce)
{
    constexpr int kProducers = 4;
    constexpr int kConsumers = 4;
    constexpr int kPerProducer = 2000;
    BoundedQueue<int> q(8);

    std::vector<std::thread> threads;
    std::atomic<long long> sum{0};
    std::atomic<int> count{0};
    for (int c = 0; c < kConsumers; ++c) {
        threads.emplace_back([&] {
            while (auto v = q.pop()) {
                sum += *v;
                ++count;
            }
        });
    }
    std::atomic<int> producers_left{kProducers};
    for (int p = 0; p < kProducers; ++p) {
        threads.emplace_back([&, p] {
            for (int i = 0; i < kPerProducer; ++i)
                ASSERT_TRUE(q.push(p * kPerProducer + i));
            if (--producers_left == 0)
                q.close();
        });
    }
    for (auto &t : threads)
        t.join();

    constexpr long long n = kProducers * kPerProducer;
    EXPECT_EQ(count.load(), n);
    EXPECT_EQ(sum.load(), n * (n - 1) / 2);
    EXPECT_EQ(q.size(), 0u);
}

TEST(PercentileSampler, ConcurrentReadersAndWritersAreSafe)
{
    // percentile() sorts lazily inside a const method; before it took
    // the sampler mutex, concurrent readers raced on the sort (and on
    // the dirty flag) — this is the TSan regression test for that.
    PercentileSampler sampler;
    for (int i = 0; i < 1000; ++i)
        sampler.add(static_cast<double>(i));

    constexpr int kReaders = 4;
    constexpr int kWriters = 2;
    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    for (int r = 0; r < kReaders; ++r) {
        threads.emplace_back([&] {
            while (!go.load())
                std::this_thread::yield();
            for (int i = 0; i < 500; ++i) {
                double p50 = sampler.percentile(50.0);
                double p99 = sampler.percentile(99.0);
                EXPECT_LE(p50, p99);
                EXPECT_GE(sampler.mean(), 0.0);
                EXPECT_GE(sampler.stddev(), 0.0);
            }
        });
    }
    for (int w = 0; w < kWriters; ++w) {
        threads.emplace_back([&, w] {
            while (!go.load())
                std::this_thread::yield();
            for (int i = 0; i < 500; ++i)
                sampler.add(static_cast<double>(1000 + w * 500 + i));
        });
    }
    go = true;
    for (auto &t : threads)
        t.join();
    EXPECT_EQ(sampler.count(), 1000u + kWriters * 500u);
}

TEST(LogLinearHistogram, ConcurrentAddsAndPercentilesAreExact)
{
    // The hedge trigger's histogram: every extract thread records into
    // it while others read percentiles, with no lock. No add may be
    // lost, and a concurrent percentile must stay inside the range of
    // the recorded values.
    LogLinearHistogram h;
    constexpr int kWriters = 8;
    constexpr int kPerWriter = 20000;
    constexpr double kLo = 10e-6;
    constexpr double kHi = 10e-3;
    constexpr double kTop =
        kHi * (1.0 + 1.0 / LogLinearHistogram::kSubBuckets);
    std::atomic<bool> go{false};
    std::atomic<int> writing{kWriters};
    std::vector<std::thread> threads;
    for (int w = 0; w < kWriters; ++w) {
        threads.emplace_back([&, w] {
            Rng rng(100 + w);
            while (!go.load())
                std::this_thread::yield();
            for (int i = 0; i < kPerWriter; ++i)
                h.add(kLo * std::pow(kHi / kLo, rng.nextDouble()));
            writing.fetch_sub(1);
        });
    }
    threads.emplace_back([&] {
        while (!go.load())
            std::this_thread::yield();
        uint64_t last_count = 0;
        while (writing.load() > 0) {
            for (double p : {50.0, 99.0}) {
                double v = h.percentile(p);
                if (v == 0.0)
                    continue; // nothing recorded yet
                EXPECT_GE(v, kLo);
                EXPECT_LE(v, kTop);
            }
            uint64_t count = h.count();
            EXPECT_GE(count, last_count);
            last_count = count;
        }
    });
    go = true;
    for (auto &t : threads)
        t.join();
    EXPECT_EQ(h.count(), static_cast<uint64_t>(kWriters) * kPerWriter);
    EXPECT_GE(h.percentile(0), kLo);
    EXPECT_LE(h.percentile(100), kTop);
}

TEST(IoTrace, ConcurrentRecordAndInspectIsRaceFree)
{
    // Regression: IoTrace is shared by concurrent extract threads.
    // Writers record() while readers take snapshots and
    // distributions — under TSan this flags any unguarded access.
    dwrf::IoTrace trace;
    constexpr int kWriters = 4;
    constexpr int kReaders = 3;
    constexpr int kIosPerWriter = 500;
    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    for (int w = 0; w < kWriters; ++w) {
        threads.emplace_back([&, w] {
            while (!go.load())
                std::this_thread::yield();
            for (int i = 0; i < kIosPerWriter; ++i)
                trace.record(static_cast<Bytes>(w) * 1_MiB +
                                 static_cast<Bytes>(i),
                             4096);
        });
    }
    for (int r = 0; r < kReaders; ++r) {
        threads.emplace_back([&] {
            while (!go.load())
                std::this_thread::yield();
            for (int i = 0; i < 200; ++i) {
                // The two counters cannot be read atomically as a
                // pair; writers may record between the calls. Reading
                // bytes first bounds it by the later count.
                Bytes total = trace.totalBytes();
                uint64_t n = trace.count();
                EXPECT_LE(total, n * 4096);
                auto snapshot = trace.records();
                EXPECT_LE(snapshot.size(), trace.count());
                auto dist = trace.sizeDistribution();
                if (dist.count() > 0) {
                    EXPECT_EQ(dist.percentile(50.0), 4096.0);
                }
            }
        });
    }
    go = true;
    for (auto &t : threads)
        t.join();
    EXPECT_EQ(trace.count(),
              static_cast<uint64_t>(kWriters) * kIosPerWriter);
    EXPECT_EQ(trace.totalBytes(),
              static_cast<Bytes>(kWriters) * kIosPerWriter * 4096);
    trace.clear();
    EXPECT_EQ(trace.count(), 0u);
    EXPECT_EQ(trace.totalBytes(), 0u);
}

} // namespace
} // namespace dsi
