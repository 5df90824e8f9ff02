#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <numeric>
#include <thread>
#include <vector>

namespace dtn {
namespace {

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&counter] { counter.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, WaitIdleOnEmptyPool) {
  ThreadPool pool(1);
  pool.wait_idle();  // must not hang
  SUCCEED();
}

TEST(ThreadPool, DefaultThreadCountPositive) {
  ThreadPool pool;
  EXPECT_GE(pool.thread_count(), 1u);
}

TEST(ParallelFor, VisitsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(pool, hits.size(),
               [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, ZeroIterations) {
  ThreadPool pool(2);
  parallel_for(pool, 0, [](std::size_t) { FAIL(); });
}

TEST(ParallelFor, ComputesIndependentResults) {
  ThreadPool pool(3);
  std::vector<double> out(500, 0.0);
  parallel_for(pool, out.size(), [&](std::size_t i) {
    out[i] = static_cast<double>(i) * 2.0;
  });
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_DOUBLE_EQ(out[i], 2.0 * static_cast<double>(i));
  }
}

TEST(ParallelFor, ReusableAcrossCalls) {
  ThreadPool pool(2);
  std::atomic<int> total{0};
  for (int round = 0; round < 5; ++round) {
    parallel_for(pool, 20, [&](std::size_t) { total.fetch_add(1); });
  }
  EXPECT_EQ(total.load(), 100);
}

TEST(SerialFor, MatchesParallelSemantics) {
  std::vector<int> hits(50, 0);
  serial_for(hits.size(), [&](std::size_t i) { ++hits[i]; });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 50);
}

// -- sanitizer stress ---------------------------------------------------
// Written to give ThreadSanitizer material: many threads, many rounds,
// shared state touched through the intended synchronisation only.  Under
// the tsan preset these catch ordering bugs in submit/wait_idle and the
// parallel_for chunking; under plain builds they are ordinary
// correctness tests.

TEST(ThreadPoolStress, ManyRoundsOfSmallBatches) {
  ThreadPool pool(8);
  std::atomic<std::uint64_t> sum{0};
  for (int round = 0; round < 200; ++round) {
    for (int i = 0; i < 16; ++i) {
      pool.submit([&sum] { sum.fetch_add(1, std::memory_order_relaxed); });
    }
    pool.wait_idle();  // a racy wait_idle shows up as a short count here
  }
  EXPECT_EQ(sum.load(), 200u * 16u);
}

TEST(ThreadPoolStress, SubmitFromWorkerThreads) {
  ThreadPool pool(4);
  std::atomic<int> children{0};
  for (int i = 0; i < 64; ++i) {
    pool.submit([&pool, &children] {
      pool.submit([&children] { children.fetch_add(1); });
    });
  }
  pool.wait_idle();
  EXPECT_EQ(children.load(), 64);
}

TEST(ParallelForStress, DisjointWritesAreRaceFree) {
  ThreadPool pool(8);
  std::vector<std::uint64_t> out(10'000, 0);
  for (int round = 0; round < 20; ++round) {
    parallel_for(pool, out.size(),
                 [&](std::size_t i) { out[i] += i; });
  }
  for (std::size_t i = 0; i < out.size(); ++i) {
    ASSERT_EQ(out[i], 20u * i);
  }
}

TEST(ParallelForStress, NestedSharedAccumulator) {
  ThreadPool pool(6);
  std::atomic<std::uint64_t> total{0};
  parallel_for(pool, 5'000, [&](std::size_t i) {
    total.fetch_add(i, std::memory_order_relaxed);
  });
  EXPECT_EQ(total.load(), 5'000u * 4'999u / 2u);
}

TEST(ParallelForStress, UnevenShardShapedWorkloads) {
  // The sharded replay engine's shape: a handful of indices ("shards")
  // with wildly different amounts of work, each writing only its own
  // cache-line-separated slot, fenced by the parallel_for barrier.
  struct alignas(128) Slot {
    std::uint64_t ops = 0;
    std::uint64_t checksum = 0;
  };
  ThreadPool pool(8);
  constexpr std::size_t kShards = 7;
  std::vector<Slot> slots(kShards);
  // Epoch loop with per-shard work proportional to (shard+1)^2 — the
  // heaviest shard does ~50x the lightest's work, so workers idle at
  // the barrier while stragglers finish (the contended path under TSan).
  for (int epoch = 0; epoch < 50; ++epoch) {
    parallel_for(pool, kShards, [&](std::size_t s) {
      const std::uint64_t work = (s + 1) * (s + 1) * 40;
      for (std::uint64_t i = 0; i < work; ++i) {
        slots[s].checksum += i * (s + 1);
        ++slots[s].ops;
      }
    });
    // Barrier: coordinator reads every slot between epochs (this read
    // races with the loop above unless parallel_for really fences).
    std::uint64_t total = 0;
    for (const Slot& slot : slots) total += slot.ops;
    ASSERT_EQ(total % kShards, 0u)
        << "partial shard visible across the epoch barrier";
  }
  for (std::size_t s = 0; s < kShards; ++s) {
    const std::uint64_t work = (s + 1) * (s + 1) * 40;
    EXPECT_EQ(slots[s].ops, 50u * work);
    EXPECT_EQ(slots[s].checksum, 50u * (s + 1) * (work * (work - 1) / 2));
  }
}

TEST(ParallelForStress, SingleThreadPoolRunsShardsInOrder) {
  // With one worker the loop bodies must still run — sequentially, in
  // index order (what an experiment sweep degrades to on a 1-core
  // host).
  ThreadPool pool(1);
  std::vector<std::size_t> order;
  parallel_for(pool, 5, [&](std::size_t s) { order.push_back(s); });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(ParallelForStress, PoolOutlivesManyConcurrentUsers) {
  // Two host threads sharing one pool concurrently: parallel_for must
  // not assume it is the pool's only client.
  ThreadPool pool(4);
  std::atomic<std::uint64_t> a{0};
  std::atomic<std::uint64_t> b{0};
  std::thread t1([&] {
    for (int r = 0; r < 10; ++r) {
      parallel_for(pool, 500, [&](std::size_t) { a.fetch_add(1); });
    }
  });
  std::thread t2([&] {
    for (int r = 0; r < 10; ++r) {
      parallel_for(pool, 500, [&](std::size_t) { b.fetch_add(1); });
    }
  });
  t1.join();
  t2.join();
  EXPECT_EQ(a.load(), 5'000u);
  EXPECT_EQ(b.load(), 5'000u);
}

}  // namespace
}  // namespace dtn
