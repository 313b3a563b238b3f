#include "common/parallel.h"

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace sarn {
namespace {

/// Restores the global thread count on scope exit so tests stay independent.
class ThreadPin {
 public:
  explicit ThreadPin(size_t threads) : previous_(GetParallelThreads()) {
    SetParallelThreads(threads);
  }
  ~ThreadPin() { SetParallelThreads(previous_); }

 private:
  size_t previous_;
};

TEST(ParallelTest, CoversEveryIndexExactlyOnce) {
  const size_t n = 100000;
  std::vector<std::atomic<int>> hits(n);
  ParallelFor(n, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
  });
  for (size_t i = 0; i < n; ++i) ASSERT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ParallelTest, SmallRangeRunsSerially) {
  // Small ranges take the serial path: a single contiguous [0, n) call.
  std::vector<std::pair<size_t, size_t>> calls;
  ParallelFor(10, [&](size_t begin, size_t end) { calls.emplace_back(begin, end); });
  ASSERT_EQ(calls.size(), 1u);
  EXPECT_EQ(calls[0].first, 0u);
  EXPECT_EQ(calls[0].second, 10u);
}

TEST(ParallelTest, ZeroRangeNoCalls) {
  bool called = false;
  ParallelFor(0, [&](size_t, size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelTest, SumMatchesSerial) {
  const size_t n = 50000;
  std::vector<double> values(n);
  for (size_t i = 0; i < n; ++i) values[i] = 0.5 * static_cast<double>(i);
  std::atomic<int64_t> parallel_sum{0};  // Sum of integer doubles fits.
  ParallelFor(n, [&](size_t begin, size_t end) {
    double local = 0;
    for (size_t i = begin; i < end; ++i) local += values[i];
    parallel_sum.fetch_add(static_cast<int64_t>(local * 2.0));
  });
  double serial = std::accumulate(values.begin(), values.end(), 0.0);
  EXPECT_EQ(parallel_sum.load(), static_cast<int64_t>(serial * 2.0));
}

TEST(ParallelTest, ThreadCountOverride) {
  size_t original = GetParallelThreads();
  SetParallelThreads(1);
  EXPECT_EQ(GetParallelThreads(), 1u);
  SetParallelThreads(4);
  EXPECT_EQ(GetParallelThreads(), 4u);
  SetParallelThreads(0);  // Clamps to 1.
  EXPECT_EQ(GetParallelThreads(), 1u);
  SetParallelThreads(original);
}

TEST(ParallelTest, CoversEveryIndexExactlyOnceOnPool) {
  // Same coverage invariant, but forced through the multi-worker pool with
  // a grain small enough that every worker claims several chunks.
  ThreadPin pin(4);
  const size_t n = 100000;
  std::vector<std::atomic<int>> hits(n);
  ParallelFor(
      n,
      [&](size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
      },
      /*grain=*/64);
  for (size_t i = 0; i < n; ++i) ASSERT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ParallelTest, GrainLargerThanRangeRunsSerially) {
  ThreadPin pin(4);
  std::vector<std::pair<size_t, size_t>> calls;
  ParallelFor(
      100, [&](size_t begin, size_t end) { calls.emplace_back(begin, end); },
      /*grain=*/101);
  ASSERT_EQ(calls.size(), 1u);
  EXPECT_EQ(calls[0].first, 0u);
  EXPECT_EQ(calls[0].second, 100u);
}

TEST(ParallelTest, OneChunkRegionRunsInlineOnCaller) {
  // A region whose single chunk covers [0, n) has nothing to hand to the
  // workers: it must run body(0, n) once on the calling thread and count as
  // a serial region, never wake the pool. n == grain and n == 1 (a one-block
  // index batch) are both one-chunk regions.
  ThreadPin pin(4);
  struct Case {
    size_t n, grain;
  };
  for (Case c : {Case{1, 1}, Case{64, 64}, Case{1, 2048}}) {
    ParallelPoolStats before = GetParallelPoolStats();
    std::vector<std::pair<size_t, size_t>> calls;
    std::thread::id caller = std::this_thread::get_id();
    bool on_caller = true;
    ParallelFor(
        c.n,
        [&](size_t begin, size_t end) {
          on_caller = on_caller && std::this_thread::get_id() == caller;
          calls.emplace_back(begin, end);
        },
        c.grain);
    ParallelPoolStats after = GetParallelPoolStats();
    ASSERT_EQ(calls.size(), 1u) << "n=" << c.n << " grain=" << c.grain;
    EXPECT_EQ(calls[0].first, 0u);
    EXPECT_EQ(calls[0].second, c.n);
    EXPECT_TRUE(on_caller);
    EXPECT_EQ(after.serial_regions, before.serial_regions + 1);
    EXPECT_EQ(after.regions, before.regions);
    EXPECT_EQ(after.items, before.items);
  }
}

TEST(ParallelTest, SingleThreadIsDeterministicOrder) {
  // With threads pinned to 1 the body runs inline as one [0, n) call, so an
  // order-dependent (non-commutative) reduction is reproducible run to run.
  ThreadPin pin(1);
  auto run = [] {
    double acc = 1.0;
    ParallelFor(
        1000,
        [&](size_t begin, size_t end) {
          for (size_t i = begin; i < end; ++i) {
            acc = acc * 0.999 + static_cast<double>(i % 7);
          }
        },
        /*grain=*/1);
    return acc;
  };
  double first = run();
  for (int repeat = 0; repeat < 3; ++repeat) EXPECT_EQ(run(), first);
}

TEST(ParallelTest, NestedParallelForRunsInlineWithoutDeadlock) {
  ThreadPin pin(4);
  const size_t outer = 64, inner = 128;
  std::vector<std::atomic<int>> hits(outer * inner);
  EXPECT_FALSE(InParallelRegion());
  ParallelFor(
      outer,
      [&](size_t obegin, size_t oend) {
        EXPECT_TRUE(InParallelRegion());
        for (size_t o = obegin; o < oend; ++o) {
          // The nested call must run inline (it would otherwise contend for
          // the same pool while every worker is busy in the outer region).
          ParallelFor(
              inner,
              [&](size_t ibegin, size_t iend) {
                for (size_t i = ibegin; i < iend; ++i) {
                  hits[o * inner + i].fetch_add(1);
                }
              },
              /*grain=*/1);
        }
      },
      /*grain=*/1);
  EXPECT_FALSE(InParallelRegion());
  for (size_t i = 0; i < hits.size(); ++i) ASSERT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ParallelTest, ExceptionPropagatesOutOfWorker) {
  ThreadPin pin(4);
  const size_t n = 10000;
  EXPECT_THROW(
      ParallelFor(
          n,
          [&](size_t begin, size_t end) {
            for (size_t i = begin; i < end; ++i) {
              if (i == n / 2) throw std::runtime_error("boom");
            }
          },
          /*grain=*/16),
      std::runtime_error);
  // The pool survives a throwing region: later regions still complete fully.
  std::atomic<size_t> count{0};
  ParallelFor(
      n, [&](size_t begin, size_t end) { count.fetch_add(end - begin); },
      /*grain=*/16);
  EXPECT_EQ(count.load(), n);
}

TEST(ParallelTest, ExceptionCarriesMessageAndRemainingChunksRun) {
  ThreadPin pin(4);
  const size_t n = 4096;
  std::atomic<size_t> visited{0};
  try {
    ParallelFor(
        n,
        [&](size_t begin, size_t end) {
          visited.fetch_add(end - begin);
          if (begin == 0) throw std::runtime_error("first chunk failed");
        },
        /*grain=*/16);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "first chunk failed");
  }
  // A failing chunk does not abort the region: every chunk still ran.
  EXPECT_EQ(visited.load(), n);
}

TEST(ParallelTest, PoolStatsCountRegionsChunksAndItems) {
  size_t original = GetParallelThreads();
  SetParallelThreads(4);
  ParallelPoolStats before = GetParallelPoolStats();

  // Small range -> serial region; only serial_regions moves.
  ParallelFor(4, [](size_t, size_t) {}, /*grain=*/2048);
  ParallelPoolStats after_serial = GetParallelPoolStats();
  EXPECT_EQ(after_serial.serial_regions, before.serial_regions + 1);
  EXPECT_EQ(after_serial.regions, before.regions);

  // Large range with a small grain -> pool dispatch: one region, every item
  // covered, at least one chunk per participating thread is plausible but
  // only >= 1 is guaranteed.
  constexpr size_t kItems = 10000;
  ParallelFor(kItems, [](size_t, size_t) {}, /*grain=*/16);
  ParallelPoolStats after_pool = GetParallelPoolStats();
  EXPECT_EQ(after_pool.regions, after_serial.regions + 1);
  EXPECT_EQ(after_pool.items, after_serial.items + kItems);
  EXPECT_GT(after_pool.chunks, after_serial.chunks);
  EXPECT_GE(after_pool.worker_idle_seconds, 0.0);
  SetParallelThreads(original);
}

TEST(ParallelTest, ResizeBetweenRegionsIsSafe) {
  size_t original = GetParallelThreads();
  std::atomic<size_t> count{0};
  for (size_t threads : {1u, 4u, 2u, 8u, 1u}) {
    SetParallelThreads(threads);
    count.store(0);
    ParallelFor(
        5000, [&](size_t begin, size_t end) { count.fetch_add(end - begin); },
        /*grain=*/8);
    EXPECT_EQ(count.load(), 5000u) << "threads=" << threads;
  }
  SetParallelThreads(original);
}

}  // namespace
}  // namespace sarn
