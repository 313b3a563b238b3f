#include "serve/query_engine.h"

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "geo/spatial_index.h"
#include "obs/metrics.h"
#include "obs/prom_export.h"
#include "obs/request_trace.h"
#include "tasks/embedding_index.h"
#include "tensor/tensor.h"

namespace sarn::serve {
namespace {

using tasks::EmbeddingIndex;
using tasks::IndexMetric;
using tasks::Neighbor;
using tensor::Tensor;

std::shared_ptr<const EmbeddingIndex> MakeIndex(uint64_t seed, int64_t n = 30,
                                                int64_t d = 8) {
  Rng rng(seed);
  return std::make_shared<EmbeddingIndex>(Tensor::Randn({n, d}, rng),
                                          IndexMetric::kCosine);
}

ServeRequest ById(int64_t id, int k = 5) {
  ServeRequest request;
  request.kind = ServeRequest::Kind::kById;
  request.id = id;
  request.k = k;
  return request;
}

void ExpectSameNeighbors(const std::vector<Neighbor>& a,
                         const std::vector<Neighbor>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id);
    EXPECT_EQ(a[i].score, b[i].score);
  }
}

ServeOptions Synchronous() {
  ServeOptions options;
  options.threads = 0;
  return options;
}

TEST(QueryEngineTest, SynchronousMatchesDirectIndexQuery) {
  auto index = MakeIndex(1);
  QueryEngine engine(index, nullptr, Synchronous());
  for (int64_t q = 0; q < 30; q += 5) {
    ServeResponse response = engine.Query(ById(q));
    ASSERT_TRUE(response.ok) << response.error;
    EXPECT_EQ(response.epoch, 1u);
    EXPECT_EQ(response.query_id, q);
    ExpectSameNeighbors(response.neighbors, index->QueryById(q, 5));
  }
}

TEST(QueryEngineTest, ByVectorQuery) {
  auto index = MakeIndex(2);
  QueryEngine engine(index, nullptr, Synchronous());
  ServeRequest request;
  request.kind = ServeRequest::Kind::kByVector;
  request.vector.assign(8, 0.5f);
  request.k = 3;
  ServeResponse response = engine.Query(request);
  ASSERT_TRUE(response.ok) << response.error;
  EXPECT_EQ(response.query_id, -1);
  ExpectSameNeighbors(response.neighbors,
                      index->QueryByVector(std::vector<float>(8, 0.5f), 3));
}

TEST(QueryEngineTest, ValidationErrors) {
  QueryEngine engine(MakeIndex(3), nullptr, Synchronous());
  EXPECT_FALSE(engine.Query(ById(-7)).ok);
  EXPECT_FALSE(engine.Query(ById(30)).ok);  // One past the end.
  EXPECT_FALSE(engine.Query(ById(0, -1)).ok);

  ServeRequest bad_dim;
  bad_dim.kind = ServeRequest::Kind::kByVector;
  bad_dim.vector.assign(5, 1.0f);  // Index dim is 8.
  EXPECT_FALSE(engine.Query(bad_dim).ok);

  ServeRequest point;  // No locator configured.
  point.kind = ServeRequest::Kind::kByPoint;
  point.point = geo::LatLng{30.0, 104.0};
  ServeResponse response = engine.Query(point);
  EXPECT_FALSE(response.ok);
  EXPECT_NE(response.error.find("network"), std::string::npos);

  EXPECT_EQ(engine.Stats().errors, 5u);
}

TEST(QueryEngineTest, KZeroIsValidAndEmpty) {
  QueryEngine engine(MakeIndex(4), nullptr, Synchronous());
  ServeResponse response = engine.Query(ById(2, 0));
  ASSERT_TRUE(response.ok);
  EXPECT_TRUE(response.neighbors.empty());
}

TEST(QueryEngineTest, PointQueryResolvesNearestSegment) {
  // Locator over 30 points strung along a meridian; index row i <-> point i.
  std::vector<geo::LatLng> points;
  for (int i = 0; i < 30; ++i) points.push_back(geo::LatLng{30.0 + 0.01 * i, 104.0});
  auto locator = std::make_shared<geo::SpatialIndex>(points, 200.0);
  auto index = MakeIndex(5);
  QueryEngine engine(index, locator, Synchronous());

  ServeRequest request;
  request.kind = ServeRequest::Kind::kByPoint;
  request.point = geo::LatLng{30.071, 104.0002};  // Nearest to point 7.
  request.k = 4;
  ServeResponse response = engine.Query(request);
  ASSERT_TRUE(response.ok) << response.error;
  EXPECT_EQ(response.query_id, 7);
  ExpectSameNeighbors(response.neighbors, index->QueryById(7, 4));
}

TEST(QueryEngineTest, CacheHitOnRepeatSharesByIdAndByPoint) {
  std::vector<geo::LatLng> points;
  for (int i = 0; i < 30; ++i) points.push_back(geo::LatLng{30.0 + 0.01 * i, 104.0});
  auto locator = std::make_shared<geo::SpatialIndex>(points, 200.0);
  QueryEngine engine(MakeIndex(6), locator, Synchronous());

  ServeResponse first = engine.Query(ById(7, 4));
  EXPECT_FALSE(first.cache_hit);
  ServeResponse second = engine.Query(ById(7, 4));
  EXPECT_TRUE(second.cache_hit);
  ExpectSameNeighbors(first.neighbors, second.neighbors);

  // A point resolving to row 7 with the same k reuses the same cache entry.
  ServeRequest point;
  point.kind = ServeRequest::Kind::kByPoint;
  point.point = geo::LatLng{30.07, 104.0};
  point.k = 4;
  ServeResponse third = engine.Query(point);
  EXPECT_TRUE(third.cache_hit);

  // Different k is a different entry.
  EXPECT_FALSE(engine.Query(ById(7, 5)).cache_hit);
  ServeStats stats = engine.Stats();
  EXPECT_EQ(stats.cache_hits, 2u);
  EXPECT_EQ(stats.cache_misses, 2u);
}

TEST(QueryEngineTest, PublishBumpsEpochInvalidatesCacheAndChangesAnswers) {
  auto old_index = MakeIndex(7);
  auto new_index = MakeIndex(8);
  QueryEngine engine(old_index, nullptr, Synchronous());

  ServeResponse before = engine.Query(ById(3));
  EXPECT_EQ(before.epoch, 1u);
  EXPECT_TRUE(engine.Query(ById(3)).cache_hit);

  engine.Publish(new_index);
  EXPECT_EQ(engine.epoch(), 2u);
  ServeResponse after = engine.Query(ById(3));
  EXPECT_EQ(after.epoch, 2u);
  EXPECT_FALSE(after.cache_hit);  // Swap invalidated the cached entry.
  ExpectSameNeighbors(after.neighbors, new_index->QueryById(3, 5));
  EXPECT_EQ(engine.Stats().swaps, 1u);
}

TEST(QueryEngineTest, WorkersMicroBatchRequests) {
  ServeOptions options;
  options.threads = 1;
  options.max_batch = 8;
  options.batch_window_ms = 200.0;  // Submission is far faster than the window.
  auto index = MakeIndex(9);
  QueryEngine engine(index, nullptr, options);

  std::vector<std::future<ServeResponse>> futures;
  for (int i = 0; i < 64; ++i) futures.push_back(engine.Submit(ById(i % 30)));
  for (int i = 0; i < 64; ++i) {
    ServeResponse response = futures[static_cast<size_t>(i)].get();
    ASSERT_TRUE(response.ok) << response.error;
    if (!response.cache_hit) {
      ExpectSameNeighbors(response.neighbors, index->QueryById(i % 30, 5));
    }
  }
  ServeStats stats = engine.Stats();
  EXPECT_EQ(stats.requests, 64u);
  EXPECT_EQ(stats.batched_items, 64u);
  EXPECT_LT(stats.batches, 64u);          // Actually batched, not one-by-one...
  EXPECT_GE(stats.mean_batch_size, 2.0);  // ...and meaningfully so.
}

TEST(QueryEngineTest, DestructorDrainsPendingFutures) {
  std::vector<std::future<ServeResponse>> futures;
  {
    ServeOptions options;
    options.threads = 2;
    options.batch_window_ms = 50.0;
    QueryEngine engine(MakeIndex(10), nullptr, options);
    for (int i = 0; i < 32; ++i) futures.push_back(engine.Submit(ById(i % 30)));
  }  // Destructor joins workers; every future must be resolved.
  for (auto& future : futures) {
    ServeResponse response = future.get();
    EXPECT_TRUE(response.ok) << response.error;
  }
}

// The reload contract: a reload loads its index on a loader thread and then
// Publish()es it, so in-flight queries keep flowing at the old epoch for the
// entire duration of the load — pinned here by stalling the loader on a gate
// while queries complete.
TEST(QueryEngineTest, PublishFromALoaderThreadNeverBlocksServing) {
  auto old_index = MakeIndex(11);
  auto new_index = MakeIndex(12);
  ServeOptions options;
  options.threads = 2;
  options.batch_window_ms = 0.1;
  QueryEngine engine(old_index, nullptr, options);

  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  std::atomic<bool> loader_entered{false};
  std::future<uint64_t> published =
      std::async(std::launch::async, [&]() -> uint64_t {
        loader_entered = true;
        gate.wait();  // Simulates a slow parse / cold mmap load.
        return engine.Publish(new_index);
      });

  while (!loader_entered.load()) std::this_thread::yield();
  // The loader is stalled mid-"reload": every query must still complete,
  // answered by the old snapshot.
  for (int i = 0; i < 50; ++i) {
    ServeResponse response = engine.Query(ById(i % 30));
    ASSERT_TRUE(response.ok) << response.error;
    EXPECT_EQ(response.epoch, 1u);
    if (!response.cache_hit) {
      ExpectSameNeighbors(response.neighbors, old_index->QueryById(i % 30, 5));
    }
  }
  EXPECT_EQ(published.wait_for(std::chrono::milliseconds(0)),
            std::future_status::timeout);

  release.set_value();
  EXPECT_EQ(published.get(), 2u);
  ServeResponse after = engine.Query(ById(3));
  ASSERT_TRUE(after.ok);
  EXPECT_EQ(after.epoch, 2u);
  ExpectSameNeighbors(after.neighbors, new_index->QueryById(3, 5));
}

// The hot-swap contract under concurrency: publishers swap snapshots while
// clients query, and every single response must match a direct query against
// the *complete* index of the epoch it is tagged with — a torn or mixed
// snapshot would produce neighbors no single epoch can explain. Run under
// TSan via tools/verify.sh (ctest -L serve).
TEST(QueryEngineTest, ConcurrentQueriesDuringHotSwapNeverTear) {
  constexpr int kSwaps = 8;
  constexpr int kClients = 4;
  constexpr int kQueriesPerClient = 120;

  // Pre-build one index per epoch so expected answers are known exactly.
  std::vector<std::shared_ptr<const EmbeddingIndex>> epochs;
  for (int e = 0; e <= kSwaps; ++e) {
    epochs.push_back(MakeIndex(100 + static_cast<uint64_t>(e)));
  }

  ServeOptions options;
  options.threads = 2;
  options.max_batch = 16;
  options.batch_window_ms = 0.2;
  QueryEngine engine(epochs[0], nullptr, options);

  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Rng rng(static_cast<uint64_t>(c) + 1);
      for (int i = 0; i < kQueriesPerClient; ++i) {
        int64_t id = rng.UniformInt(0, 29);
        ServeResponse response = engine.Query(ById(id, 3));
        if (!response.ok || response.epoch < 1 ||
            response.epoch > static_cast<uint64_t>(kSwaps) + 1) {
          ++failures;
          continue;
        }
        std::vector<Neighbor> expected =
            epochs[response.epoch - 1]->QueryById(id, 3);
        if (expected.size() != response.neighbors.size()) {
          ++failures;
          continue;
        }
        for (size_t j = 0; j < expected.size(); ++j) {
          if (expected[j].id != response.neighbors[j].id ||
              expected[j].score != response.neighbors[j].score) {
            ++failures;
            break;
          }
        }
      }
    });
  }
  std::thread publisher([&] {
    for (int e = 1; e <= kSwaps && !done.load(); ++e) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      engine.Publish(epochs[static_cast<size_t>(e)]);
    }
  });
  for (auto& t : clients) t.join();
  done = true;
  publisher.join();

  EXPECT_EQ(failures.load(), 0);
  ServeStats stats = engine.Stats();
  EXPECT_EQ(stats.requests, static_cast<uint64_t>(kClients) * kQueriesPerClient);
  EXPECT_EQ(stats.errors, 0u);
}

// --- Request-scoped tracing (DESIGN.md §14) ---

// With trace_sample_every=1 every request is traced; the five stages
// telescope over [admit, replied], so statsz must attribute (essentially)
// all of the traced end-to-end latency to named stages — the issue's >= 95%
// acceptance bar, which holds at 100% by construction here.
TEST(QueryEngineTraceTest, AttributesAllLatencyToStages) {
  ServeOptions options;
  options.threads = 1;
  options.max_batch = 8;
  options.batch_window_ms = 1.0;
  options.trace_sample_every = 1;
  auto index = MakeIndex(20);
  QueryEngine engine(index, nullptr, options);

  std::vector<std::future<ServeResponse>> futures;
  for (int i = 0; i < 40; ++i) futures.push_back(engine.Submit(ById(i % 30)));
  for (auto& future : futures) ASSERT_TRUE(future.get().ok);

  ServeTraceStats trace = engine.TraceStats();
  EXPECT_TRUE(trace.enabled);
  EXPECT_EQ(trace.sample_every, 1u);
  EXPECT_EQ(trace.admitted, 40u);
  EXPECT_EQ(trace.traced, 40u);
  EXPECT_GT(trace.traced_total_ms, 0.0);
  EXPECT_GE(trace.attributed_fraction, 0.95);
  EXPECT_LE(trace.attributed_fraction, 1.0 + 1e-6);

  ASSERT_EQ(trace.stages.size(), static_cast<size_t>(obs::kRequestStageCount));
  const char* expected_names[] = {"admission", "queue", "cache", "scan",
                                  "reply"};
  for (size_t s = 0; s < trace.stages.size(); ++s) {
    EXPECT_EQ(trace.stages[s].stage, expected_names[s]);
    EXPECT_EQ(trace.stages[s].count, 40u);
  }

  // The ring holds the most recent traced records and at least one request
  // survives in the slowest table; tail exemplar ids point at real requests.
  EXPECT_FALSE(trace.recent.empty());
  ASSERT_FALSE(trace.slowest.empty());
  EXPECT_GT(trace.slowest[0].id, 0u);
  bool any_exemplar = false;
  for (const auto& stage : trace.stages) {
    for (uint64_t id : stage.exemplars) {
      EXPECT_GT(id, 0u);
      EXPECT_LE(id, 40u);
      any_exemplar = true;
    }
  }
  EXPECT_TRUE(any_exemplar);
}

TEST(QueryEngineTraceTest, DisabledTracingReportsInertStats) {
  ServeOptions options;
  options.threads = 0;
  options.trace_sample_every = 0;
  QueryEngine engine(MakeIndex(21), nullptr, options);
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(engine.Query(ById(i)).ok);

  ServeTraceStats trace = engine.TraceStats();
  EXPECT_FALSE(trace.enabled);
  EXPECT_EQ(trace.admitted, 10u);
  EXPECT_EQ(trace.traced, 0u);
  EXPECT_TRUE(trace.recent.empty());
  EXPECT_TRUE(trace.slowest.empty());
}

// The PR 3 invariant extended to the serve path: turning tracing on (even
// trace-everything) must not change a single neighbor id or score bit —
// tracing only reads the clock and writes tracer-owned memory.
TEST(QueryEngineTraceTest, TracingOnIsBitwiseIdenticalToTracingOff) {
  auto index = MakeIndex(22);

  ServeOptions off = Synchronous();
  off.trace_sample_every = 0;
  ServeOptions on = Synchronous();
  on.trace_sample_every = 1;

  QueryEngine engine_off(index, nullptr, off);
  QueryEngine engine_on(index, nullptr, on);
  for (int64_t q = 0; q < 30; ++q) {
    ServeResponse a = engine_off.Query(ById(q, 7));
    ServeResponse b = engine_on.Query(ById(q, 7));
    ASSERT_TRUE(a.ok);
    ASSERT_TRUE(b.ok);
    ASSERT_EQ(a.neighbors.size(), b.neighbors.size());
    for (size_t i = 0; i < a.neighbors.size(); ++i) {
      EXPECT_EQ(a.neighbors[i].id, b.neighbors[i].id);
      EXPECT_EQ(a.neighbors[i].score, b.neighbors[i].score);  // Bitwise.
    }
  }
}

TEST(QueryEngineTraceTest, ErrorsAndCacheHitsStillTelescope) {
  ServeOptions options = Synchronous();
  options.trace_sample_every = 1;
  QueryEngine engine(MakeIndex(23), nullptr, options);

  ASSERT_TRUE(engine.Query(ById(5)).ok);
  EXPECT_TRUE(engine.Query(ById(5)).cache_hit);
  EXPECT_FALSE(engine.Query(ById(-1)).ok);  // Validation error.

  ServeTraceStats trace = engine.TraceStats();
  EXPECT_EQ(trace.traced, 3u);
  ASSERT_EQ(trace.recent.size(), 3u);
  EXPECT_TRUE(trace.recent[0].ok);
  EXPECT_FALSE(trace.recent[0].cache_hit);
  EXPECT_TRUE(trace.recent[1].cache_hit);
  EXPECT_FALSE(trace.recent[2].ok);
  for (const obs::RequestRecord& r : trace.recent) {
    uint64_t sum = 0;
    for (int s = 0; s < obs::kRequestStageCount; ++s) {
      sum += r.StageNanos(static_cast<obs::RequestStage>(s));
    }
    EXPECT_EQ(sum, r.TotalNanos());
  }
  // A cache hit's scan stage collapses to the two adjacent clock reads that
  // bracket the (skipped) scan — effectively zero next to any real scan.
  EXPECT_LE(trace.recent[1].StageNanos(obs::RequestStage::kScan), 1000000u);
}

TEST(QueryEngineTraceTest, StatsIncludesSnapshotAndTierGauges) {
  QueryEngine engine(MakeIndex(24), nullptr, Synchronous());
  ServeStats stats = engine.Stats();
  EXPECT_FALSE(stats.simd_tier.empty());
  EXPECT_FALSE(stats.precision.empty());
  EXPECT_GT(stats.index_bytes, 0u);
  // The snapshot.* fields mirror the process-wide registry; no snapshot was
  // loaded in this test binary, so they are present-but-zero.
  EXPECT_EQ(stats.snapshot_load_errors, 0u);
}

// sarn.index.block_queries / tail_queries split every scanned query into
// the ones that ran in a full 4-query block and a batch's 1–3 tail queries;
// stats and the Prometheus export both carry them.
TEST(QueryEngineTraceTest, StatsCountBlockAndTailQueries) {
  auto index = MakeIndex(25);
  QueryEngine engine(index, nullptr, Synchronous());
  const ServeStats before = engine.Stats();
  ASSERT_TRUE(engine.Query(ById(3)).ok);  // A cache miss: a batch of one.
  std::vector<tasks::IndexQuery> batch;
  for (int64_t id = 0; id < 6; ++id) batch.push_back(tasks::IndexQuery::ById(id));
  index->QueryBatch(batch, 5);  // One full block and a 2-query tail.
  const ServeStats after = engine.Stats();
  EXPECT_EQ(after.index_block_queries - before.index_block_queries, 4u);
  EXPECT_EQ(after.index_tail_queries - before.index_tail_queries, 3u);
  const std::string text =
      obs::PrometheusText(obs::MetricsRegistry::Default().Snapshot());
  EXPECT_NE(text.find("# TYPE sarn_index_block_queries counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("sarn_index_block_queries " +
                      std::to_string(after.index_block_queries) + "\n"),
            std::string::npos);
  EXPECT_NE(text.find("sarn_index_tail_queries " +
                      std::to_string(after.index_tail_queries) + "\n"),
            std::string::npos);
}

}  // namespace
}  // namespace sarn::serve
