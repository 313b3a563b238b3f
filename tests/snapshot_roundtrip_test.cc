// Round-trip property suite for the mmap snapshot format: a heap-built
// EmbeddingIndex serialised with BuildServingSnapshot and loaded back
// through LoadServingSnapshot (zero-copy Storage::External adoption) must
// answer QueryBatch BITWISE identically to the original — across random
// (n, d), both metrics, both precisions, every available SIMD tier, and
// while the engine is concurrently hot-swapping mmap snapshots (the TSan
// target in tools/verify.sh).

#include "snapshot/snapshot.h"

#include <atomic>
#include <cstdio>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "obs/metrics.h"
#include "serve/query_engine.h"
#include "tasks/embedding_index.h"
#include "tensor/simd/simd.h"
#include "tensor/tensor.h"

namespace sarn::snapshot {
namespace {

using tasks::EmbeddingIndex;
using tasks::IndexMetric;
using tasks::IndexPrecision;
using tasks::IndexQuery;
using tasks::Neighbor;
using tensor::Tensor;

class TierGuard {
 public:
  TierGuard() : prev_(tensor::simd::ActiveTier()) {}
  ~TierGuard() { tensor::simd::ForceTier(prev_); }

 private:
  tensor::simd::Tier prev_;
};

std::vector<tensor::simd::Tier> AvailableTiers() {
  using tensor::simd::Tier;
  std::vector<Tier> tiers = {Tier::kScalar};
  if (tensor::simd::TierAvailable(Tier::kAvx2)) tiers.push_back(Tier::kAvx2);
  if (tensor::simd::TierAvailable(Tier::kNeon)) tiers.push_back(Tier::kNeon);
  return tiers;
}

std::string SaveToTemp(const SnapshotContents& contents, const char* tag) {
  const std::string path =
      testing::TempDir() + "/sarn_roundtrip_" + tag + ".sarnsnap";
  SnapshotStatus status = SaveServingSnapshot(path, contents);
  EXPECT_TRUE(status.ok()) << status.message;
  return path;
}

std::vector<IndexQuery> RandomQueries(Rng& rng, int64_t n, int64_t d,
                                      size_t count) {
  std::vector<IndexQuery> queries;
  for (size_t i = 0; i < count; ++i) {
    if (rng.UniformInt(0, 1) == 0) {
      queries.push_back(IndexQuery::ById(rng.UniformInt(0, n - 1)));
    } else {
      std::vector<float> v(static_cast<size_t>(d));
      for (float& x : v) x = static_cast<float>(rng.Normal(0.0, 1.0));
      queries.push_back(IndexQuery::ByVector(std::move(v)));
    }
  }
  return queries;
}

void ExpectBitwiseEqual(const std::vector<std::vector<Neighbor>>& a,
                        const std::vector<std::vector<Neighbor>>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].size(), b[i].size()) << "query " << i;
    for (size_t j = 0; j < a[i].size(); ++j) {
      EXPECT_EQ(a[i][j].id, b[i][j].id) << "query " << i << " rank " << j;
      // Bitwise: double ==, no tolerance. The loaded scan runs over the
      // exact bytes the heap index prepared.
      EXPECT_EQ(a[i][j].score, b[i][j].score) << "query " << i << " rank " << j;
    }
  }
}

TEST(SnapshotRoundtripTest, RandomModelsAreBitwiseIdenticalAcrossPrecisions) {
  Rng rng(20260808);
  for (int trial = 0; trial < 8; ++trial) {
    const int64_t n = rng.UniformInt(3, 40);
    const int64_t d = rng.UniformInt(2, 33);
    const IndexMetric metric =
        rng.UniformInt(0, 1) == 0 ? IndexMetric::kCosine : IndexMetric::kL1;
    Tensor embeddings = Tensor::Randn({n, d}, rng);
    EmbeddingIndex float_index(embeddings, metric, IndexPrecision::kFloat32);
    EmbeddingIndex int8_index(embeddings, metric, IndexPrecision::kInt8);

    SnapshotContents contents;
    contents.n = n;
    contents.d = d;
    contents.metric = metric;
    contents.model_embeddings = &embeddings;
    contents.float_index = &float_index;
    contents.int8_index = &int8_index;
    const std::string path = SaveToTemp(contents, "random");

    const std::vector<IndexQuery> queries = RandomQueries(rng, n, d, 6);
    const int k = static_cast<int>(rng.UniformInt(1, 12));

    for (IndexPrecision precision :
         {IndexPrecision::kFloat32, IndexPrecision::kInt8}) {
      const EmbeddingIndex& heap =
          precision == IndexPrecision::kFloat32 ? float_index : int8_index;
      LoadedSnapshot loaded;
      SnapshotStatus status = LoadServingSnapshot(path, precision, &loaded);
      ASSERT_TRUE(status.ok()) << status.message;
      ASSERT_NE(loaded.index, nullptr);
      EXPECT_TRUE(loaded.index->adopted());
      EXPECT_FALSE(heap.adopted());
      EXPECT_EQ(loaded.index->size(), n);
      EXPECT_EQ(loaded.index->dim(), d);
      EXPECT_EQ(loaded.index->metric(), metric);
      EXPECT_EQ(loaded.index->precision(), precision);
      EXPECT_EQ(loaded.index->index_bytes(), heap.index_bytes())
          << "trial " << trial;
      ExpectBitwiseEqual(loaded.index->QueryBatch(queries, k),
                         heap.QueryBatch(queries, k));
    }
    std::remove(path.c_str());
  }
}

TEST(SnapshotRoundtripTest, BitwiseIdenticalUnderEverySimdTier) {
  Rng rng(77);
  const int64_t n = 33;
  const int64_t d = 17;  // Full vector widths plus a tail on every tier.
  for (IndexMetric metric : {IndexMetric::kCosine, IndexMetric::kL1}) {
    Tensor embeddings = Tensor::Randn({n, d}, rng);
    EmbeddingIndex float_index(embeddings, metric, IndexPrecision::kFloat32);
    EmbeddingIndex int8_index(embeddings, metric, IndexPrecision::kInt8);
    SnapshotContents contents;
    contents.n = n;
    contents.d = d;
    contents.metric = metric;
    contents.float_index = &float_index;
    contents.int8_index = &int8_index;
    const std::string path = SaveToTemp(contents, "tiers");

    const std::vector<IndexQuery> queries = RandomQueries(rng, n, d, 7);
    for (IndexPrecision precision :
         {IndexPrecision::kFloat32, IndexPrecision::kInt8}) {
      const EmbeddingIndex& heap =
          precision == IndexPrecision::kFloat32 ? float_index : int8_index;
      LoadedSnapshot loaded;
      ASSERT_TRUE(LoadServingSnapshot(path, precision, &loaded).ok());
      TierGuard guard;
      for (tensor::simd::Tier tier : AvailableTiers()) {
        SCOPED_TRACE(std::string("tier ") + tensor::simd::TierName(tier));
        tensor::simd::ForceTier(tier);
        ExpectBitwiseEqual(loaded.index->QueryBatch(queries, 5),
                           heap.QueryBatch(queries, 5));
      }
    }
    std::remove(path.c_str());
  }
}

TEST(SnapshotRoundtripTest, IndexPinsMappingAfterAllOtherRefsDrop) {
  Rng rng(5);
  Tensor embeddings = Tensor::Randn({20, 8}, rng);
  EmbeddingIndex heap(embeddings, IndexMetric::kCosine);
  SnapshotContents contents;
  contents.n = 20;
  contents.d = 8;
  contents.metric = IndexMetric::kCosine;
  contents.float_index = &heap;
  const std::string path = SaveToTemp(contents, "pin");

  std::shared_ptr<const EmbeddingIndex> index;
  {
    LoadedSnapshot loaded;
    ASSERT_TRUE(
        LoadServingSnapshot(path, IndexPrecision::kFloat32, &loaded).ok());
    index = loaded.index;
    // `loaded` (and its explicit mapping handle) dies here; the index's
    // payload_owner_ keepalive must keep the file mapped.
  }
  std::remove(path.c_str());  // Unlink is fine too: the mapping persists.
  ExpectBitwiseEqual({index->QueryById(3, 5)}, {heap.QueryById(3, 5)});
}

TEST(SnapshotRoundtripTest, LocatorAndModelSectionsRoundTrip) {
  Rng rng(9);
  const int64_t n = 15;
  Tensor embeddings = Tensor::Randn({n, 4}, rng);
  EmbeddingIndex heap(embeddings, IndexMetric::kCosine);
  std::vector<geo::LatLng> midpoints(static_cast<size_t>(n));
  for (size_t i = 0; i < midpoints.size(); ++i) {
    midpoints[i] = {30.0 + 0.01 * static_cast<double>(i),
                    104.0 - 0.005 * static_cast<double>(i)};
  }
  SnapshotContents contents;
  contents.n = n;
  contents.d = 4;
  contents.metric = IndexMetric::kCosine;
  contents.model_embeddings = &embeddings;
  contents.float_index = &heap;
  contents.midpoints = &midpoints;
  contents.locator_cell_side_meters = 250.0;
  const std::string path = SaveToTemp(contents, "locator");

  LoadedSnapshot loaded;
  ASSERT_TRUE(
      LoadServingSnapshot(path, IndexPrecision::kFloat32, &loaded).ok());
  ASSERT_NE(loaded.locator, nullptr);
  ASSERT_EQ(loaded.locator->size(), midpoints.size());
  for (size_t i = 0; i < midpoints.size(); ++i) {
    EXPECT_EQ(loaded.locator->point(i), midpoints[i]) << "midpoint " << i;
    // The rebuilt grid must resolve every midpoint to itself.
    auto nearest = loaded.locator->Nearest(midpoints[i]);
    ASSERT_TRUE(nearest.has_value());
    EXPECT_EQ(*nearest, static_cast<uint32_t>(i));
  }
  ASSERT_EQ(loaded.model_embeddings.size(), static_cast<size_t>(n) * 4);
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j < 4; ++j) {
      EXPECT_EQ(loaded.model_embeddings[static_cast<size_t>(i * 4 + j)],
                embeddings.at(i, j));
    }
  }
  EXPECT_GT(loaded.copied_bytes, 0u);   // Midpoints are materialised...
  EXPECT_GT(loaded.mapped_bytes, 0u);   // ...the scan payload is not.
  std::remove(path.c_str());
}

TEST(SnapshotRoundtripTest, LoadPublishesObsMetrics) {
  Rng rng(11);
  Tensor embeddings = Tensor::Randn({10, 6}, rng);
  EmbeddingIndex heap(embeddings, IndexMetric::kCosine);
  SnapshotContents contents;
  contents.n = 10;
  contents.d = 6;
  contents.metric = IndexMetric::kCosine;
  contents.float_index = &heap;
  const std::string path = SaveToTemp(contents, "metrics");

  auto& registry = obs::MetricsRegistry::Default();
  const uint64_t loads_before =
      registry.GetCounter("sarn.snapshot.loads").Value();
  LoadedSnapshot loaded;
  ASSERT_TRUE(
      LoadServingSnapshot(path, IndexPrecision::kFloat32, &loaded).ok());
  EXPECT_EQ(registry.GetCounter("sarn.snapshot.loads").Value(),
            loads_before + 1);
  EXPECT_EQ(registry.GetGauge("sarn.snapshot.bytes").Value(),
            static_cast<double>(loaded.mapping->file_bytes()));
  EXPECT_EQ(registry.GetGauge("sarn.snapshot.mapped_bytes").Value(),
            static_cast<double>(loaded.mapped_bytes));
  EXPECT_GT(loaded.load_ms, 0.0);

  const uint64_t errors_before =
      registry.GetCounter("sarn.snapshot.load_errors").Value();
  LoadedSnapshot missing;
  EXPECT_FALSE(LoadServingSnapshot(path + ".nope", IndexPrecision::kFloat32,
                                   &missing)
                   .ok());
  EXPECT_EQ(registry.GetCounter("sarn.snapshot.load_errors").Value(),
            errors_before + 1);
  std::remove(path.c_str());
}

// The TSan centerpiece: worker threads hammer the engine while the main
// thread repeatedly mmap-loads the snapshot and hot-swaps it in. In-flight
// batches drain on retired mappings (which munmap on last release), so any
// lifetime or publication race surfaces here.
TEST(SnapshotRoundtripTest, ConcurrentQueriesDuringMmapHotSwap) {
  Rng rng(13);
  const int64_t n = 40;
  const int64_t d = 16;
  Tensor embeddings = Tensor::Randn({n, d}, rng);
  auto heap = std::make_shared<EmbeddingIndex>(embeddings,
                                               IndexMetric::kCosine);
  SnapshotContents contents;
  contents.n = n;
  contents.d = d;
  contents.metric = IndexMetric::kCosine;
  contents.float_index = heap.get();
  const std::string path = SaveToTemp(contents, "hotswap");

  serve::ServeOptions options;
  options.threads = 2;
  options.batch_window_ms = 0.1;
  serve::QueryEngine engine(heap, nullptr, options);

  std::atomic<bool> stop{false};
  std::atomic<int> answered{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 3; ++t) {
    clients.emplace_back([&, t] {
      Rng client_rng(100 + static_cast<uint64_t>(t));
      while (!stop.load(std::memory_order_relaxed)) {
        serve::ServeRequest request;
        request.kind = serve::ServeRequest::Kind::kById;
        request.id = client_rng.UniformInt(0, n - 1);
        request.k = 5;
        serve::ServeResponse response = engine.Query(request);
        ASSERT_TRUE(response.ok) << response.error;
        ASSERT_EQ(response.neighbors.size(), 5u);
        answered.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (int swap = 0; swap < 20; ++swap) {
    LoadedSnapshot loaded;
    ASSERT_TRUE(
        LoadServingSnapshot(path, IndexPrecision::kFloat32, &loaded).ok());
    engine.Publish(loaded.index);
    // `loaded` drops its mapping ref here; in-flight batches keep it alive.
  }
  // And from loader threads, as a serve session's reload does.
  std::vector<std::future<uint64_t>> swaps;
  for (int swap = 0; swap < 5; ++swap) {
    swaps.push_back(std::async(std::launch::async, [&engine, &path]() -> uint64_t {
      LoadedSnapshot loaded;
      if (!LoadServingSnapshot(path, IndexPrecision::kFloat32, &loaded).ok()) {
        return 0;
      }
      return engine.Publish(loaded.index);
    }));
  }
  for (auto& f : swaps) EXPECT_NE(f.get(), 0u);
  stop.store(true);
  for (auto& client : clients) client.join();
  EXPECT_GT(answered.load(), 0);
  EXPECT_GE(engine.Stats().swaps, 25u);
  // Responses from the final epoch are bitwise equal to the heap index.
  serve::ServeRequest request;
  request.kind = serve::ServeRequest::Kind::kById;
  request.id = 7;
  request.k = 5;
  serve::ServeResponse response = engine.Query(request);
  ASSERT_TRUE(response.ok);
  const std::vector<Neighbor> expected = heap->QueryById(7, 5);
  ASSERT_EQ(response.neighbors.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(response.neighbors[i].id, expected[i].id);
    EXPECT_EQ(response.neighbors[i].score, expected[i].score);
  }
  std::remove(path.c_str());
}

TEST(SnapshotRoundtripTest, LoadRejectsMissingPrecisionPayload) {
  Rng rng(21);
  Tensor embeddings = Tensor::Randn({8, 4}, rng);
  EmbeddingIndex heap(embeddings, IndexMetric::kCosine);
  SnapshotContents contents;
  contents.n = 8;
  contents.d = 4;
  contents.metric = IndexMetric::kCosine;
  contents.float_index = &heap;  // No int8 payload.
  const std::string path = SaveToTemp(contents, "precision");
  LoadedSnapshot loaded;
  SnapshotStatus status =
      LoadServingSnapshot(path, IndexPrecision::kInt8, &loaded);
  EXPECT_EQ(status.error, SnapshotError::kMalformed);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace sarn::snapshot
