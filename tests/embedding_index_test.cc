#include "tasks/embedding_index.h"

#include <cmath>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "common/rng.h"
#include "tensor/storage.h"
#include "tensor/tensor.h"

namespace sarn::tasks {
namespace {

using tensor::Tensor;

Tensor ClusteredEmbeddings() {
  // Three well-separated clusters of 4 rows each.
  Rng rng(1);
  std::vector<float> data;
  for (int cluster = 0; cluster < 3; ++cluster) {
    for (int member = 0; member < 4; ++member) {
      for (int j = 0; j < 8; ++j) {
        float center = j == cluster ? 10.0f : 0.0f;
        data.push_back(center + static_cast<float>(rng.Normal(0.0, 0.1)));
      }
    }
  }
  return Tensor::FromVector({12, 8}, std::move(data));
}

TEST(EmbeddingIndexTest, CosineFindsClusterMembers) {
  EmbeddingIndex index(ClusteredEmbeddings(), IndexMetric::kCosine);
  for (int64_t q = 0; q < 12; ++q) {
    std::vector<Neighbor> top = index.QueryById(q, 3);
    ASSERT_EQ(top.size(), 3u);
    for (const Neighbor& n : top) {
      EXPECT_EQ(n.id / 4, q / 4) << "query " << q << " matched " << n.id;
      EXPECT_NE(n.id, q);
    }
  }
}

TEST(EmbeddingIndexTest, L1FindsClusterMembers) {
  EmbeddingIndex index(ClusteredEmbeddings(), IndexMetric::kL1);
  for (int64_t q = 0; q < 12; ++q) {
    std::vector<Neighbor> top = index.QueryById(q, 3);
    for (const Neighbor& n : top) EXPECT_EQ(n.id / 4, q / 4);
  }
}

TEST(EmbeddingIndexTest, ScoresDescending) {
  EmbeddingIndex index(ClusteredEmbeddings(), IndexMetric::kCosine);
  std::vector<Neighbor> top = index.QueryById(0, 11);
  ASSERT_EQ(top.size(), 11u);
  for (size_t i = 1; i < top.size(); ++i) {
    EXPECT_GE(top[i - 1].score, top[i].score);
  }
}

TEST(EmbeddingIndexTest, MatchesBruteForceOnRandomData) {
  Rng rng(2);
  Tensor embeddings = Tensor::Randn({40, 6}, rng);
  EmbeddingIndex index(embeddings, IndexMetric::kL1);
  for (int64_t q = 0; q < 40; q += 7) {
    std::vector<Neighbor> top = index.QueryById(q, 1);
    ASSERT_EQ(top.size(), 1u);
    // Brute force.
    double best = 1e18;
    int64_t best_id = -1;
    for (int64_t o = 0; o < 40; ++o) {
      if (o == q) continue;
      double l1 = 0;
      for (int64_t j = 0; j < 6; ++j) {
        l1 += std::fabs(embeddings.at(q, j) - embeddings.at(o, j));
      }
      if (l1 < best) {
        best = l1;
        best_id = o;
      }
    }
    EXPECT_EQ(top[0].id, best_id);
    EXPECT_NEAR(-top[0].score, best, 1e-4);
  }
}

TEST(EmbeddingIndexTest, QueryByVectorCosineScaleInvariant) {
  EmbeddingIndex index(ClusteredEmbeddings(), IndexMetric::kCosine);
  std::vector<float> query(8, 0.0f);
  query[1] = 1.0f;  // Points at cluster 1.
  std::vector<Neighbor> small = index.QueryByVector(query, 4);
  for (float& v : query) v *= 1000.0f;
  std::vector<Neighbor> large = index.QueryByVector(query, 4);
  ASSERT_EQ(small.size(), large.size());
  for (size_t i = 0; i < small.size(); ++i) {
    EXPECT_EQ(small[i].id, large[i].id);
    EXPECT_EQ(small[i].id / 4, 1);
  }
}

TEST(EmbeddingIndexTest, KClamping) {
  EmbeddingIndex index(ClusteredEmbeddings(), IndexMetric::kCosine);
  EXPECT_EQ(index.QueryById(0, 100).size(), 11u);  // n - 1.
  EXPECT_EQ(index.QueryById(0, 0).size(), 0u);
  EXPECT_EQ(index.QueryByVector(std::vector<float>(8, 1.0f), 100).size(), 12u);
}

// ---------------------------------------------------------------------------
// QueryBatch — the core the wrappers above are now thin shims over.

std::vector<IndexQuery> MixedQueries(int64_t n, int64_t d, int count, uint64_t seed) {
  Rng rng(seed);
  std::vector<IndexQuery> queries;
  for (int i = 0; i < count; ++i) {
    if (i % 2 == 0) {
      queries.push_back(IndexQuery::ById(i % n));
    } else {
      std::vector<float> v(static_cast<size_t>(d));
      for (float& x : v) x = static_cast<float>(rng.Normal(0.0, 1.0));
      queries.push_back(IndexQuery::ByVector(std::move(v)));
    }
  }
  return queries;
}

// The batch scan must be bitwise identical to issuing every query alone:
// same neighbor ids, same scores to the last bit, for both metrics. This is
// the contract that lets the serve layer batch arbitrarily without changing
// any answer.
TEST(EmbeddingIndexTest, BatchMatchesSequentialBitwiseBothMetrics) {
  Rng rng(7);
  Tensor embeddings = Tensor::Randn({50, 16}, rng);
  for (IndexMetric metric : {IndexMetric::kCosine, IndexMetric::kL1}) {
    EmbeddingIndex index(embeddings, metric);
    std::vector<IndexQuery> queries = MixedQueries(50, 16, 64, 11);
    std::vector<std::vector<Neighbor>> batched = index.QueryBatch(queries, 5);
    ASSERT_EQ(batched.size(), queries.size());
    for (size_t i = 0; i < queries.size(); ++i) {
      std::vector<std::vector<Neighbor>> alone =
          index.QueryBatch({&queries[i], 1}, 5);
      ASSERT_EQ(batched[i].size(), alone[0].size()) << "query " << i;
      for (size_t j = 0; j < batched[i].size(); ++j) {
        EXPECT_EQ(batched[i][j].id, alone[0][j].id) << "query " << i;
        // Bitwise: EQ, not NEAR.
        EXPECT_EQ(batched[i][j].score, alone[0][j].score) << "query " << i;
      }
    }
  }
}

// The single-query wrappers are literally batch-of-one calls.
TEST(EmbeddingIndexTest, WrappersMatchBatchOfOne) {
  EmbeddingIndex index(ClusteredEmbeddings(), IndexMetric::kCosine);
  IndexQuery by_id = IndexQuery::ById(3);
  std::vector<Neighbor> wrapped = index.QueryById(3, 4);
  std::vector<std::vector<Neighbor>> batched = index.QueryBatch({&by_id, 1}, 4);
  ASSERT_EQ(wrapped.size(), batched[0].size());
  for (size_t j = 0; j < wrapped.size(); ++j) {
    EXPECT_EQ(wrapped[j].id, batched[0][j].id);
    EXPECT_EQ(wrapped[j].score, batched[0][j].score);
  }
}

TEST(EmbeddingIndexTest, BatchSelfExclusionAndClamping) {
  EmbeddingIndex index(ClusteredEmbeddings(), IndexMetric::kCosine);
  std::vector<IndexQuery> queries;
  queries.push_back(IndexQuery::ById(5));                        // Excludes row 5.
  queries.push_back(IndexQuery::ByVector(std::vector<float>(8, 1.0f)));
  std::vector<std::vector<Neighbor>> results = index.QueryBatch(queries, 100);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].size(), 11u);  // n - 1: self excluded.
  EXPECT_EQ(results[1].size(), 12u);  // Vectors see every row.
  for (const Neighbor& n : results[0]) EXPECT_NE(n.id, 5);
}

TEST(EmbeddingIndexTest, BatchEmptyAndKZero) {
  EmbeddingIndex index(ClusteredEmbeddings(), IndexMetric::kL1);
  EXPECT_TRUE(index.QueryBatch({}, 5).empty());
  IndexQuery q = IndexQuery::ById(0);
  std::vector<std::vector<Neighbor>> results = index.QueryBatch({&q, 1}, 0);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results[0].empty());
}

TEST(EmbeddingIndexTest, QueryBatchBuildsNoTapeNodesAndNoSteadyStateAllocs) {
  // The serve path must never touch the autograd tape, and after the first
  // batch warms the pool's size classes, repeated batches must run without a
  // single pool-miss allocation.
  Rng rng(11);
  tensor::NoGradGuard guard;
  EmbeddingIndex index(tensor::Tensor::Randn({300, 24}, rng), IndexMetric::kCosine);
  std::vector<IndexQuery> queries;
  for (int i = 0; i < 16; ++i) queries.push_back(IndexQuery::ById(i * 7));
  uint64_t tape_before = tensor::internal::TapeNodeCount();
  std::vector<std::vector<Neighbor>> warm = index.QueryBatch(queries, 10);
  for (int round = 0; round < 3; ++round) {
    tensor::StepScope scope;
    std::vector<std::vector<Neighbor>> result = index.QueryBatch(queries, 10);
    EXPECT_EQ(scope.pool_misses(), 0u) << "round " << round;
    ASSERT_EQ(result.size(), warm.size());
    for (size_t q = 0; q < result.size(); ++q) {
      ASSERT_EQ(result[q].size(), warm[q].size());
      for (size_t j = 0; j < result[q].size(); ++j) {
        EXPECT_EQ(result[q][j].id, warm[q][j].id);
        EXPECT_EQ(result[q][j].score, warm[q][j].score);
      }
    }
  }
  EXPECT_EQ(tensor::internal::TapeNodeCount(), tape_before);
}

TEST(EmbeddingIndexTest, QueryBatchBitwiseInvariantToThreadCount) {
  Rng rng(12);
  tensor::Tensor embeddings = tensor::Tensor::Randn({200, 16}, rng);
  std::vector<IndexQuery> queries;
  for (int i = 0; i < 8; ++i) queries.push_back(IndexQuery::ById(i * 11));
  queries.push_back(IndexQuery::ByVector(std::vector<float>(16, 0.5f)));
  for (IndexMetric metric : {IndexMetric::kCosine, IndexMetric::kL1}) {
    EmbeddingIndex index(embeddings, metric);
    size_t saved = GetParallelThreads();
    SetParallelThreads(1);
    std::vector<std::vector<Neighbor>> one = index.QueryBatch(queries, 12);
    SetParallelThreads(4);
    std::vector<std::vector<Neighbor>> four = index.QueryBatch(queries, 12);
    SetParallelThreads(saved);
    ASSERT_EQ(one.size(), four.size());
    for (size_t q = 0; q < one.size(); ++q) {
      ASSERT_EQ(one[q].size(), four[q].size());
      for (size_t j = 0; j < one[q].size(); ++j) {
        EXPECT_EQ(one[q][j].id, four[q][j].id);
        EXPECT_EQ(one[q][j].score, four[q][j].score);
      }
    }
  }
}

// Every split of a batch into full 4-query blocks and a 1–3 query tail
// (b = 1..9 and 17) answers each query bitwise identically to asking it
// alone, at both precisions and metrics, on 1 and 4 threads. d = 24 runs
// the int8 kernels' 16- and 8-byte tail steps and d = 64 their 32-byte
// steps only; 1031 rows end the last tile on a 4-row remainder.
TEST(EmbeddingIndexTest, EveryBlockTailSplitMatchesSingleQueries) {
  const int64_t n = 1031;
  const int batch_sizes[] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 17};
  const size_t saved = GetParallelThreads();
  for (int64_t d : {24, 64}) {
    Rng rng(static_cast<uint64_t>(d));
    Tensor embeddings = Tensor::Randn({n, d}, rng);
    for (IndexPrecision precision :
         {IndexPrecision::kFloat32, IndexPrecision::kInt8}) {
      for (IndexMetric metric : {IndexMetric::kCosine, IndexMetric::kL1}) {
        EmbeddingIndex index(embeddings, metric, precision);
        for (size_t threads : {1, 4}) {
          SetParallelThreads(threads);
          for (int b : batch_sizes) {
            std::vector<IndexQuery> queries =
                MixedQueries(n, d, b, static_cast<uint64_t>(b));
            std::vector<std::vector<Neighbor>> batched =
                index.QueryBatch(queries, 7);
            ASSERT_EQ(batched.size(), queries.size());
            for (int i = 0; i < b; ++i) {
              std::vector<std::vector<Neighbor>> alone =
                  index.QueryBatch({&queries[i], 1}, 7);
              ASSERT_EQ(batched[i].size(), alone[0].size());
              for (size_t j = 0; j < alone[0].size(); ++j) {
                EXPECT_EQ(batched[i][j].id, alone[0][j].id)
                    << PrecisionName(precision) << " d=" << d << " b=" << b
                    << " threads=" << threads << " query " << i;
                EXPECT_EQ(batched[i][j].score, alone[0][j].score)
                    << PrecisionName(precision) << " d=" << d << " b=" << b
                    << " threads=" << threads << " query " << i;
              }
            }
          }
        }
      }
    }
  }
  SetParallelThreads(saved);
}

}  // namespace
}  // namespace sarn::tasks
