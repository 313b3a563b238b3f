#include "tasks/embedding_index.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>

#include "common/check.h"
#include "common/parallel.h"
#include "common/timer.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/simd/simd.h"
#include "tensor/storage.h"

namespace sarn::tasks {

namespace simd = tensor::simd;

namespace {

// Rows scanned per kernel call: the fused scan streams the matrix in tiles
// this tall, scoring a block of up to simd::kMaxQueryBlock queries per pass
// and feeding the scores straight into the top-k arrays, so the scratch is
// one small tile per query block instead of a [batch, n] score matrix.
constexpr int64_t kScanTile = 1024;

// L2-normalises `row` in place, with the norm accumulated in double exactly
// like the stored rows at construction (so a by-vector query of a stored row
// reproduces that row bit-for-bit).
void NormalizeRow(float* row, int64_t d) {
  double sq = 0.0;
  for (int64_t j = 0; j < d; ++j) sq += static_cast<double>(row[j]) * row[j];
  float inv = sq > 1e-16 ? static_cast<float>(1.0 / std::sqrt(sq)) : 0.0f;
  for (int64_t j = 0; j < d; ++j) row[j] *= inv;
}

// Pooled Storage reinterpreted as a raw byte buffer (Storage is float-typed;
// int8 codes ride in it so snapshots recycle through the BufferPool like
// every other index payload).
tensor::Storage ByteStorage(size_t bytes) {
  return tensor::Storage::Uninitialized((bytes + sizeof(float) - 1) /
                                        sizeof(float));
}

// Top-k selection fused with the tiled scan: a caller-owned slice of at
// least k entries, kept sorted descending by (score, id), holds the k best
// pairs seen while tiles arrive in ascending-id order — the k largest pairs
// under strict-> replacement against the current minimum (the back), exactly
// the set a (score, id) min-heap would keep, already in the emit order. The
// selection rule is independent of tiling and batching, so fused, batched
// and single-query answers select identically.
using TopKEntry = std::pair<float, int64_t>;

class TopKAccumulator {
 public:
  TopKAccumulator() = default;
  TopKAccumulator(TopKEntry* best, int k, int64_t exclude)
      : best_(best), k_(k), exclude_(exclude) {}

  /// Offers `count` scores for rows [id0, id0 + count), ascending. `cand` is
  /// caller scratch for at least `count` candidate positions.
  void PushTile(const float* scores, int64_t count, int64_t id0,
                int32_t* cand) {
    if (k_ <= 0) return;
    int64_t t = 0;
    while (size_ < k_ && t < count) {
      const int64_t id = id0 + t;
      if (id != exclude_) Insert({scores[t], id});
      ++t;
    }
    // Once full, scores that don't beat the current minimum can't change the
    // selection, so the SIMD filter picks the rare candidates. Filtering in
    // sub-chunks keeps the threshold fresh while the minimum rises (a frozen
    // whole-tile threshold lets most of the first tile through); each
    // chunk's threshold is only ever stale-low, so the filter returns a
    // superset of acceptable rows and the strict > below re-checks each one
    // — the selection evolves exactly as the plain per-score loop would.
    constexpr int64_t kFilterChunk = 256;
    while (t < count) {
      const int64_t len = std::min<int64_t>(kFilterChunk, count - t);
      const int64_t m =
          simd::FilterAbove(scores + t, len, best_[size_ - 1].first, cand);
      for (int64_t c = 0; c < m; ++c) {
        const int64_t pos = t + cand[c];
        const int64_t id = id0 + pos;
        if (id == exclude_) continue;
        const float score = scores[pos];
        if (score > best_[size_ - 1].first) {
          --size_;  // Drop the minimum.
          Insert({score, id});
        }
      }
      t += len;
    }
  }

  std::vector<Neighbor> Finish() const {
    std::vector<Neighbor> out(static_cast<size_t>(size_));
    for (int i = 0; i < size_; ++i) {
      out[i] = {best_[i].second, static_cast<double>(best_[i].first)};
    }
    return out;
  }

 private:
  void Insert(const TopKEntry& e) {
    TopKEntry* end = best_ + size_;
    TopKEntry* it = std::upper_bound(
        best_, end, e,
        [](const TopKEntry& a, const TopKEntry& b) { return a > b; });
    std::move_backward(it, end, end + 1);
    *it = e;
    ++size_;
  }

  TopKEntry* best_ = nullptr;  // Descending by (score, id); back = minimum.
  int k_ = 0;
  int size_ = 0;
  int64_t exclude_ = -1;
};

int ClampK(int k, int64_t n, int64_t exclude) {
  return std::min<int>(k, static_cast<int>(exclude >= 0 ? n - 1 : n));
}

// The fused scan + top-k loop both precisions share. Its parallel items
// are whole blocks of simd::kMaxQueryBlock queries (the last block holds the
// batch's 1–3 tail queries, if any), so every full block runs the kernels'
// block-of-4 path. `score_tile(g, qn, r0, rows, tile)` writes the scores of
// queries [g, g + qn) against rows [r0, r0 + rows) to tile[qi * kScanTile +
// t]. All scratch — score tiles, candidate buffers and the [b, k] top-k
// entries — is drawn here, once, on the calling thread, and each block
// works in its own slice: which worker runs a block cannot change which
// thread's pool cache is touched, so steady-state batches stay pool-miss
// free at any core count. Every (query, row) score is an independent
// fixed-order reduction (src/tensor/simd/simd.h), so results do not depend
// on the block grouping or on how ParallelFor spreads the blocks.
template <typename ScoreTile>
void FusedScan(size_t b, int64_t n, int k, const int64_t* excludes,
               const ScoreTile& score_tile,
               std::vector<std::vector<Neighbor>>* results) {
  constexpr int kBlock = simd::kMaxQueryBlock;
  constexpr size_t kTileFloats = kBlock * static_cast<size_t>(kScanTile);
  const size_t blocks = (b + kBlock - 1) / kBlock;
  const size_t k_cap =
      static_cast<size_t>(std::clamp<int64_t>(k, 0, n));  // >= every ClampK.
  tensor::Storage tiles = tensor::Storage::Uninitialized(blocks * kTileFloats);
  tensor::PoolVec<int32_t> cand(blocks * static_cast<size_t>(kScanTile));
  tensor::PoolVec<TopKEntry> topk(b * k_cap);
  auto run_blocks = [&](size_t begin, size_t end) {
    for (size_t blk = begin; blk < end; ++blk) {
      const size_t g = blk * kBlock;
      const int qn = static_cast<int>(std::min<size_t>(kBlock, b - g));
      float* tile = tiles.data() + blk * kTileFloats;
      int32_t* block_cand = cand.data() + blk * static_cast<size_t>(kScanTile);
      TopKAccumulator accs[kBlock];
      for (int qi = 0; qi < qn; ++qi) {
        accs[qi] = TopKAccumulator(topk.data() + (g + qi) * k_cap,
                                   ClampK(k, n, excludes[g + qi]),
                                   excludes[g + qi]);
      }
      for (int64_t r0 = 0; r0 < n; r0 += kScanTile) {
        const int64_t rows = std::min<int64_t>(kScanTile, n - r0);
        score_tile(g, qn, r0, rows, tile);
        for (int qi = 0; qi < qn; ++qi) {
          accs[qi].PushTile(tile + qi * kScanTile, rows, r0, block_cand);
        }
      }
      for (int qi = 0; qi < qn; ++qi) (*results)[g + qi] = accs[qi].Finish();
    }
  };
  ParallelFor(blocks, run_blocks, /*grain=*/1);  // One block runs inline.
}

}  // namespace

const char* PrecisionName(IndexPrecision precision) {
  switch (precision) {
    case IndexPrecision::kFloat32: return "float32";
    case IndexPrecision::kInt8: return "int8";
  }
  return "unknown";
}

EmbeddingIndex::EmbeddingIndex(const tensor::Tensor& embeddings,
                               IndexMetric metric, IndexPrecision precision)
    : metric_(metric), precision_(precision) {
  SARN_CHECK_EQ(embeddings.rank(), 2);
  n_ = embeddings.shape()[0];
  d_ = embeddings.shape()[1];
  // Both precisions prepare the float rows first (cosine normalisation must
  // happen before quantization so the per-row scales see unit vectors).
  tensor::Storage rows =
      tensor::Storage::CopyOf(embeddings.data().data(), embeddings.data().size());
  if (metric_ == IndexMetric::kCosine) {
    for (int64_t i = 0; i < n_; ++i) NormalizeRow(rows.data() + i * d_, d_);
  }
  if (precision_ == IndexPrecision::kFloat32) {
    data_ = std::move(rows);
    return;
  }
  // kInt8: symmetric quantization, then the float copy is dropped — the
  // quantized payload (codes + scales) is the whole index.
  data_q_ = ByteStorage(static_cast<size_t>(n_) * static_cast<size_t>(d_));
  int8_t* codes = reinterpret_cast<int8_t*>(data_q_.data());
  if (metric_ == IndexMetric::kCosine) {
    // Per-row scales: dot(q, r) factors as q_scale * r_scale * dot_i8.
    scales_ = tensor::Storage::Uninitialized(static_cast<size_t>(n_));
    for (int64_t i = 0; i < n_; ++i) {
      simd::QuantizeRowI8(rows.data() + i * d_, d_, codes + i * d_,
                          scales_.data() + i);
    }
  } else {
    // L1 distances do not factor through per-row scales, so the whole matrix
    // shares one: |q - r|_1 ≈ scale * sum |q_i8 - r_i8|.
    shared_scale_ =
        simd::AbsMax(rows.data(), static_cast<int64_t>(rows.size())) / 127.0f;
    for (int64_t i = 0; i < n_; ++i) {
      simd::QuantizeRowI8WithScale(rows.data() + i * d_, d_, shared_scale_,
                                   codes + i * d_);
    }
  }
}

std::shared_ptr<const EmbeddingIndex> EmbeddingIndex::Adopt(
    int64_t n, int64_t d, IndexMetric metric, IndexPrecision precision,
    tensor::Storage rows_or_codes, tensor::Storage scales, float shared_scale,
    std::shared_ptr<const void> payload_owner) {
  SARN_CHECK(n >= 0 && d > 0);
  auto index = std::shared_ptr<EmbeddingIndex>(new EmbeddingIndex());
  index->metric_ = metric;
  index->precision_ = precision;
  index->n_ = n;
  index->d_ = d;
  if (precision == IndexPrecision::kFloat32) {
    SARN_CHECK_EQ(rows_or_codes.size(),
                  static_cast<size_t>(n) * static_cast<size_t>(d));
    SARN_CHECK(scales.empty());
    index->data_ = std::move(rows_or_codes);
  } else {
    // Codes ride in a float storage as raw bytes (same trick as the heap
    // constructor); the storage covers ceil(n*d / 4) floats.
    const size_t code_bytes = static_cast<size_t>(n) * static_cast<size_t>(d);
    SARN_CHECK(rows_or_codes.size() * sizeof(float) >= code_bytes);
    index->data_q_ = std::move(rows_or_codes);
    if (metric == IndexMetric::kCosine) {
      SARN_CHECK_EQ(scales.size(), static_cast<size_t>(n));
      index->scales_ = std::move(scales);
    } else {
      SARN_CHECK(scales.empty());
      index->shared_scale_ = shared_scale;
    }
  }
  index->payload_owner_ = std::move(payload_owner);
  return index;
}

size_t EmbeddingIndex::index_bytes() const {
  if (precision_ == IndexPrecision::kFloat32) {
    return data_.size() * sizeof(float);
  }
  // int8 codes plus the scales: one per row (cosine) or one shared (L1).
  return static_cast<size_t>(n_) * static_cast<size_t>(d_) +
         (metric_ == IndexMetric::kCosine ? scales_.size() : 1) * sizeof(float);
}

namespace {

// Scan-side instruments, cached once (DESIGN.md §9 pattern). Updated per
// QueryBatch call — cheap relaxed adds next to a full index scan.
// block_queries + tail_queries == scanned_queries: the queries that ran in a
// full block of simd::kMaxQueryBlock and the 1–3 a batch left over, so a
// slow scan can be read as a batch-shape problem from the counters alone.
struct IndexScanMetrics {
  obs::Counter& scans;
  obs::Counter& scanned_queries;
  obs::Counter& block_queries;
  obs::Counter& tail_queries;
  obs::Histogram& scan_seconds;

  static IndexScanMetrics& Get() {
    static IndexScanMetrics metrics{
        obs::MetricsRegistry::Default().GetCounter("sarn.index.scans"),
        obs::MetricsRegistry::Default().GetCounter("sarn.index.scanned_queries"),
        obs::MetricsRegistry::Default().GetCounter("sarn.index.block_queries"),
        obs::MetricsRegistry::Default().GetCounter("sarn.index.tail_queries"),
        obs::MetricsRegistry::Default().GetHistogram("sarn.index.scan_seconds"),
    };
    return metrics;
  }
};

}  // namespace

std::vector<std::vector<Neighbor>> EmbeddingIndex::QueryBatch(
    std::span<const IndexQuery> queries, int k) const {
  SARN_TRACE_SPAN("index_query_batch");
  const size_t b = queries.size();
  std::vector<std::vector<Neighbor>> results(b);
  if (b == 0 || n_ == 0) return results;
  IndexScanMetrics& scan_metrics = IndexScanMetrics::Get();
  scan_metrics.scans.Increment();
  scan_metrics.scanned_queries.Increment(b);
  const size_t tail = b % simd::kMaxQueryBlock;
  scan_metrics.block_queries.Increment(b - tail);
  scan_metrics.tail_queries.Increment(tail);
  const Timer scan_timer;
  // Publishes sarn.alloc.* on exit; after the first batch of a given size the
  // pooled scratch below is all hits, so steady-state serving is
  // allocation-free against the global allocator for the scan itself.
  tensor::StepScope alloc_scope;

  tensor::PoolVec<int64_t> excludes(b, -1);
  for (size_t i = 0; i < b; ++i) {
    if (queries[i].id >= 0) {
      SARN_CHECK(queries[i].id < n_) << "query id " << queries[i].id << " of " << n_;
      excludes[i] = queries[i].id;
    } else {
      SARN_CHECK_EQ(static_cast<int64_t>(queries[i].vector.size()), d_);
    }
  }

  if (precision_ == IndexPrecision::kFloat32) {
    ScanFloat(queries, k, excludes.data(), &results);
  } else {
    ScanInt8(queries, k, excludes.data(), &results);
  }
  scan_metrics.scan_seconds.Observe(scan_timer.ElapsedSeconds());
  return results;
}

void EmbeddingIndex::ScanFloat(std::span<const IndexQuery> queries, int k,
                               const int64_t* excludes,
                               std::vector<std::vector<Neighbor>>* results) const {
  const size_t b = queries.size();
  // Assemble the query matrix [b, d] (the blocked kernels want the block
  // contiguous); by-id queries reuse the stored (for cosine, already
  // normalised) row.
  tensor::Storage q = tensor::Storage::Uninitialized(b * static_cast<size_t>(d_));
  for (size_t i = 0; i < b; ++i) {
    const IndexQuery& query = queries[i];
    float* row = q.data() + i * static_cast<size_t>(d_);
    if (query.id >= 0) {
      std::copy_n(data_.data() + query.id * d_, d_, row);
    } else {
      std::copy_n(query.vector.data(), d_, row);
      if (metric_ == IndexMetric::kCosine) NormalizeRow(row, d_);
    }
  }
  FusedScan(
      b, n_, k, excludes,
      [&](size_t g, int qn, int64_t r0, int64_t rows, float* tile) {
        const float* block = q.data() + g * static_cast<size_t>(d_);
        if (metric_ == IndexMetric::kCosine) {
          simd::DotScan(block, qn, data_.data() + r0 * d_, rows, d_, tile,
                        kScanTile);
        } else {
          simd::L1Scan(block, qn, data_.data() + r0 * d_, rows, d_, tile,
                       kScanTile);
        }
      },
      results);
}

void EmbeddingIndex::ScanInt8(std::span<const IndexQuery> queries, int k,
                              const int64_t* excludes,
                              std::vector<std::vector<Neighbor>>* results) const {
  const size_t b = queries.size();
  const int8_t* codes = reinterpret_cast<const int8_t*>(data_q_.data());
  // Assemble the quantized query block [b, d] + per-query scales. By-id
  // queries reuse the stored codes (and their stored scale), so a stored row
  // queries itself with zero extra quantization error.
  tensor::Storage qbytes = ByteStorage(b * static_cast<size_t>(d_));
  int8_t* q8 = reinterpret_cast<int8_t*>(qbytes.data());
  tensor::PoolVec<float> qscales(b, shared_scale_);
  tensor::PoolVec<float> scratch(static_cast<size_t>(d_), 0.0f);
  for (size_t i = 0; i < b; ++i) {
    const IndexQuery& query = queries[i];
    int8_t* qrow = q8 + i * static_cast<size_t>(d_);
    if (query.id >= 0) {
      std::memcpy(qrow, codes + query.id * d_, static_cast<size_t>(d_));
      if (metric_ == IndexMetric::kCosine) qscales[i] = scales_[query.id];
    } else if (metric_ == IndexMetric::kCosine) {
      std::copy_n(query.vector.data(), d_, scratch.data());
      NormalizeRow(scratch.data(), d_);
      simd::QuantizeRowI8(scratch.data(), d_, qrow, &qscales[i]);
    } else {
      simd::QuantizeRowI8WithScale(query.vector.data(), d_, shared_scale_, qrow);
    }
  }
  FusedScan(
      b, n_, k, excludes,
      [&](size_t g, int qn, int64_t r0, int64_t rows, float* tile) {
        const int8_t* block = q8 + g * static_cast<size_t>(d_);
        if (metric_ == IndexMetric::kCosine) {
          simd::DotScanI8(block, qscales.data() + g, qn, codes + r0 * d_,
                          scales_.data() + r0, rows, d_, tile, kScanTile);
        } else {
          simd::L1ScanI8(block, qn, codes + r0 * d_, rows, d_, shared_scale_,
                         tile, kScanTile);
        }
      },
      results);
}

std::vector<Neighbor> EmbeddingIndex::QueryById(int64_t query_id, int k) const {
  SARN_CHECK(query_id >= 0 && query_id < n_) << "query_id " << query_id;
  IndexQuery query = IndexQuery::ById(query_id);
  return std::move(QueryBatch({&query, 1}, k)[0]);
}

std::vector<Neighbor> EmbeddingIndex::QueryByVector(const std::vector<float>& query,
                                                    int k) const {
  IndexQuery q = IndexQuery::ByVector(query);
  return std::move(QueryBatch({&q, 1}, k)[0]);
}

}  // namespace sarn::tasks
