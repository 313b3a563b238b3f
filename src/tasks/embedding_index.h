// Top-k query serving over learned embeddings.
//
// The paper's motivation (§1) is that embeddings turn graph traversals into
// linear vector scans. This index is that serving layer: it holds an
// embedding matrix (optionally L2-normalised) and answers top-k most-similar
// queries under cosine or L1 distance with an exact brute-force scan —
// O(n d) per query, cache-friendly, and deterministic.
//
// The core entry point is QueryBatch: a whole micro-batch of queries is
// answered with one multi-query scan through the runtime-dispatched SIMD
// kernels of src/tensor/simd/ (AVX2/NEON with a bitwise-identical scalar
// fallback — DESIGN.md §12). The scan is fused with top-k selection: the
// batch is cut into blocks of simd::kMaxQueryBlock queries (the parallel
// work items; each row load feeds four accumulator sets, and the batch's
// 1–3 tail queries run a one-query, four-row kernel), rows are streamed in
// tiles and the scores go straight into per-query top-k arrays, so no
// [batch, n] score matrix is ever materialised. All scan scratch is drawn
// once per batch on the calling thread, so steady-state batches are
// pool-miss free however the blocks land on workers.
// The classic single-shot QueryById/QueryByVector calls are thin wrappers
// over a batch of one, so a batched answer is bitwise identical to the
// sequential one — the serve layer (src/serve/) relies on this to batch
// transparently.
//
// Precision: kFloat32 stores the (normalised) float rows. kInt8 stores
// ggml-style symmetric per-row quantized rows — int8 codes plus one float
// scale per row (cosine) or one shared scale (L1; distances do not factor
// through per-row scales) — cutting index memory ~4x and feeding the 32-wide
// int8 SIMD lanes. Quantized answers approximate the float index; the
// recall@10 >= 0.99 contract is pinned by quantized_index_test.
//
// Thread safety: an EmbeddingIndex is immutable after construction; all
// query methods are const and safe to call concurrently from any number of
// threads. The serve layer hot-swaps whole indexes via shared_ptr.

#ifndef SARN_TASKS_EMBEDDING_INDEX_H_
#define SARN_TASKS_EMBEDDING_INDEX_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "tensor/tensor.h"

namespace sarn::tasks {

enum class IndexMetric {
  kCosine = 0,  // Higher is more similar.
  kL1 = 1,      // Lower is more similar.
};

enum class IndexPrecision {
  kFloat32 = 0,  // Exact float scan.
  kInt8 = 1,     // Symmetric int8 quantized scan (~4x smaller, approximate).
};

/// Stable lowercase name ("float32", "int8") for logs, stats and metrics.
const char* PrecisionName(IndexPrecision precision);

struct Neighbor {
  int64_t id = -1;
  /// Similarity score for kCosine; negative L1 distance for kL1 (so that
  /// higher always means more similar).
  double score = 0.0;
};

/// One query of a batch: either a stored row (by id, the row itself is
/// excluded from its own result) or an external vector (nothing excluded).
struct IndexQuery {
  /// >= 0: query by stored row id; `vector` is ignored.
  int64_t id = -1;
  /// Used when id < 0; dimension must match the index.
  std::vector<float> vector;

  static IndexQuery ById(int64_t id) {
    IndexQuery q;
    q.id = id;
    return q;
  }
  static IndexQuery ByVector(std::vector<float> v) {
    IndexQuery q;
    q.vector = std::move(v);
    return q;
  }
};

class EmbeddingIndex {
 public:
  /// Copies (and for cosine, L2-normalises) the embedding rows; kInt8
  /// additionally quantizes them and drops the float copy entirely.
  EmbeddingIndex(const tensor::Tensor& embeddings, IndexMetric metric,
                 IndexPrecision precision = IndexPrecision::kFloat32);

  /// Adopts an already-prepared scan payload without copying it — the
  /// zero-copy seam the mmap snapshot loader (src/snapshot/) uses. The
  /// storages are typically Storage::External views into a mapped file and
  /// must hold exactly the bytes the heap constructor would have produced
  /// (normalised/quantized rows), so queries are bitwise identical to the
  /// heap-built index. `payload_owner` is held for the index's lifetime and
  /// keeps the mapping (or any other byte owner) alive.
  ///  * kFloat32: `rows_or_codes` holds the [n, d] float rows; `scales` empty.
  ///  * kInt8 cosine: `rows_or_codes` holds the [n, d] int8 codes (byte
  ///    payload riding in a float storage), `scales` the [n] per-row scales.
  ///  * kInt8 L1: codes plus `shared_scale`; `scales` empty.
  static std::shared_ptr<const EmbeddingIndex> Adopt(
      int64_t n, int64_t d, IndexMetric metric, IndexPrecision precision,
      tensor::Storage rows_or_codes, tensor::Storage scales, float shared_scale,
      std::shared_ptr<const void> payload_owner);

  /// Answers every query of the batch with one multi-query fused scan, best
  /// neighbor first. k is clamped per query to n - 1 (by-id, self excluded)
  /// or n (by-vector). result[i] corresponds to queries[i]. Scores are
  /// bitwise identical to a batch of one regardless of batch composition:
  /// every (query, row) score is an independent fixed-order reduction.
  std::vector<std::vector<Neighbor>> QueryBatch(std::span<const IndexQuery> queries,
                                                int k) const;

  /// Top-k neighbors of row `query_id` (the row itself is excluded),
  /// best first. Wrapper over QueryBatch with a batch of one.
  std::vector<Neighbor> QueryById(int64_t query_id, int k) const;

  /// Top-k neighbors of an external query vector (dimension must match).
  /// Wrapper over QueryBatch with a batch of one.
  std::vector<Neighbor> QueryByVector(const std::vector<float>& query, int k) const;

  int64_t size() const { return n_; }
  int64_t dim() const { return d_; }
  IndexMetric metric() const { return metric_; }
  IndexPrecision precision() const { return precision_; }

  /// Bytes held by the scan payload (rows + quantization scales) — the
  /// number the sarn.serve.index_bytes gauge reports. kInt8 is ~4x smaller
  /// than kFloat32 for the same matrix.
  size_t index_bytes() const;

  /// True when the scan payload is adopted external memory (an mmap'd
  /// snapshot) rather than pooled copies.
  bool adopted() const { return payload_owner_ != nullptr; }

  // --- Serialization access (src/snapshot/) ----------------------------------
  // Raw views of the prepared scan payload, exactly as the kernels consume
  // it. The snapshot writer serialises these bytes verbatim so a loaded
  // index answers queries bitwise identically.

  /// kFloat32 only: the [n, d] scan rows (normalised for cosine); empty at
  /// kInt8.
  std::span<const float> rows_f32() const {
    return {data_.data(), data_.size()};
  }
  /// kInt8 only: the [n, d] int8 codes; empty at kFloat32.
  std::span<const int8_t> codes_i8() const {
    if (precision_ != IndexPrecision::kInt8) return {};
    return {reinterpret_cast<const int8_t*>(data_q_.data()),
            static_cast<size_t>(n_) * static_cast<size_t>(d_)};
  }
  /// kInt8 cosine only: the [n] per-row scales; empty otherwise.
  std::span<const float> row_scales_i8() const {
    return {scales_.data(), scales_.size()};
  }
  /// kInt8 L1 only: the index-wide scale (0 otherwise).
  float shared_scale_i8() const { return shared_scale_; }

 private:
  EmbeddingIndex() = default;  // Adopt() fills the members directly.

  void ScanFloat(std::span<const IndexQuery> queries, int k,
                 const int64_t* excludes,
                 std::vector<std::vector<Neighbor>>* results) const;
  void ScanInt8(std::span<const IndexQuery> queries, int k,
                const int64_t* excludes,
                std::vector<std::vector<Neighbor>>* results) const;

  IndexMetric metric_;
  IndexPrecision precision_;
  int64_t n_ = 0;
  int64_t d_ = 0;
  // Pooled snapshot storage: all buffers recycle through the BufferPool when
  // the serve layer hot-swaps indexes.
  tensor::Storage data_;    // kFloat32: row-major [n, d], normalised for cosine.
  tensor::Storage data_q_;  // kInt8: row-major [n, d] int8 codes (raw bytes).
  tensor::Storage scales_;  // kInt8 cosine: [n] per-row scales.
  float shared_scale_ = 0.0f;  // kInt8 L1: one scale for the whole index.
  // Keeps adopted external payloads (the mmap'd snapshot) alive; null for
  // heap-built indexes.
  std::shared_ptr<const void> payload_owner_;
};

}  // namespace sarn::tasks

#endif  // SARN_TASKS_EMBEDDING_INDEX_H_
