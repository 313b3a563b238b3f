// Concurrent, batched top-k embedding query engine — the online serving
// layer the paper's §1 pitch implies: embeddings turn graph traversals into
// vector scans, and this engine turns those scans into a service.
//
// Architecture (DESIGN.md §10):
//  * Admission: Submit() enqueues a request and returns a future. Worker
//    threads assemble *micro-batches*: a batch flushes when it reaches
//    `max_batch` requests or when the oldest admitted request has waited
//    `batch_window_ms` — so a lone request pays at most one window of
//    latency while a burst is answered by one multi-query scan.
//  * Execution: each batch is resolved (lat/lng → nearest segment through
//    the geo locator, ids bounds-checked, vectors dimension-checked),
//    filtered through the LRU result cache, and the misses answered with a
//    single EmbeddingIndex::QueryBatch call (matmul-backed, thread-pool
//    partitioned).
//  * Snapshots: the embedding index is held behind an epoch-tagged
//    snapshot. Publish() atomically swaps in a freshly built index without
//    stopping readers — in-flight batches keep the shared_ptr they acquired
//    and drain on the old snapshot, which is freed when the last batch
//    releases it. Every response carries the epoch it was answered from, so
//    a response can always be traced to one complete, never-torn matrix.
//  * Caching: results are keyed by (epoch, metric, k, query); a swap bumps
//    the epoch and clears the cache.
//
// Instrumented with src/obs metrics under sarn.serve.* (request/error
// counters, batch-size, latency and per-stage histograms, cache hits/misses,
// swap count) and per-engine counters surfaced through Stats(). Request
// tracing (DESIGN.md §14) is an engine-owned obs::RequestTracer: its ring of
// recent records, slowest-N table and traced end-to-end sum sit behind one
// mutex taken once per traced reply and once per statsz, and TraceStats()
// joins them with the per-stage histograms.

#ifndef SARN_SERVE_QUERY_ENGINE_H_
#define SARN_SERVE_QUERY_ENGINE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/timer.h"
#include "geo/spatial_index.h"
#include "obs/metrics.h"
#include "obs/request_trace.h"
#include "serve/result_cache.h"
#include "tasks/embedding_index.h"

namespace sarn::serve {

struct ServeOptions {
  /// Worker threads consuming the request queue. 0 = synchronous mode:
  /// Submit() executes the request inline as a batch of one (no threads,
  /// deterministic — used by tests and as the bench baseline).
  int threads = 1;
  /// Flush a micro-batch at this many requests...
  int max_batch = 64;
  /// ...or when the oldest admitted request has waited this long.
  double batch_window_ms = 1.0;
  /// LRU result-cache entries; 0 disables caching.
  size_t cache_capacity = 4096;
  /// Request tracing (DESIGN.md §14): every trace_sample_every-th request
  /// gets a per-stage timeline recorded into the trace ring. 1 traces
  /// everything, 0 disables tracing entirely (the Mark* calls reduce to a
  /// dead branch). Tracing never changes results — only timestamps are read.
  uint32_t trace_sample_every = 16;
};

struct ServeRequest {
  enum class Kind { kById, kByVector, kByPoint };
  Kind kind = Kind::kById;
  int64_t id = -1;              // kById.
  std::vector<float> vector;    // kByVector.
  geo::LatLng point;            // kByPoint: answered for the nearest segment.
  int k = 10;
};

struct ServeResponse {
  bool ok = false;
  std::string error;            // Set when !ok.
  uint64_t epoch = 0;           // Snapshot the answer was computed from.
  bool cache_hit = false;
  int64_t query_id = -1;        // Resolved row id (kById/kByPoint), -1 for vectors.
  std::vector<tasks::Neighbor> neighbors;
};

/// Point-in-time engine statistics (per engine, not process-global).
struct ServeStats {
  uint64_t requests = 0;
  uint64_t errors = 0;
  uint64_t batches = 0;
  uint64_t batched_items = 0;   // Requests that went through worker batches.
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t swaps = 0;
  uint64_t epoch = 0;
  uint64_t index_bytes = 0;     // Scan payload bytes of the live snapshot.
  std::string precision;        // Live snapshot precision: "float32" / "int8".
  std::string simd_tier;        // Active kernel tier: "scalar" / "avx2" / "neon".
  double uptime_seconds = 0.0;
  double qps = 0.0;             // requests / uptime.
  double mean_batch_size = 0.0;  // batched_items / batches.
  double latency_p50_ms = 0.0;
  double latency_p95_ms = 0.0;
  double latency_p99_ms = 0.0;
  // Process-wide sarn.snapshot.* load telemetry (src/snapshot/reader.cc), so
  // one stats line describes the full serving configuration.
  uint64_t snapshot_loads = 0;
  uint64_t snapshot_load_errors = 0;
  uint64_t snapshot_bytes = 0;         // Arena bytes of the last load.
  uint64_t snapshot_mapped_bytes = 0;  // Served zero-copy from the mapping.
  uint64_t snapshot_copied_bytes = 0;  // Materialised into pool storage.
  // Process-wide sarn.index.* scan counters (src/tasks/embedding_index.cc):
  // queries scanned in full 4-query blocks vs as a batch's 1–3 tail queries.
  uint64_t index_block_queries = 0;
  uint64_t index_tail_queries = 0;
};

/// Per-stage latency attribution + the traced-request ring, the data behind
/// {"op":"statsz"} (DESIGN.md §14). Stages telescope over [admit, replied],
/// so `attributed_fraction` is 1.0 up to float rounding by construction.
struct ServeTraceStats {
  struct StageStat {
    std::string stage;  // admission / queue / cache / scan / reply.
    uint64_t count = 0;
    double total_ms = 0.0;
    double p50_ms = 0.0;
    double p95_ms = 0.0;
    double p99_ms = 0.0;
    /// Exemplar request ids from the highest occupied latency buckets
    /// (slowest bucket first) — the concrete requests behind the tail.
    std::vector<uint64_t> exemplars;
  };
  bool enabled = false;       // False when trace_sample_every == 0.
  uint32_t sample_every = 0;
  uint64_t admitted = 0;      // Requests admitted (ids assigned).
  uint64_t traced = 0;        // Requests with a recorded timeline.
  double traced_total_ms = 0.0;      // Σ end-to-end over traced requests.
  double attributed_fraction = 1.0;  // Σ stage time / Σ end-to-end.
  std::vector<StageStat> stages;     // kRequestStageCount entries, in order.
  std::vector<obs::RequestRecord> recent;   // Ring contents, oldest first.
  std::vector<obs::RequestRecord> slowest;  // Tail table, slowest first.
};

class QueryEngine {
 public:
  /// `index` is the initial snapshot (epoch 1). `locator` resolves
  /// lat/lng queries to segment ids (typically built over the network's
  /// segment midpoints); may be null, in which case kByPoint requests fail
  /// cleanly. The locator is epoch-independent: embeddings are retrained,
  /// geometry is not.
  QueryEngine(std::shared_ptr<const tasks::EmbeddingIndex> index,
              std::shared_ptr<const geo::SpatialIndex> locator,
              ServeOptions options = {});

  /// Drains the queue (every pending future resolves) and joins workers.
  ~QueryEngine();

  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;

  /// Admits a request; the future resolves when its micro-batch executes.
  std::future<ServeResponse> Submit(ServeRequest request);

  /// Convenience: Submit and wait.
  ServeResponse Query(ServeRequest request);

  /// Atomically publishes a new embedding snapshot: bumps the epoch, clears
  /// the result cache, and lets in-flight batches drain on the old index.
  /// Safe to call concurrently with Submit/Query from any thread. Returns
  /// the epoch the snapshot was published as.
  uint64_t Publish(std::shared_ptr<const tasks::EmbeddingIndex> index);

  uint64_t epoch() const;
  ServeStats Stats() const;
  /// Per-stage latency breakdown + traced-request dump for statsz.
  ServeTraceStats TraceStats() const;

 private:
  struct Pending {
    ServeRequest request;
    std::promise<ServeResponse> promise;
    std::chrono::steady_clock::time_point admitted;
    obs::RequestContext ctx;
  };
  struct Snapshot {
    uint64_t epoch = 0;
    std::shared_ptr<const tasks::EmbeddingIndex> index;
  };

  std::shared_ptr<const Snapshot> AcquireSnapshot() const;
  void WorkerLoop();
  /// Pops the next micro-batch; empty only when stopping with a drained queue.
  std::vector<Pending> WaitBatch();
  void ExecuteBatch(std::vector<Pending> batch);
  ServeResponse Resolve(const ServeRequest& request, const Snapshot& snapshot,
                        tasks::IndexQuery* query) const;

  const ServeOptions options_;
  std::shared_ptr<const geo::SpatialIndex> locator_;
  ResultCache cache_;
  Timer uptime_;

  mutable std::mutex snapshot_mu_;
  std::shared_ptr<const Snapshot> snapshot_;
  uint64_t next_epoch_ = 1;

  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<Pending> queue_;
  bool stop_ = false;
  std::vector<std::thread> workers_;

  // Per-engine statistics (Stats()); the process-global obs registry is
  // updated alongside under sarn.serve.* names.
  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> errors_{0};
  std::atomic<uint64_t> batches_{0};
  std::atomic<uint64_t> batched_items_{0};
  std::atomic<uint64_t> swaps_{0};
  obs::Histogram latency_seconds_;

  // Request-scoped tracing (engine-owned so a snapshot hot-swap never resets
  // request ids or the ring). The tracer keeps the recent and slowest
  // records and the traced end-to-end sum; the stage histograms record only
  // traced requests, and the exemplar ids in their tail buckets come from
  // the same requests the ring holds, so statsz can join a p99 bucket to a
  // full timeline.
  obs::RequestTracer tracer_;
  std::unique_ptr<obs::Histogram> stage_seconds_[obs::kRequestStageCount];
};

}  // namespace sarn::serve

#endif  // SARN_SERVE_QUERY_ENGINE_H_
