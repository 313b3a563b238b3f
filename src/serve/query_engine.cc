#include "serve/query_engine.h"

#include <algorithm>
#include <map>
#include <utility>

#include "common/check.h"
#include "tensor/simd/simd.h"

namespace sarn::serve {
namespace {

std::vector<double> BatchSizeBuckets() {
  return {1, 2, 4, 8, 16, 32, 64, 128, 256};
}

// Process-global sarn.serve.* instruments (DESIGN.md §9 naming scheme),
// looked up once and updated lock-free alongside the per-engine counters.
struct ServeMetrics {
  obs::Counter& requests;
  obs::Counter& errors;
  obs::Counter& batches;
  obs::Counter& cache_hits;
  obs::Counter& cache_misses;
  obs::Counter& swaps;
  obs::Histogram& batch_size;
  obs::Histogram& latency_seconds;
  obs::Gauge& epoch;
  obs::Gauge& index_bytes;  // Scan payload bytes of the live snapshot.
  obs::Gauge& simd_tier;    // Numeric simd::Tier of the active kernel path.
  // Per-stage latency histograms over traced requests (DESIGN.md §14); the
  // Prometheus-export face of the engine-owned stage histograms.
  obs::Histogram* stages[obs::kRequestStageCount];

  static ServeMetrics& Get() {
    static ServeMetrics metrics{
        obs::MetricsRegistry::Default().GetCounter("sarn.serve.requests"),
        obs::MetricsRegistry::Default().GetCounter("sarn.serve.errors"),
        obs::MetricsRegistry::Default().GetCounter("sarn.serve.batches"),
        obs::MetricsRegistry::Default().GetCounter("sarn.serve.cache_hits"),
        obs::MetricsRegistry::Default().GetCounter("sarn.serve.cache_misses"),
        obs::MetricsRegistry::Default().GetCounter("sarn.serve.swaps"),
        obs::MetricsRegistry::Default().GetHistogram("sarn.serve.batch_size",
                                                     BatchSizeBuckets()),
        obs::MetricsRegistry::Default().GetHistogram("sarn.serve.latency_seconds"),
        obs::MetricsRegistry::Default().GetGauge("sarn.serve.epoch"),
        obs::MetricsRegistry::Default().GetGauge("sarn.serve.index_bytes"),
        obs::MetricsRegistry::Default().GetGauge("sarn.serve.simd_tier"),
        {
            &obs::MetricsRegistry::Default().GetHistogram(
                "sarn.serve.stage.admission_seconds"),
            &obs::MetricsRegistry::Default().GetHistogram(
                "sarn.serve.stage.queue_seconds"),
            &obs::MetricsRegistry::Default().GetHistogram(
                "sarn.serve.stage.cache_seconds"),
            &obs::MetricsRegistry::Default().GetHistogram(
                "sarn.serve.stage.scan_seconds"),
            &obs::MetricsRegistry::Default().GetHistogram(
                "sarn.serve.stage.reply_seconds"),
        },
    };
    return metrics;
  }
};

// Canonical cache key: (epoch, metric, precision, k, query payload).
// By-point requests resolve to a row id first, so they share cache entries
// with by-id requests for the same segment. Precision is part of the key so
// a float and a quantized snapshot can never alias an entry (approximate
// int8 answers must not satisfy exact float lookups or vice versa).
std::string CacheKey(uint64_t epoch, tasks::IndexMetric metric,
                     tasks::IndexPrecision precision, int k,
                     const tasks::IndexQuery& query) {
  std::string key;
  key.reserve(48 + query.vector.size() * sizeof(float));
  key.append(std::to_string(epoch));
  key.push_back('|');
  key.push_back(metric == tasks::IndexMetric::kCosine ? 'c' : 'l');
  key.push_back(precision == tasks::IndexPrecision::kInt8 ? 'q' : 'f');
  key.push_back('|');
  key.append(std::to_string(k));
  key.push_back('|');
  if (query.id >= 0) {
    key.push_back('i');
    key.append(std::to_string(query.id));
  } else {
    key.push_back('v');
    key.append(reinterpret_cast<const char*>(query.vector.data()),
               query.vector.size() * sizeof(float));
  }
  return key;
}

}  // namespace

QueryEngine::QueryEngine(std::shared_ptr<const tasks::EmbeddingIndex> index,
                         std::shared_ptr<const geo::SpatialIndex> locator,
                         ServeOptions options)
    : options_(options),
      locator_(std::move(locator)),
      cache_(options.cache_capacity),
      latency_seconds_(obs::DefaultLatencyBuckets()),
      tracer_(options.trace_sample_every) {
  SARN_CHECK(index != nullptr);
  SARN_CHECK_GT(options_.max_batch, 0);
  for (int s = 0; s < obs::kRequestStageCount; ++s) {
    stage_seconds_[s] =
        std::make_unique<obs::Histogram>(obs::DefaultLatencyBuckets());
  }
  auto snapshot = std::make_shared<Snapshot>();
  snapshot->epoch = next_epoch_;
  snapshot->index = std::move(index);
  snapshot_ = std::move(snapshot);
  ServeMetrics::Get().epoch.Set(static_cast<double>(next_epoch_));
  ServeMetrics::Get().index_bytes.Set(
      static_cast<double>(snapshot_->index->index_bytes()));
  ServeMetrics::Get().simd_tier.Set(
      static_cast<double>(tensor::simd::ActiveTier()));
  for (int i = 0; i < options_.threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

QueryEngine::~QueryEngine() {
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    stop_ = true;
  }
  queue_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

std::shared_ptr<const QueryEngine::Snapshot> QueryEngine::AcquireSnapshot() const {
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  return snapshot_;
}

uint64_t QueryEngine::epoch() const { return AcquireSnapshot()->epoch; }

uint64_t QueryEngine::Publish(std::shared_ptr<const tasks::EmbeddingIndex> index) {
  SARN_CHECK(index != nullptr);
  auto snapshot = std::make_shared<Snapshot>();
  snapshot->index = std::move(index);
  const size_t index_bytes = snapshot->index->index_bytes();
  uint64_t published_epoch = 0;
  {
    std::lock_guard<std::mutex> lock(snapshot_mu_);
    snapshot->epoch = published_epoch = ++next_epoch_;
    snapshot_ = std::move(snapshot);
  }
  // Epoch-keyed entries can no longer be hit; drop them so they do not pin
  // memory until they age out of the LRU.
  cache_.Clear();
  swaps_.fetch_add(1, std::memory_order_relaxed);
  ServeMetrics::Get().swaps.Increment();
  ServeMetrics::Get().epoch.Set(static_cast<double>(published_epoch));
  ServeMetrics::Get().index_bytes.Set(static_cast<double>(index_bytes));
  return published_epoch;
}

std::future<ServeResponse> QueryEngine::Submit(ServeRequest request) {
  Pending pending;
  pending.ctx = tracer_.Admit();  // Stamps admit when this request is traced.
  requests_.fetch_add(1, std::memory_order_relaxed);
  ServeMetrics::Get().requests.Increment();
  pending.request = std::move(request);
  pending.admitted = std::chrono::steady_clock::now();
  std::future<ServeResponse> future = pending.promise.get_future();
  if (options_.threads == 0) {
    // Synchronous mode: the caller's thread is the batch of one.
    pending.ctx.MarkEnqueued();
    std::vector<Pending> batch;
    batch.push_back(std::move(pending));
    ExecuteBatch(std::move(batch));
    return future;
  }
  pending.ctx.MarkEnqueued();
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    queue_.push_back(std::move(pending));
  }
  queue_cv_.notify_one();
  return future;
}

ServeResponse QueryEngine::Query(ServeRequest request) {
  return Submit(std::move(request)).get();
}

void QueryEngine::WorkerLoop() {
  for (;;) {
    std::vector<Pending> batch = WaitBatch();
    if (batch.empty()) return;  // Stopping and the queue is drained.
    ExecuteBatch(std::move(batch));
  }
}

std::vector<QueryEngine::Pending> QueryEngine::WaitBatch() {
  const auto window = std::chrono::duration_cast<std::chrono::steady_clock::duration>(
      std::chrono::duration<double, std::milli>(options_.batch_window_ms));
  std::unique_lock<std::mutex> lock(queue_mu_);
  queue_cv_.wait(lock, [&] { return stop_ || !queue_.empty(); });
  if (queue_.empty()) return {};
  // Wait for the batch to fill, but never past the oldest request's
  // deadline; stopping flushes immediately.
  const auto deadline = queue_.front().admitted + window;
  while (static_cast<int>(queue_.size()) < options_.max_batch && !stop_) {
    if (queue_cv_.wait_until(lock, deadline) == std::cv_status::timeout) break;
  }
  const size_t take = std::min(queue_.size(), static_cast<size_t>(options_.max_batch));
  std::vector<Pending> batch;
  batch.reserve(take);
  for (size_t i = 0; i < take; ++i) {
    batch.push_back(std::move(queue_.front()));
    queue_.pop_front();
  }
  return batch;
}

ServeResponse QueryEngine::Resolve(const ServeRequest& request,
                                   const Snapshot& snapshot,
                                   tasks::IndexQuery* query) const {
  ServeResponse response;
  response.epoch = snapshot.epoch;
  if (request.k < 0) {
    response.error = "k must be >= 0";
    return response;
  }
  switch (request.kind) {
    case ServeRequest::Kind::kById:
      if (request.id < 0 || request.id >= snapshot.index->size()) {
        response.error = "id " + std::to_string(request.id) + " out of range [0, " +
                         std::to_string(snapshot.index->size()) + ")";
        return response;
      }
      *query = tasks::IndexQuery::ById(request.id);
      break;
    case ServeRequest::Kind::kByVector:
      if (static_cast<int64_t>(request.vector.size()) != snapshot.index->dim()) {
        response.error = "vector has " + std::to_string(request.vector.size()) +
                         " dims, index has " + std::to_string(snapshot.index->dim());
        return response;
      }
      *query = tasks::IndexQuery::ByVector(request.vector);
      break;
    case ServeRequest::Kind::kByPoint: {
      if (locator_ == nullptr) {
        response.error = "lat/lng queries need a road network (serve --network)";
        return response;
      }
      std::optional<uint32_t> nearest = locator_->Nearest(request.point);
      if (!nearest.has_value()) {
        response.error = "no segment near the query point";
        return response;
      }
      if (static_cast<int64_t>(*nearest) >= snapshot.index->size()) {
        response.error = "nearest segment " + std::to_string(*nearest) +
                         " is outside the embedding table";
        return response;
      }
      *query = tasks::IndexQuery::ById(static_cast<int64_t>(*nearest));
      break;
    }
  }
  response.ok = true;
  response.query_id = query->id;
  return response;
}

void QueryEngine::ExecuteBatch(std::vector<Pending> batch) {
  ServeMetrics& metrics = ServeMetrics::Get();
  // Queue stage ends here for every member of the batch.
  for (Pending& pending : batch) pending.ctx.MarkBatchFormed();
  const std::shared_ptr<const Snapshot> snapshot = AcquireSnapshot();
  batches_.fetch_add(1, std::memory_order_relaxed);
  batched_items_.fetch_add(batch.size(), std::memory_order_relaxed);
  metrics.batches.Increment();
  metrics.batch_size.Observe(static_cast<double>(batch.size()));

  struct Slot {
    ServeResponse response;
    tasks::IndexQuery query;
    std::string key;
    bool needs_scan = false;
  };
  std::vector<Slot> slots(batch.size());
  // Misses grouped by k: QueryBatch answers one k per scan, and real
  // traffic overwhelmingly shares one k per micro-batch.
  std::map<int, std::vector<size_t>> scan_groups;
  for (size_t i = 0; i < batch.size(); ++i) {
    Slot& slot = slots[i];
    const ServeRequest& request = batch[i].request;
    obs::RequestContext& ctx = batch[i].ctx;
    slot.response = Resolve(request, *snapshot, &slot.query);
    if (!slot.response.ok) {
      errors_.fetch_add(1, std::memory_order_relaxed);
      metrics.errors.Increment();
      // Disposed without a scan: collapse the scan stage to zero here so the
      // remaining wait (other slots' scans) lands in the reply stage.
      ctx.MarkScanBegin();
      ctx.MarkScanEnd();
      continue;
    }
    if (request.k == 0) {  // Valid, trivially empty; skip cache + scan.
      ctx.MarkScanBegin();
      ctx.MarkScanEnd();
      continue;
    }
    slot.key = CacheKey(snapshot->epoch, snapshot->index->metric(),
                        snapshot->index->precision(), request.k, slot.query);
    if (ResultCache::Value cached = cache_.Get(slot.key)) {
      slot.response.cache_hit = true;
      slot.response.neighbors = *cached;
      metrics.cache_hits.Increment();
      ctx.MarkCacheHit();
      ctx.MarkScanBegin();
      ctx.MarkScanEnd();
      continue;
    }
    metrics.cache_misses.Increment();
    slot.needs_scan = true;
    scan_groups[request.k].push_back(i);
  }

  for (const auto& [k, indices] : scan_groups) {
    std::vector<tasks::IndexQuery> queries;
    queries.reserve(indices.size());
    for (size_t i : indices) {
      queries.push_back(std::move(slots[i].query));
      batch[i].ctx.MarkScanBegin();
    }
    std::vector<std::vector<tasks::Neighbor>> results =
        snapshot->index->QueryBatch(queries, k);
    for (size_t j = 0; j < indices.size(); ++j) {
      Slot& slot = slots[indices[j]];
      batch[indices[j]].ctx.MarkScanEnd();
      slot.response.neighbors = std::move(results[j]);
      cache_.Put(slot.key, std::make_shared<const std::vector<tasks::Neighbor>>(
                               slot.response.neighbors));
    }
  }

  const auto now = std::chrono::steady_clock::now();
  for (size_t i = 0; i < batch.size(); ++i) {
    const double seconds =
        std::chrono::duration<double>(now - batch[i].admitted).count();
    obs::RequestContext& ctx = batch[i].ctx;
    const bool ok = slots[i].response.ok;
    if (!ctx.traced()) {
      latency_seconds_.Observe(seconds);
      metrics.latency_seconds.Observe(seconds);
    } else {
      // Traced request: close the timeline, feed the per-stage histograms,
      // and tag the latency buckets with this request id so statsz can join
      // a tail bucket back to the full timeline in the ring. All of it
      // happens *before* the promise resolves: once a client holds the
      // reply, its trace record is visible to statsz (no reply/record race).
      ctx.Finish(ok);
      const obs::RequestRecord& record = ctx.record();
      latency_seconds_.ObserveWithExemplar(seconds, record.id);
      metrics.latency_seconds.ObserveWithExemplar(seconds, record.id);
      for (int s = 0; s < obs::kRequestStageCount; ++s) {
        const double stage_seconds =
            static_cast<double>(
                record.StageNanos(static_cast<obs::RequestStage>(s))) *
            1e-9;
        stage_seconds_[s]->ObserveWithExemplar(stage_seconds, record.id);
        metrics.stages[s]->ObserveWithExemplar(stage_seconds, record.id);
      }
    }
    batch[i].promise.set_value(std::move(slots[i].response));
  }
}

ServeStats QueryEngine::Stats() const {
  ServeStats stats;
  stats.requests = requests_.load(std::memory_order_relaxed);
  stats.errors = errors_.load(std::memory_order_relaxed);
  stats.batches = batches_.load(std::memory_order_relaxed);
  stats.batched_items = batched_items_.load(std::memory_order_relaxed);
  stats.cache_hits = cache_.hits();
  stats.cache_misses = cache_.misses();
  stats.swaps = swaps_.load(std::memory_order_relaxed);
  const std::shared_ptr<const Snapshot> snapshot = AcquireSnapshot();
  stats.epoch = snapshot->epoch;
  stats.index_bytes = snapshot->index->index_bytes();
  stats.precision = tasks::PrecisionName(snapshot->index->precision());
  stats.simd_tier = tensor::simd::TierName(tensor::simd::ActiveTier());
  stats.uptime_seconds = uptime_.ElapsedSeconds();
  stats.qps = stats.uptime_seconds > 0.0
                  ? static_cast<double>(stats.requests) / stats.uptime_seconds
                  : 0.0;
  stats.mean_batch_size =
      stats.batches > 0 ? static_cast<double>(stats.batched_items) /
                              static_cast<double>(stats.batches)
                        : 0.0;
  stats.latency_p50_ms = latency_seconds_.Percentile(50) * 1e3;
  stats.latency_p95_ms = latency_seconds_.Percentile(95) * 1e3;
  stats.latency_p99_ms = latency_seconds_.Percentile(99) * 1e3;
  // Process-wide snapshot-load telemetry (src/snapshot/reader.cc) so one
  // stats line describes how the live index got here.
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Default();
  stats.snapshot_loads = registry.GetCounter("sarn.snapshot.loads").Value();
  stats.snapshot_load_errors =
      registry.GetCounter("sarn.snapshot.load_errors").Value();
  stats.snapshot_bytes =
      static_cast<uint64_t>(registry.GetGauge("sarn.snapshot.bytes").Value());
  stats.snapshot_mapped_bytes = static_cast<uint64_t>(
      registry.GetGauge("sarn.snapshot.mapped_bytes").Value());
  stats.snapshot_copied_bytes = static_cast<uint64_t>(
      registry.GetGauge("sarn.snapshot.copied_bytes").Value());
  stats.index_block_queries =
      registry.GetCounter("sarn.index.block_queries").Value();
  stats.index_tail_queries =
      registry.GetCounter("sarn.index.tail_queries").Value();
  return stats;
}

ServeTraceStats QueryEngine::TraceStats() const {
  ServeTraceStats stats;
  stats.enabled = tracer_.enabled();
  stats.sample_every = tracer_.sample_every();
  obs::RequestTracer::TraceSnapshot trace = tracer_.Snapshot();
  stats.admitted = trace.admitted;
  stats.traced = trace.traced;
  stats.traced_total_ms = static_cast<double>(trace.traced_total_ns) * 1e-6;
  stats.recent = std::move(trace.recent);
  stats.slowest = std::move(trace.slowest);

  double stage_total_ms = 0.0;
  stats.stages.reserve(obs::kRequestStageCount);
  for (int s = 0; s < obs::kRequestStageCount; ++s) {
    const obs::Histogram& histogram = *stage_seconds_[s];
    ServeTraceStats::StageStat stage;
    stage.stage = obs::RequestStageName(static_cast<obs::RequestStage>(s));
    stage.count = histogram.Count();
    stage.total_ms = histogram.Sum() * 1e3;
    stage.p50_ms = histogram.Percentile(50) * 1e3;
    stage.p95_ms = histogram.Percentile(95) * 1e3;
    stage.p99_ms = histogram.Percentile(99) * 1e3;
    // Tail exemplars: request ids from the highest occupied buckets.
    std::vector<uint64_t> counts = histogram.BucketCounts();
    std::vector<uint64_t> exemplars = histogram.BucketExemplars();
    for (size_t b = counts.size(); b-- > 0 && stage.exemplars.size() < 4;) {
      if (counts[b] > 0 && exemplars[b] != 0) {
        stage.exemplars.push_back(exemplars[b]);
      }
    }
    stage_total_ms += stage.total_ms;
    stats.stages.push_back(std::move(stage));
  }
  stats.attributed_fraction =
      stats.traced_total_ms > 0.0 ? stage_total_ms / stats.traced_total_ms : 1.0;
  return stats;
}

}  // namespace sarn::serve
