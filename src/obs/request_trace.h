// Request-scoped serve tracing: per-request stage timestamps recorded into a
// fixed ring of recent records, with tail retention for the slowest requests.
//
// Design (DESIGN.md §14): every admitted query gets a monotonically-assigned
// id from a RequestTracer. A uniform sample (1-in-sample_every) of requests is
// *traced*: the engine stamps a timeline of stage timestamps into a
// RequestContext as the query moves admit -> enqueue -> batch-form -> scan ->
// reply, and Finish() publishes the completed record. One mutex guards the
// tracer's shared state -- a ring of the kRingCapacity most recent records,
// the kSlowestCapacity slowest records ever seen (so the tail survives ring
// wrap-around) and the running sum of traced end-to-end nanoseconds -- and
// is taken once per published record and once per Snapshot(), so a snapshot
// always lists the newest records in publish order.
//
// The stage model telescopes: the five reported stages are consecutive
// timestamp deltas covering [admit, replied] with no gaps, so per-stage
// attribution sums to exactly the end-to-end latency by construction.
//
// Cost contract (mirrors trace.h): when tracing is disabled — sample_every=0
// or the context was sampled out — every RequestContext::Mark* call is a
// branch on a bool already in the object; the only shared-state touch on the
// sampled-out path is one relaxed fetch_add per request for id assignment.
// The mutex is taken only for traced requests (1 in 16 by default) and by
// statsz. Tracing never changes query results: it only reads the clock and
// writes tracer-owned memory (pinned by the serve bitwise-identity test).

#ifndef SARN_OBS_REQUEST_TRACE_H_
#define SARN_OBS_REQUEST_TRACE_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <utility>
#include <vector>

namespace sarn::obs {

/// The five named stages a traced request's latency is attributed to.
/// Values index RequestRecord::StageNanos.
enum class RequestStage {
  kAdmission = 0,  // admit -> enqueued: admission checks + queue push.
  kQueue = 1,      // enqueued -> batch_formed: waiting for a batch slot.
  kCache = 2,      // batch_formed -> scan_begin: resolve + cache lookup.
  kScan = 3,       // scan_begin -> scan_end: index scan (0 for cache hits).
  kReply = 4,      // scan_end -> replied: result copy + promise fulfilment.
};
inline constexpr int kRequestStageCount = 5;
const char* RequestStageName(RequestStage stage);

/// One completed traced request. Timestamps are monotonic-clock nanoseconds;
/// stages telescope: admit <= enqueued <= batch_formed <= scan_begin <=
/// scan_end <= replied, so StageNanos sums exactly to TotalNanos.
struct RequestRecord {
  uint64_t id = 0;
  uint64_t admit_ns = 0;
  uint64_t enqueued_ns = 0;
  uint64_t batch_formed_ns = 0;
  uint64_t scan_begin_ns = 0;
  uint64_t scan_end_ns = 0;
  uint64_t replied_ns = 0;
  bool cache_hit = false;
  bool ok = true;  // False when the request resolved to an error reply.

  uint64_t TotalNanos() const { return replied_ns - admit_ns; }
  uint64_t StageNanos(RequestStage stage) const;
};

class RequestTracer;

/// Per-request handle stamped by the serve path. Movable, not copyable.
/// Default-constructed or sampled-out contexts are inert: Mark*/Finish are a
/// single predictable branch. Stamping order must follow the stage model;
/// Finish() fills any unstamped trailing timestamps from the reply time (an
/// error rejected at admission still telescopes — its scan stage is 0).
class RequestContext {
 public:
  RequestContext() = default;
  RequestContext(RequestContext&& other) noexcept { *this = std::move(other); }
  RequestContext& operator=(RequestContext&& other) noexcept {
    record_ = other.record_;
    tracer_ = other.tracer_;
    traced_ = other.traced_;
    other.tracer_ = nullptr;
    other.traced_ = false;
    return *this;
  }
  RequestContext(const RequestContext&) = delete;
  RequestContext& operator=(const RequestContext&) = delete;

  /// The request id (assigned even when sampled out; 0 for a
  /// default-constructed context).
  uint64_t id() const { return record_.id; }
  /// True when this request's timeline is being recorded.
  bool traced() const { return traced_; }
  /// The timeline as stamped so far (complete right after Finish(), which
  /// the serve path uses to feed the per-stage histograms).
  const RequestRecord& record() const { return record_; }

  void MarkEnqueued() {
    if (traced_) record_.enqueued_ns = Now();
  }
  void MarkBatchFormed() {
    if (traced_) record_.batch_formed_ns = Now();
  }
  void MarkScanBegin() {
    if (traced_) record_.scan_begin_ns = Now();
  }
  void MarkScanEnd() {
    if (traced_) record_.scan_end_ns = Now();
  }
  void MarkCacheHit() {
    if (traced_) record_.cache_hit = true;
  }

  /// Stamps the reply time, back-fills unstamped timestamps so stages
  /// telescope, publishes the record to the tracer, and returns end-to-end
  /// nanoseconds (0 when untraced). Idempotent via the traced_ flag.
  uint64_t Finish(bool ok);

 private:
  friend class RequestTracer;
  static uint64_t Now();

  RequestRecord record_;
  RequestTracer* tracer_ = nullptr;
  bool traced_ = false;
};

/// Owns the ring of recent records + slowest-N table. One per QueryEngine
/// (serve) — the instance is engine-owned so hot-swapping an index never
/// resets ids. Thread-safe: Admit/publish are called from admission + worker
/// threads concurrently with Snapshot readers.
class RequestTracer {
 public:
  /// Recent traced records retained for statsz.
  static constexpr size_t kRingCapacity = 256;
  /// All-time-slowest traced records retained past ring wrap-around.
  static constexpr size_t kSlowestCapacity = 8;

  /// `sample_every` is the uniform sampling period: every sample_every-th
  /// admitted request is traced. 1 = trace everything, 0 = tracing disabled
  /// (Admit still assigns ids; contexts are inert).
  explicit RequestTracer(uint32_t sample_every);

  /// True when any request may be traced (sample_every > 0). A plain member
  /// read, so the disabled path touches no shared state.
  bool enabled() const { return sample_every_ != 0; }
  uint32_t sample_every() const { return sample_every_; }

  /// Assigns the next request id and decides sampling. The returned context
  /// has admit stamped when traced.
  RequestContext Admit();

  /// Point-in-time view for statsz: recent ring records (newest last, in
  /// publish order) and the slowest-N table (slowest first).
  struct TraceSnapshot {
    uint64_t admitted = 0;         // Requests admitted (ids assigned).
    uint64_t traced = 0;           // Requests whose timeline was recorded.
    uint64_t traced_total_ns = 0;  // Σ end-to-end over traced requests.
    std::vector<RequestRecord> recent;
    std::vector<RequestRecord> slowest;
  };
  TraceSnapshot Snapshot() const;

 private:
  friend class RequestContext;
  friend class RequestTracerTestPeer;  // Publishes fixed-timestamp records.

  void Publish(const RequestRecord& record);

  const uint32_t sample_every_;
  std::atomic<uint64_t> next_id_{1};

  mutable std::mutex mu_;
  // Guarded by mu_. Record i (0-based publish order) lives in
  // ring_[i % kRingCapacity].
  std::array<RequestRecord, kRingCapacity> ring_;
  uint64_t published_ = 0;
  uint64_t traced_total_ns_ = 0;
  std::vector<RequestRecord> slowest_;  // Sorted slowest-first.
};

}  // namespace sarn::obs

#endif  // SARN_OBS_REQUEST_TRACE_H_
