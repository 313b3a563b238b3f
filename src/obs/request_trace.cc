#include "obs/request_trace.h"

#include <algorithm>
#include <chrono>

namespace sarn::obs {

const char* RequestStageName(RequestStage stage) {
  switch (stage) {
    case RequestStage::kAdmission:
      return "admission";
    case RequestStage::kQueue:
      return "queue";
    case RequestStage::kCache:
      return "cache";
    case RequestStage::kScan:
      return "scan";
    case RequestStage::kReply:
      return "reply";
  }
  return "unknown";
}

uint64_t RequestRecord::StageNanos(RequestStage stage) const {
  switch (stage) {
    case RequestStage::kAdmission:
      return enqueued_ns - admit_ns;
    case RequestStage::kQueue:
      return batch_formed_ns - enqueued_ns;
    case RequestStage::kCache:
      return scan_begin_ns - batch_formed_ns;
    case RequestStage::kScan:
      return scan_end_ns - scan_begin_ns;
    case RequestStage::kReply:
      return replied_ns - scan_end_ns;
  }
  return 0;
}

uint64_t RequestContext::Now() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

uint64_t RequestContext::Finish(bool ok) {
  if (!traced_) return 0;
  traced_ = false;
  record_.ok = ok;
  record_.replied_ns = Now();
  // Back-fill timestamps the serve path never reached (admission rejection,
  // cache hit resolved before a scan) so the stage deltas telescope: an
  // unstamped stage collapses to zero rather than going negative.
  if (record_.enqueued_ns == 0) record_.enqueued_ns = record_.replied_ns;
  if (record_.batch_formed_ns < record_.enqueued_ns) {
    record_.batch_formed_ns = record_.enqueued_ns;
  }
  if (record_.scan_begin_ns < record_.batch_formed_ns) {
    record_.scan_begin_ns = record_.batch_formed_ns;
  }
  if (record_.scan_end_ns < record_.scan_begin_ns) {
    record_.scan_end_ns = record_.scan_begin_ns;
  }
  if (record_.replied_ns < record_.scan_end_ns) {
    record_.replied_ns = record_.scan_end_ns;
  }
  if (tracer_ != nullptr) tracer_->Publish(record_);
  return record_.TotalNanos();
}

RequestTracer::RequestTracer(uint32_t sample_every)
    : sample_every_(sample_every) {
  slowest_.reserve(kSlowestCapacity + 1);
}

RequestContext RequestTracer::Admit() {
  RequestContext ctx;
  uint64_t id = next_id_.fetch_add(1, std::memory_order_relaxed);
  ctx.record_.id = id;
  if (sample_every_ != 0 && (id % sample_every_) == 0) {
    ctx.traced_ = true;
    ctx.tracer_ = this;
    ctx.record_.admit_ns = RequestContext::Now();
  }
  return ctx;
}

void RequestTracer::Publish(const RequestRecord& record) {
  const uint64_t total = record.TotalNanos();
  std::lock_guard<std::mutex> lock(mu_);
  ring_[published_ % kRingCapacity] = record;
  ++published_;
  traced_total_ns_ += total;

  // Slowest-N tail retention: a record no slower than every entry of a full
  // table is dropped; otherwise it takes its place and the fastest leaves.
  auto pos = std::upper_bound(
      slowest_.begin(), slowest_.end(), total,
      [](uint64_t t, const RequestRecord& r) { return t > r.TotalNanos(); });
  if (pos == slowest_.end() && slowest_.size() == kSlowestCapacity) return;
  slowest_.insert(pos, record);
  if (slowest_.size() > kSlowestCapacity) slowest_.pop_back();
}

RequestTracer::TraceSnapshot RequestTracer::Snapshot() const {
  TraceSnapshot snapshot;
  std::lock_guard<std::mutex> lock(mu_);
  // Read under the lock, after every published record's id was assigned, so
  // admitted >= traced holds in every snapshot.
  snapshot.admitted = next_id_.load(std::memory_order_relaxed) - 1;
  snapshot.traced = published_;
  snapshot.traced_total_ns = traced_total_ns_;
  const uint64_t begin =
      published_ > kRingCapacity ? published_ - kRingCapacity : 0;
  snapshot.recent.reserve(static_cast<size_t>(published_ - begin));
  for (uint64_t i = begin; i < published_; ++i) {
    snapshot.recent.push_back(ring_[i % kRingCapacity]);
  }
  snapshot.slowest = slowest_;
  return snapshot;
}

}  // namespace sarn::obs
