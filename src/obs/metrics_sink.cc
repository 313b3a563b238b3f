#include "obs/metrics_sink.h"

#include "common/logging.h"
#include "obs/json.h"
#include "obs/metrics.h"

namespace sarn::obs {
namespace {

void AppendField(std::string* json, const char* key, const std::string& value,
                 bool* first) {
  if (!*first) *json += ",";
  *first = false;
  *json += "\"";
  *json += key;
  *json += "\":";
  *json += value;
}

std::string NumberArray(const std::vector<double>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ",";
    out += JsonNumber(values[i]);
  }
  out += "]";
  return out;
}

std::string Quoted(std::string_view value) {
  std::string out = "\"";
  JsonEscape(value, &out);
  out += "\"";
  return out;
}

}  // namespace

const char* CheckpointActionName(CheckpointEvent::Action action) {
  switch (action) {
    case CheckpointEvent::Action::kWritten:
      return "written";
    case CheckpointEvent::Action::kWriteFailed:
      return "write_failed";
    case CheckpointEvent::Action::kSkippedCorrupt:
      return "skipped_corrupt";
    case CheckpointEvent::Action::kSkippedMismatch:
      return "skipped_mismatch";
    case CheckpointEvent::Action::kResumedFrom:
      return "resumed_from";
  }
  return "?";
}

std::string EpochRecordToJson(const EpochRecord& record) {
  std::string json = "{";
  bool first = true;
  AppendField(&json, "event", Quoted("epoch"), &first);
  AppendField(&json, "run", Quoted(record.run), &first);
  AppendField(&json, "epoch", std::to_string(record.epoch), &first);
  AppendField(&json, "loss", JsonNumber(record.loss), &first);
  AppendField(&json, "grad_norm", JsonNumber(record.grad_norm), &first);
  AppendField(&json, "lr", JsonNumber(record.learning_rate), &first);
  AppendField(&json, "batches", std::to_string(record.batches), &first);
  AppendField(&json, "epoch_seconds", JsonNumber(record.epoch_seconds), &first);
  AppendField(&json, "resumed", record.resumed ? "true" : "false", &first);

  std::string phases = "{";
  bool phases_first = true;
  for (const auto& [name, seconds] : record.phase_seconds) {
    AppendField(&phases, name.c_str(), JsonNumber(seconds), &phases_first);
  }
  phases += "}";
  AppendField(&json, "phases", phases, &first);

  if (record.queue_stored >= 0) {
    std::string queue = "{";
    bool queue_first = true;
    AppendField(&queue, "stored", std::to_string(record.queue_stored), &queue_first);
    AppendField(&queue, "nonempty_cells", std::to_string(record.queue_nonempty_cells),
                &queue_first);
    AppendField(&queue, "pushes", std::to_string(record.queue_pushes), &queue_first);
    AppendField(&queue, "evictions", std::to_string(record.queue_evictions),
                &queue_first);
    queue += "}";
    AppendField(&json, "queue", queue, &first);
  }

  std::string checkpoint = "{";
  bool ckpt_first = true;
  AppendField(&checkpoint, "bytes", std::to_string(record.checkpoint_bytes),
              &ckpt_first);
  AppendField(&checkpoint, "seconds", JsonNumber(record.checkpoint_seconds),
              &ckpt_first);
  checkpoint += "}";
  AppendField(&json, "checkpoint", checkpoint, &first);

  std::string pool = "{";
  bool pool_first = true;
  AppendField(&pool, "regions", std::to_string(record.pool_regions), &pool_first);
  AppendField(&pool, "serial_regions", std::to_string(record.pool_serial_regions),
              &pool_first);
  AppendField(&pool, "chunks", std::to_string(record.pool_chunks), &pool_first);
  AppendField(&pool, "items", std::to_string(record.pool_items), &pool_first);
  AppendField(&pool, "idle_seconds", JsonNumber(record.pool_idle_seconds),
              &pool_first);
  pool += "}";
  AppendField(&json, "pool", pool, &first);
  AppendField(&json, "pool_misses", std::to_string(record.pool_misses), &first);

  if (!record.halo.empty()) {
    std::string halo = "{";
    bool halo_first = true;
    AppendField(&halo, "n", std::to_string(record.halo_vertices), &halo_first);
    for (const EpochRecord::HaloBranch& branch : record.halo) {
      std::string block = "{";
      bool block_first = true;
      AppendField(&block, "rows", NumberArray(branch.rows), &block_first);
      AppendField(&block, "edges", NumberArray(branch.edges), &block_first);
      block += "}";
      AppendField(&halo, branch.name.c_str(), block, &halo_first);
    }
    halo += "}";
    AppendField(&json, "halo", halo, &first);
  }

  json += "}";
  return json;
}

const char* SloBurnKindName(SloBurnEvent::Kind kind) {
  switch (kind) {
    case SloBurnEvent::Kind::kBreach:
      return "breach";
    case SloBurnEvent::Kind::kRecovered:
      return "recovered";
  }
  return "?";
}

std::string SloBurnEventToJson(const SloBurnEvent& event) {
  std::string json = "{";
  bool first = true;
  AppendField(&json, "event", Quoted("slo"), &first);
  AppendField(&json, "kind", Quoted(SloBurnKindName(event.kind)), &first);
  AppendField(&json, "metric", Quoted(event.metric), &first);
  AppendField(&json, "budget_ms", JsonNumber(event.budget_ms), &first);
  AppendField(&json, "p99_ms", JsonNumber(event.p99_ms), &first);
  AppendField(&json, "window_seconds", JsonNumber(event.window_seconds), &first);
  AppendField(&json, "window_count", std::to_string(event.window_count), &first);
  json += "}";
  return json;
}

std::string CheckpointEventToJson(const CheckpointEvent& event) {
  std::string json = "{";
  bool first = true;
  AppendField(&json, "event", Quoted("checkpoint"), &first);
  AppendField(&json, "action", Quoted(CheckpointActionName(event.action)), &first);
  AppendField(&json, "path", Quoted(event.path), &first);
  AppendField(&json, "epoch", std::to_string(event.epoch), &first);
  AppendField(&json, "bytes", std::to_string(event.bytes), &first);
  AppendField(&json, "seconds", JsonNumber(event.seconds), &first);
  if (!event.detail.empty()) {
    AppendField(&json, "detail", Quoted(event.detail), &first);
  }
  json += "}";
  return json;
}

JsonlMetricsSink::JsonlMetricsSink(const std::string& path)
    : out_(path, std::ios::app) {
  if (!out_.is_open()) {
    SARN_LOG(Error) << "cannot open metrics file " << path << " for append";
  }
}

void JsonlMetricsSink::WriteLine(const std::string& line) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!out_.is_open()) return;
  out_ << line << "\n";
  out_.flush();  // One line per epoch: durability beats batching here.
}

void JsonlMetricsSink::OnEpoch(const EpochRecord& record) {
  WriteLine(EpochRecordToJson(record));
}

void JsonlMetricsSink::OnCheckpoint(const CheckpointEvent& event) {
  WriteLine(CheckpointEventToJson(event));
}

void JsonlMetricsSink::OnSlo(const SloBurnEvent& event) {
  WriteLine(SloBurnEventToJson(event));
}

void JsonlMetricsSink::Flush() {
  std::lock_guard<std::mutex> lock(mu_);
  if (out_.is_open()) out_.flush();
}

void RecordCheckpointEvent(MetricsSink* sink, const CheckpointEvent& event) {
  const char* action = CheckpointActionName(event.action);
  MetricsRegistry& registry = MetricsRegistry::Default();
  registry.GetCounter(std::string("sarn.checkpoint.") + action).Increment();
  switch (event.action) {
    case CheckpointEvent::Action::kWritten:
      registry.GetCounter("sarn.checkpoint.bytes_written")
          .Increment(static_cast<uint64_t>(event.bytes));
      registry.GetHistogram("sarn.checkpoint.write_seconds").Observe(event.seconds);
      SARN_LOG(Info) << "checkpoint action=written path=" << event.path
                     << " epoch=" << event.epoch << " bytes=" << event.bytes
                     << " seconds=" << event.seconds;
      break;
    case CheckpointEvent::Action::kWriteFailed:
      SARN_LOG(Error) << "checkpoint action=write_failed path=" << event.path
                      << " epoch=" << event.epoch << " detail=" << event.detail;
      break;
    case CheckpointEvent::Action::kSkippedCorrupt:
      SARN_LOG(Warning) << "checkpoint action=skipped_corrupt path=" << event.path
                        << " detail=" << event.detail;
      break;
    case CheckpointEvent::Action::kSkippedMismatch:
      SARN_LOG(Warning) << "checkpoint action=skipped_mismatch path=" << event.path
                        << " detail=" << event.detail;
      break;
    case CheckpointEvent::Action::kResumedFrom:
      SARN_LOG(Info) << "checkpoint action=resumed_from path=" << event.path
                     << " epoch=" << event.epoch << " bytes=" << event.bytes;
      break;
  }
  if (sink != nullptr) sink->OnCheckpoint(event);
}

}  // namespace sarn::obs
