// Per-epoch training telemetry records and the sinks that persist them.
//
// Trainers (SarnModel::Train, TrainGraphCl) fill one EpochRecord per
// completed epoch and hand it to the configured MetricsSink; checkpoint
// lifecycle actions (written / skipped-corrupt / resumed-from / failed) flow
// through RecordCheckpointEvent, which emits a structured log line, bumps
// the default metrics registry, and forwards to the sink.
//
// JsonlMetricsSink appends one JSON object per record to a file. It opens in
// append mode, so a killed-and-resumed training run keeps writing to the
// same file and the epoch series stays continuous (restored epochs are not
// re-emitted — their lines are already in the file).

#ifndef SARN_OBS_METRICS_SINK_H_
#define SARN_OBS_METRICS_SINK_H_

#include <chrono>
#include <cstdint>
#include <fstream>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace sarn::obs {

/// Adds the scope's wall time (seconds) to an accumulator on destruction;
/// trainers use one per phase per batch to build EpochRecord::phase_seconds.
class ScopedPhaseTimer {
 public:
  explicit ScopedPhaseTimer(double* accumulator)
      : accumulator_(accumulator), begin_(std::chrono::steady_clock::now()) {}
  ~ScopedPhaseTimer() {
    *accumulator_ +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() - begin_)
            .count();
  }
  ScopedPhaseTimer(const ScopedPhaseTimer&) = delete;
  ScopedPhaseTimer& operator=(const ScopedPhaseTimer&) = delete;

 private:
  double* accumulator_;
  std::chrono::steady_clock::time_point begin_;
};

struct EpochRecord {
  std::string run = "sarn";  // Trainer id: "sarn", "graphcl", ...
  int epoch = 0;             // 0-based index of the epoch just completed.
  double loss = 0.0;
  double grad_norm = 0.0;  // Mean per-batch gradient L2 norm.
  double learning_rate = 0.0;
  int batches = 0;
  double epoch_seconds = 0.0;
  bool resumed = false;  // Epoch ran in a call that resumed from a checkpoint.

  /// Wall-time breakdown of the epoch (augmentation, gat_forward, ...).
  std::vector<std::pair<std::string, double>> phase_seconds;

  // Negative-queue state after the epoch (-1 when the trainer has none).
  int64_t queue_stored = -1;
  int64_t queue_nonempty_cells = -1;
  uint64_t queue_pushes = 0;     // Cumulative Push calls.
  uint64_t queue_evictions = 0;  // Cumulative FIFO evictions.

  // Checkpoint write of this epoch (zeros when none was written).
  int64_t checkpoint_bytes = 0;
  double checkpoint_seconds = 0.0;

  // Thread-pool activity during the epoch (deltas of the global stats).
  uint64_t pool_regions = 0;
  uint64_t pool_serial_regions = 0;  // Regions that ran inline on the caller.
  uint64_t pool_chunks = 0;
  uint64_t pool_items = 0;
  double pool_idle_seconds = 0.0;

  // Buffer-pool misses (global-allocator calls for tensor storage) during
  // the epoch; 0 in steady state.
  uint64_t pool_misses = 0;

  // Receptive-field step sizes (DESIGN.md §17), one entry per branch
  // ("online", "target"): mean rows per depth R_0 .. R_L and mean edges per
  // layer (self-loops included) over the epoch's batches, out of
  // `halo_vertices` rows. Not emitted when `halo` is empty.
  struct HaloBranch {
    std::string name;
    std::vector<double> rows;
    std::vector<double> edges;
  };
  int64_t halo_vertices = 0;
  std::vector<HaloBranch> halo;
};

struct CheckpointEvent {
  enum class Action {
    kWritten,         // A checkpoint file was published.
    kWriteFailed,     // Writing the checkpoint file returned an error.
    kSkippedCorrupt,  // A file failed validation during resume discovery.
    kSkippedMismatch, // A valid file did not match this model/config.
    kResumedFrom,     // Training state was restored from this file.
  };
  Action action = Action::kWritten;
  std::string path;
  int epoch = -1;        // Epoch count stored in / restored from the file.
  int64_t bytes = 0;     // File size (written/resumed), 0 otherwise.
  double seconds = 0.0;  // Save/load latency where measured.
  std::string detail;    // Error name/message for failures.
};

const char* CheckpointActionName(CheckpointEvent::Action action);

/// SLO watchdog evaluation outcome (src/obs/slo.h): one event per window
/// evaluation that crossed the budget in either direction — `breach` when the
/// windowed p99 first exceeds the budget, `recovered` when it drops back.
struct SloBurnEvent {
  enum class Kind { kBreach, kRecovered };
  Kind kind = Kind::kBreach;
  std::string metric;      // Histogram name the budget is evaluated on.
  double budget_ms = 0.0;  // Configured p99 budget.
  double p99_ms = 0.0;     // Windowed p99 at evaluation time.
  double window_seconds = 0.0;
  uint64_t window_count = 0;  // Samples inside the window.
};

const char* SloBurnKindName(SloBurnEvent::Kind kind);

class MetricsSink {
 public:
  virtual ~MetricsSink() = default;
  virtual void OnEpoch(const EpochRecord& record) = 0;
  virtual void OnCheckpoint(const CheckpointEvent& event) = 0;
  /// Default no-op so pre-existing sinks (tests, fakes) keep compiling.
  virtual void OnSlo(const SloBurnEvent& event) { (void)event; }
  virtual void Flush() {}
};

/// Serialises a record as a single-line JSON object (no trailing newline).
std::string EpochRecordToJson(const EpochRecord& record);
std::string CheckpointEventToJson(const CheckpointEvent& event);
std::string SloBurnEventToJson(const SloBurnEvent& event);

/// Appends one JSON line per record; thread-safe; flushes per line so a
/// crashed run keeps every completed epoch.
class JsonlMetricsSink : public MetricsSink {
 public:
  explicit JsonlMetricsSink(const std::string& path);

  /// False when the file could not be opened (records are then dropped).
  bool ok() const { return out_.is_open(); }

  void OnEpoch(const EpochRecord& record) override;
  void OnCheckpoint(const CheckpointEvent& event) override;
  void OnSlo(const SloBurnEvent& event) override;
  void Flush() override;

 private:
  void WriteLine(const std::string& line);

  std::mutex mu_;
  std::ofstream out_;
};

/// Structured checkpoint-lifecycle event: one log line
/// ("checkpoint action=written path=... epoch=..."), registry counters
/// ("sarn.checkpoint.<action>", bytes/latency instruments), and sink
/// forwarding. `sink` may be null.
void RecordCheckpointEvent(MetricsSink* sink, const CheckpointEvent& event);

}  // namespace sarn::obs

#endif  // SARN_OBS_METRICS_SINK_H_
