// In-memory span recorder for the benchmark's traced run.
//
// Spans are recorded from the benchmark's own code around calls into the
// program's public functions (the program itself is not instrumented). Each
// span keeps its name, start, end and parent; the recorder writes them out as
// a Chrome trace when the run ends and folds them into self time per module,
// where a span's module is its name up to the first '.'.

#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;  // Index into the recorder's spans, -1 for a root.
};

class SpanRecorder {
 public:
  /// A disabled recorder records nothing; the benchmark runs the same loops
  /// with a disabled recorder to measure tracing overhead.
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  /// RAII span: opens on construction under the innermost open span.
  class Scope {
   public:
    Scope(SpanRecorder& recorder, std::string name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder& recorder_;
    int id_ = -1;
  };

  /// Durations (ms) of every closed span with this exact name.
  std::vector<double> DurationsMs(const std::string& name) const;

  /// Self time (ms) summed per module: each span's duration minus the part
  /// its direct children cover.
  std::map<std::string, double> SelfMsByModule() const;

  /// Chrome trace-event JSON ("X" events, microseconds).
  bool WriteChromeTrace(const std::string& path) const;

  static int64_t NowNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
