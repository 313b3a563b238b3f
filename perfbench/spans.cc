#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <fstream>

namespace perfbench {

SpanRecorder::Scope::Scope(SpanRecorder& recorder, std::string name)
    : recorder_(recorder) {
  if (!recorder_.enabled_) return;
  id_ = static_cast<int>(recorder_.spans_.size());
  Span span;
  span.name = std::move(name);
  span.parent = recorder_.open_.empty() ? -1 : recorder_.open_.back();
  span.start_ns = NowNs();
  recorder_.spans_.push_back(std::move(span));
  recorder_.open_.push_back(id_);
}

SpanRecorder::Scope::~Scope() {
  if (id_ < 0) return;
  recorder_.spans_[static_cast<size_t>(id_)].end_ns = NowNs();
  recorder_.open_.pop_back();
}

std::vector<double> SpanRecorder::DurationsMs(const std::string& name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (span.name == name && span.end_ns >= span.start_ns) {
      out.push_back(static_cast<double>(span.end_ns - span.start_ns) * 1e-6);
    }
  }
  return out;
}

std::map<std::string, double> SpanRecorder::SelfMsByModule() const {
  // Spans nest strictly (RAII on one thread), so children never overlap each
  // other and the covered part is the sum of the children's durations.
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) child_ns[static_cast<size_t>(span.parent)] += span.end_ns - span.start_ns;
  }
  std::map<std::string, double> self_ms;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::string module = span.name.substr(0, span.name.find('.'));
    self_ms[module] += static_cast<double>(span.end_ns - span.start_ns - child_ns[i]) * 1e-6;
  }
  return self_ms;
}

bool SpanRecorder::WriteChromeTrace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  for (const Span& span : spans_) origin = std::min(origin, span.start_ns);
  out << "{\"traceEvents\":[";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    char buffer[160];
    std::snprintf(buffer, sizeof(buffer),
                  "\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                  "\"args\":{\"id\":%zu,\"parent\":%d}}",
                  static_cast<double>(span.start_ns - origin) * 1e-3,
                  static_cast<double>(span.end_ns - span.start_ns) * 1e-3, i,
                  span.parent);
    out << (i == 0 ? "" : ",") << "{\"name\":\"" << span.name << "\"," << buffer;
  }
  out << "],\"displayTimeUnit\":\"ms\"}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
