// Small helpers shared by the perfbench_tool subcommands: `--name value`
// flags, order statistics and a flat JSON object writer for results.

#ifndef PERFBENCH_TOOL_UTIL_H_
#define PERFBENCH_TOOL_UTIL_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

namespace perfbench {

/// `--name value` pairs; every lookup of a missing required flag throws.
class Flags {
 public:
  Flags(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
        throw std::runtime_error("bad argument " + key);
      }
      values_[key.substr(2)] = argv[++i];
    }
  }
  std::string Str(const std::string& name) const {
    auto it = values_.find(name);
    if (it == values_.end()) throw std::runtime_error("missing --" + name);
    return it->second;
  }
  std::string Str(const std::string& name, const std::string& fallback) const {
    auto it = values_.find(name);
    return it == values_.end() ? fallback : it->second;
  }
  double Num(const std::string& name) const { return std::stod(Str(name)); }
  double Num(const std::string& name, double fallback) const {
    auto it = values_.find(name);
    return it == values_.end() ? fallback : std::stod(it->second);
  }
  std::vector<std::string> List(const std::string& name) const {
    std::vector<std::string> out;
    std::string text = Str(name, "");
    size_t start = 0;
    while (start < text.size()) {
      size_t comma = text.find(',', start);
      if (comma == std::string::npos) comma = text.size();
      if (comma > start) out.push_back(text.substr(start, comma - start));
      start = comma + 1;
    }
    return out;
  }

 private:
  std::map<std::string, std::string> values_;
};

/// Nearest-rank quantile (q in [0, 1]) of an unsorted sample; 0 when empty.
inline double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(values.size())));
  rank = std::clamp<size_t>(rank, 1, values.size());
  return values[rank - 1];
}

inline double Median(const std::vector<double>& values) { return Quantile(values, 0.5); }

/// Writes one flat JSON object of numbers, strings and raw JSON fragments.
class JsonOut {
 public:
  JsonOut& Num(const std::string& key, double value) {
    char buffer[64];
    if (std::isfinite(value)) {
      std::snprintf(buffer, sizeof(buffer), "%.17g", value);
    } else {
      std::snprintf(buffer, sizeof(buffer), "null");
    }
    return Raw(key, buffer);
  }
  JsonOut& Str(const std::string& key, const std::string& value) {
    std::string quoted = "\"";
    for (char c : value) {
      if (c == '"' || c == '\\') {
        quoted += '\\';
        quoted += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        quoted += ' ';
      } else {
        quoted += c;
      }
    }
    return Raw(key, quoted + "\"");
  }
  JsonOut& Bool(const std::string& key, bool value) { return Raw(key, value ? "true" : "false"); }
  JsonOut& Raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "" : ",");
    body_ += "\"" + key + "\":" + json;
    return *this;
  }
  std::string Text() const { return "{" + body_ + "}"; }
  bool WriteFile(const std::string& path) const {
    std::ofstream out(path);
    out << Text() << "\n";
    return static_cast<bool>(out);
  }

 private:
  std::string body_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TOOL_UTIL_H_
