// Strict RFC 8259 JSON reader for checking `sarn serve` replies.
//
// The benchmark validates every reply line with its own parser rather than
// the program's (src/obs/json.h), so a defect in the program's emitter cannot
// hide behind the same defect in the checker.

#ifndef PERFBENCH_JSON_LITE_H_
#define PERFBENCH_JSON_LITE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string text;
  std::vector<JsonValue> items;
  std::vector<std::pair<std::string, JsonValue>> fields;

  /// Member lookup on an object; nullptr when absent or not an object.
  const JsonValue* Find(std::string_view key) const;
  bool IsNumber() const { return type == Type::kNumber; }
};

/// Parses one complete JSON text (surrounding whitespace allowed, nothing
/// else). On failure returns false and describes the first error.
bool ParseJson(std::string_view text, JsonValue* out, std::string* error);

/// What ScanReply pulls out of a `sarn serve` query reply.
struct ReplyFields {
  static constexpr int kMaxNeighbors = 64;
  int64_t seq = -1;  // -1 when absent or not a non-negative integer.
  int ok = -1;       // -1 absent, else 0 / 1.
  int64_t epoch = -1;
  int64_t id = -1;
  bool has_neighbors = false;
  int neighbor_count = 0;  // Entries beyond kMaxNeighbors are validated only.
  int64_t neighbor_id[kMaxNeighbors];
  double neighbor_score[kMaxNeighbors];
};

/// Validates one JSON text with the same grammar as ParseJson, without
/// building a tree, and extracts the top-level seq / ok / epoch / id fields
/// and the neighbors array. `want_scores` converts neighbour scores (the
/// costly part). Cheap enough to run on every reply as it arrives.
bool ScanReply(std::string_view text, bool want_scores, ReplyFields* out, std::string* error);

}  // namespace perfbench

#endif  // PERFBENCH_JSON_LITE_H_
