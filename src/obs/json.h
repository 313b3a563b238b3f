// The repo's one RFC 8259 JSON grammar, without a DOM or a JSON library.
// One scanner serves two readers: JsonValid checks that exported telemetry
// (Chrome traces, JSONL metrics files, `sarn check-json`) is well-formed,
// and ReadFlatJsonObject reads the flat request objects of `sarn serve`
// (serve/protocol.h), so a line the server accepts is always valid JSON.

#ifndef SARN_OBS_JSON_H_
#define SARN_OBS_JSON_H_

#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace sarn::obs {

/// True when `text` is exactly one valid JSON value (leading/trailing
/// whitespace allowed). On failure, `*error` (if non-null) describes the
/// first problem with its byte offset.
bool JsonValid(std::string_view text, std::string* error = nullptr);

/// One member value of a flat JSON object.
struct FlatJsonValue {
  enum class Type { kNumber, kString, kBool, kNull, kNumberArray };
  Type type = Type::kNull;
  double number = 0.0;            // kNumber.
  bool boolean = false;           // kBool.
  std::string text;               // kString, escapes decoded (\u to UTF-8).
  bool non_ascii_escape = false;  // kString: a \u escape above U+007F.
  std::vector<double> numbers;    // kNumberArray.
};

/// The members of a flat JSON object in input order.
struct FlatJsonObject {
  std::vector<std::pair<std::string, FlatJsonValue>> members;

  /// The value of the last member called `name` (a repeated name keeps its
  /// last value, as JSON.parse does); nullptr when there is none.
  const FlatJsonValue* Find(std::string_view name) const;
};

/// Reads `text` as one JSON object (leading/trailing whitespace allowed)
/// whose member values are strings, numbers, booleans, null or arrays of
/// numbers. The grammar is JsonValid's; on top of it a nested object, an
/// array holding anything but numbers, and a number beyond double range are
/// errors. Numbers round correctly to the nearest double. On failure,
/// `*error` (if non-null) is set as by JsonValid.
bool ReadFlatJsonObject(std::string_view text, FlatJsonObject* object,
                        std::string* error = nullptr);

/// True when every non-empty line of `text` is a valid JSON value — the
/// JSON-Lines shape of the metrics file. Empty input is valid (zero records).
bool JsonLinesValid(std::string_view text, std::string* error = nullptr);

/// Appends `value` to `out` with JSON string escaping ("quotes", backslash,
/// control characters), without the surrounding quotes.
void JsonEscape(std::string_view value, std::string* out);

/// Formats a double as a JSON number; non-finite values become null (JSON
/// has no NaN/Infinity).
std::string JsonNumber(double value);

}  // namespace sarn::obs

#endif  // SARN_OBS_JSON_H_
