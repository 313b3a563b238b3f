#include "obs/json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <system_error>

namespace sarn::obs {
namespace {

int HexValue(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

// The byte a one-character escape stands for; 0 for an invalid escape.
char Unescaped(char escape) {
  switch (escape) {
    case '"': return '"';
    case '\\': return '\\';
    case '/': return '/';
    case 'b': return '\b';
    case 'f': return '\f';
    case 'n': return '\n';
    case 'r': return '\r';
    case 't': return '\t';
    default: return 0;
  }
}

void AppendUtf8(uint32_t code, std::string* out) {
  static constexpr unsigned char kLead[] = {0x00, 0xC0, 0xE0, 0xF0};
  const int tail = code < 0x80 ? 0 : code < 0x800 ? 1 : code < 0x10000 ? 2 : 3;
  out->push_back(static_cast<char>(kLead[tail] | (code >> (6 * tail))));
  for (int i = tail - 1; i >= 0; --i) {
    out->push_back(static_cast<char>(0x80 | ((code >> (6 * i)) & 0x3F)));
  }
}

// Recursive-descent scanner over a string_view cursor: the one place that
// reads JSON character by character. Its string and number readers capture
// the value they read when given somewhere to put it. Depth-capped so a
// pathological input cannot blow the stack.
class Scanner {
 public:
  explicit Scanner(std::string_view text) : text_(text) {}

  bool Document(std::string* error) {
    SkipSpace();
    return Whole(Value(0), error);
  }

  bool FlatObject(FlatJsonObject* object, std::string* error) {
    object->members.clear();
    auto member = [&] {
      auto& [name, value] = object->members.emplace_back();
      return Name(&name) && FlatValue(&value);
    };
    SkipSpace();
    bool ok = !AtEnd() && Peek() == '{' ? Items('}', member) : Fail("expected object");
    return Whole(ok, error);
  }

 private:
  static constexpr int kMaxDepth = 128;

  // Completes a read that ended at pos_: only whitespace may follow.
  bool Whole(bool ok, std::string* error) {
    if (ok) {
      SkipSpace();
      if (pos_ == text_.size()) return true;
      Fail("trailing bytes after JSON value");
    }
    if (error != nullptr) {
      *error = message_.empty() ? "invalid JSON" : message_;
      *error += " (at byte " + std::to_string(pos_) + ")";
    }
    return false;
  }

  bool Fail(const char* message) {
    if (message_.empty()) message_ = message;
    return false;
  }

  bool AtEnd() const { return pos_ >= text_.size(); }
  char Peek() const { return text_[pos_]; }

  void SkipSpace() {
    while (!AtEnd() && (Peek() == ' ' || Peek() == '\t' || Peek() == '\n' ||
                        Peek() == '\r')) {
      ++pos_;
    }
  }

  bool Literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return Fail("bad literal");
    pos_ += word.size();
    return true;
  }

  // The four hex digits after the 'u' at pos_; leaves pos_ on the last one.
  bool Hex4(uint32_t* code) {
    *code = 0;
    for (int i = 0; i < 4; ++i) {
      ++pos_;
      const int digit = AtEnd() ? -1 : HexValue(Peek());
      if (digit < 0) return false;
      *code = *code * 16 + static_cast<uint32_t>(digit);
    }
    return true;
  }

  // The escape after the backslash at pos_, decoded onto *out when capturing;
  // leaves pos_ on its last character. A \u high surrogate joins a following
  // \u low surrogate; a lone surrogate half decodes to U+FFFD.
  bool Escape(std::string* out, bool* non_ascii_escape) {
    ++pos_;
    if (AtEnd()) return Fail("truncated escape");
    if (Peek() != 'u') {
      const char byte = Unescaped(Peek());
      if (byte == 0) return Fail("bad escape character");
      if (out != nullptr) out->push_back(byte);
      return true;
    }
    uint32_t code = 0;
    if (!Hex4(&code)) return Fail("bad \\u escape");
    if (out == nullptr) return true;
    if (code >= 0xD800 && code < 0xDC00 && text_.substr(pos_ + 1, 2) == "\\u") {
      const size_t high_end = pos_;
      pos_ += 2;
      uint32_t low = 0;
      if (Hex4(&low) && low >= 0xDC00 && low < 0xE000) {
        code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
      } else {
        pos_ = high_end;
      }
    }
    if (code >= 0xD800 && code < 0xE000) code = 0xFFFD;
    if (code > 0x7F && non_ascii_escape != nullptr) *non_ascii_escape = true;
    AppendUtf8(code, out);
    return true;
  }

  // A string; with `out`, also its decoded bytes (and whether any \u escape
  // decoded above U+007F).
  bool String(std::string* out = nullptr, bool* non_ascii_escape = nullptr) {
    if (AtEnd() || Peek() != '"') return Fail("expected string");
    ++pos_;
    if (out != nullptr) out->clear();
    size_t run = pos_;  // Start of the plain bytes not yet copied to *out.
    for (; !AtEnd(); ++pos_) {
      const unsigned char c = static_cast<unsigned char>(Peek());
      if (c == '"' || c == '\\') {
        if (out != nullptr) out->append(text_.substr(run, pos_ - run));
        if (c == '"') {
          ++pos_;
          return true;
        }
        if (!Escape(out, non_ascii_escape)) return false;
        run = pos_ + 1;
      } else if (c < 0x20) {
        return Fail("raw control character in string");
      }
    }
    return Fail("unterminated string");
  }

  bool Digits() {
    if (AtEnd() || !std::isdigit(static_cast<unsigned char>(Peek()))) {
      return Fail("expected digit");
    }
    while (!AtEnd() && std::isdigit(static_cast<unsigned char>(Peek()))) ++pos_;
    return true;
  }

  // A number; with `out`, also its value. A magnitude above double range
  // fails; one below it reads as a signed zero.
  bool Number(double* out = nullptr) {
    const size_t start = pos_;
    if (!AtEnd() && Peek() == '-') ++pos_;
    if (AtEnd()) return Fail("truncated number");
    if (Peek() == '0') {
      ++pos_;
    } else if (!Digits()) {
      return false;
    }
    if (!AtEnd() && Peek() == '.') {
      ++pos_;
      if (!Digits()) return Fail("bad fraction");
    }
    if (!AtEnd() && (Peek() == 'e' || Peek() == 'E')) {
      ++pos_;
      if (!AtEnd() && (Peek() == '+' || Peek() == '-')) ++pos_;
      if (!Digits()) return Fail("bad exponent");
    }
    if (out == nullptr) return true;
    const std::string_view span = text_.substr(start, pos_ - start);
    if (std::from_chars(span.data(), span.data() + span.size(), *out).ec ==
        std::errc::result_out_of_range) {
      // from_chars leaves *out unset here; strtod gives the signed zero or
      // infinity.
      *out = std::strtod(std::string(span).c_str(), nullptr);
      if (!std::isfinite(*out)) return Fail("number beyond double range");
    }
    return true;
  }

  bool Value(int depth) {
    if (depth > kMaxDepth) return Fail("nesting too deep");
    if (AtEnd()) return Fail("expected value");
    char c = Peek();
    if (c == '{') return Items('}', [&] { return Name() && Value(depth + 1); });
    if (c == '[') return Items(']', [&] { return Value(depth + 1); });
    if (c == '"') return String();
    if (c == 't') return Literal("true");
    if (c == 'f') return Literal("false");
    if (c == 'n') return Literal("null");
    if (c == '-' || std::isdigit(static_cast<unsigned char>(c))) return Number();
    return Fail("unexpected character");
  }

  // A flat object's member value: no object, and an array only of numbers.
  bool FlatValue(FlatJsonValue* value) {
    if (AtEnd()) return Fail("expected value");
    switch (Peek()) {
      case '{':
        return Fail("nested object in a flat object");
      case '[':
        value->type = FlatJsonValue::Type::kNumberArray;
        return Items(']', [&] { return Number(&value->numbers.emplace_back()); });
      case '"':
        value->type = FlatJsonValue::Type::kString;
        return String(&value->text, &value->non_ascii_escape);
      case 't':
        value->type = FlatJsonValue::Type::kBool;
        value->boolean = true;
        return Literal("true");
      case 'f':
        value->type = FlatJsonValue::Type::kBool;
        return Literal("false");
      case 'n':
        value->type = FlatJsonValue::Type::kNull;
        return Literal("null");
      default:
        value->type = FlatJsonValue::Type::kNumber;
        return Number(&value->number);
    }
  }

  // A member's name and the ':' after it.
  bool Name(std::string* name = nullptr) {
    if (!String(name)) return false;
    SkipSpace();
    if (AtEnd() || Peek() != ':') return Fail("expected ':'");
    ++pos_;
    SkipSpace();
    return true;
  }

  // The comma-separated items from the bracket at pos_ through `close`;
  // `item` reads one (an object member or an array element).
  template <typename Item>
  bool Items(char close, Item&& item) {
    ++pos_;  // The opening bracket.
    SkipSpace();
    if (!AtEnd() && Peek() == close) {
      ++pos_;
      return true;
    }
    for (;;) {
      SkipSpace();
      if (!item()) return false;
      SkipSpace();
      if (AtEnd()) {
        return Fail(close == '}' ? "unterminated object" : "unterminated array");
      }
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == close) {
        ++pos_;
        return true;
      }
      return Fail(close == '}' ? "expected ',' or '}'" : "expected ',' or ']'");
    }
  }

  std::string_view text_;
  size_t pos_ = 0;
  std::string message_;
};

}  // namespace

bool JsonValid(std::string_view text, std::string* error) {
  return Scanner(text).Document(error);
}

const FlatJsonValue* FlatJsonObject::Find(std::string_view name) const {
  for (auto it = members.rbegin(); it != members.rend(); ++it) {
    if (it->first == name) return &it->second;
  }
  return nullptr;
}

bool ReadFlatJsonObject(std::string_view text, FlatJsonObject* object,
                        std::string* error) {
  return Scanner(text).FlatObject(object, error);
}

bool JsonLinesValid(std::string_view text, std::string* error) {
  size_t line_start = 0;
  int line_number = 1;
  while (line_start <= text.size()) {
    size_t line_end = text.find('\n', line_start);
    if (line_end == std::string_view::npos) line_end = text.size();
    std::string_view line = text.substr(line_start, line_end - line_start);
    bool blank = line.find_first_not_of(" \t\r") == std::string_view::npos;
    if (!blank && !JsonValid(line, error)) {
      if (error != nullptr) {
        *error = "line " + std::to_string(line_number) + ": " + *error;
      }
      return false;
    }
    if (line_end == text.size()) break;
    line_start = line_end + 1;
    ++line_number;
  }
  return true;
}

void JsonEscape(std::string_view value, std::string* out) {
  for (unsigned char c : value) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\r':
        *out += "\\r";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        if (c < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
          *out += buffer;
        } else {
          *out += static_cast<char>(c);
        }
    }
  }
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.9g", value);
  return buffer;
}

}  // namespace sarn::obs
