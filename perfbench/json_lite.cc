#include "json_lite.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>

namespace perfbench {
namespace {

constexpr int kMaxDepth = 32;

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  bool ParseDocument(JsonValue* out) {
    SkipSpace();
    return ParseValue(out, 0) && AtEnd();
  }

  const std::string& error() const { return error_; }

  /// ScanReply's walk: the top-level object, with the fields it extracts.
  bool ScanTop(bool want_scores, ReplyFields* out) {
    SkipSpace();
    if (pos_ >= text_.size() || text_[pos_] != '{') return Fail("expected object");
    ++pos_;
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return AtEnd();
    }
    for (;;) {
      SkipSpace();
      std::string key;
      if (pos_ >= text_.size() || text_[pos_] != '"') return Fail("expected key");
      if (!ParseString(&key)) return false;
      SkipSpace();
      if (pos_ >= text_.size() || text_[pos_] != ':') return Fail("expected ':'");
      ++pos_;
      SkipSpace();
      bool ok = true;
      if (key == "seq" || key == "epoch" || key == "id") {
        int64_t* target = key == "seq" ? &out->seq : key == "epoch" ? &out->epoch : &out->id;
        ok = ScanInteger(target);
      } else if (key == "ok" && pos_ < text_.size() && (text_[pos_] == 't' || text_[pos_] == 'f')) {
        out->ok = text_[pos_] == 't';
        ok = Literal(out->ok ? "true" : "false");
      } else if (key == "neighbors" && pos_ < text_.size() && text_[pos_] == '[') {
        out->has_neighbors = true;
        ok = ScanNeighbors(want_scores, out);
      } else {
        ok = ParseValue(nullptr, 1);
      }
      if (!ok) return false;
      SkipSpace();
      if (pos_ < text_.size() && text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (pos_ < text_.size() && text_[pos_] == '}') {
        ++pos_;
        return AtEnd();
      }
      return Fail("expected ',' or '}'");
    }
  }

 private:
  bool Fail(const char* message) {
    if (error_.empty()) error_ = std::string(message) + " at byte " + std::to_string(pos_);
    return false;
  }

  bool AtEnd() {
    SkipSpace();
    if (pos_ != text_.size()) return Fail("trailing characters");
    return true;
  }

  // Any JSON value; when it is a number that is a non-negative integer it is
  // stored in *target, otherwise *target is -1.
  bool ScanInteger(int64_t* target) {
    *target = -1;
    if (pos_ >= text_.size() || (text_[pos_] != '-' && (text_[pos_] < '0' || text_[pos_] > '9'))) {
      return ParseValue(nullptr, 1);
    }
    std::string_view token;
    if (!ScanNumber(&token)) return false;
    if (token.size() > 15) return true;
    int64_t value = 0;
    for (char c : token) {
      if (c < '0' || c > '9') return true;
      value = value * 10 + (c - '0');
    }
    *target = value;
    return true;
  }

  // The neighbors array: objects whose "id" and "score" are kept.
  bool ScanNeighbors(bool want_scores, ReplyFields* out) {
    ++pos_;  // '['
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    for (;;) {
      SkipSpace();
      const int slot = out->neighbor_count++;
      const bool keep = slot < ReplyFields::kMaxNeighbors;
      if (keep) {
        out->neighbor_id[slot] = -1;
        out->neighbor_score[slot] = -9.0;
      }
      if (pos_ >= text_.size() || text_[pos_] != '{') {
        if (!ParseValue(nullptr, 2)) return false;
      } else {
        ++pos_;
        SkipSpace();
        bool first = true;
        while (!(pos_ < text_.size() && text_[pos_] == '}')) {
          if (!first) {
            if (pos_ >= text_.size() || text_[pos_] != ',') return Fail("expected ',' or '}'");
            ++pos_;
            SkipSpace();
          }
          first = false;
          std::string key;
          if (pos_ >= text_.size() || text_[pos_] != '"') return Fail("expected key");
          if (!ParseString(&key)) return false;
          SkipSpace();
          if (pos_ >= text_.size() || text_[pos_] != ':') return Fail("expected ':'");
          ++pos_;
          SkipSpace();
          if (keep && key == "id") {
            if (!ScanInteger(&out->neighbor_id[slot])) return false;
          } else if (keep && key == "score" && pos_ < text_.size() &&
                     (text_[pos_] == '-' || (text_[pos_] >= '0' && text_[pos_] <= '9'))) {
            std::string_view token;
            if (!ScanNumber(&token)) return false;
            if (want_scores) out->neighbor_score[slot] = ToDouble(token);
          } else if (!ParseValue(nullptr, 3)) {
            return false;
          }
          SkipSpace();
        }
        ++pos_;  // '}'
      }
      SkipSpace();
      if (pos_ < text_.size() && text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (pos_ < text_.size() && text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return Fail("expected ',' or ']'");
    }
  }

  void SkipSpace() {
    while (pos_ < text_.size() && (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                                   text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return Fail("bad literal");
    pos_ += word.size();
    return true;
  }

  // A null `out` validates without building anything.
  bool ParseValue(JsonValue* out, int depth) {
    if (depth > kMaxDepth) return Fail("nesting too deep");
    if (pos_ >= text_.size()) return Fail("expected value");
    const char c = text_[pos_];
    if (c == '{') return ParseObject(out, depth);
    if (c == '[') return ParseArray(out, depth);
    if (c == '"') {
      if (out != nullptr) out->type = JsonValue::Type::kString;
      return ParseString(out != nullptr ? &out->text : nullptr);
    }
    if (c == 't' || c == 'f') {
      if (out != nullptr) {
        out->type = JsonValue::Type::kBool;
        out->boolean = c == 't';
      }
      return Literal(c == 't' ? "true" : "false");
    }
    if (c == 'n') return Literal("null");  // kNull is the default type.
    std::string_view token;
    if (!ScanNumber(&token)) return false;
    if (out != nullptr) {
      out->type = JsonValue::Type::kNumber;
      out->number = ToDouble(token);
    }
    return true;
  }

  bool ParseObject(JsonValue* out, int depth) {
    if (out != nullptr) out->type = JsonValue::Type::kObject;
    ++pos_;  // '{'
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    for (;;) {
      SkipSpace();
      std::string key;
      if (pos_ >= text_.size() || text_[pos_] != '"') return Fail("expected key");
      if (!ParseString(out != nullptr ? &key : nullptr)) return false;
      SkipSpace();
      if (pos_ >= text_.size() || text_[pos_] != ':') return Fail("expected ':'");
      ++pos_;
      SkipSpace();
      JsonValue value;
      if (!ParseValue(out != nullptr ? &value : nullptr, depth + 1)) return false;
      if (out != nullptr) out->fields.emplace_back(std::move(key), std::move(value));
      SkipSpace();
      if (pos_ < text_.size() && text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (pos_ < text_.size() && text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return Fail("expected ',' or '}'");
    }
  }

  bool ParseArray(JsonValue* out, int depth) {
    if (out != nullptr) out->type = JsonValue::Type::kArray;
    ++pos_;  // '['
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    for (;;) {
      SkipSpace();
      JsonValue value;
      if (!ParseValue(out != nullptr ? &value : nullptr, depth + 1)) return false;
      if (out != nullptr) out->items.push_back(std::move(value));
      SkipSpace();
      if (pos_ < text_.size() && text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (pos_ < text_.size() && text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return Fail("expected ',' or ']'");
    }
  }

  static int HexDigit(char c) {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    return -1;
  }

  bool ParseHex4(unsigned* code) {
    if (pos_ + 4 > text_.size()) return Fail("short \\u escape");
    *code = 0;
    for (int i = 0; i < 4; ++i) {
      int digit = HexDigit(text_[pos_++]);
      if (digit < 0) return Fail("bad \\u escape");
      *code = (*code << 4) | static_cast<unsigned>(digit);
    }
    return true;
  }

  static void AppendUtf8(unsigned code, std::string* out) {
    if (out == nullptr) return;
    if (code < 0x80) {
      out->push_back(static_cast<char>(code));
    } else if (code < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (code >> 6)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else if (code < 0x10000) {
      out->push_back(static_cast<char>(0xE0 | (code >> 12)));
      out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xF0 | (code >> 18)));
      out->push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    }
  }

  bool ParseString(std::string* out) {
    ++pos_;  // Opening quote.
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) return Fail("control character in string");
      if (c != '\\') {
        if (out != nullptr) out->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) break;
      char escape = text_[pos_++];
      static const char kEscapes[] = "\"\\/bfnrt";
      static const char kDecoded[] = "\"\\/\b\f\n\r\t";
      const char* simple = std::strchr(kEscapes, escape);
      if (escape != '\0' && simple != nullptr) {
        if (out != nullptr) out->push_back(kDecoded[simple - kEscapes]);
        continue;
      }
      switch (escape) {
        case 'u': {
          unsigned code = 0;
          if (!ParseHex4(&code)) return false;
          if (code >= 0xD800 && code <= 0xDBFF) {
            unsigned low = 0;
            if (text_.substr(pos_, 2) != "\\u") return Fail("lone high surrogate");
            pos_ += 2;
            if (!ParseHex4(&low)) return false;
            if (low < 0xDC00 || low > 0xDFFF) return Fail("bad low surrogate");
            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
          } else if (code >= 0xDC00 && code <= 0xDFFF) {
            return Fail("lone low surrogate");
          }
          AppendUtf8(code, out);
          break;
        }
        default:
          return Fail("bad escape");
      }
    }
    return Fail("unterminated string");
  }

  bool Digits() {
    size_t start = pos_;
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') ++pos_;
    return pos_ > start;
  }

  static double ToDouble(std::string_view token) {
    char buffer[64];
    size_t n = std::min(token.size(), sizeof(buffer) - 1);
    std::memcpy(buffer, token.data(), n);
    buffer[n] = '\0';
    return std::strtod(buffer, nullptr);
  }

  // RFC 8259 number grammar: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
  bool ScanNumber(std::string_view* token) {
    size_t start = pos_;
    if (text_[pos_] == '-') ++pos_;
    if (pos_ >= text_.size()) return Fail("bad number");
    if (text_[pos_] == '0') {
      ++pos_;
    } else if (!Digits()) {
      return Fail("bad number");
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (!Digits()) return Fail("bad fraction");
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
      if (!Digits()) return Fail("bad exponent");
    }
    *token = text_.substr(start, pos_ - start);
    return true;
  }

  std::string_view text_;
  size_t pos_ = 0;
  std::string error_;
};

}  // namespace

const JsonValue* JsonValue::Find(std::string_view key) const {
  if (type != Type::kObject) return nullptr;
  for (const auto& [name, value] : fields) {
    if (name == key) return &value;
  }
  return nullptr;
}

bool ScanReply(std::string_view text, bool want_scores, ReplyFields* out, std::string* error) {
  Parser parser(text);
  *out = ReplyFields();
  if (parser.ScanTop(want_scores, out)) return true;
  if (error != nullptr) *error = parser.error();
  return false;
}

bool ParseJson(std::string_view text, JsonValue* out, std::string* error) {
  Parser parser(text);
  *out = JsonValue();
  if (parser.ParseDocument(out)) return true;
  if (error != nullptr) *error = parser.error();
  return false;
}

}  // namespace perfbench
