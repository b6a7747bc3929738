#include "util/json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "util/check.h"

namespace odbgc {

std::string JsonWriter::Escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 8);
  EscapeTo(out, s);
  return out;
}

void JsonWriter::EscapeTo(std::string& out, std::string_view s) {
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

void JsonWriter::BeforeValue() {
  if (stack_.empty()) return;
  if (stack_.back() == Frame::kObject) {
    ODBGC_CHECK_MSG(key_pending_, "object value requires a key");
    key_pending_ = false;
    return;
  }
  // Array element: comma-separate.
  if (!first_in_frame_.back()) out_ += ',';
  first_in_frame_.back() = false;
}

void JsonWriter::BeginObject() {
  BeforeValue();
  out_ += '{';
  stack_.push_back(Frame::kObject);
  first_in_frame_.push_back(true);
}

void JsonWriter::EndObject() {
  ODBGC_CHECK(!stack_.empty() && stack_.back() == Frame::kObject);
  ODBGC_CHECK_MSG(!key_pending_, "dangling key");
  out_ += '}';
  stack_.pop_back();
  first_in_frame_.pop_back();
}

void JsonWriter::BeginArray() {
  BeforeValue();
  out_ += '[';
  stack_.push_back(Frame::kArray);
  first_in_frame_.push_back(true);
}

void JsonWriter::EndArray() {
  ODBGC_CHECK(!stack_.empty() && stack_.back() == Frame::kArray);
  out_ += ']';
  stack_.pop_back();
  first_in_frame_.pop_back();
}

void JsonWriter::Key(std::string_view name) {
  ODBGC_CHECK(!stack_.empty() && stack_.back() == Frame::kObject);
  ODBGC_CHECK_MSG(!key_pending_, "two keys in a row");
  if (!first_in_frame_.back()) out_ += ',';
  first_in_frame_.back() = false;
  out_ += '"';
  EscapeTo(out_, name);
  out_ += "\":";
  key_pending_ = true;
}

void JsonWriter::Value(std::string_view s) {
  BeforeValue();
  out_ += '"';
  EscapeTo(out_, s);
  out_ += '"';
}

void JsonWriter::RawValue(const std::string& json) {
  BeforeValue();
  out_ += json;
}

void JsonWriter::Value(double d) {
  BeforeValue();
  if (!std::isfinite(d)) {
    out_ += "null";
    return;
  }
  // to_chars with a precision is specified as printf's %.*g in the C
  // locale, without snprintf's format parsing.
  char buf[32];
  const std::to_chars_result r = std::to_chars(
      buf, buf + sizeof(buf), d, std::chars_format::general, 10);
  ODBGC_CHECK(r.ec == std::errc());
  out_.append(buf, r.ptr);
}

void JsonWriter::Value(uint64_t v) {
  BeforeValue();
  char buf[24];
  const std::to_chars_result r = std::to_chars(buf, buf + sizeof(buf), v);
  out_.append(buf, r.ptr);
}

void JsonWriter::Value(int64_t v) {
  BeforeValue();
  char buf[24];
  const std::to_chars_result r = std::to_chars(buf, buf + sizeof(buf), v);
  out_.append(buf, r.ptr);
}

void JsonWriter::Value(bool b) {
  BeforeValue();
  out_ += b ? "true" : "false";
}

void JsonWriter::Null() {
  BeforeValue();
  out_ += "null";
}

std::string JsonWriter::TakeString() {
  ODBGC_CHECK_MSG(stack_.empty(), "unbalanced JSON document");
  return std::move(out_);
}

// ---------------------------------------------------------------------
// Parser.

class JsonParser {
 public:
  JsonParser(const std::string& text, std::string* error)
      : text_(text), error_(error) {}

  bool Parse(JsonValue* out) {
    SkipWhitespace();
    if (!ParseValue(out, 0)) return false;
    SkipWhitespace();
    if (pos_ != text_.size()) return Fail("trailing characters");
    return true;
  }

 private:
  static constexpr int kMaxDepth = 200;

  bool Fail(const char* what) {
    if (error_ != nullptr) {
      *error_ = std::string(what) + " at offset " + std::to_string(pos_);
    }
    return false;
  }

  void SkipWhitespace() {
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool Literal(const char* lit) {
    size_t n = std::strlen(lit);
    if (text_.compare(pos_, n, lit) != 0) return Fail("invalid literal");
    pos_ += n;
    return true;
  }

  bool ParseValue(JsonValue* out, int depth) {
    if (depth > kMaxDepth) return Fail("nesting too deep");
    if (pos_ >= text_.size()) return Fail("unexpected end of input");
    switch (text_[pos_]) {
      case '{':
        return ParseObject(out, depth);
      case '[':
        return ParseArray(out, depth);
      case '"':
        out->kind_ = JsonValue::Kind::kString;
        return ParseString(&out->string_);
      case 't':
        out->kind_ = JsonValue::Kind::kBool;
        out->bool_ = true;
        return Literal("true");
      case 'f':
        out->kind_ = JsonValue::Kind::kBool;
        out->bool_ = false;
        return Literal("false");
      case 'n':
        out->kind_ = JsonValue::Kind::kNull;
        return Literal("null");
      default:
        return ParseNumber(out);
    }
  }

  bool ParseObject(JsonValue* out, int depth) {
    out->kind_ = JsonValue::Kind::kObject;
    ++pos_;  // '{'
    SkipWhitespace();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    for (;;) {
      SkipWhitespace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Fail("expected object key");
      }
      std::string key;
      if (!ParseString(&key)) return false;
      SkipWhitespace();
      if (pos_ >= text_.size() || text_[pos_] != ':') {
        return Fail("expected ':'");
      }
      ++pos_;
      SkipWhitespace();
      JsonValue value;
      if (!ParseValue(&value, depth + 1)) return false;
      out->members_.emplace_back(std::move(key), std::move(value));
      SkipWhitespace();
      if (pos_ >= text_.size()) return Fail("unterminated object");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return Fail("expected ',' or '}'");
    }
  }

  bool ParseArray(JsonValue* out, int depth) {
    out->kind_ = JsonValue::Kind::kArray;
    ++pos_;  // '['
    SkipWhitespace();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    for (;;) {
      SkipWhitespace();
      JsonValue value;
      if (!ParseValue(&value, depth + 1)) return false;
      out->items_.push_back(std::move(value));
      SkipWhitespace();
      if (pos_ >= text_.size()) return Fail("unterminated array");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return Fail("expected ',' or ']'");
    }
  }

  bool ParseString(std::string* out) {
    ++pos_;  // opening quote
    out->clear();
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) return Fail("unterminated escape");
        char e = text_[pos_];
        switch (e) {
          case '"': *out += '"'; break;
          case '\\': *out += '\\'; break;
          case '/': *out += '/'; break;
          case 'b': *out += '\b'; break;
          case 'f': *out += '\f'; break;
          case 'n': *out += '\n'; break;
          case 'r': *out += '\r'; break;
          case 't': *out += '\t'; break;
          case 'u': {
            if (pos_ + 4 >= text_.size()) return Fail("bad \\u escape");
            unsigned code = 0;
            for (int i = 1; i <= 4; ++i) {
              char h = text_[pos_ + i];
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
              else return Fail("bad \\u escape");
            }
            pos_ += 4;
            // UTF-8 encode (surrogate pairs are passed through as two
            // 3-byte sequences; the repo's own exports only escape
            // control characters, which stay in the BMP).
            if (code < 0x80) {
              *out += static_cast<char>(code);
            } else if (code < 0x800) {
              *out += static_cast<char>(0xC0 | (code >> 6));
              *out += static_cast<char>(0x80 | (code & 0x3F));
            } else {
              *out += static_cast<char>(0xE0 | (code >> 12));
              *out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
              *out += static_cast<char>(0x80 | (code & 0x3F));
            }
            break;
          }
          default:
            return Fail("unknown escape");
        }
        ++pos_;
        continue;
      }
      *out += c;
      ++pos_;
    }
    return Fail("unterminated string");
  }

  bool ParseNumber(JsonValue* out) {
    size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return Fail("invalid value");
    std::string token = text_.substr(start, pos_ - start);
    char* end = nullptr;
    double v = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0') {
      pos_ = start;
      return Fail("invalid number");
    }
    out->kind_ = JsonValue::Kind::kNumber;
    out->number_ = v;
    return true;
  }

  const std::string& text_;
  std::string* error_;
  size_t pos_ = 0;
};

const JsonValue* JsonValue::Find(const std::string& key) const {
  for (const auto& [k, v] : members_) {
    if (k == key) return &v;
  }
  return nullptr;
}

bool JsonValue::Parse(const std::string& text, JsonValue* out,
                      std::string* error) {
  *out = JsonValue();
  JsonParser parser(text, error);
  return parser.Parse(out);
}

}  // namespace odbgc
