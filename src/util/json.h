#ifndef ODBGC_UTIL_JSON_H_
#define ODBGC_UTIL_JSON_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace odbgc {

// Minimal streaming JSON writer (objects, arrays, scalars, escaping) —
// enough for machine-readable simulation reports without a third-party
// dependency. Usage is push-style:
//
//   JsonWriter w;
//   w.BeginObject();
//   w.Key("collections"); w.Value(uint64_t{42});
//   w.Key("log"); w.BeginArray(); ... w.EndArray();
//   w.EndObject();
//   std::string json = w.TakeString();
//
// Structural misuse (e.g. a value without a key inside an object) trips
// an ODBGC_CHECK.
class JsonWriter {
 public:
  JsonWriter() = default;

  void BeginObject();
  void EndObject();
  void BeginArray();
  void EndArray();
  // Keys and strings are escaped straight into the document; numbers are
  // formatted with std::to_chars. Nothing here builds a temporary string.
  void Key(std::string_view name);

  void Value(std::string_view s);
  void Value(const char* s) { Value(std::string_view(s)); }
  // Same characters as printf's "%.10g"; non-finite values become null.
  void Value(double d);
  void Value(uint64_t v);
  void Value(int64_t v);
  void Value(bool b);
  void Null();

  // Splices `json` — an already-serialized document — in value position.
  // Used to embed one report inside another without re-parsing.
  void RawValue(const std::string& json);

  // Finalizes and returns the document; the writer must be balanced.
  std::string TakeString();

  static std::string Escape(std::string_view s);

 private:
  enum class Frame { kObject, kArray };

  void BeforeValue();
  // Appends `s`, escaped, to `out`.
  static void EscapeTo(std::string& out, std::string_view s);

  std::string out_;
  std::vector<Frame> stack_;
  std::vector<bool> first_in_frame_;
  bool key_pending_ = false;
};

// Parsed JSON document node. A small recursive-descent companion to
// JsonWriter — enough to round-trip this repo's own exports (reports,
// Chrome traces) in tests and validators without a third-party
// dependency. Numbers are held as double (the exports never need more
// than 53 bits of integer precision to validate).
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  bool bool_value() const { return bool_; }
  double number_value() const { return number_; }
  const std::string& string_value() const { return string_; }
  const std::vector<JsonValue>& array_items() const { return items_; }
  // Object members in document order (duplicate keys preserved).
  const std::vector<std::pair<std::string, JsonValue>>& object_members()
      const {
    return members_;
  }

  // First member named `key`, or nullptr.
  const JsonValue* Find(const std::string& key) const;
  bool Has(const std::string& key) const { return Find(key) != nullptr; }

  // Parses `text` into *out. On failure returns false and describes the
  // problem (with a byte offset) in *error.
  static bool Parse(const std::string& text, JsonValue* out,
                    std::string* error);

 private:
  friend class JsonParser;

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> items_;
  std::vector<std::pair<std::string, JsonValue>> members_;
};

}  // namespace odbgc

#endif  // ODBGC_UTIL_JSON_H_
