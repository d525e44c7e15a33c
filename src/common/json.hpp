// Minimal JSON emitter + parser for machine-readable artifacts.
//
// Downstream tooling (plotting the figure series, CI regression tracking)
// consumes structured results; the writer covers the subset needed —
// objects, arrays, strings, numbers, booleans — with correct string
// escaping and shortest-round-trip double formatting.  The parser's
// consumer is bench/e2e: `--compare` reads result files and the parent
// reads each measurement child's last output line, either of which may
// be missing, truncated, or not an artifact at all — so parse_json()
// reports failure through JsonParseResult instead of throwing, and the
// caller reports which input was bad.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace portabench {

/// Build a JSON document incrementally.  Usage:
///   JsonWriter w;
///   w.begin_object();
///   w.key("name"); w.value("fig7");
///   w.key("series"); w.begin_array(); w.value(1.5); w.end_array();
///   w.end_object();
///   std::string doc = w.str();
/// Structural misuse (mismatched begin/end, key outside an object) throws
/// precondition_error.
class JsonWriter {
 public:
  void begin_object();
  void end_object();
  void begin_array();
  void end_array();

  /// Emit an object key; must be inside an object and followed by a value.
  void key(const std::string& name);

  void value(const std::string& s);
  void value(const char* s);
  void value(double number);
  void value(long number);
  void value(std::size_t number);
  void value(bool flag);
  void null();

  /// The finished document; throws unless all containers are closed.
  [[nodiscard]] std::string str() const;

  /// Escape a string per RFC 8259 (quotes, backslash, control chars).
  [[nodiscard]] static std::string escape(const std::string& raw);

 private:
  enum class Ctx { kObjectKey, kObjectValue, kArray };
  void before_value();
  void raw(const std::string& text);

  std::string out_;
  std::vector<Ctx> stack_;
  bool root_done_ = false;
};

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

/// A parsed JSON document node.  Numbers are stored as double (the only
/// numeric type JSON has); object keys are sorted (std::map), which is
/// fine for the cache-file use case where key order carries no meaning.
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  using Array = std::vector<JsonValue>;
  using Object = std::map<std::string, JsonValue>;

  JsonValue() = default;  // null
  explicit JsonValue(bool b) : kind_(Kind::kBool), bool_(b) {}
  explicit JsonValue(double d) : kind_(Kind::kNumber), num_(d) {}
  explicit JsonValue(std::string s) : kind_(Kind::kString), str_(std::move(s)) {}
  explicit JsonValue(Array a) : kind_(Kind::kArray), arr_(std::move(a)) {}
  explicit JsonValue(Object o) : kind_(Kind::kObject), obj_(std::move(o)) {}

  [[nodiscard]] Kind kind() const noexcept { return kind_; }
  [[nodiscard]] bool is_null() const noexcept { return kind_ == Kind::kNull; }
  [[nodiscard]] bool is_bool() const noexcept { return kind_ == Kind::kBool; }
  [[nodiscard]] bool is_number() const noexcept { return kind_ == Kind::kNumber; }
  [[nodiscard]] bool is_string() const noexcept { return kind_ == Kind::kString; }
  [[nodiscard]] bool is_array() const noexcept { return kind_ == Kind::kArray; }
  [[nodiscard]] bool is_object() const noexcept { return kind_ == Kind::kObject; }

  [[nodiscard]] bool as_bool() const noexcept { return bool_; }
  [[nodiscard]] double as_number() const noexcept { return num_; }
  [[nodiscard]] const std::string& as_string() const noexcept { return str_; }
  [[nodiscard]] const Array& as_array() const noexcept { return arr_; }
  [[nodiscard]] const Object& as_object() const noexcept { return obj_; }

  /// Object member lookup; nullptr when not an object or key absent.
  [[nodiscard]] const JsonValue* find(const std::string& key) const {
    if (kind_ != Kind::kObject) return nullptr;
    const auto it = obj_.find(key);
    return it == obj_.end() ? nullptr : &it->second;
  }

  /// Typed member accessors for the common "optional field with default"
  /// shape; return std::nullopt when absent or of the wrong kind.
  [[nodiscard]] std::optional<double> number_at(const std::string& key) const {
    const JsonValue* v = find(key);
    if (v == nullptr || !v->is_number()) return std::nullopt;
    return v->as_number();
  }
  [[nodiscard]] std::optional<std::string> string_at(const std::string& key) const {
    const JsonValue* v = find(key);
    if (v == nullptr || !v->is_string()) return std::nullopt;
    return v->as_string();
  }

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  Array arr_;
  Object obj_;
};

/// Outcome of parse_json: `value` is set iff `ok`.  Never throws — a
/// reader of bench artifacts must survive arbitrary on-disk garbage.
struct JsonParseResult {
  bool ok = false;
  JsonValue value;
  std::string error;  ///< "offset N: message" when !ok
};

/// Parse one JSON document (trailing whitespace allowed, nothing else).
/// Depth-limited (64 nested containers) so adversarial input cannot
/// overflow the stack.
[[nodiscard]] JsonParseResult parse_json(std::string_view text);

}  // namespace portabench
