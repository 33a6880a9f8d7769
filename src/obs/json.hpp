#pragma once
// Minimal self-contained JSON document model: build, serialize, parse.
//
// This is the substrate of the observability layer (Chrome traces, the
// metrics registry dump, JSONL bench telemetry) and of the tests that
// re-parse what the exporters emit. No external dependency; the subset
// implemented is exactly RFC 8259 minus exotic number forms (NaN/Inf are
// serialized as null, as browsers' JSON.stringify does).

#include <cstddef>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace tridsolve::obs {

/// A JSON value: null, bool, number, string, array or object. Objects
/// keep keys sorted so serialized output is deterministic and diffable.
class JsonValue {
 public:
  using Array = std::vector<JsonValue>;
  using Object = std::map<std::string, JsonValue>;

  JsonValue() noexcept : kind_(Kind::null) {}
  JsonValue(std::nullptr_t) noexcept : kind_(Kind::null) {}
  JsonValue(bool b) noexcept : kind_(Kind::boolean), bool_(b) {}
  JsonValue(double v) noexcept : kind_(Kind::number), num_(v) {}
  JsonValue(int v) noexcept : JsonValue(static_cast<double>(v)) {}
  JsonValue(unsigned v) noexcept : JsonValue(static_cast<double>(v)) {}
  JsonValue(long v) noexcept : JsonValue(static_cast<double>(v)) {}
  JsonValue(long long v) noexcept : JsonValue(static_cast<double>(v)) {}
  JsonValue(unsigned long v) noexcept : JsonValue(static_cast<double>(v)) {}
  JsonValue(unsigned long long v) noexcept
      : JsonValue(static_cast<double>(v)) {}
  JsonValue(std::string s) : kind_(Kind::string), str_(std::move(s)) {}
  JsonValue(std::string_view s) : kind_(Kind::string), str_(s) {}
  JsonValue(const char* s) : kind_(Kind::string), str_(s) {}

  [[nodiscard]] static JsonValue array() {
    JsonValue v;
    v.kind_ = Kind::array;
    return v;
  }
  [[nodiscard]] static JsonValue object() {
    JsonValue v;
    v.kind_ = Kind::object;
    return v;
  }

  [[nodiscard]] bool is_number() const noexcept { return kind_ == Kind::number; }
  [[nodiscard]] bool is_string() const noexcept { return kind_ == Kind::string; }
  [[nodiscard]] bool is_array() const noexcept { return kind_ == Kind::array; }
  [[nodiscard]] bool is_object() const noexcept { return kind_ == Kind::object; }

  [[nodiscard]] double as_number() const noexcept { return num_; }
  [[nodiscard]] const std::string& as_string() const noexcept { return str_; }
  [[nodiscard]] const Array& as_array() const noexcept { return arr_; }
  [[nodiscard]] const Object& as_object() const noexcept { return obj_; }

  /// Object access; inserts a null member (and coerces a null value into
  /// an object) so `v["a"]["b"] = 1` builds nested structure.
  JsonValue& operator[](const std::string& key);

  /// Object lookup without insertion; nullptr when absent or not an object.
  [[nodiscard]] const JsonValue* find(std::string_view key) const noexcept;

  /// Append to an array (coerces a null value into an array).
  void push_back(JsonValue v);

  [[nodiscard]] std::size_t size() const noexcept {
    if (kind_ == Kind::array) return arr_.size();
    if (kind_ == Kind::object) return obj_.size();
    return 0;
  }

  /// Serialize. indent < 0: compact single line; otherwise pretty-print
  /// with that many spaces per level.
  [[nodiscard]] std::string dump(int indent = -1) const;

  /// Parse a complete JSON document (surrounding whitespace allowed).
  /// Returns nullopt on any syntax error or trailing garbage.
  [[nodiscard]] static std::optional<JsonValue> parse(std::string_view text);

 private:
  enum class Kind { null, boolean, number, string, array, object };

  void dump_to(std::string& out, int indent, int depth) const;

  Kind kind_ = Kind::null;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  Array arr_;
  Object obj_;
};

/// Quote + escape a string for embedding in JSON (returns with quotes).
[[nodiscard]] std::string json_quote(std::string_view s);

}  // namespace tridsolve::obs
