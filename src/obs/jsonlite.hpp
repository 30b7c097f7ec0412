// The one JSON reader and writer behind every hsis-*-v1 artifact, without
// pulling in a dependency. `parse` is just enough recursive descent to read
// back this repo's own exports (throws std::runtime_error on malformed
// input); `appendQuoted` is the only string escaper, and `Writer` renders
// the compact single-line house style `{"k": v, "k2": [1, 2]}`.
#pragma once

#include <charconv>
#include <cmath>
#include <concepts>
#include <cstddef>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace hsis::obs::jsonlite {

struct Value;
using Object = std::map<std::string, Value>;
using Array = std::vector<Value>;

struct Value {
  std::variant<std::nullptr_t, bool, double, std::string,
               std::shared_ptr<Array>, std::shared_ptr<Object>>
      v;

  [[nodiscard]] bool isNull() const {
    return std::holds_alternative<std::nullptr_t>(v);
  }
  [[nodiscard]] bool isObject() const {
    return std::holds_alternative<std::shared_ptr<Object>>(v);
  }
  [[nodiscard]] bool isArray() const {
    return std::holds_alternative<std::shared_ptr<Array>>(v);
  }
  [[nodiscard]] bool isNumber() const {
    return std::holds_alternative<double>(v);
  }
  [[nodiscard]] bool isString() const {
    return std::holds_alternative<std::string>(v);
  }
  [[nodiscard]] const Object& object() const {
    return *std::get<std::shared_ptr<Object>>(v);
  }
  [[nodiscard]] const Array& array() const {
    return *std::get<std::shared_ptr<Array>>(v);
  }
  [[nodiscard]] double number() const { return std::get<double>(v); }
  [[nodiscard]] const std::string& str() const {
    return std::get<std::string>(v);
  }
  [[nodiscard]] bool boolean() const { return std::get<bool>(v); }
};

/// Parse a complete JSON document (throws std::runtime_error on error).
Value parse(std::string_view text);

/// Object member lookup that returns nullptr instead of throwing.
const Value* find(const Object& obj, const std::string& key);

/// Throws std::runtime_error("<schema>: field '<field>' <what>").
[[noreturn]] void fieldError(std::string_view schema, std::string_view field,
                             std::string_view what);

/// `v` as a number; a fieldError when it is not one. Read every field of a
/// file through these checked readers, never through Value's accessors,
/// which assume the type.
double number(const Value& v, std::string_view schema, std::string_view field);
/// `v` as a string; a fieldError when it is not one.
const std::string& str(const Value& v, std::string_view schema,
                       std::string_view field);
/// `v` as a boolean; a fieldError when it is not one.
bool boolean(const Value& v, std::string_view schema, std::string_view field);
/// `v` as an object; a fieldError when it is not one.
const Object& object(const Value& v, std::string_view schema,
                     std::string_view field);
/// `v` as an array; a fieldError when it is not one.
const Array& array(const Value& v, std::string_view schema,
                   std::string_view field);
/// The elements of array `v`, each as an object; a fieldError naming
/// "<field>[]" for an element that is not one.
std::vector<const Object*> objects(const Value& v, std::string_view schema,
                                   std::string_view field);

/// `v` as a T: a number with no fractional part inside T's range, else a
/// fieldError. Read every integer of a file through this, so no input
/// reaches an undefined float-to-integer conversion.
template <std::integral T>
  requires(!std::same_as<T, bool>)
T integer(const Value& v, std::string_view schema, std::string_view field) {
  // Both bounds are 0 or ±2^digits, exact as doubles: [lo, hi) is what T
  // holds.
  constexpr double lo = static_cast<double>(std::numeric_limits<T>::min());
  constexpr double hi =
      static_cast<double>(std::numeric_limits<T>::max()) + 1.0;
  double d = number(v, schema, field);
  if (!(d >= lo && d < hi && d == std::trunc(d)))
    fieldError(schema, field,
               "is not an integer in [" +
                   std::to_string(std::numeric_limits<T>::min()) + ", " +
                   std::to_string(std::numeric_limits<T>::max()) + "]");
  return static_cast<T>(d);
}

/// Append `s` as a quoted JSON string: `"` `\` LF CR TAB as two-character
/// escapes, every other byte below 0x20 as \u00xx, all else verbatim (UTF-8
/// passes through).
void appendQuoted(std::string& out, std::string_view s);

/// Appends compact JSON to a caller-owned string, inserting the `, ` and
/// `: ` separators itself. Nesting is not checked: callers close what they
/// open.
class Writer {
 public:
  explicit Writer(std::string& out) : out_(out) {}

  Writer& beginObject() { return open('{'); }
  Writer& endObject() { return close('}'); }
  Writer& beginArray() { return open('['); }
  Writer& endArray() { return close(']'); }
  Writer& key(std::string_view k);

  Writer& value(std::string_view s) {
    item();
    appendQuoted(out_, s);
    return *this;
  }
  /// A string, not the pointer's truth value.
  Writer& value(const char* s) { return value(std::string_view(s)); }
  Writer& value(bool b) { return raw(b ? "true" : "false"); }
  Writer& value(std::nullptr_t) { return raw("null"); }
  /// Through obs::jsonDouble: `%.6g`, non-finite as null.
  Writer& value(double d);
  template <std::integral T>
    requires(!std::same_as<T, bool>)
  Writer& value(T v) {
    char buf[24];
    std::to_chars_result r = std::to_chars(buf, buf + sizeof buf, v);
    return raw(std::string_view(buf, static_cast<size_t>(r.ptr - buf)));
  }
  /// A pre-rendered value (a number in a schema-specific format, or a
  /// whole JSON object), copied verbatim.
  Writer& raw(std::string_view token) {
    item();
    out_ += token;
    return *this;
  }

 private:
  void item() {
    if (!afterKey_ && !first_) out_ += ", ";
    afterKey_ = false;
    first_ = false;
  }
  Writer& open(char c) {
    item();
    out_ += c;
    first_ = true;
    return *this;
  }
  Writer& close(char c) {
    out_ += c;
    first_ = false;
    return *this;
  }

  std::string& out_;
  bool first_ = true;      ///< nothing written yet in the open container
  bool afterKey_ = false;  ///< a key was written; its value comes next
};

}  // namespace hsis::obs::jsonlite
