// Minimal JSON value, parser, and deterministic writer for the scenario
// layer (scidmz.scenario documents and the scidmz_run CLI).
//
// Design goals, in order: (1) deterministic output — dump() of a given
// value is byte-stable, object keys keep insertion order, numbers use the
// shortest representation that round-trips, so serialize(parse(x)) is a
// fixed point; (2) actionable errors — parse failures carry line/column,
// and the spec layer can name the offending key; (3) no dependencies.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace scidmz::scenario {

class JsonError : public std::runtime_error {
 public:
  explicit JsonError(const std::string& message) : std::runtime_error(message) {}
};

/// Error raised when a scidmz.scenario document is not a valid spec
/// (unknown key, bad enum, wrong type, value out of bounds) or nests deeper
/// than Json::parse accepts.
class SpecError : public JsonError {
 public:
  explicit SpecError(const std::string& message) : JsonError(message) {}
};

/// A parsed JSON value. Objects preserve key insertion order (both when
/// parsed and when built programmatically) so dumps are deterministic.
class Json {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Json() = default;
  Json(std::nullptr_t) {}                                 // NOLINT(google-explicit-constructor)
  Json(bool v) : kind_(Kind::kBool), bool_(v) {}          // NOLINT(google-explicit-constructor)
  Json(double v) : kind_(Kind::kNumber), number_(v) {}    // NOLINT(google-explicit-constructor)
  Json(int v) : Json(static_cast<double>(v)) {}           // NOLINT(google-explicit-constructor)
  Json(std::uint64_t v)                                   // NOLINT(google-explicit-constructor)
      : Json(static_cast<double>(v)) {}
  Json(std::int64_t v)                                    // NOLINT(google-explicit-constructor)
      : Json(static_cast<double>(v)) {}
  Json(const char* v) : kind_(Kind::kString), string_(v) {}  // NOLINT
  Json(std::string v)                                     // NOLINT(google-explicit-constructor)
      : kind_(Kind::kString), string_(std::move(v)) {}

  static Json array() {
    Json j;
    j.kind_ = Kind::kArray;
    return j;
  }
  static Json object() {
    Json j;
    j.kind_ = Kind::kObject;
    return j;
  }

  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] bool isBool() const { return kind_ == Kind::kBool; }
  [[nodiscard]] bool isNumber() const { return kind_ == Kind::kNumber; }
  [[nodiscard]] bool isString() const { return kind_ == Kind::kString; }
  [[nodiscard]] bool isArray() const { return kind_ == Kind::kArray; }
  [[nodiscard]] bool isObject() const { return kind_ == Kind::kObject; }

  [[nodiscard]] bool asBool() const {
    requireKind(Kind::kBool, "bool");
    return bool_;
  }
  [[nodiscard]] double asNumber() const {
    requireKind(Kind::kNumber, "number");
    return number_;
  }
  [[nodiscard]] const std::string& asString() const {
    requireKind(Kind::kString, "string");
    return string_;
  }

  // --- array access ------------------------------------------------------
  [[nodiscard]] std::size_t size() const { return items_.size(); }
  [[nodiscard]] const Json& at(std::size_t i) const {
    requireKind(Kind::kArray, "array");
    return items_.at(i);
  }
  Json& push(Json v) {
    requireKind(Kind::kArray, "array");
    items_.push_back(std::move(v));
    return items_.back();
  }

  // --- object access (insertion-ordered) ---------------------------------
  [[nodiscard]] bool contains(std::string_view key) const;
  /// Null-object sentinel when the key is absent.
  [[nodiscard]] const Json& get(std::string_view key) const;
  /// Set (insert or overwrite, keeping the original position on overwrite).
  Json& set(std::string key, Json value);
  [[nodiscard]] const std::vector<std::pair<std::string, Json>>& members() const {
    return members_;
  }
  /// Mutable lookup; inserts a null member when absent.
  Json& operator[](std::string_view key);

  /// Deepest array/object nesting parse() accepts: the parser recurses once
  /// per level, so deeper input is refused (SpecError), not left to
  /// overflow the stack.
  static constexpr int kMaxDepth = 256;

  /// Parse a complete JSON document; trailing garbage is an error.
  static Json parse(std::string_view text);

  /// Compact deterministic serialization (no whitespace). Numbers use the
  /// shortest printf "%.Ng" form that round-trips through strtod.
  [[nodiscard]] std::string dump() const;
  /// Pretty serialization (2-space indent) for files meant to be edited.
  [[nodiscard]] std::string pretty() const;

 private:
  void requireKind(Kind k, const char* what) const {
    if (kind_ != k) throw JsonError(std::string("JSON value is not a ") + what);
  }
  void dumpTo(std::string& out, int indent, int depth) const;

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<Json> items_;
  std::vector<std::pair<std::string, Json>> members_;
};

/// Append the canonical text form of `v` (shortest round-trip). Exposed for
/// table/number formatting reuse.
void appendJsonNumber(std::string& out, double v);

/// Append `s` JSON-escaped, including the surrounding quotes.
void appendJsonString(std::string& out, std::string_view s);

}  // namespace scidmz::scenario
