// Minimal JSON value type, parser, and deterministic serializer.
//
// The campaign spec (campaign/spec.h) and the merged campaign results are
// JSON; the toolchain offers no JSON library and the project adds no
// dependencies, so this implements the small subset the campaign layer
// needs: the six JSON value kinds, strict parsing with line/column errors,
// and a dump that is DETERMINISTIC — object keys serialize in sorted order
// (objects are std::map) and numbers print round-trippably — because
// campaign result bytes are compared verbatim across worker counts.
//
// Numbers are stored as double (JSON's own model); integers up to 2^53
// round-trip exactly, which covers every counter the campaign reports.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace ctflash::campaign {

class Json;
using JsonArray = std::vector<Json>;
using JsonObject = std::map<std::string, Json>;

class Json {
 public:
  enum class Kind { kNull = 0, kBool, kNumber, kString, kArray, kObject };

  Json() = default;  // null
  Json(bool b) : kind_(Kind::kBool), bool_(b) {}
  Json(double n) : kind_(Kind::kNumber), number_(n) {}
  Json(int n) : Json(static_cast<double>(n)) {}
  Json(std::int64_t n) : Json(static_cast<double>(n)) {}
  Json(std::uint64_t n) : Json(static_cast<double>(n)) {}
  Json(const char* s) : kind_(Kind::kString), string_(s) {}
  Json(std::string s) : kind_(Kind::kString), string_(std::move(s)) {}
  Json(JsonArray a) : kind_(Kind::kArray), array_(std::move(a)) {}
  Json(JsonObject o) : kind_(Kind::kObject), object_(std::move(o)) {}

  /// Parses strict JSON; throws std::runtime_error with position info.
  static Json Parse(const std::string& text);

  Kind kind() const { return kind_; }
  bool IsNull() const { return kind_ == Kind::kNull; }
  bool IsBool() const { return kind_ == Kind::kBool; }
  bool IsNumber() const { return kind_ == Kind::kNumber; }
  bool IsString() const { return kind_ == Kind::kString; }
  bool IsArray() const { return kind_ == Kind::kArray; }
  bool IsObject() const { return kind_ == Kind::kObject; }

  /// Typed accessors; throw std::runtime_error on kind mismatch.
  bool AsBool() const;
  double AsDouble() const;
  /// Integral accessors additionally reject non-integral numbers and
  /// numbers outside the int64 range (infinities included).
  std::int64_t AsInt() const;
  std::uint64_t AsUint() const;
  /// AsUint for a value stored in 32 bits: throws std::invalid_argument
  /// naming `name` (the spec key it was read from) when it exceeds
  /// UINT32_MAX, instead of letting a narrowing cast wrap it.
  std::uint32_t AsUint32(const std::string& name) const;
  const std::string& AsString() const;
  const JsonArray& AsArray() const;
  const JsonObject& AsObject() const;
  JsonArray& AsArray();
  JsonObject& AsObject();

  /// Object field access; Get returns nullptr when absent (or not an
  /// object), the *Or forms parse optional spec fields with defaults.
  const Json* Get(const std::string& key) const;
  bool GetBoolOr(const std::string& key, bool fallback) const;
  double GetDoubleOr(const std::string& key, double fallback) const;
  std::int64_t GetIntOr(const std::string& key, std::int64_t fallback) const;
  std::uint64_t GetUintOr(const std::string& key, std::uint64_t fallback) const;
  /// GetUintOr checked through AsUint32(key).
  std::uint32_t GetUint32Or(const std::string& key, std::uint32_t fallback) const;
  std::string GetStringOr(const std::string& key, const std::string& fallback) const;

  /// Object field assignment (makes this an object if null).
  Json& operator[](const std::string& key);

  /// Deterministic serialization: sorted object keys, shortest
  /// round-trippable numbers, "\uXXXX" escapes for control characters.
  /// `indent` > 0 pretty-prints.
  std::string Dump(int indent = 0) const;

  bool operator==(const Json& other) const;

 private:
  void DumpTo(std::string& out, int indent, int depth) const;

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  JsonArray array_;
  JsonObject object_;
};

}  // namespace ctflash::campaign
