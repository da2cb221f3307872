// Minimal JSON emission and syntax checking for the observability layer.
// The tracer, the stats sink, and the bench record emitter all produce
// JSON; this writer keeps them consistent (escaping, number formatting)
// without pulling in an external dependency, and the validator lets
// tests assert the documents are well-formed.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace mio {
namespace obs {

/// Streaming JSON writer. Call sequence is the document structure:
///   w.BeginObject(); w.Key("a").Int(1); w.EndObject();
/// Commas and quoting are handled internally; values written into an
/// object must be preceded by Key().
class JsonWriter {
 public:
  JsonWriter& BeginObject();
  JsonWriter& EndObject();
  JsonWriter& BeginArray();
  JsonWriter& EndArray();
  JsonWriter& Key(std::string_view key);
  JsonWriter& String(std::string_view value);
  JsonWriter& Int(std::int64_t value);
  JsonWriter& UInt(std::uint64_t value);
  /// Non-finite doubles are emitted as null (JSON has no NaN/Inf).
  JsonWriter& Double(double value);
  JsonWriter& Bool(bool value);
  JsonWriter& Null();

  /// The finished document. The writer is spent afterwards.
  std::string Take() && { return std::move(out_); }
  const std::string& str() const { return out_; }

 private:
  void BeforeValue();

  std::string out_;
  /// One entry per open container: true once it holds an element (so the
  /// next element needs a comma).
  std::vector<bool> has_element_;
  bool after_key_ = false;
};

/// Appends `s` with JSON string escaping (quotes, backslash, control
/// characters) — no surrounding quotes.
void AppendJsonEscaped(std::string_view s, std::string* out);

/// Strict well-formedness check of a complete JSON document. On failure
/// returns false and, when `error` is non-null, a short description with
/// the byte offset.
bool ValidateJson(std::string_view text, std::string* error = nullptr);

/// Parsed JSON value tree — the read side of JsonWriter, used by the
/// qlog reader and tests that need field values, not just validity.
/// Numbers are kept as doubles (every value the writer emits fits; the
/// qlog counters stay exact up to 2^53).
class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kObject, kArray };

  Type type() const { return type_; }
  bool IsNull() const { return type_ == Type::kNull; }
  bool IsBool() const { return type_ == Type::kBool; }
  bool IsNumber() const { return type_ == Type::kNumber; }
  bool IsString() const { return type_ == Type::kString; }
  bool IsObject() const { return type_ == Type::kObject; }
  bool IsArray() const { return type_ == Type::kArray; }

  bool AsBool(bool fallback = false) const {
    return IsBool() ? bool_ : fallback;
  }
  double AsDouble(double fallback = 0.0) const {
    return IsNumber() ? num_ : fallback;
  }
  /// Rounded to the nearest integer; negative numbers give `fallback`,
  /// 2^64 and above saturate.
  std::uint64_t AsUInt(std::uint64_t fallback = 0) const;
  const std::string& AsString() const { return str_; }

  /// Object member by key; nullptr when absent or not an object.
  const JsonValue* Find(std::string_view key) const;

  /// Convenience member lookups (fallback when absent / wrong type).
  double GetDouble(std::string_view key, double fallback = 0.0) const;
  std::uint64_t GetUInt(std::string_view key, std::uint64_t fallback = 0) const;
  bool GetBool(std::string_view key, bool fallback = false) const;
  std::string GetString(std::string_view key,
                        const std::string& fallback = "") const;

  const std::vector<std::pair<std::string, JsonValue>>& members() const {
    return members_;
  }
  const std::vector<JsonValue>& elements() const { return elements_; }

 private:
  friend struct JsonValueBuilder;  ///< parser-side mutation (json.cpp)

  Type type_ = Type::kNull;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  std::vector<std::pair<std::string, JsonValue>> members_;  ///< kObject
  std::vector<JsonValue> elements_;                         ///< kArray
};

/// Parses a complete JSON document into a value tree. Same grammar as
/// ValidateJson; string escapes (including \uXXXX and surrogate pairs)
/// are decoded to UTF-8. On failure returns false and, when `error` is
/// non-null, a short description with the byte offset.
bool ParseJson(std::string_view text, JsonValue* out,
               std::string* error = nullptr);

}  // namespace obs
}  // namespace mio
