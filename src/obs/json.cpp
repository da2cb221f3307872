#include "obs/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <utility>

namespace mio {
namespace obs {

// ---------------------------------------------------------------------------
// JsonWriter
// ---------------------------------------------------------------------------

void JsonWriter::BeforeValue() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (!has_element_.empty()) {
    if (has_element_.back()) out_ += ',';
    has_element_.back() = true;
  }
}

JsonWriter& JsonWriter::BeginObject() {
  BeforeValue();
  out_ += '{';
  has_element_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::EndObject() {
  has_element_.pop_back();
  out_ += '}';
  return *this;
}

JsonWriter& JsonWriter::BeginArray() {
  BeforeValue();
  out_ += '[';
  has_element_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::EndArray() {
  has_element_.pop_back();
  out_ += ']';
  return *this;
}

JsonWriter& JsonWriter::Key(std::string_view key) {
  if (!has_element_.empty()) {
    if (has_element_.back()) out_ += ',';
    has_element_.back() = true;
  }
  out_ += '"';
  AppendJsonEscaped(key, &out_);
  out_ += "\":";
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::String(std::string_view value) {
  BeforeValue();
  out_ += '"';
  AppendJsonEscaped(value, &out_);
  out_ += '"';
  return *this;
}

JsonWriter& JsonWriter::Int(std::int64_t value) {
  BeforeValue();
  out_ += std::to_string(value);
  return *this;
}

JsonWriter& JsonWriter::UInt(std::uint64_t value) {
  BeforeValue();
  out_ += std::to_string(value);
  return *this;
}

JsonWriter& JsonWriter::Double(double value) {
  BeforeValue();
  if (!std::isfinite(value)) {
    out_ += "null";
    return *this;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.9g", value);
  out_ += buf;
  return *this;
}

JsonWriter& JsonWriter::Bool(bool value) {
  BeforeValue();
  out_ += value ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::Null() {
  BeforeValue();
  out_ += "null";
  return *this;
}

void AppendJsonEscaped(std::string_view s, std::string* out) {
  for (char c : s) {
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
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          *out += buf;
        } else {
          *out += c;
        }
    }
  }
}

// ---------------------------------------------------------------------------
// Validator and parser: one recursive descent over the JSON grammar
// (RFC 8259). ValidateJson passes a null sink (no allocation); ParseJson
// builds the JsonValue tree.
// ---------------------------------------------------------------------------

/// The parser's write access to JsonValue internals; not part of the
/// public API (declared friend in json.hpp, defined only here).
struct JsonValueBuilder {
  static void SetType(JsonValue* v, JsonValue::Type t) { v->type_ = t; }
  static void SetBool(JsonValue* v, bool b) {
    v->type_ = JsonValue::Type::kBool;
    v->bool_ = b;
  }
  static void SetNumber(JsonValue* v, double d) {
    v->type_ = JsonValue::Type::kNumber;
    v->num_ = d;
  }
  static std::string* MutableString(JsonValue* v) { return &v->str_; }
  static JsonValue* AddMember(JsonValue* v, std::string key) {
    v->members_.emplace_back(std::move(key), JsonValue{});
    return &v->members_.back().second;
  }
  static JsonValue* AddElement(JsonValue* v) {
    v->elements_.emplace_back();
    return &v->elements_.back();
  }
};

namespace {

/// Encodes one Unicode code point as UTF-8.
void AppendUtf8(std::uint32_t cp, std::string* out) {
  if (cp < 0x80) {
    *out += static_cast<char>(cp);
  } else if (cp < 0x800) {
    *out += static_cast<char>(0xC0 | (cp >> 6));
    *out += static_cast<char>(0x80 | (cp & 0x3F));
  } else if (cp < 0x10000) {
    *out += static_cast<char>(0xE0 | (cp >> 12));
    *out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
    *out += static_cast<char>(0x80 | (cp & 0x3F));
  } else {
    *out += static_cast<char>(0xF0 | (cp >> 18));
    *out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
    *out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
    *out += static_cast<char>(0x80 | (cp & 0x3F));
  }
}

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  bool Parse(std::string* error, JsonValue* out = nullptr) {
    SkipWs();
    if (!ParseValue(out)) {
      if (error != nullptr) {
        *error = err_ + " at offset " + std::to_string(pos_);
      }
      return false;
    }
    SkipWs();
    if (pos_ != text_.size()) {
      if (error != nullptr) {
        *error = "trailing characters at offset " + std::to_string(pos_);
      }
      return false;
    }
    return true;
  }

 private:
  bool Fail(const char* why) {
    if (err_.empty()) err_ = why;
    return false;
  }

  void SkipWs() {
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool Peek(char* c) {
    if (pos_ >= text_.size()) return false;
    *c = text_[pos_];
    return true;
  }

  bool Literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return Fail("bad literal");
    pos_ += lit.size();
    return true;
  }

  bool ParseValue(JsonValue* out) {
    if (++depth_ > 256) return Fail("nesting too deep");
    SkipWs();
    char c;
    if (!Peek(&c)) return Fail("unexpected end of input");
    bool ok;
    switch (c) {
      case '{':
        ok = ParseObject(out);
        break;
      case '[':
        ok = ParseArray(out);
        break;
      case '"':
        ok = ParseString(out != nullptr ? JsonValueBuilder::MutableString(out)
                                        : nullptr);
        if (ok && out != nullptr) {
          JsonValueBuilder::SetType(out, JsonValue::Type::kString);
        }
        break;
      case 't':
        ok = Literal("true");
        if (ok && out != nullptr) JsonValueBuilder::SetBool(out, true);
        break;
      case 'f':
        ok = Literal("false");
        if (ok && out != nullptr) JsonValueBuilder::SetBool(out, false);
        break;
      case 'n':
        ok = Literal("null");
        if (ok && out != nullptr) {
          JsonValueBuilder::SetType(out, JsonValue::Type::kNull);
        }
        break;
      default:
        ok = ParseNumber(out);
    }
    --depth_;
    return ok;
  }

  bool ParseObject(JsonValue* out) {
    ++pos_;  // '{'
    if (out != nullptr) {
      JsonValueBuilder::SetType(out, JsonValue::Type::kObject);
    }
    SkipWs();
    char c;
    if (Peek(&c) && c == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipWs();
      if (!Peek(&c) || c != '"') return Fail("expected object key");
      std::string key;
      if (!ParseString(out != nullptr ? &key : nullptr)) return false;
      SkipWs();
      if (!Peek(&c) || c != ':') return Fail("expected ':'");
      ++pos_;
      JsonValue* slot = nullptr;
      if (out != nullptr) {
        slot = JsonValueBuilder::AddMember(out, std::move(key));
      }
      if (!ParseValue(slot)) return false;
      SkipWs();
      if (!Peek(&c)) return Fail("unterminated object");
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == '}') {
        ++pos_;
        return true;
      }
      return Fail("expected ',' or '}'");
    }
  }

  bool ParseArray(JsonValue* out) {
    ++pos_;  // '['
    if (out != nullptr) {
      JsonValueBuilder::SetType(out, JsonValue::Type::kArray);
    }
    SkipWs();
    char c;
    if (Peek(&c) && c == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      JsonValue* slot = nullptr;
      if (out != nullptr) {
        slot = JsonValueBuilder::AddElement(out);
      }
      if (!ParseValue(slot)) return false;
      SkipWs();
      if (!Peek(&c)) return Fail("unterminated array");
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == ']') {
        ++pos_;
        return true;
      }
      return Fail("expected ',' or ']'");
    }
  }

  /// Parses a string token; when `decoded` is non-null the unescaped
  /// contents are appended to it (\uXXXX and surrogate pairs as UTF-8).
  bool ParseString(std::string* decoded) {
    ++pos_;  // '"'
    while (pos_ < text_.size()) {
      unsigned char c = static_cast<unsigned char>(text_[pos_]);
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (c < 0x20) return Fail("raw control character in string");
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) return Fail("dangling escape");
        char e = text_[pos_];
        if (e == 'u') {
          std::uint32_t cp;
          if (!ParseHex4(pos_ + 1, &cp)) return Fail("bad \\u escape");
          pos_ += 4;
          // A high surrogate must pair with a following \uDC00-\uDFFF low
          // surrogate; combine into the supplementary-plane code point.
          if (cp >= 0xD800 && cp <= 0xDBFF && pos_ + 6 < text_.size() &&
              text_[pos_ + 1] == '\\' && text_[pos_ + 2] == 'u') {
            std::uint32_t lo;
            if (ParseHex4(pos_ + 3, &lo) && lo >= 0xDC00 && lo <= 0xDFFF) {
              cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
              pos_ += 6;
            }
          }
          if (decoded != nullptr) AppendUtf8(cp, decoded);
        } else {
          char real;
          switch (e) {
            case '"': real = '"'; break;
            case '\\': real = '\\'; break;
            case '/': real = '/'; break;
            case 'b': real = '\b'; break;
            case 'f': real = '\f'; break;
            case 'n': real = '\n'; break;
            case 'r': real = '\r'; break;
            case 't': real = '\t'; break;
            default:
              return Fail("bad escape character");
          }
          if (decoded != nullptr) *decoded += real;
        }
      } else if (decoded != nullptr) {
        *decoded += static_cast<char>(c);
      }
      ++pos_;
    }
    return Fail("unterminated string");
  }

  /// Reads 4 hex digits at `at` into `*cp`.
  bool ParseHex4(std::size_t at, std::uint32_t* cp) {
    if (at + 4 > text_.size()) return false;
    std::uint32_t v = 0;
    for (std::size_t i = at; i < at + 4; ++i) {
      unsigned char h = static_cast<unsigned char>(text_[i]);
      if (!std::isxdigit(h)) return false;
      v = v * 16 + static_cast<std::uint32_t>(
                       std::isdigit(h) ? h - '0' : std::tolower(h) - 'a' + 10);
    }
    *cp = v;
    return true;
  }

  bool ParseNumber(JsonValue* out) {
    std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    if (pos_ >= text_.size() ||
        !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      return Fail("expected value");
    }
    if (text_[pos_] == '0') {
      ++pos_;
    } else {
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (pos_ >= text_.size() ||
          !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        return Fail("bad fraction");
      }
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (pos_ >= text_.size() ||
          !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        return Fail("bad exponent");
      }
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    if (pos_ <= start) return false;
    if (out != nullptr) {
      // The token was fully checked against the JSON grammar above, so
      // strtod on a NUL-terminated copy cannot fail.
      JsonValueBuilder::SetNumber(
          out, std::strtod(
                   std::string(text_.substr(start, pos_ - start)).c_str(),
                   nullptr));
    }
    return true;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
  std::string err_;
};

}  // namespace

bool ValidateJson(std::string_view text, std::string* error) {
  return Parser(text).Parse(error);
}

bool ParseJson(std::string_view text, JsonValue* out, std::string* error) {
  JsonValue parsed;
  if (!Parser(text).Parse(error, &parsed)) return false;
  *out = std::move(parsed);
  return true;
}

std::uint64_t JsonValue::AsUInt(std::uint64_t fallback) const {
  if (!IsNumber() || num_ < 0.0) return fallback;
  // Saturate: casting 2^64 or more ("1e999" parses to Inf) is undefined.
  if (!(num_ < 0x1p64)) return std::numeric_limits<std::uint64_t>::max();
  return static_cast<std::uint64_t>(num_ + 0.5);
}

const JsonValue* JsonValue::Find(std::string_view key) const {
  if (!IsObject()) return nullptr;
  for (const auto& [k, v] : members_) {
    if (k == key) return &v;
  }
  return nullptr;
}

double JsonValue::GetDouble(std::string_view key, double fallback) const {
  const JsonValue* v = Find(key);
  return v != nullptr ? v->AsDouble(fallback) : fallback;
}

std::uint64_t JsonValue::GetUInt(std::string_view key,
                                 std::uint64_t fallback) const {
  const JsonValue* v = Find(key);
  return v != nullptr ? v->AsUInt(fallback) : fallback;
}

bool JsonValue::GetBool(std::string_view key, bool fallback) const {
  const JsonValue* v = Find(key);
  return v != nullptr ? v->AsBool(fallback) : fallback;
}

std::string JsonValue::GetString(std::string_view key,
                                 const std::string& fallback) const {
  const JsonValue* v = Find(key);
  return v != nullptr && v->IsString() ? v->AsString() : fallback;
}

}  // namespace obs
}  // namespace mio
