#include "campaign/json.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <stdexcept>

namespace ctflash::campaign {

namespace {

const char* KindName(Json::Kind kind) {
  switch (kind) {
    case Json::Kind::kNull: return "null";
    case Json::Kind::kBool: return "bool";
    case Json::Kind::kNumber: return "number";
    case Json::Kind::kString: return "string";
    case Json::Kind::kArray: return "array";
    case Json::Kind::kObject: return "object";
  }
  return "?";
}

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Json Run() {
    Json v = ParseValue();
    SkipWs();
    if (pos_ != text_.size()) Fail("trailing characters after JSON value");
    return v;
  }

 private:
  [[noreturn]] void Fail(const std::string& what) const {
    std::size_t line = 1, col = 1;
    for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') { ++line; col = 1; } else { ++col; }
    }
    throw std::runtime_error("json: " + what + " at line " +
                             std::to_string(line) + " column " +
                             std::to_string(col));
  }

  void SkipWs() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') ++pos_;
      else break;
    }
  }

  char Peek() {
    if (pos_ >= text_.size()) Fail("unexpected end of input");
    return text_[pos_];
  }

  void Expect(char c) {
    if (Peek() != c) Fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool Consume(const char* literal) {
    const std::size_t n = std::strlen(literal);
    if (text_.compare(pos_, n, literal) == 0) {
      pos_ += n;
      return true;
    }
    return false;
  }

  Json ParseValue() {
    SkipWs();
    const char c = Peek();
    switch (c) {
      case '{': return ParseObject();
      case '[': return ParseArray();
      case '"': return Json(ParseString());
      case 't': if (Consume("true")) return Json(true); Fail("invalid literal");
      case 'f': if (Consume("false")) return Json(false); Fail("invalid literal");
      case 'n': if (Consume("null")) return Json(); Fail("invalid literal");
      default: return ParseNumber();
    }
  }

  Json ParseObject() {
    Expect('{');
    JsonObject obj;
    SkipWs();
    if (Peek() == '}') { ++pos_; return Json(std::move(obj)); }
    while (true) {
      SkipWs();
      if (Peek() != '"') Fail("expected object key string");
      std::string key = ParseString();
      SkipWs();
      Expect(':');
      if (obj.count(key) != 0) Fail("duplicate object key \"" + key + "\"");
      obj.emplace(std::move(key), ParseValue());
      SkipWs();
      if (Peek() == ',') { ++pos_; continue; }
      Expect('}');
      return Json(std::move(obj));
    }
  }

  Json ParseArray() {
    Expect('[');
    JsonArray arr;
    SkipWs();
    if (Peek() == ']') { ++pos_; return Json(std::move(arr)); }
    while (true) {
      arr.push_back(ParseValue());
      SkipWs();
      if (Peek() == ',') { ++pos_; continue; }
      Expect(']');
      return Json(std::move(arr));
    }
  }

  std::string ParseString() {
    Expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) Fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= text_.size()) Fail("unterminated escape");
        const char e = text_[pos_++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            if (pos_ + 4 > text_.size()) Fail("truncated \\u escape");
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = text_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
              else Fail("invalid \\u escape digit");
            }
            // UTF-8 encode the BMP code point (surrogate pairs unsupported —
            // the campaign layer never emits them).
            if (code < 0x80) {
              out += static_cast<char>(code);
            } else if (code < 0x800) {
              out += static_cast<char>(0xC0 | (code >> 6));
              out += static_cast<char>(0x80 | (code & 0x3F));
            } else {
              out += static_cast<char>(0xE0 | (code >> 12));
              out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
              out += static_cast<char>(0x80 | (code & 0x3F));
            }
            break;
          }
          default: Fail("invalid escape character");
        }
      } else if (static_cast<unsigned char>(c) < 0x20) {
        Fail("raw control character in string");
      } else {
        out += c;
      }
    }
  }

  Json ParseNumber() {
    const std::size_t start = pos_;
    if (Peek() == '-') ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if ((c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' ||
          c == '+' || c == '-') {
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) Fail("expected a JSON value");
    const std::string token = text_.substr(start, pos_ - start);
    char* end = nullptr;
    const double v = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) Fail("malformed number '" + token + "'");
    return Json(v);
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

void AppendEscaped(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
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
  out += '"';
}

void AppendNumber(std::string& out, double v) {
  if (!std::isfinite(v)) {
    // JSON has no Inf/NaN; null is the conventional stand-in.
    out += "null";
    return;
  }
  if (v == std::floor(v) && std::fabs(v) < 9.007199254740992e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
    out += buf;
    return;
  }
  // Shortest representation that round-trips a double.
  char buf[40];
  for (int prec = 15; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof(buf), "%.*g", prec, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  out += buf;
}

}  // namespace

Json Json::Parse(const std::string& text) { return Parser(text).Run(); }

bool Json::AsBool() const {
  if (kind_ != Kind::kBool) {
    throw std::runtime_error(std::string("json: expected bool, found ") + KindName(kind_));
  }
  return bool_;
}

double Json::AsDouble() const {
  if (kind_ != Kind::kNumber) {
    throw std::runtime_error(std::string("json: expected number, found ") + KindName(kind_));
  }
  return number_;
}

std::int64_t Json::AsInt() const {
  const double v = AsDouble();
  // int64 spans [-2^63, 2^63); the comparisons also reject the infinities
  // an overflowing literal such as 1e999 parses to.
  if (!(v >= -9223372036854775808.0 && v < 9223372036854775808.0)) {
    char text[32];
    std::snprintf(text, sizeof(text), "%.17g", v);
    throw std::runtime_error(
        std::string("json: integer out of the int64 range, found ") + text);
  }
  if (v != std::floor(v)) {
    throw std::runtime_error("json: expected an integer, found " + std::to_string(v));
  }
  return static_cast<std::int64_t>(v);
}

std::uint64_t Json::AsUint() const {
  const std::int64_t v = AsInt();
  if (v < 0) {
    throw std::runtime_error("json: expected a non-negative integer, found " +
                             std::to_string(v));
  }
  return static_cast<std::uint64_t>(v);
}

std::uint32_t Json::AsUint32(const std::string& name) const {
  const std::uint64_t v = AsUint();
  if (v > std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument("json: \"" + name + "\" must be at most " +
                                std::to_string(
                                    std::numeric_limits<std::uint32_t>::max()) +
                                ", found " + std::to_string(v));
  }
  return static_cast<std::uint32_t>(v);
}

const std::string& Json::AsString() const {
  if (kind_ != Kind::kString) {
    throw std::runtime_error(std::string("json: expected string, found ") + KindName(kind_));
  }
  return string_;
}

const JsonArray& Json::AsArray() const {
  if (kind_ != Kind::kArray) {
    throw std::runtime_error(std::string("json: expected array, found ") + KindName(kind_));
  }
  return array_;
}

const JsonObject& Json::AsObject() const {
  if (kind_ != Kind::kObject) {
    throw std::runtime_error(std::string("json: expected object, found ") + KindName(kind_));
  }
  return object_;
}

JsonArray& Json::AsArray() {
  if (kind_ != Kind::kArray) {
    throw std::runtime_error(std::string("json: expected array, found ") + KindName(kind_));
  }
  return array_;
}

JsonObject& Json::AsObject() {
  if (kind_ != Kind::kObject) {
    throw std::runtime_error(std::string("json: expected object, found ") + KindName(kind_));
  }
  return object_;
}

const Json* Json::Get(const std::string& key) const {
  if (kind_ != Kind::kObject) return nullptr;
  const auto it = object_.find(key);
  return it == object_.end() ? nullptr : &it->second;
}

bool Json::GetBoolOr(const std::string& key, bool fallback) const {
  const Json* v = Get(key);
  return v == nullptr || v->IsNull() ? fallback : v->AsBool();
}

double Json::GetDoubleOr(const std::string& key, double fallback) const {
  const Json* v = Get(key);
  return v == nullptr || v->IsNull() ? fallback : v->AsDouble();
}

std::int64_t Json::GetIntOr(const std::string& key, std::int64_t fallback) const {
  const Json* v = Get(key);
  return v == nullptr || v->IsNull() ? fallback : v->AsInt();
}

std::uint64_t Json::GetUintOr(const std::string& key, std::uint64_t fallback) const {
  const Json* v = Get(key);
  return v == nullptr || v->IsNull() ? fallback : v->AsUint();
}

std::uint32_t Json::GetUint32Or(const std::string& key,
                                std::uint32_t fallback) const {
  const Json* v = Get(key);
  return v == nullptr || v->IsNull() ? fallback : v->AsUint32(key);
}

std::string Json::GetStringOr(const std::string& key,
                              const std::string& fallback) const {
  const Json* v = Get(key);
  return v == nullptr || v->IsNull() ? fallback : v->AsString();
}

Json& Json::operator[](const std::string& key) {
  if (kind_ == Kind::kNull) kind_ = Kind::kObject;
  if (kind_ != Kind::kObject) {
    throw std::runtime_error(std::string("json: operator[] on ") + KindName(kind_));
  }
  return object_[key];
}

void Json::DumpTo(std::string& out, int indent, int depth) const {
  const auto newline = [&](int d) {
    if (indent > 0) {
      out += '\n';
      out.append(static_cast<std::size_t>(indent) * d, ' ');
    }
  };
  switch (kind_) {
    case Kind::kNull: out += "null"; break;
    case Kind::kBool: out += bool_ ? "true" : "false"; break;
    case Kind::kNumber: AppendNumber(out, number_); break;
    case Kind::kString: AppendEscaped(out, string_); break;
    case Kind::kArray: {
      if (array_.empty()) { out += "[]"; break; }
      out += '[';
      bool first = true;
      for (const Json& v : array_) {
        if (!first) out += ',';
        first = false;
        newline(depth + 1);
        v.DumpTo(out, indent, depth + 1);
      }
      newline(depth);
      out += ']';
      break;
    }
    case Kind::kObject: {
      if (object_.empty()) { out += "{}"; break; }
      out += '{';
      bool first = true;
      for (const auto& [key, v] : object_) {
        if (!first) out += ',';
        first = false;
        newline(depth + 1);
        AppendEscaped(out, key);
        out += indent > 0 ? ": " : ":";
        v.DumpTo(out, indent, depth + 1);
      }
      newline(depth);
      out += '}';
      break;
    }
  }
}

std::string Json::Dump(int indent) const {
  std::string out;
  DumpTo(out, indent, 0);
  return out;
}

bool Json::operator==(const Json& other) const {
  if (kind_ != other.kind_) return false;
  switch (kind_) {
    case Kind::kNull: return true;
    case Kind::kBool: return bool_ == other.bool_;
    case Kind::kNumber: return number_ == other.number_;
    case Kind::kString: return string_ == other.string_;
    case Kind::kArray: return array_ == other.array_;
    case Kind::kObject: return object_ == other.object_;
  }
  return false;
}

}  // namespace ctflash::campaign
