#include "common/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>

#include "common/error.hpp"

namespace hpas {
namespace {

[[noreturn]] void type_error(const char* want, Json::Type got) {
  static const char* kNames[] = {"null",   "bool",  "number",
                                 "string", "array", "object"};
  throw ConfigError(std::string("json: expected ") + want + ", got " +
                    kNames[static_cast<int>(got)]);
}

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Json parse_document() {
    Json value = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after JSON value");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& msg) const {
    std::size_t line = 1, col = 1;
    for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') { ++line; col = 1; } else { ++col; }
    }
    throw ConfigError("json: " + msg + " at line " + std::to_string(line) +
                      ", column " + std::to_string(col));
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') ++pos_;
      else break;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) { ++pos_; return true; }
    return false;
  }

  void expect(char c) {
    if (!consume(c)) fail(std::string("expected '") + c + "'");
  }

  bool consume_word(std::string_view word) {
    if (text_.substr(pos_, word.size()) == word) {
      pos_ += word.size();
      return true;
    }
    return false;
  }

  Json parse_value() {
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return Json(parse_string());
      case 't': if (consume_word("true")) return Json(true); fail("bad literal");
      case 'f': if (consume_word("false")) return Json(false); fail("bad literal");
      case 'n': if (consume_word("null")) return Json(nullptr); fail("bad literal");
      default: return parse_number();
    }
  }

  Json parse_object() {
    expect('{');
    Json::Object members;
    skip_ws();
    if (consume('}')) return Json(std::move(members));
    while (true) {
      skip_ws();
      if (peek() != '"') fail("expected object key string");
      std::string key = parse_string();
      skip_ws();
      expect(':');
      members.emplace_back(std::move(key), parse_value());
      skip_ws();
      if (consume(',')) continue;
      expect('}');
      return Json(std::move(members));
    }
  }

  Json parse_array() {
    expect('[');
    Json::Array elems;
    skip_ws();
    if (consume(']')) return Json(std::move(elems));
    while (true) {
      elems.push_back(parse_value());
      skip_ws();
      if (consume(',')) continue;
      expect(']');
      return Json(std::move(elems));
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) fail("control character in string");
      if (c != '\\') { out.push_back(c); continue; }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': out.append(parse_unicode_escape()); break;
        default: fail("unknown escape sequence");
      }
    }
  }

  std::string parse_unicode_escape() {
    if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      code <<= 4;
      if (c >= '0' && c <= '9') code |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') code |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') code |= static_cast<unsigned>(c - 'A' + 10);
      else fail("bad hex digit in \\u escape");
    }
    // UTF-8 encode the BMP code point (surrogate pairs unsupported; grid
    // files are ASCII in practice).
    std::string out;
    if (code < 0x80) {
      out.push_back(static_cast<char>(code));
    } else if (code < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (code >> 6)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xE0 | (code >> 12)));
      out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    }
    return out;
  }

  Json parse_number() {
    const std::size_t start = pos_;
    if (consume('-')) {}
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    double value = 0.0;
    const char* first = text_.data() + start;
    const char* last = text_.data() + pos_;
    const auto [ptr, ec] = std::from_chars(first, last, value);
    if (ec != std::errc() || ptr != last || first == last) {
      pos_ = start;
      fail("malformed number");
    }
    return Json(value);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

void write_escaped(std::string& out, const std::string& s) {
  out.reserve(out.size() + s.size() + 2);
  out.push_back('"');
  std::size_t run = 0;  // start of the pending run of verbatim bytes
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(s, run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: {
        char buf[8];
        std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
        out += buf;
      }
    }
  }
  out.append(s, run, s.size() - run);
  out.push_back('"');
}

}  // namespace

std::string json_number_to_string(double v) {
  if (std::isnan(v) || std::isinf(v)) return "null";  // JSON has no inf/nan
  // Integers (up to the exactly-representable range) print without a
  // decimal point; everything else uses shortest round-trip formatting.
  if (v == std::floor(v) && std::fabs(v) < 9.007199254740992e15) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.0f", v);
    return buf;
  }
  char buf[40];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, v);
  if (ec != std::errc()) return "0";
  return std::string(buf, ptr);
}

bool Json::as_bool() const {
  if (type_ != Type::kBool) type_error("bool", type_);
  return bool_;
}

double Json::as_number() const {
  if (type_ != Type::kNumber) type_error("number", type_);
  return number_;
}

const std::string& Json::as_string() const {
  if (type_ != Type::kString) type_error("string", type_);
  return string_;
}

const Json::Array& Json::as_array() const {
  if (type_ != Type::kArray) type_error("array", type_);
  return array_;
}

const Json* Json::find(std::string_view key) const {
  if (type_ != Type::kObject) return nullptr;
  for (const auto& [k, v] : object_)
    if (k == key) return &v;
  return nullptr;
}

double Json::number_or(std::string_view key, double fallback) const {
  const Json* v = find(key);
  return v == nullptr ? fallback : v->as_number();
}

std::string Json::string_or(std::string_view key, std::string fallback) const {
  const Json* v = find(key);
  return v == nullptr ? std::move(fallback) : v->as_string();
}

bool Json::bool_or(std::string_view key, bool fallback) const {
  const Json* v = find(key);
  return v == nullptr ? fallback : v->as_bool();
}

Json& Json::set(std::string key, Json value) {
  if (type_ == Type::kNull) type_ = Type::kObject;
  if (type_ != Type::kObject) type_error("object", type_);
  for (auto& [k, v] : object_) {
    if (k == key) {
      v = std::move(value);
      return *this;
    }
  }
  object_.emplace_back(std::move(key), std::move(value));
  return *this;
}

Json& Json::push_back(Json value) {
  if (type_ == Type::kNull) type_ = Type::kArray;
  if (type_ != Type::kArray) type_error("array", type_);
  array_.push_back(std::move(value));
  return *this;
}

Json Json::parse(std::string_view text) {
  return Parser(text).parse_document();
}

void Json::write(std::string& out, int indent, int depth) const {
  const bool pretty = indent >= 0;
  const auto newline_pad = [&](int d) {
    out.push_back('\n');
    out.append(static_cast<std::size_t>(indent * d), ' ');
  };
  switch (type_) {
    case Type::kNull: out += "null"; break;
    case Type::kBool: out += bool_ ? "true" : "false"; break;
    case Type::kNumber: out += json_number_to_string(number_); break;
    case Type::kString: write_escaped(out, string_); break;
    case Type::kArray: {
      out.push_back('[');
      for (std::size_t i = 0; i < array_.size(); ++i) {
        if (i > 0) out.push_back(',');
        if (pretty) newline_pad(depth + 1);
        array_[i].write(out, indent, depth + 1);
      }
      if (pretty && !array_.empty()) newline_pad(depth);
      out.push_back(']');
      break;
    }
    case Type::kObject: {
      out.push_back('{');
      for (std::size_t i = 0; i < object_.size(); ++i) {
        if (i > 0) out.push_back(',');
        if (pretty) newline_pad(depth + 1);
        write_escaped(out, object_[i].first);
        out.push_back(':');
        if (pretty) out.push_back(' ');
        object_[i].second.write(out, indent, depth + 1);
      }
      if (pretty && !object_.empty()) newline_pad(depth);
      out.push_back('}');
      break;
    }
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  write(out, indent, 0);
  if (indent >= 0) out.push_back('\n');
  return out;
}

}  // namespace hpas
