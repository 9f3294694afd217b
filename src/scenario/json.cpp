#include "scenario/json.hpp"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace scidmz::scenario {

namespace {

/// Recursive-descent parser with line/column tracking for error messages.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Json parseDocument() {
    Json value = parseValue();
    skipWhitespace();
    if (pos_ != text_.size()) fail("trailing characters after JSON document");
    return value;
  }

 private:
  template <typename Error = JsonError>
  [[noreturn]] void fail(const std::string& message) const {
    std::size_t line = 1;
    std::size_t column = 1;
    for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') {
        ++line;
        column = 1;
      } else {
        ++column;
      }
    }
    throw Error("JSON parse error at line " + std::to_string(line) + ", column " +
                std::to_string(column) + ": " + message);
  }

  [[nodiscard]] bool atEnd() const { return pos_ >= text_.size(); }
  [[nodiscard]] char peek() const { return text_[pos_]; }

  void skipWhitespace() {
    while (!atEnd()) {
      const char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos_;
      } else {
        break;
      }
    }
  }

  void expect(char c, const char* what) {
    if (atEnd() || text_[pos_] != c) fail(std::string("expected ") + what);
    ++pos_;
  }

  bool consumeLiteral(std::string_view word) {
    if (text_.substr(pos_, word.size()) == word) {
      pos_ += word.size();
      return true;
    }
    return false;
  }

  Json parseValue() {
    skipWhitespace();
    if (atEnd()) fail("unexpected end of input");
    const char c = peek();
    switch (c) {
      case '{':
      case '[': {
        if (++depth_ > Json::kMaxDepth) {
          fail<SpecError>("nested deeper than " + std::to_string(Json::kMaxDepth) + " levels");
        }
        Json nested = c == '{' ? parseObject() : parseArray();
        --depth_;
        return nested;
      }
      case '"':
        return Json(parseString());
      case 't':
        if (consumeLiteral("true")) return Json(true);
        fail("invalid literal (expected 'true')");
      case 'f':
        if (consumeLiteral("false")) return Json(false);
        fail("invalid literal (expected 'false')");
      case 'n':
        if (consumeLiteral("null")) return Json(nullptr);
        fail("invalid literal (expected 'null')");
      default:
        if (c == '-' || (c >= '0' && c <= '9')) return parseNumber();
        fail(std::string("unexpected character '") + c + "'");
    }
  }

  Json parseObject() {
    expect('{', "'{'");
    Json object = Json::object();
    skipWhitespace();
    if (!atEnd() && peek() == '}') {
      ++pos_;
      return object;
    }
    while (true) {
      skipWhitespace();
      if (atEnd() || peek() != '"') fail("expected object key string");
      std::string key = parseString();
      if (object.contains(key)) fail("duplicate object key \"" + key + "\"");
      skipWhitespace();
      expect(':', "':' after object key");
      object.set(std::move(key), parseValue());
      skipWhitespace();
      if (atEnd()) fail("unterminated object");
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}', "',' or '}' in object");
      return object;
    }
  }

  Json parseArray() {
    expect('[', "'['");
    Json array = Json::array();
    skipWhitespace();
    if (!atEnd() && peek() == ']') {
      ++pos_;
      return array;
    }
    while (true) {
      array.push(parseValue());
      skipWhitespace();
      if (atEnd()) fail("unterminated array");
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']', "',' or ']' in array");
      return array;
    }
  }

  std::string parseString() {
    expect('"', "'\"'");
    std::string out;
    while (true) {
      if (atEnd()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) fail("raw control character in string");
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (atEnd()) fail("unterminated escape sequence");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          unsigned code = parseHex4();
          // Surrogate pairs: combine into one code point.
          if (code >= 0xD800 && code <= 0xDBFF) {
            if (!consumeLiteral("\\u")) fail("unpaired high surrogate");
            const unsigned low = parseHex4();
            if (low < 0xDC00 || low > 0xDFFF) fail("invalid low surrogate");
            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
          } else if (code >= 0xDC00 && code <= 0xDFFF) {
            fail("unpaired low surrogate");
          }
          appendUtf8(out, code);
          break;
        }
        default:
          fail(std::string("invalid escape '\\") + esc + "'");
      }
    }
  }

  unsigned parseHex4() {
    if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
    unsigned value = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      value <<= 4;
      if (c >= '0' && c <= '9') {
        value |= static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        value |= static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        value |= static_cast<unsigned>(c - 'A' + 10);
      } else {
        fail("invalid hex digit in \\u escape");
      }
    }
    return value;
  }

  static void appendUtf8(std::string& out, unsigned code) {
    if (code < 0x80) {
      out.push_back(static_cast<char>(code));
    } else if (code < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (code >> 6)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else if (code < 0x10000) {
      out.push_back(static_cast<char>(0xE0 | (code >> 12)));
      out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xF0 | (code >> 18)));
      out.push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    }
  }

  Json parseNumber() {
    const std::size_t start = pos_;
    if (!atEnd() && peek() == '-') ++pos_;
    if (atEnd() || peek() < '0' || peek() > '9') fail("invalid number");
    if (peek() == '0') {
      ++pos_;
    } else {
      while (!atEnd() && peek() >= '0' && peek() <= '9') ++pos_;
    }
    if (!atEnd() && peek() == '.') {
      ++pos_;
      if (atEnd() || peek() < '0' || peek() > '9') fail("digits required after decimal point");
      while (!atEnd() && peek() >= '0' && peek() <= '9') ++pos_;
    }
    if (!atEnd() && (peek() == 'e' || peek() == 'E')) {
      ++pos_;
      if (!atEnd() && (peek() == '+' || peek() == '-')) ++pos_;
      if (atEnd() || peek() < '0' || peek() > '9') fail("digits required in exponent");
      while (!atEnd() && peek() >= '0' && peek() <= '9') ++pos_;
    }
    const std::string token(text_.substr(start, pos_ - start));
    errno = 0;
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) fail("invalid number");
    if (!std::isfinite(value)) fail("number out of range");
    return Json(value);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;  ///< arrays/objects open at pos_
};

}  // namespace

bool Json::contains(std::string_view key) const {
  for (const auto& [name, value] : members_) {
    if (name == key) return true;
  }
  return false;
}

const Json& Json::get(std::string_view key) const {
  static const Json kNull;
  for (const auto& [name, value] : members_) {
    if (name == key) return value;
  }
  return kNull;
}

Json& Json::set(std::string key, Json value) {
  if (kind_ == Kind::kNull) kind_ = Kind::kObject;
  requireKind(Kind::kObject, "object");
  for (auto& [name, existing] : members_) {
    if (name == key) {
      existing = std::move(value);
      return existing;
    }
  }
  members_.emplace_back(std::move(key), std::move(value));
  return members_.back().second;
}

Json& Json::operator[](std::string_view key) {
  if (kind_ == Kind::kNull) kind_ = Kind::kObject;
  requireKind(Kind::kObject, "object");
  for (auto& [name, value] : members_) {
    if (name == key) return value;
  }
  members_.emplace_back(std::string(key), Json());
  return members_.back().second;
}

Json Json::parse(std::string_view text) { return Parser(text).parseDocument(); }

std::string Json::dump() const {
  std::string out;
  dumpTo(out, /*indent=*/-1, /*depth=*/0);
  return out;
}

std::string Json::pretty() const {
  std::string out;
  dumpTo(out, /*indent=*/2, /*depth=*/0);
  out.push_back('\n');
  return out;
}

void Json::dumpTo(std::string& out, int indent, int depth) const {
  const bool prettyPrint = indent >= 0;
  const auto newlineAndPad = [&](int level) {
    out.push_back('\n');
    out.append(static_cast<std::size_t>(indent * level), ' ');
  };
  switch (kind_) {
    case Kind::kNull:
      out += "null";
      break;
    case Kind::kBool:
      out += bool_ ? "true" : "false";
      break;
    case Kind::kNumber:
      appendJsonNumber(out, number_);
      break;
    case Kind::kString:
      appendJsonString(out, string_);
      break;
    case Kind::kArray: {
      out.push_back('[');
      bool first = true;
      for (const auto& item : items_) {
        if (!first) out.push_back(',');
        first = false;
        if (prettyPrint) newlineAndPad(depth + 1);
        item.dumpTo(out, indent, depth + 1);
      }
      if (prettyPrint && !items_.empty()) newlineAndPad(depth);
      out.push_back(']');
      break;
    }
    case Kind::kObject: {
      out.push_back('{');
      bool first = true;
      for (const auto& [name, value] : members_) {
        if (!first) out.push_back(',');
        first = false;
        if (prettyPrint) newlineAndPad(depth + 1);
        appendJsonString(out, name);
        out.push_back(':');
        if (prettyPrint) out.push_back(' ');
        value.dumpTo(out, indent, depth + 1);
      }
      if (prettyPrint && !members_.empty()) newlineAndPad(depth);
      out.push_back('}');
      break;
    }
  }
}

void appendJsonNumber(std::string& out, double v) {
  // Integral values below 2^63 print as plain integers; everything else
  // uses the shortest %g precision that survives a strtod round trip.
  if (v == 0.0) {
    out += "0";
    return;
  }
  if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 9.2233720368547758e18) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%" PRId64, static_cast<std::int64_t>(v));
    out += buf;
    return;
  }
  char buf[40];
  for (int precision = 15; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  out += buf;
}

void appendJsonString(std::string& out, std::string_view s) {
  out.push_back('"');
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
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

}  // namespace scidmz::scenario
