#include "common/json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>

#include "common/error.h"

namespace wavepim::json {

bool Value::as_bool() const {
  WAVEPIM_REQUIRE(is_bool(), "JSON value is not a bool");
  return bool_;
}

double Value::as_number() const {
  WAVEPIM_REQUIRE(is_number(), "JSON value is not a number");
  return number_;
}

const std::string& Value::as_string() const {
  WAVEPIM_REQUIRE(is_string(), "JSON value is not a string");
  return string_;
}

const std::vector<Value>& Value::as_array() const {
  WAVEPIM_REQUIRE(is_array(), "JSON value is not an array");
  return array_;
}

const std::vector<std::pair<std::string, Value>>& Value::as_object() const {
  WAVEPIM_REQUIRE(is_object(), "JSON value is not an object");
  return object_;
}

const Value* Value::find(std::string_view key) const {
  if (!is_object()) {
    return nullptr;
  }
  for (const auto& [k, v] : object_) {
    if (k == key) {
      return &v;
    }
  }
  return nullptr;
}

Value Value::make_bool(bool b) {
  Value v;
  v.kind_ = Kind::Bool;
  v.bool_ = b;
  return v;
}

Value Value::make_number(double n) {
  Value v;
  v.kind_ = Kind::Number;
  v.number_ = n;
  return v;
}

Value Value::make_string(std::string s) {
  Value v;
  v.kind_ = Kind::String;
  v.string_ = std::move(s);
  return v;
}

Value Value::make_array(std::vector<Value> items) {
  Value v;
  v.kind_ = Kind::Array;
  v.array_ = std::move(items);
  return v;
}

Value Value::make_object(std::vector<std::pair<std::string, Value>> members) {
  Value v;
  v.kind_ = Kind::Object;
  v.object_ = std::move(members);
  return v;
}

namespace {

/// Recursive-descent parser over the input view. Depth-limited so a
/// malicious/corrupt file cannot overflow the stack.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Value parse_document() {
    skip_ws();
    Value v = parse_value(0);
    skip_ws();
    require(pos_ == text_.size(), "trailing characters after JSON document");
    return v;
  }

 private:
  static constexpr int kMaxDepth = 64;

  [[noreturn]] void fail(const std::string& what) const {
    throw Error("JSON parse error at offset " + std::to_string(pos_) + ": " +
                what);
  }
  void require(bool ok, const char* what) const {
    if (!ok) {
      fail(what);
    }
  }

  [[nodiscard]] bool eof() const { return pos_ >= text_.size(); }
  [[nodiscard]] char peek() const {
    require(!eof(), "unexpected end of input");
    return text_[pos_];
  }
  char take() {
    const char c = peek();
    ++pos_;
    return c;
  }

  void skip_ws() {
    while (!eof()) {
      const char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos_;
      } else {
        break;
      }
    }
  }

  void expect_literal(std::string_view word) {
    require(text_.substr(pos_, word.size()) == word, "invalid literal");
    pos_ += word.size();
  }

  Value parse_value(int depth) {
    require(depth < kMaxDepth, "nesting too deep");
    switch (peek()) {
      case '{':
        return parse_object(depth);
      case '[':
        return parse_array(depth);
      case '"':
        return Value::make_string(parse_string());
      case 't':
        expect_literal("true");
        return Value::make_bool(true);
      case 'f':
        expect_literal("false");
        return Value::make_bool(false);
      case 'n':
        expect_literal("null");
        return Value::make_null();
      default:
        return parse_number();
    }
  }

  Value parse_object(int depth) {
    take();  // '{'
    std::vector<std::pair<std::string, Value>> members;
    skip_ws();
    if (peek() == '}') {
      take();
      return Value::make_object(std::move(members));
    }
    for (;;) {
      skip_ws();
      require(peek() == '"', "expected object key");
      std::string key = parse_string();
      skip_ws();
      require(take() == ':', "expected ':' after object key");
      skip_ws();
      members.emplace_back(std::move(key), parse_value(depth + 1));
      skip_ws();
      const char c = take();
      if (c == '}') {
        return Value::make_object(std::move(members));
      }
      require(c == ',', "expected ',' or '}' in object");
    }
  }

  Value parse_array(int depth) {
    take();  // '['
    std::vector<Value> items;
    skip_ws();
    if (peek() == ']') {
      take();
      return Value::make_array(std::move(items));
    }
    for (;;) {
      skip_ws();
      items.push_back(parse_value(depth + 1));
      skip_ws();
      const char c = take();
      if (c == ']') {
        return Value::make_array(std::move(items));
      }
      require(c == ',', "expected ',' or ']' in array");
    }
  }

  std::uint32_t parse_hex4() {
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = take();
      v <<= 4;
      if (c >= '0' && c <= '9') {
        v |= static_cast<std::uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        v |= static_cast<std::uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        v |= static_cast<std::uint32_t>(c - 'A' + 10);
      } else {
        fail("invalid \\u escape");
      }
    }
    return v;
  }

  static void append_utf8(std::string& out, std::uint32_t cp) {
    if (cp < 0x80) {
      out.push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  std::string parse_string() {
    take();  // '"'
    std::string out;
    for (;;) {
      const char c = take();
      if (c == '"') {
        return out;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("unescaped control character in string");
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      const char esc = take();
      switch (esc) {
        case '"':
        case '\\':
        case '/':
          out.push_back(esc);
          break;
        case 'b':
          out.push_back('\b');
          break;
        case 'f':
          out.push_back('\f');
          break;
        case 'n':
          out.push_back('\n');
          break;
        case 'r':
          out.push_back('\r');
          break;
        case 't':
          out.push_back('\t');
          break;
        case 'u': {
          std::uint32_t cp = parse_hex4();
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            // High surrogate: must be followed by \uDC00..\uDFFF.
            require(!eof() && take() == '\\' && take() == 'u',
                    "lone high surrogate");
            const std::uint32_t low = parse_hex4();
            require(low >= 0xDC00 && low <= 0xDFFF, "invalid low surrogate");
            cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
          } else {
            require(!(cp >= 0xDC00 && cp <= 0xDFFF), "lone low surrogate");
          }
          append_utf8(out, cp);
          break;
        }
        default:
          fail("invalid escape sequence");
      }
    }
  }

  Value parse_number() {
    const std::size_t start = pos_;
    if (!eof() && text_[pos_] == '-') {
      ++pos_;
    }
    while (!eof() && (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                      text_[pos_] == '+' || text_[pos_] == '-' ||
                      text_[pos_] == '.' || text_[pos_] == 'e' ||
                      text_[pos_] == 'E')) {
      ++pos_;
    }
    double value = 0.0;
    const auto [end, ec] = std::from_chars(text_.data() + start,
                                           text_.data() + pos_, value);
    if (ec != std::errc() || end != text_.data() + pos_ || pos_ == start) {
      fail("invalid number");
    }
    return Value::make_number(value);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

Value parse(std::string_view text) { return Parser(text).parse_document(); }

namespace {

void append_escaped(std::string& out, const std::string& s) {
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);  // UTF-8 passes through byte-wise
        }
    }
  }
  out.push_back('"');
}

void append_number(std::string& out, double v) {
  // JSON has no literal for NaN or the infinities, so a report holding
  // one could not be read back.
  if (!std::isfinite(v)) {
    throw Error(std::string("JSON cannot hold the number ") +
                (std::isnan(v) ? "nan" : v > 0 ? "inf" : "-inf"));
  }
  // Integers inside the exactly-representable range print without a
  // fraction; everything else uses %.17g, which round-trips any double.
  if (v == std::floor(v) && std::abs(v) < 9.007199254740992e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
    out += buf;
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out += buf;
}

void append_value(std::string& out, const Value& value, int indent,
                  int depth) {
  const auto newline = [&](int d) {
    if (indent > 0) {
      out.push_back('\n');
      out.append(static_cast<std::size_t>(indent) * d, ' ');
    }
  };
  switch (value.kind()) {
    case Value::Kind::Null:
      out += "null";
      break;
    case Value::Kind::Bool:
      out += value.as_bool() ? "true" : "false";
      break;
    case Value::Kind::Number:
      append_number(out, value.as_number());
      break;
    case Value::Kind::String:
      append_escaped(out, value.as_string());
      break;
    case Value::Kind::Array: {
      const auto& items = value.as_array();
      if (items.empty()) {
        out += "[]";
        break;
      }
      out.push_back('[');
      for (std::size_t i = 0; i < items.size(); ++i) {
        if (i != 0) {
          out.push_back(',');
        }
        newline(depth + 1);
        append_value(out, items[i], indent, depth + 1);
      }
      newline(depth);
      out.push_back(']');
      break;
    }
    case Value::Kind::Object: {
      const auto& members = value.as_object();
      if (members.empty()) {
        out += "{}";
        break;
      }
      out.push_back('{');
      for (std::size_t i = 0; i < members.size(); ++i) {
        if (i != 0) {
          out.push_back(',');
        }
        newline(depth + 1);
        append_escaped(out, members[i].first);
        out += indent > 0 ? ": " : ":";
        append_value(out, members[i].second, indent, depth + 1);
      }
      newline(depth);
      out.push_back('}');
      break;
    }
  }
}

}  // namespace

std::string dump(const Value& value, int indent) {
  std::string out;
  append_value(out, value, indent, 0);
  return out;
}

}  // namespace wavepim::json
