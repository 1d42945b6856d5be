#include "util/json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "util/parse.h"

namespace esva::json {

const Value* Value::find(const std::string& key) const {
  for (const auto& [k, v] : object)
    if (k == key) return &v;
  return nullptr;
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Value parse() {
    Value value = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters");
    return value;
  }

 private:
  // Guards the recursive-descent stack against adversarial "[[[[..." input:
  // a depth bound turns a would-be stack overflow into a parse error.
  static constexpr int kMaxDepth = 64;

  [[noreturn]] void fail(const std::string& what) {
    throw std::runtime_error("json parse error at offset " +
                             std::to_string(pos_) + ": " + what);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])))
      ++pos_;
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) return false;
    pos_ += literal.size();
    return true;
  }

  Value parse_value() {
    if (++depth_ > kMaxDepth) fail("nesting too deep");
    Value v = parse_value_inner();
    --depth_;
    return v;
  }

  Value parse_value_inner() {
    skip_ws();
    const char c = peek();
    if (c == '{') return parse_object();
    if (c == '[') return parse_array();
    if (c == '"') {
      Value v;
      v.kind = Value::Kind::String;
      v.string = parse_string();
      return v;
    }
    if (consume_literal("true")) {
      Value v;
      v.kind = Value::Kind::Bool;
      v.boolean = true;
      return v;
    }
    if (consume_literal("false")) {
      Value v;
      v.kind = Value::Kind::Bool;
      return v;
    }
    if (consume_literal("null")) return Value{};
    return parse_number();
  }

  Value parse_object() {
    Value v;
    v.kind = Value::Kind::Object;
    expect('{');
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      v.object.emplace_back(std::move(key), parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  Value parse_array() {
    Value v;
    v.kind = Value::Kind::Array;
    expect('[');
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.array.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      const char c = peek();
      ++pos_;
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      const char escape = peek();
      ++pos_;
      switch (escape) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          long code = 0;
          for (int k = 0; k < 4; ++k) {
            const char h = text_[pos_ + static_cast<std::size_t>(k)];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= h - '0';
            else if (h >= 'a' && h <= 'f') code |= h - 'a' + 10;
            else if (h >= 'A' && h <= 'F') code |= h - 'A' + 10;
            else fail("malformed \\u escape");
          }
          pos_ += 4;
          // Our formats only escape control characters, all < 0x80; emit as
          // a single byte.
          if (code > 0x7f) fail("unsupported \\u escape");
          out += static_cast<char>(code);
          break;
        }
        default: fail("unknown escape");
      }
    }
  }

  Value parse_number() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E'))
      ++pos_;
    if (pos_ == start) fail("expected a value");
    Value v;
    v.kind = Value::Kind::Number;
    v.string.assign(text_.substr(start, pos_ - start));
    try {
      v.number = std::stod(v.string);
    } catch (const std::exception&) {
      fail("malformed number");
    }
    return v;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

Value parse(std::string_view text) { return Parser(text).parse(); }

std::string escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  out += '"';
  for (unsigned char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  out += '"';
  return out;
}

double require_number(const Value& obj, const std::string& key,
                      const std::string& context) {
  const Value* v = obj.find(key);
  if (!v || v->kind != Value::Kind::Number)
    throw std::runtime_error(context + ": missing numeric field '" + key + "'");
  return v->number;
}

bool exact_integer(const Value& v, long long* out) {
  if (v.kind != Value::Kind::Number) return false;
  const char* first = v.string.data();
  const char* last = first + v.string.size();
  long long value = 0;
  const auto [end, ec] = std::from_chars(first, last, value);
  if (end == last && ec == std::errc{}) {
    *out = value;
    return true;
  }
  // An all-digit token that overflows long long has no exact value; one
  // that stops early ("1e3", "5.0", or a Value built without its token)
  // falls back to the double, which is exact only up to 2^53.
  if (end == last && ec == std::errc::result_out_of_range) return false;
  if (!std::isfinite(v.number) || v.number != std::floor(v.number) ||
      std::fabs(v.number) > kMaxExactInteger)
    return false;
  *out = static_cast<long long>(v.number);
  return true;
}

long long require_integer(const Value& obj, const std::string& key,
                          long long lo, long long hi,
                          const std::string& context) {
  const Value* v = obj.find(key);
  if (!v || v->kind != Value::Kind::Number)
    throw std::runtime_error(context + ": missing numeric field '" + key + "'");
  long long value = 0;
  if (!exact_integer(*v, &value) || value < lo || value > hi)
    throw std::runtime_error(context + ": field '" + key +
                             "' must be an integer in [" + std::to_string(lo) +
                             ", " + std::to_string(hi) + "], got " +
                             v->string);
  return value;
}

const std::string& require_string(const Value& obj, const std::string& key,
                                  const std::string& context) {
  const Value* v = obj.find(key);
  if (!v || v->kind != Value::Kind::String)
    throw std::runtime_error(context + ": missing string field '" + key + "'");
  return v->string;
}

}  // namespace esva::json
