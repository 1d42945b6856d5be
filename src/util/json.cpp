#include "util/json.h"

#include <charconv>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <stdexcept>

#include "util/parse.h"

namespace esva::json {

const Value* Value::find(std::string_view key) const {
  for (const auto& [k, v] : object)
    if (k == key) return &v;
  return nullptr;
}

namespace {

bool is_digit(char c) { return c >= '0' && c <= '9'; }

/// The "C" locale's isspace set, ' ' and '\t' through '\r', tested inline
/// rather than through the locale's table.
bool is_space(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

/// "<context>: missing <kind> field '<key>'", built only on the refusal.
[[noreturn]] void missing_field(std::string_view context, const char* kind,
                                std::string_view key) {
  throw std::runtime_error(std::string(context) + ": missing " + kind +
                           " field '" + std::string(key) + "'");
}

/// A plain decimal integer token of at most 15 digits ("-12", "007"). Its
/// magnitude is below 2^53, so the double its from_chars value converts to
/// is exactly the double strtod reads, -0 included.
bool small_integer(std::string_view token, double* out) {
  const bool negative = !token.empty() && token[0] == '-';
  const std::string_view digits = token.substr(negative ? 1 : 0);
  if (digits.empty() || digits.size() > 15) return false;
  std::uint64_t value = 0;
  const char* last = digits.data() + digits.size();
  const auto [end, ec] = std::from_chars(digits.data(), last, value);
  if (ec != std::errc{} || end != last) return false;
  const double magnitude = static_cast<double>(value);
  *out = negative ? -magnitude : magnitude;
  return true;
}

/// Writes the document into a caller's tree. Every node it reaches is reset
/// to a fresh node of its new kind first, its strings and vectors emptied
/// but keeping their capacity; an object's members and an array's elements
/// are parsed over the ones the node already holds, and the surplus is
/// dropped when the container closes. So a document shaped like the last
/// one allocates nothing, and the result never depends on what the tree
/// held.
class Parser {
 public:
  Parser(std::string_view text, std::size_t max_values)
      : text_(text), max_values_(max_values) {}

  void parse(Value& out) {
    parse_value(out);
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters");
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
    while (pos_ < text_.size() && is_space(text_[pos_])) ++pos_;
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

  static void reset(Value& v, Value::Kind kind) {
    v.kind = kind;
    v.boolean = false;
    v.number = 0.0;
    v.string.clear();
    if (kind != Value::Kind::Array) v.array.clear();
    if (kind != Value::Kind::Object) v.object.clear();
  }

  void parse_value(Value& v) {
    if (++depth_ > kMaxDepth) fail("nesting too deep");
    if (++values_ > max_values_)
      fail("more than " + std::to_string(max_values_) + " values");
    parse_value_inner(v);
    --depth_;
  }

  void parse_value_inner(Value& v) {
    skip_ws();
    const char c = peek();
    if (c == '{') return parse_object(v);
    if (c == '[') return parse_array(v);
    if (c == '"') {
      reset(v, Value::Kind::String);
      return parse_string(v.string);
    }
    if (consume_literal("true")) {
      reset(v, Value::Kind::Bool);
      v.boolean = true;
      return;
    }
    if (consume_literal("false")) return reset(v, Value::Kind::Bool);
    if (consume_literal("null")) return reset(v, Value::Kind::Null);
    parse_number(v);
  }

  void parse_object(Value& v) {
    reset(v, Value::Kind::Object);
    expect('{');
    skip_ws();
    std::size_t n = 0;
    if (peek() != '}') {
      while (true) {
        skip_ws();
        if (n == v.object.size()) v.object.emplace_back();
        auto& [key, value] = v.object[n++];
        parse_string(key);
        skip_ws();
        expect(':');
        parse_value(value);
        skip_ws();
        if (peek() != ',') break;
        ++pos_;
      }
    }
    expect('}');
    v.object.erase(v.object.begin() + static_cast<std::ptrdiff_t>(n),
                   v.object.end());
  }

  void parse_array(Value& v) {
    reset(v, Value::Kind::Array);
    expect('[');
    skip_ws();
    std::size_t n = 0;
    if (peek() != ']') {
      while (true) {
        if (n == v.array.size()) v.array.emplace_back();
        parse_value(v.array[n++]);
        skip_ws();
        if (peek() != ',') break;
        ++pos_;
      }
    }
    expect(']');
    v.array.erase(v.array.begin() + static_cast<std::ptrdiff_t>(n),
                  v.array.end());
  }

  void parse_string(std::string& out) {
    expect('"');
    out.clear();
    while (true) {
      // Everything up to the next quote or escape in one append.
      std::size_t run = pos_;
      while (run < text_.size() && text_[run] != '"' && text_[run] != '\\')
        ++run;
      out.append(text_.data() + pos_, run - pos_);
      pos_ = run;
      const char c = peek();
      ++pos_;
      if (c == '"') return;
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

  void parse_number(Value& v) {
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (is_digit(text_[pos_]) || text_[pos_] == '-' ||
            text_[pos_] == '+' || text_[pos_] == '.' || text_[pos_] == 'e' ||
            text_[pos_] == 'E'))
      ++pos_;
    if (pos_ == start) fail("expected a value");
    reset(v, Value::Kind::Number);
    const std::string_view token = text_.substr(start, pos_ - start);
    v.string.assign(token);
    if (small_integer(token, &v.number)) return;
    try {
      v.number = std::stod(v.string);
    } catch (const std::exception&) {
      fail("malformed number");
    }
  }

  std::string_view text_;
  std::size_t max_values_;
  std::size_t pos_ = 0;
  std::size_t values_ = 0;
  int depth_ = 0;
};

}  // namespace

void parse(std::string_view text, Value& out) {
  Parser(text, kNoValueLimit).parse(out);
}

Value parse(std::string_view text, std::size_t max_values) {
  Value value;
  Parser(text, max_values).parse(value);
  return value;
}

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

double require_number(const Value& obj, std::string_view key,
                      std::string_view context) {
  const Value* v = obj.find(key);
  if (!v || v->kind != Value::Kind::Number)
    missing_field(context, "numeric", key);
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

long long require_integer(const Value& obj, std::string_view key,
                          long long lo, long long hi,
                          std::string_view context) {
  const Value* v = obj.find(key);
  if (!v || v->kind != Value::Kind::Number)
    missing_field(context, "numeric", key);
  long long value = 0;
  if (!exact_integer(*v, &value) || value < lo || value > hi)
    throw std::runtime_error(std::string(context) + ": field '" +
                             std::string(key) +
                             "' must be an integer in [" + std::to_string(lo) +
                             ", " + std::to_string(hi) + "], got " +
                             v->string);
  return value;
}

const std::string& require_string(const Value& obj, std::string_view key,
                                  std::string_view context) {
  const Value* v = obj.find(key);
  if (!v || v->kind != Value::Kind::String)
    missing_field(context, "string", key);
  return v->string;
}

}  // namespace esva::json
