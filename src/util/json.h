// Minimal JSON reader/writer helpers shared by the decision-trace loader
// (obs/trace.cpp), the serve wire protocol, and the journal/snapshot codecs
// (src/serve/). Covers exactly the JSON subset those formats emit — objects,
// arrays, strings with escapes, numbers, booleans, null — with no external
// dependency.
//
// Numbers are held as doubles (the JSON model) together with their token
// text. A plain decimal integer token of at most 15 digits converts by
// std::from_chars (every such value is exact in a double, so the bits are
// strtod's); every other token goes through strtod. Consumers that need an
// exact integer go through exact_integer or the checked accessors below: a
// plain integer token is read exactly from its text over the whole long
// long range, so a client's 64-bit correlation id round-trips; any other
// spelling goes through the double, which must be integral and within
// +-2^53. Nothing casts blindly. Unsigned 64-bit quantities (rng words,
// sequence numbers, seeds) are carried as decimal *strings* in our formats.

#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace esva::json {

struct Value {
  enum class Kind { Null, Bool, Number, String, Array, Object };
  Kind kind = Kind::Null;
  bool boolean = false;
  double number = 0.0;
  /// String: the decoded text. Number: the token as written ("-12",
  /// "1e3"), which exact_integer reads.
  std::string string;
  std::vector<Value> array;
  std::vector<std::pair<std::string, Value>> object;

  /// First member with the given key (objects preserve insertion order);
  /// null when absent or when this value is not an object.
  const Value* find(std::string_view key) const;

  bool is_null() const { return kind == Kind::Null; }
};

/// No bound on the values one parse may create.
inline constexpr std::size_t kNoValueLimit = static_cast<std::size_t>(-1);

/// Parses one complete JSON document into `out`, the one parser. Throws
/// std::runtime_error ("json parse error at offset N: ...") on malformed
/// input, trailing characters, or excessive nesting. Reads `text` in place
/// and reuses the string and vector storage `out` already holds, so a
/// caller that parses many documents of one shape into one tree allocates
/// only while the tree grows. The result equals a parse into a fresh Value
/// whatever `out` held before, a tree a throwing parse left half-written
/// included. `text` must not view a string inside `out`.
void parse(std::string_view text, Value& out);

/// parse(text, out) on a fresh Value that may hold at most `max_values`
/// values (every object member, array element and the root count one):
/// a document of more throws "more than N values", so a caller can bound
/// the tree a line of a given length builds.
Value parse(std::string_view text, std::size_t max_values = kNoValueLimit);

/// Serializes a string as a JSON string literal, quotes included (control
/// characters become \uXXXX escapes).
std::string escape(const std::string& s);

/// The exact integer a Number holds. A plain integer token ("-12",
/// "9007199254740993") is read from its text over the whole long long
/// range; other spellings ("1e3", "5.0") go through the double and must be
/// integral and at most 2^53 in magnitude. False for anything else: not a
/// number, fractional, non-finite, or out of range.
bool exact_integer(const Value& v, long long* out);

// --- checked field accessors ------------------------------------------------
// All throw std::runtime_error("<context>: ...") when the key is missing or
// the wrong kind; the integer form additionally rejects what exact_integer
// refuses and values outside [lo, hi]. Messages are built only when
// throwing.

double require_number(const Value& obj, std::string_view key,
                      std::string_view context);
long long require_integer(const Value& obj, std::string_view key,
                          long long lo, long long hi,
                          std::string_view context);
const std::string& require_string(const Value& obj, std::string_view key,
                                  std::string_view context);

}  // namespace esva::json
