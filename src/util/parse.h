// Hardened numeric field parsing shared by every CSV/trace/solution reader.
//
// The readers historically each carried a local stol/stod wrapper; none of
// them range-checked the long -> int32 narrowing into Time/VmId/ServerId, and
// consumers of already-parsed JSON numbers cast double -> int32 unchecked
// (undefined behaviour on overflow/NaN under UBSan). Every helper here turns
// *any* malformed field — empty, non-numeric, trailing garbage, overflowing,
// non-integral, non-finite — into a std::runtime_error carrying the caller's
// context string, so adversarial input produces a structured parse error,
// never an abort (tests/test_fuzz_parsers.cpp).
//
// A single trailing '\r' is stripped before parsing, so fields cut from
// CRLF-terminated lines by non-CSV tokenizers parse cleanly (the CSV layer
// already strips CRLF at line level; util/csv.cpp).

#pragma once

#include <cstdint>
#include <limits>
#include <string>

#include "util/types.h"

namespace esva {

/// Parses a whole field as a signed integer. Throws std::runtime_error
/// ("<context>: ...") on empty/non-numeric fields, trailing garbage, or
/// values outside long long.
long long parse_int_field(const std::string& field, const std::string& context);

/// parse_int_field plus an inclusive range check.
long long parse_int_field(const std::string& field, long long lo, long long hi,
                          const std::string& context);

/// Parses a whole field as a double (decimal or hexfloat). Throws
/// std::runtime_error on empty/non-numeric fields, trailing garbage, or
/// overflow.
double parse_double_field(const std::string& field, const std::string& context);

/// Parses a field into a (narrower) integer type with the type's full range
/// as bounds: the long -> int32 truncation the readers used to do silently
/// is now a structured error.
template <typename T>
T parse_field_as(const std::string& field, const std::string& context) {
  static_assert(std::numeric_limits<T>::is_integer);
  return static_cast<T>(
      parse_int_field(field, std::numeric_limits<T>::min(),
                      std::numeric_limits<T>::max(), context));
}

/// 2^53: every integer up to this magnitude is exact in a double, and the
/// double-to-integer paths refuse anything beyond it.
inline constexpr double kMaxExactInteger = 9007199254740992.0;

/// Checked conversion of an already-parsed double (e.g. a JSON number) to an
/// integer in [lo, hi]: rejects non-finite and non-integral values and
/// magnitudes beyond kMaxExactInteger or the range, instead of invoking the
/// undefined cast.
long long checked_integer(double value, long long lo, long long hi,
                          const std::string& context);

/// checked_integer into a concrete integer type over its full range.
template <typename T>
T checked_integer_as(double value, const std::string& context) {
  static_assert(std::numeric_limits<T>::is_integer);
  return static_cast<T>(checked_integer(value, std::numeric_limits<T>::min(),
                                        std::numeric_limits<T>::max(),
                                        context));
}

/// `value` when it lies in [lo, hi]; otherwise throws std::invalid_argument
/// "--<flag> must be in [lo, hi], got <value>" — the range check for a
/// command-line option (or the option struct it fills) before narrowing.
std::int64_t checked_flag(std::int64_t value, std::int64_t lo,
                          std::int64_t hi, const std::string& flag);

/// `value` when it is finite and `in_range` (the caller's test of it, which
/// `range` words: "> 0", "in [0, 1)"); otherwise throws std::invalid_argument
/// "--<flag> must be finite and <range>, got <value>" — checked_flag for a
/// floating-point option.
double checked_double_flag(double value, bool in_range,
                           const std::string& range, const std::string& flag);

/// Parses a decimal std::uint64_t (the snapshot format's 64-bit rng words,
/// which a double-backed JSON number cannot carry exactly).
std::uint64_t parse_u64_field(const std::string& field,
                              const std::string& context);

}  // namespace esva
