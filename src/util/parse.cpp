#include "util/parse.h"

#include <cmath>
#include <sstream>
#include <stdexcept>

namespace esva {

namespace {

[[noreturn]] void fail(const std::string& context, const std::string& what) {
  throw std::runtime_error(context + ": " + what);
}

/// A field cut from a CRLF-terminated line by a non-CSV tokenizer keeps the
/// '\r'; strip exactly one so numeric parsing sees the bare token.
std::string strip_cr(const std::string& field) {
  if (!field.empty() && field.back() == '\r')
    return field.substr(0, field.size() - 1);
  return field;
}

}  // namespace

long long parse_int_field(const std::string& raw, const std::string& context) {
  const std::string field = strip_cr(raw);
  try {
    std::size_t consumed = 0;
    const long long value = std::stoll(field, &consumed);
    if (consumed != field.size())
      fail(context, "trailing junk in '" + field + "'");
    return value;
  } catch (const std::out_of_range&) {
    fail(context, "integer out of range: '" + field + "'");
  } catch (const std::invalid_argument&) {
    fail(context, "expected an integer, got '" + field + "'");
  }
}

long long parse_int_field(const std::string& field, long long lo, long long hi,
                          const std::string& context) {
  const long long value = parse_int_field(field, context);
  if (value < lo || value > hi)
    fail(context, "value " + std::to_string(value) + " outside [" +
                      std::to_string(lo) + ", " + std::to_string(hi) + "]");
  return value;
}

double parse_double_field(const std::string& raw, const std::string& context) {
  const std::string field = strip_cr(raw);
  try {
    std::size_t consumed = 0;
    const double value = std::stod(field, &consumed);
    if (consumed != field.size())
      fail(context, "trailing junk in '" + field + "'");
    return value;
  } catch (const std::out_of_range&) {
    fail(context, "number out of range: '" + field + "'");
  } catch (const std::invalid_argument&) {
    fail(context, "expected a number, got '" + field + "'");
  }
}

long long checked_integer(double value, long long lo, long long hi,
                          const std::string& context) {
  if (!std::isfinite(value))
    fail(context, "expected a finite integer");
  if (value != std::floor(value))
    fail(context, "expected an integer, got a fractional value");
  // A double beyond 2^53 no longer names one integer, and the extreme
  // long long bounds round up in double space, so without this check 2^63
  // would pass them into an undefined cast.
  if (std::fabs(value) > kMaxExactInteger)
    fail(context, "integer magnitude beyond 2^53 is not exact");
  if (value < static_cast<double>(lo) || value > static_cast<double>(hi))
    fail(context, "integer outside [" + std::to_string(lo) + ", " +
                      std::to_string(hi) + "]");
  return static_cast<long long>(value);
}

std::int64_t checked_flag(std::int64_t value, std::int64_t lo,
                          std::int64_t hi, const std::string& flag) {
  if (value < lo || value > hi)
    throw std::invalid_argument("--" + flag + " must be in [" +
                                std::to_string(lo) + ", " +
                                std::to_string(hi) + "], got " +
                                std::to_string(value));
  return value;
}

double checked_double_flag(double value, bool in_range,
                           const std::string& range, const std::string& flag) {
  if (!std::isfinite(value) || !in_range) {
    std::ostringstream message;
    message << "--" << flag << " must be finite and " << range << ", got "
            << value;
    throw std::invalid_argument(message.str());
  }
  return value;
}

std::uint64_t parse_u64_field(const std::string& raw,
                              const std::string& context) {
  const std::string field = strip_cr(raw);
  if (field.empty() || field[0] == '-')
    fail(context, "expected an unsigned integer, got '" + field + "'");
  try {
    std::size_t consumed = 0;
    const unsigned long long value = std::stoull(field, &consumed);
    if (consumed != field.size())
      fail(context, "trailing junk in '" + field + "'");
    return static_cast<std::uint64_t>(value);
  } catch (const std::out_of_range&) {
    fail(context, "integer out of range: '" + field + "'");
  } catch (const std::invalid_argument&) {
    fail(context, "expected an unsigned integer, got '" + field + "'");
  }
}

}  // namespace esva
