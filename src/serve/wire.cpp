#include "serve/wire.h"

#include <bit>
#include <cerrno>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <vector>

#include "util/parse.h"

namespace esva::serve {

namespace {

bool is_digit(char c) { return c >= '0' && c <= '9'; }

}  // namespace

std::string to_string(OpKind op) {
  switch (op) {
    case OpKind::kPlace:
      return "place";
    case OpKind::kRetire:
      return "retire";
    case OpKind::kAdvance:
      return "advance";
    case OpKind::kFault:
      return "fault";
    case OpKind::kStats:
      return "stats";
    case OpKind::kSnapshot:
      return "snapshot";
    case OpKind::kDrain:
      return "drain";
  }
  return "?";
}

void append_hex_double(std::string& out, double value) {
  // Hand-rolled glibc-compatible "%a" for finite normals and zero —
  // "0x1.<frac, trailing zeros trimmed>p<sign><decimal exp>" — because
  // snprintf dominates the per-record journal encode cost (three hexfloats
  // per place record; the BENCH_perf.json "wal" gate bounds the whole
  // journal path at <= 5% over the bare replay). Subnormals, infinities and
  // NaNs take the snprintf path; round-tripping via strtod is exact either
  // way.
  std::uint64_t bits;
  std::memcpy(&bits, &value, sizeof bits);
  const std::uint64_t frac = bits & ((std::uint64_t{1} << 52) - 1);
  const int rawexp = static_cast<int>((bits >> 52) & 0x7ff);
  if (rawexp == 0x7ff || (rawexp == 0 && frac != 0)) {
    char buf[64];
    const int n = std::snprintf(buf, sizeof(buf), "\"%a\"", value);
    out.append(buf, static_cast<std::size_t>(n));
    return;
  }
  char buf[32];
  char* p = buf;
  *p++ = '"';
  if (bits >> 63) *p++ = '-';
  *p++ = '0';
  *p++ = 'x';
  *p++ = rawexp == 0 ? '0' : '1';  // rawexp == 0 here means +-0.0
  if (frac != 0) {
    static constexpr char kHex[] = "0123456789abcdef";
    *p++ = '.';
    int digits = 13;
    for (std::uint64_t f = frac; (f & 0xf) == 0; f >>= 4) --digits;
    for (int i = 0; i < digits; ++i)
      *p++ = kHex[(frac >> (48 - 4 * i)) & 0xf];
  }
  *p++ = 'p';
  const int exp = rawexp == 0 ? 0 : rawexp - 1023;
  *p++ = exp < 0 ? '-' : '+';
  unsigned mag = exp < 0 ? static_cast<unsigned>(-exp)
                         : static_cast<unsigned>(exp);
  char rev[8];
  int n = 0;
  do {
    rev[n++] = static_cast<char>('0' + mag % 10);
    mag /= 10;
  } while (mag != 0);
  while (n > 0) *p++ = rev[--n];
  *p++ = '"';
  out.append(buf, static_cast<std::size_t>(p - buf));
}

std::string hex_double(double value) {
  std::string out;
  append_hex_double(out, value);
  return out;
}

bool read_hex_double(std::string_view text, double* out) {
  std::uint64_t bits = 0;
  if (!text.empty() && text.front() == '-') {
    bits = std::uint64_t{1} << 63;
    text.remove_prefix(1);
  }
  if (text == "0x0p+0") {
    std::memcpy(out, &bits, sizeof bits);
    return true;
  }
  if (text.substr(0, 3) != "0x1") return false;
  text.remove_prefix(3);
  std::uint64_t frac = 0;
  if (!text.empty() && text.front() == '.') {
    text.remove_prefix(1);
    int digits = 0;
    for (; !text.empty() && digits <= 13; text.remove_prefix(1), ++digits) {
      const char c = text.front();
      if (is_digit(c))
        frac = frac << 4 | static_cast<std::uint64_t>(c - '0');
      else if (c >= 'a' && c <= 'f')
        frac = frac << 4 | static_cast<std::uint64_t>(c - 'a' + 10);
      else
        break;
    }
    if (digits == 0 || digits > 13) return false;
    frac <<= 4 * (13 - digits);
  }
  if (text.size() < 3 || text.size() > 6 || text[0] != 'p' ||
      (text[1] != '+' && text[1] != '-'))
    return false;
  int exp = 0;
  for (const char c : text.substr(2)) {
    if (!is_digit(c)) return false;
    exp = exp * 10 + (c - '0');
  }
  if (text[1] == '-') exp = -exp;
  if (exp < -1022 || exp > 1023) return false;
  bits |= static_cast<std::uint64_t>(exp + 1023) << 52 | frac;
  std::memcpy(out, &bits, sizeof bits);
  return true;
}

std::string u64_field(std::uint64_t value) {
  std::string out(1, '"');
  out += std::to_string(value);
  out += '"';
  return out;
}

std::uint64_t require_u64(const json::Value& obj, std::string_view key,
                          std::string_view context) {
  const json::Value* v = obj.find(key);
  if (!v || v->kind != json::Value::Kind::String)
    throw std::runtime_error(std::string(context) + ": missing string field '" +
                             std::string(key) + "'");
  // A plain decimal is read by from_chars, to the value stoull gives it;
  // any other spelling (a sign, blanks, a trailing '\r', an overflow) goes
  // to parse_u64_field, which accepts or refuses it naming the field.
  const std::string& text = v->string;
  const char* last = text.data() + text.size();
  std::uint64_t value = 0;
  if (const auto [end, ec] = std::from_chars(text.data(), last, value);
      ec == std::errc{} && end == last)
    return value;
  return parse_u64_field(text, std::string(context) + " field '" +
                                   std::string(key) + "'");
}

namespace {

/// A number or a hexfloat/decimal string read without building any context
/// string: the canonical hexfloat by its bits, anything else by strtod
/// straight on the text, refusing what parse_double_field refuses. False
/// sends the caller to number_or_hex, which throws with its context (or
/// accepts the one extra spelling it strips, a trailing '\r').
bool fast_number(const json::Value& v, double* out) {
  if (v.kind == json::Value::Kind::Number) {
    *out = v.number;
    return true;
  }
  if (v.kind != json::Value::Kind::String || v.string.empty()) return false;
  if (read_hex_double(v.string, out)) return true;
  const char* text = v.string.c_str();
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(text, &end);
  if (end != text + v.string.size() || errno == ERANGE) return false;
  *out = value;
  return true;
}

Time require_time(const json::Value& obj, std::string_view key,
                  std::string_view context) {
  return static_cast<Time>(json::require_integer(
      obj, key, std::numeric_limits<Time>::min(),
      std::numeric_limits<Time>::max(), context));
}

/// Runs merge only units whose doubles have identical bit patterns, so
/// +0.0 beside -0.0 (equal under ==) stays two runs and every unit decodes
/// back to its own bits.
bool same_bits(const Resources& a, const Resources& b) {
  return std::bit_cast<std::uint64_t>(a.cpu) ==
             std::bit_cast<std::uint64_t>(b.cpu) &&
         std::bit_cast<std::uint64_t>(a.mem) ==
             std::bit_cast<std::uint64_t>(b.mem);
}

/// The units one profile entry stands for: 1 for a [cpu,mem] unit, len for
/// a [len,cpu,mem] run. Throws naming the field for any other shape and for
/// a len that is not an integer >= 1.
long long entry_units(const json::Value& entry, std::string_view context) {
  if (entry.kind == json::Value::Kind::Array && entry.array.size() == 2)
    return 1;
  if (entry.kind != json::Value::Kind::Array || entry.array.size() != 3)
    throw std::runtime_error(std::string(context) +
                             ": profile entries are [len,cpu,mem] runs or "
                             "[cpu,mem] units");
  long long len = 0;
  if (!json::exact_integer(entry.array[0], &len) || len < 1)
    throw std::runtime_error(std::string(context) +
                             ": profile run length must be an integer >= 1");
  return len;
}

double profile_value(const json::Value& v, std::string_view context,
                     const char* what) {
  double value = 0.0;
  if (fast_number(v, &value)) return value;
  return number_or_hex(v, std::string(context) + " profile " + what);
}

/// Expands a profile's entries into `duration` per-unit demands. The first
/// pass reads only shapes and lengths: each length is checked against the
/// units still unclaimed, so the running sum never passes `duration` (which
/// decode_vm has bounded) and cannot overflow, and nothing is reserved until
/// the lengths add up.
std::vector<Resources> decode_profile(const json::Value& p,
                                      std::int64_t duration,
                                      std::string_view context) {
  if (p.kind != json::Value::Kind::Array)
    throw std::runtime_error(std::string(context) +
                             ": profile must be an array");
  std::int64_t left = duration;
  for (const json::Value& entry : p.array) {
    const long long len = entry_units(entry, context);
    if (len > left)
      throw std::runtime_error(std::string(context) +
                               ": profile covers more than the " +
                               std::to_string(duration) +
                               " time units of the vm");
    left -= len;
  }
  if (left != 0)
    throw std::runtime_error(std::string(context) + ": profile covers " +
                             std::to_string(duration - left) + " of the " +
                             std::to_string(duration) +
                             " time units of the vm");
  std::vector<Resources> units;
  units.reserve(static_cast<std::size_t>(duration));
  for (const json::Value& entry : p.array) {
    const std::size_t at = entry.array.size() - 2;  // past a run's len
    const Resources demand{profile_value(entry.array[at], context, "cpu"),
                           profile_value(entry.array[at + 1], context, "mem")};
    units.insert(units.end(),
                 static_cast<std::size_t>(entry_units(entry, context)), demand);
  }
  return units;
}

}  // namespace

double number_or_hex(const json::Value& v, const std::string& context) {
  if (v.kind == json::Value::Kind::Number) return v.number;
  if (v.kind == json::Value::Kind::String)
    return parse_double_field(v.string, context);
  throw std::runtime_error(context + ": expected a number or hexfloat string");
}

double require_number_or_hex(const json::Value& obj, std::string_view key,
                             std::string_view context) {
  const json::Value* v = obj.find(key);
  if (!v)
    throw std::runtime_error(std::string(context) + ": missing field '" +
                             std::string(key) + "'");
  double value = 0.0;
  if (fast_number(*v, &value)) return value;
  return number_or_hex(*v, std::string(context) + " field '" +
                               std::string(key) + "'");
}

void append_vm(std::string& out, const VmSpec& vm) {
  out += "{\"id\":";
  out += std::to_string(vm.id);
  if (!vm.type_name.empty()) {
    out += ",\"type\":";
    out += json::escape(vm.type_name);
  }
  out += ",\"cpu\":";
  append_hex_double(out, vm.demand.cpu);
  out += ",\"mem\":";
  append_hex_double(out, vm.demand.mem);
  out += ",\"start\":";
  out += std::to_string(vm.start);
  out += ",\"end\":";
  out += std::to_string(vm.end);
  if (vm.has_profile()) {
    const std::vector<Resources>& units = vm.profile;
    out += ",\"profile\":[";
    for (std::size_t k = 0; k < units.size();) {
      std::size_t next = k + 1;
      while (next < units.size() && same_bits(units[next], units[k])) ++next;
      if (k > 0) out += ',';
      out += '[';
      out += std::to_string(next - k);
      out += ',';
      append_hex_double(out, units[k].cpu);
      out += ',';
      append_hex_double(out, units[k].mem);
      out += ']';
      k = next;
    }
    out += ']';
  }
  out += '}';
}

std::string encode_vm(const VmSpec& vm) {
  std::string out;
  out.reserve(160);
  append_vm(out, vm);
  return out;
}

VmSpec decode_vm(const json::Value& obj, std::string_view context) {
  if (obj.kind != json::Value::Kind::Object)
    throw std::runtime_error(std::string(context) +
                             ": vm must be a JSON object");
  VmSpec vm;
  vm.id = static_cast<VmId>(json::require_integer(
      obj, "id", 0, std::numeric_limits<VmId>::max(), context));
  if (const json::Value* t = obj.find("type");
      t && t->kind == json::Value::Kind::String)
    vm.type_name = t->string;
  vm.demand.cpu = require_number_or_hex(obj, "cpu", context);
  vm.demand.mem = require_number_or_hex(obj, "mem", context);
  vm.start = require_time(obj, "start", context);
  vm.end = require_time(obj, "end", context);
  // In 64 bits: the extreme times the wire accepts would overflow Time.
  const std::int64_t duration = std::int64_t{vm.end} - vm.start + 1;
  if (duration > kMaxPlaceDuration)
    throw std::runtime_error(
        std::string(context) + ": vm " + std::to_string(vm.id) + " spans [" +
        std::to_string(vm.start) + ", " + std::to_string(vm.end) +
        "], longer than the limit of " + std::to_string(kMaxPlaceDuration) +
        " time units");
  // An inverted interval has no units to expand; valid() refuses it below.
  if (const json::Value* p = obj.find("profile");
      p && !p->is_null() && duration >= 1)
    vm.set_profile(decode_profile(*p, duration, context));
  if (!vm.valid())
    throw std::runtime_error(std::string(context) +
                             ": invalid vm spec (interval or demands "
                             "malformed)");
  return vm;
}

std::string encode_request(const Request& req) {
  std::string out = "{\"op\":" + json::escape(to_string(req.op));
  if (req.has_id) out += ",\"id\":" + std::to_string(req.id);
  switch (req.op) {
    case OpKind::kPlace:
      out += ",\"vm\":" + encode_vm(req.vm);
      break;
    case OpKind::kRetire:
      out += ",\"vm\":" + std::to_string(req.vm_id);
      break;
    case OpKind::kAdvance:
      out += ",\"to\":" + std::to_string(req.to);
      break;
    case OpKind::kFault:
      out += ",\"at\":" + std::to_string(req.fault.at);
      out += ",\"kind\":" + json::escape(esva::to_string(req.fault.kind));
      out += ",\"server\":" + std::to_string(req.fault.server);
      break;
    case OpKind::kStats:
      if (req.with_assignment) out += ",\"assignment\":true";
      break;
    case OpKind::kSnapshot:
    case OpKind::kDrain:
      break;
  }
  out += '}';
  return out;
}

Request decode_request(std::string_view line) {
  return decode_request(json::parse(line, kMaxRequestValues));
}

Request decode_request(const json::Value& root) {
  if (root.kind != json::Value::Kind::Object)
    throw std::runtime_error("request must be a JSON object");
  const std::string& op = json::require_string(root, "op", "request");

  Request req;
  if (const json::Value* id = root.find("id"); id && !id->is_null()) {
    req.id = json::require_integer(root, "id",
                                   std::numeric_limits<long long>::min(),
                                   std::numeric_limits<long long>::max(),
                                   "request");
    req.has_id = true;
  }

  if (op == "place") {
    req.op = OpKind::kPlace;
    const json::Value* vm = root.find("vm");
    if (!vm) throw std::runtime_error("place: missing field 'vm'");
    req.vm = decode_vm(*vm, "place vm");
  } else if (op == "retire") {
    req.op = OpKind::kRetire;
    req.vm_id = static_cast<VmId>(json::require_integer(
        root, "vm", 0, std::numeric_limits<VmId>::max(), "retire"));
  } else if (op == "advance") {
    req.op = OpKind::kAdvance;
    req.to = require_time(root, "to", "advance");
  } else if (op == "fault") {
    req.op = OpKind::kFault;
    req.fault.at = require_time(root, "at", "fault");
    const std::string& kind = json::require_string(root, "kind", "fault");
    const std::optional<FaultKind> parsed = parse_fault_kind(kind);
    if (!parsed)
      throw std::runtime_error("fault: unknown kind '" + kind +
                               "' (fail|drain|recover)");
    req.fault.kind = *parsed;
    req.fault.server = static_cast<ServerId>(json::require_integer(
        root, "server", 0, std::numeric_limits<ServerId>::max(), "fault"));
  } else if (op == "stats") {
    req.op = OpKind::kStats;
    if (const json::Value* a = root.find("assignment");
        a && a->kind == json::Value::Kind::Bool)
      req.with_assignment = a->boolean;
  } else if (op == "snapshot") {
    req.op = OpKind::kSnapshot;
  } else if (op == "drain") {
    req.op = OpKind::kDrain;
  } else {
    throw std::runtime_error(
        "unknown op '" + op +
        "' (place|retire|advance|fault|stats|snapshot|drain)");
  }
  return req;
}

}  // namespace esva::serve
