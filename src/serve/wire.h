// Wire protocol of the esva serve daemon: line-delimited JSON requests and
// responses over a local stream socket (docs/SERVE.md has the full schema).
// One request line in, one response line out, in order. The same codec backs
// the journal's "spec" payloads (serve/journal.h) and the snapshot's VM
// lists (serve/snapshot.h), so a VmSpec round-trips through every durable
// format with one implementation.
//
// Exactness: doubles that must survive a write/replay cycle bit-for-bit
// (demands, profiles, energies) are encoded as C99 hexfloat *strings*
// ("0x1.8p+1"); the decoder accepts either a hexfloat string or a plain JSON
// number, so handwritten client requests stay ergonomic while daemon-emitted
// records round-trip exactly.
//
// Profiles travel as runs: "profile":[[len,cpu,mem],...], one entry per
// maximal stretch of units whose two doubles are bit-identical, so a VM that
// holds a few demand phases costs a few entries, not one per time unit. The
// decoder also accepts the older one-unit [cpu,mem] entries, in any mix with
// runs, and expands both into the per-unit VmSpec::profile.

#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "cluster/vm.h"
#include "core/fault_plan.h"
#include "util/json.h"
#include "util/types.h"

namespace esva::serve {

/// The longest VM the codec accepts, in time units (end - start + 1).
/// decode_vm refuses a longer one right after reading its interval, before
/// it expands any profile, so a short run-form line cannot make the decoder
/// allocate without bound; the daemon therefore never hands the engine a
/// place that would stretch the planning horizon, and with it every touched
/// server's resource trees (80 B per time unit of window), without bound.
/// docs/SERVE.md gives the per-server tree bytes this bounds.
inline constexpr Time kMaxPlaceDuration = 100000;

/// The most JSON values decode_request(std::string_view) lets a line
/// create: the longest legal place, a profile of kMaxPlaceDuration runs at
/// four values each ([LEN,CPU,MEM]), plus the request, VM and profile
/// values around it. The line cap (kMaxRequestBytes, serve/daemon.h) bounds
/// the bytes of a line but not its tree: a JSON value is about 100 B, so
/// three bytes of "[]," build some 30 times their size. This bounds any
/// line's tree near that of the longest legal place.
inline constexpr std::size_t kMaxRequestValues =
    4 * static_cast<std::size_t>(kMaxPlaceDuration) + 64;

/// Operations a client can request.
enum class OpKind {
  kPlace,     ///< submit one VM request to the engine
  kRetire,    ///< early-terminate a VM (frees its capacity now)
  kAdvance,   ///< advance the engine frontier (fires due retries, GC)
  kFault,     ///< apply one fail/drain/recover event
  kStats,     ///< engine counters + energy; no state change, not journaled
  kSnapshot,  ///< force a durable snapshot now
  kDrain,     ///< end-of-stream: finish_stream + sync + snapshot
};

std::string to_string(OpKind op);

/// One decoded client request. `id` is an opaque client correlation token
/// echoed in the response when present.
struct Request {
  OpKind op = OpKind::kStats;
  bool has_id = false;
  long long id = 0;
  VmSpec vm;                            ///< kPlace
  VmId vm_id = 0;                       ///< kRetire
  Time to = 0;                          ///< kAdvance
  FaultEvent fault;                     ///< kFault
  bool with_assignment = false;         ///< kStats: include the vm->server map
};

/// Exact double encoding: a JSON string holding the C99 %a hexfloat.
std::string hex_double(double value);

/// Reads the hexfloat hex_double writes for a normal double or a zero —
/// [-]0x1[.<1 to 13 lowercase hex digits>]p<+|-><decimal> with an exponent
/// in [-1022, 1023], or [-]0x0p+0, quotes stripped — by assembling its
/// bits, which are exactly the bits strtod reads from it. False for every
/// other spelling, which callers hand to strtod.
bool read_hex_double(std::string_view text, double* out);

/// Exact u64 encoding (seqs, seeds, rng words): a JSON string holding the
/// decimal value, since a double-backed JSON number loses exactness past
/// 2^53.
std::string u64_field(std::uint64_t value);

/// Reads a u64_field member; throws std::runtime_error("<context>: ...")
/// when it is missing, not a string, or not a decimal u64.
std::uint64_t require_u64(const json::Value& obj, std::string_view key,
                          std::string_view context);

/// hex_double appended in place — the journal hot path (encode_place_record
/// runs once per acked placement) avoids the temporary.
void append_hex_double(std::string& out, double value);

/// Accepts a plain JSON number or a hexfloat string; throws
/// std::runtime_error("<context>: ...") otherwise.
double number_or_hex(const json::Value& v, const std::string& context);

/// number_or_hex on a required object member. The hexfloat hex_double
/// writes for a normal double or a zero is read by its bits; every other
/// spelling goes through strtod, with the same accept/reject.
double require_number_or_hex(const json::Value& obj, std::string_view key,
                             std::string_view context);

/// VmSpec as a JSON object: {"id","type","cpu","mem","start","end"} plus
/// "profile":[[len,cpu,mem],...] when profiled, one entry per run of
/// bit-identical units. Demands are hexfloat strings.
std::string encode_vm(const VmSpec& vm);

/// encode_vm appended in place (journal hot path).
void append_vm(std::string& out, const VmSpec& vm);

/// Inverse of encode_vm; also accepts plain numbers for the demands and
/// one-unit [cpu,mem] profile entries beside [len,cpu,mem] runs. Throws
/// std::runtime_error naming the field for a VM longer than
/// kMaxPlaceDuration (checked before any profile is expanded), a malformed
/// profile entry, a run length that is not an integer >= 1, lengths that do
/// not sum to the duration, or a spec that fails VmSpec::valid().
VmSpec decode_vm(const json::Value& obj, std::string_view context);

/// Serializes a request as one line (no trailing newline).
std::string encode_request(const Request& req);

/// Parses and validates one request line. Throws std::runtime_error with a
/// structured message on malformed JSON, a line of more than
/// kMaxRequestValues values, unknown ops, or bad fields.
Request decode_request(std::string_view line);

/// decode_request on a parsed line: the one reader of every op's fields,
/// the journal's retire, advance, fault and drain records included.
Request decode_request(const json::Value& root);

}  // namespace esva::serve
