// Write-ahead journal of the esva serve daemon: one JSONL record per
// state-changing operation, appended *after* the engine applied it and
// written (and, per the fsync schedule, fsynced) before the client sees the
// ack.
//
// Record schema (docs/FORMATS.md#wal):
//
//   header   {"op":"hdr","format":"esva-wal","version":3,"allocator":...,
//             "seed":"S","servers":N,"retry_max":...,"retry_delay":...,
//             "retry_backoff":"0x...","retry_queue":N,"after":"A"}
//   place    {"op":"place","seq":"K","allocator":...,"vm":J,
//             "chosen":S|null,"reject":"...",?"note":...,
//             "spec":{...encode_vm...},"energy_hex":"0x..."}
//   retire   {"op":"retire","seq":"K","vm":J,"chosen":null,
//             "server":S|null,"note":"retired"}
//   advance  {"op":"advance","seq":"K","to":T}
//   fault    {"op":"fault","seq":"K","at":T,"kind":"fail","server":S}
//   drain    {"op":"drain","seq":"K"}
//
// "after" (version 3) is the seq the journal starts after: 0 for a journal
// that starts from an empty engine, and the snapshot's wal_seq for one a
// snapshot compacted, whose earlier records only that snapshot holds. Its
// first record's seq is greater than "after". Either appears whole, through
// replace_file; only appends and truncate_wal write a journal in place.
//
// The "spec" is serve/wire.h's VM codec, so version 2 writes a profiled
// VM's demands as [len,cpu,mem] runs. read_wal accepts versions 1 to 3, and
// reads versions 1 and 2 as starting after 0: version 1 journals wrote one
// [cpu,mem] entry per unit, which the decoder still reads, so a daemon
// recovering a version 1 journal appends run-form records to it, and from
// then on the file needs a reader of version 2 or later until its next
// compaction (docs/FORMATS.md#wal).
//
// place and retire records are deliberate *supersets* of the decision-trace
// schema (obs/trace.h): they carry "vm" and "chosen" exactly as to_jsonl
// would, so the journal's place/retire lines load through load_trace_jsonl
// and fold through assignment_from_trace — a WAL is also a decision trace
// of the daemon's ops since its last compaction (last-write-wins gives the
// final hosting of the VMs those ops touched, retires landing as
// kNoServer). The extra keys (op/seq/spec/energy_hex) are ignored by the
// trace loader; tests/test_serve.cpp pins the compatibility by feeding a
// journal's lines to that loader.
//
// Recovery does NOT trust recorded outcomes: it re-runs the deterministic
// engine over the journaled *inputs*, each decoded into the serve::Request
// the live daemon applied (advance and fault records trigger
// policy-invoking retries and evacuations that a record-application scheme
// could not reproduce). A record's op fields are read by the wire's own
// decoder (serve::decode_request on the parsed line), except a place's VM,
// which the journal keeps under "spec". The recorded "chosen" and
// cumulative "energy_hex" then act as replay-fidelity checksums — any
// divergence from the live run is a hard error, not silent corruption
// (serve/daemon.cpp).
//
// Torn tails: a malformed LAST line, or any final line missing its
// terminating newline (the crash window of an append — a completed batch
// always ends in '\n', so a newline-less tail was never acked), is
// dropped and flagged; malformed records anywhere else are hard errors.
// Recovery then truncates the file back to the well-formed prefix
// (truncate_wal) before appending, so the next record starts a fresh line
// instead of being concatenated onto the torn bytes. Blank lines past the
// last record are cut the same way, and a journal of blank lines only is
// cut to nothing and created afresh. A complete last record whose seq does
// not increase is no torn append but a second writer's record, and is a
// hard error like any other seq regression.

#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/vm.h"
#include "core/fault_plan.h"
#include "core/streaming.h"
#include "serve/wire.h"
#include "util/types.h"

namespace esva::serve {

/// Journal-identity header: replaying a WAL under a different configuration
/// would silently produce a different daemon, so recovery hard-errors on any
/// mismatch.
struct WalHeader {
  std::string allocator;
  std::uint64_t seed = 0;
  std::size_t num_servers = 0;
  RetryPolicy retry;
  /// The seq the journal starts after: every record's seq is greater. Not
  /// identity: a compacted journal names the snapshot that holds the
  /// records before it (0 for versions 1 and 2).
  std::uint64_t after = 0;
};

/// One replayable journal record (the decoded form of the schema above).
struct WalRecord {
  std::uint64_t seq = 0;
  /// The journaled op as the client sent it — a place, retire, advance,
  /// fault or drain — which recovery hands to the daemon's one applier.
  Request req;
  /// Place/retire replay checksums: the recorded outcome.
  ServerId chosen = kNoServer;
  bool has_energy = false;
  Energy energy_after = 0.0;    ///< cumulative engine energy after the op
};

struct WalFile {
  WalHeader header;
  /// False when the file was absent or empty (header is then meaningless).
  bool has_header = false;
  std::vector<WalRecord> records;
  /// True when a torn final line was dropped (crash mid-append).
  bool torn_tail = false;
  /// Byte offset just past the last well-formed, newline-terminated line —
  /// the prefix that survives recovery; 0 without a header. Everything past
  /// it, up to file_bytes, is a torn tail or blank lines.
  std::uint64_t valid_bytes = 0;
  /// The size of the file read (0 when absent).
  std::uint64_t file_bytes = 0;
};

// --- record encoders (daemon side) -----------------------------------------

std::string encode_wal_header(const WalHeader& header);
std::string encode_place_record(std::uint64_t seq, const std::string& allocator,
                                const VmSpec& vm,
                                const PlacementDecision& decision,
                                Energy energy_after);
std::string encode_retire_record(std::uint64_t seq, VmId vm, ServerId host);
std::string encode_advance_record(std::uint64_t seq, Time to);
std::string encode_fault_record(std::uint64_t seq, const FaultEvent& event);
std::string encode_drain_record(std::uint64_t seq);

/// Reads the whole file at `path` into `out` with one read() loop sized by
/// fstat, retrying EINTR and short reads. Returns false, `out` untouched,
/// when nothing is at `path` (ENOENT); throws std::runtime_error naming the
/// `what` ("wal", "snapshot"), the path and the strerror text on any other
/// failure to open, stat or read it, so an I/O error is never read as a
/// shorter file. Recovery reads the journal and the snapshot through it.
bool read_whole_file(const std::string& path, const char* what,
                     std::string& out);

/// Parses a whole journal in one pass over one copy of the file, each line
/// parsed where it lies into one JSON tree that every line reuses. Throws
/// std::runtime_error on a missing/invalid header, a malformed non-final
/// record, a seq that is not greater than the one before it (or than the
/// header's `after`), or a file that exists but cannot be read
/// (read_whole_file); a malformed final line only sets torn_tail. An
/// absent, empty or all-blank file yields an empty WalFile with a
/// default-constructed header (records empty) — callers treat that as a
/// fresh journal.
WalFile read_wal(const std::string& path);

/// fsyncs the directory that holds `path`, so a rename into it is durable.
/// Throws std::runtime_error naming `what` ("wal", "snapshot") and the
/// directory when it cannot be opened or fsynced.
void fsync_directory_of(const std::string& path, const char* what);

/// Makes a file appear whole — a fresh or compacted journal, a snapshot:
/// writes `bytes` to `<path>.tmp` (truncating a stale one), fsyncs it and
/// renames it over `path`; returns its descriptor, open for append. A failed
/// step throws std::runtime_error naming it, `what` ("fresh wal",
/// "snapshot"), the `.tmp` and strerror, after removing the `.tmp`. The
/// rename is durable only once fsync_directory_of(path) returns.
int replace_file(const std::string& path, std::string_view bytes,
                 const char* what);

/// Truncates the journal to its well-formed prefix (WalFile::valid_bytes)
/// and fsyncs. Recovery calls this before constructing a WalWriter whenever
/// bytes lie past valid_bytes (file_bytes is larger), so the next append
/// starts a fresh line and a header-less journal is created afresh. Throws
/// std::runtime_error on I/O failure.
void truncate_wal(const std::string& path, std::uint64_t valid_bytes);

/// Append-only journal writer over a raw fd (O_APPEND) with group commit.
/// Records are staged in a user-space buffer; commit() hands every staged
/// record to the kernel in one write() and fsyncs once `sync_every` records
/// have been written since the last fsync. One counter drives that schedule
/// for both entry points: append() is stage() plus a commit() whenever the
/// counter reaches `sync_every`, and the daemon stages a whole poll round
/// and commits once at its end (serve/daemon.h). sync() flushes regardless
/// of the counter. Each commit lands in a single O_APPEND write(), so
/// concurrent writers never interleave mid-line. A failed write() drops the
/// batch it was writing and throws: a retry would write a second copy of
/// the bytes a short write already wrote.
class WalWriter {
 public:
  /// Opens for append; an absent or empty journal is created holding
  /// `fresh_header` (replace_file, then a directory fsync), which counts as
  /// one fsync. Throws std::runtime_error when a step fails.
  WalWriter(const std::string& path, const WalHeader& fresh_header,
            int sync_every);
  /// Best-effort write of any staged records, then close (never throws).
  ~WalWriter();
  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// Appends one record line (newline added here). Returns true when the
  /// batch boundary was reached and the journal was written and fsynced;
  /// until then the record stays staged.
  bool append(const std::string& line);

  /// Stages one record line (newline added here) without writing it.
  void stage(const std::string& line);

  /// Writes every staged record with one write(), then fsyncs when
  /// `sync_every` records have been staged since the last fsync. Returns
  /// true when it fsynced.
  bool commit();

  /// Writes any staged records and fsyncs (drain, snapshot, shutdown); a
  /// no-op when none was staged since this writer's own last fsync. Until
  /// its first, it fsyncs: a killed writer may have left records unsynced.
  void sync();

  /// Goes on over `fd` (replace_file's) and closes the journal written so
  /// far. Every staged record must have been synced; the fsync count
  /// carries on.
  void switch_to(int fd);

  /// fsyncs of the journal since this writer opened or created it.
  std::uint64_t fsyncs() const { return fsyncs_; }

 private:
  /// write()s the staged buffer to the fd and clears it.
  void flush_pending();

  int fd_ = -1;
  std::uint64_t sync_every_ = 1;
  /// Records staged since the last fsync, written or not.
  std::uint64_t since_sync_ = 0;
  std::uint64_t fsyncs_ = 0;
  std::string pending_;  ///< staged, un-written records; capacity reused
};

}  // namespace esva::serve
