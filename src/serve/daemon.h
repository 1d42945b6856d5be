// The esva serve daemon: a long-running scheduler wrapping a PlacementEngine
// behind the line-delimited JSON wire protocol (serve/wire.h), durable via a
// write-ahead journal (serve/journal.h) and periodic snapshots
// (serve/snapshot.h).
//
// Durability contract: every state-changing op is applied to the engine
// first, then journaled, then acked (append-after-apply). The unit of commit
// is the poll round: serve_loop applies every complete line it read from
// every readable connection, writes the round's records with one write(),
// fsyncs per WalWriter's schedule (at most once), and only then releases
// the round's responses. With --wal-sync-every 1 no ack precedes the fsync
// of its record; with N > 1 no ack precedes the write() of its record, so a
// process crash loses no acked op and a power loss at most N-1
// (docs/SERVE.md, "Durability model"). handle_line is a round of one line.
//
// Compaction: a daemon with a snapshot path replaces its journal after every
// durable snapshot (periodic, the snapshot op, drain, the shutdown
// checkpoint) with a fresh one whose header names the snapshot's seq, so
// the snapshot and the journal past it are the source of truth together,
// and a restart reads only the records past the snapshot. Records a restart
// replays count toward the next periodic snapshot. Every durable file
// appears through serve::replace_file and a directory fsync.
//
// A restarted daemon reconstructs its state by loading the latest snapshot
// (if any) and *re-running the engine* over the journal records after it:
// each record decodes to the Request the live daemon applied, and goes
// through the same applier (Daemon::apply). The same deterministic policy
// with the same seed makes replay reproduce every decision bit-for-bit, and
// the journal's recorded outcomes (chosen server, cumulative energy as
// hexfloat) are verified as replay-fidelity checksums. tests/test_serve.cpp
// pins that a daemon-fed stream — including one SIGKILLed and restarted
// mid-stream — produces assignments and total energy byte-identical to the
// same workload through `esva stream` (sim/replay.cpp), for every fault plan.
//
// The engine configuration is replay_stream's (streaming_engine_options);
// fault events arrive as client ops through PlacementEngine::apply_fault
// instead of a pre-bound plan, which fires them by the same rule.
//
// Threading: the daemon is single-threaded; serve_loop multiplexes
// connections with poll() and handles one round at a time, applying its
// lines one after another, so the engine needs no locking and each
// connection's responses keep its request order.
//
// Exclusivity: a daemon holds an exclusive flock on `<wal>.lock` for its
// lifetime, taken before recovery reads the WAL; compaction never replaces
// that file, so the lock covers every journal at the path. serve_loop
// replaces an existing socket path only when it is a socket nobody listens
// on.
//
// Framing: each connection's input is scanned once, from where the last
// read stopped, and consumed lines are compacted away once per read, so a
// long line or a deep pipeline costs linear time. A line longer than
// kMaxRequestBytes closes its connection after an error line.

#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/allocator.h"
#include "core/streaming.h"
#include "serve/journal.h"
#include "serve/wire.h"
#include "util/rng.h"

namespace esva::serve {

/// The longest request line serve_loop buffers, newline excluded. A client
/// whose line grows past it gets an {"ok":false,...} line and is
/// disconnected, so an unterminated line cannot grow the daemon without
/// bound. The longest legal place encode_request writes — kMaxPlaceDuration
/// units that are all distinct runs, every double at full hexfloat length —
/// is about 5.3 MiB.
inline constexpr std::size_t kMaxRequestBytes = std::size_t{8} << 20;

/// The response bytes one connection may hold back in a round. Once its
/// pending responses pass this, the round ends early — commit, then flush
/// every connection — and the remaining lines start the next one, so a
/// pipeline of large responses (stats with the assignment) cannot grow the
/// daemon's output without bound.
inline constexpr std::size_t kMaxRoundOutputBytes = std::size_t{1} << 20;

/// Where a restart's time went: the Daemon constructor split into
/// consecutive phases of one steady clock, so they sum to its wall time.
struct RecoveryTimes {
  double setup_ms = 0;     ///< option checks, engine build, WAL lock
  double snapshot_ms = 0;  ///< snapshot read, decode and import
  double read_ms = 0;      ///< read_wal: the file read, parse and decode
  double replay_ms = 0;    ///< the records past the snapshot re-run
  double reopen_ms = 0;    ///< torn-tail truncation, journal writer open
  std::uint64_t records_read = 0;      ///< records read_wal returned
  std::uint64_t records_replayed = 0;  ///< of those, the ones re-run

  double total_ms() const {
    return setup_ms + snapshot_ms + read_ms + replay_ms + reopen_ms;
  }
};

struct DaemonOptions {
  std::string allocator = "min-incremental";
  std::uint64_t seed = 42;
  /// Write-ahead journal path; required.
  std::string wal_path;
  /// Snapshot path; empty disables snapshots, and with them compaction
  /// (the journal then holds every record, and recovery replays it all).
  std::string snapshot_path;
  /// Journal fsync schedule (WalWriter): 1 = every op fsynced before its
  /// ack; N > 1 = every op written before its ack, fsynced once N records
  /// have been written since the last fsync. Must be >= 1.
  int wal_sync_every = 1;
  /// Auto-snapshot after this many journaled ops (0 = only on explicit
  /// snapshot/drain ops). Needs snapshot_path.
  std::uint64_t snapshot_every = 0;
  /// Deferred-retry configuration, forwarded to the engine. Must pass
  /// checked_retry_policy; recorded in the journal header and validated on
  /// recovery.
  RetryPolicy retry;
  /// `scan.threads` and `scan.shards` must each be 1
  /// (Allocator::set_scan_config).
  ScanConfig scan;
  CostOptions cost;
  Energy migration_cost_per_gib = 25.0;
};

class Daemon {
 public:
  /// Builds the engine, locks the WAL and runs recovery: snapshot restore
  /// (if one exists), then journal replay of every record past it, with
  /// checksum verification. Throws std::runtime_error when another daemon
  /// holds the WAL (before reading it), on header/config mismatches, a
  /// compacted journal without a snapshot at its start or later (naming
  /// both files, and changing neither), mid-journal corruption, a record the
  /// engine refuses, or replay divergence.
  Daemon(std::vector<ServerSpec> servers, DaemonOptions options);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Handles one request line as a round of its own — apply, commit, then
  /// respond — and returns one response line (never throws: failures become
  /// {"ok":false,...} responses). A journal write or fsync failure (ENOSPC,
  /// EIO, a short write) is NOT an ordinary op error: the engine already
  /// applied the round's ops, so in-memory state is ahead of the durable
  /// journal and replay could no longer reproduce it. The daemon then halts
  /// — every line of the failing round gets a "daemon halted" error (its
  /// outcome is unknown: the record may be in the file), every later line
  /// is refused, and serve_loop exits — matching the
  /// refuse-to-serve-on-divergence philosophy of recovery.
  std::string handle_line(const std::string& line);

  /// Non-empty once a journal write or fsync failed and the daemon refuses
  /// further ops (the message explains why).
  const std::string& fatal_error() const { return fatal_; }
  bool halted() const { return !fatal_.empty(); }

  /// End-of-stream drain: finish_stream, journal, then checkpoint(). The
  /// same code path as the wire-level drain op. Throws once halted.
  void drain();

  /// Durability checkpoint without draining: a snapshot when configured
  /// (its journal sync first), else a journal sync. Called on graceful
  /// shutdown — deliberately NOT drain(), so a restarted daemon continues
  /// the stream with its retry queue intact. Throws once halted: a snapshot
  /// then would capture state the journal never recorded.
  void checkpoint();

  /// Serves the wire protocol on a unix stream socket until `stop` becomes
  /// true (checked between poll rounds; flip it from a signal handler).
  /// `on_listening` fires once the socket accepts connections (tests).
  /// Returns 0 on a clean stop, 1 when the daemon halted on a journal
  /// failure (fatal_error() has the reason — do NOT checkpoint then, the
  /// snapshot would capture state the journal never recorded); throws on
  /// socket setup failures, and when `socket_path` exists and is not a
  /// stale socket (a regular file, or a socket another process serves),
  /// leaving that path untouched.
  int serve_loop(const std::string& socket_path, const std::atomic<bool>& stop,
                 const std::function<void()>& on_listening = {});

  // --- introspection (tests, stats op) ------------------------------------
  const PlacementEngine& engine() const { return *engine_; }
  const std::map<VmId, ServerId>& assignment() const { return assignment_; }
  std::uint64_t last_seq() const { return next_seq_ - 1; }
  /// Records re-run during recovery and whether a torn tail was dropped.
  std::uint64_t replayed_records() const {
    return recovery_.records_replayed;
  }
  /// The constructor's recovery phases, timed.
  const RecoveryTimes& recovery() const { return recovery_; }
  bool recovered_torn_tail() const { return torn_tail_; }
  bool recovered_from_snapshot() const { return from_snapshot_; }
  /// `with_id`/`id`: echo the client's correlation token like every other
  /// response does.
  std::string stats_json(bool with_assignment, bool with_id = false,
                         long long id = 0) const;

 private:
  /// The request id a response echoes, when the request carried one.
  using LineId = std::optional<long long>;

  /// The one applier of a state-changing op (place, retire, advance, fault,
  /// drain), live and in recovery alike: makes the engine call, folds the
  /// resolutions it accrued (evacuations, retry placements, unresolved
  /// displacements) into the assignment map and drops them from the
  /// engine's log, records the op's own outcome there, and returns its
  /// decision — a place's outcome, a retire's old host (kNoServer when the
  /// VM was not active), empty otherwise.
  PlacementDecision apply(const Request& req);
  /// Recovery of one record: apply(), then the recorded outcome checked as
  /// a fidelity checksum.
  void replay_record(const WalRecord& rec);
  /// Stages `record` for the round's commit, and snapshots when
  /// --snapshot-every is due. A snapshot write that fails there is logged,
  /// not thrown: the op stands.
  void journal(const std::string& record);
  /// The one halt path: runs a step that makes journaled ops durable; a
  /// throw sets fatal_ (the engine is ahead of the journal), returns false.
  template <typename Step>
  bool journal_io(Step&& step);
  /// WalWriter::sync through journal_io; throws fatal_ on failure.
  void wal_sync();
  /// Syncs the journal, writes the snapshot, then compacts the journal.
  /// Throws when the sync or the snapshot fails (a failed sync halts).
  void do_snapshot();
  /// Replaces the journal with a fresh one that starts after `seq`, which
  /// the snapshot just written holds. A failure before the rename is logged
  /// and leaves the whole journal in use; a failed directory fsync after it
  /// halts the daemon and throws.
  void compact_journal(std::uint64_t seq);
  std::string dispatch(const Request& req);
  /// Applies one line as part of the current round: the engine moves and
  /// its record is staged; the response it returns must wait for
  /// commit_round. `id` receives the request's id.
  std::string apply_line(std::string_view line, LineId& id);
  /// Ends a round: one write() of the staged records, then the fsync the
  /// schedule calls for. Returns false when the daemon is halted — now or
  /// earlier in the round — and then no response of the round may go out;
  /// each line gets halt_response instead.
  bool commit_round();
  std::string halt_response(const LineId& id) const;

  DaemonOptions options_;
  WalHeader header_;
  AllocatorPtr allocator_;
  std::unique_ptr<PlacementPolicy> policy_;
  Rng rng_;
  std::unique_ptr<PlacementEngine> engine_;
  /// The descriptor holding the exclusive flock on `<wal>.lock`. Declared
  /// before wal_, so the writer closes before the lock is released.
  struct WalLock {
    int fd = -1;
    WalLock() = default;
    WalLock(const WalLock&) = delete;
    WalLock& operator=(const WalLock&) = delete;
    ~WalLock();
  } wal_lock_;
  std::unique_ptr<WalWriter> wal_;
  std::uint64_t next_seq_ = 1;
  std::map<VmId, ServerId> assignment_;
  std::uint64_t ops_since_snapshot_ = 0;
  RecoveryTimes recovery_;
  bool torn_tail_ = false;
  bool from_snapshot_ = false;
  /// Set on the first journal write or fsync failure; the daemon refuses
  /// ops after.
  std::string fatal_;
};

}  // namespace esva::serve
