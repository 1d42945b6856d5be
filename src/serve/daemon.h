// The esva serve daemon: a long-running scheduler wrapping a PlacementEngine
// behind the line-delimited JSON wire protocol (serve/wire.h), durable via a
// write-ahead journal (serve/journal.h) and periodic snapshots
// (serve/snapshot.h).
//
// Durability contract: every state-changing op is applied to the engine
// first, then journaled, then acked (append-after-apply; the fsync schedule
// is WalWriter's). A restarted daemon reconstructs its state by loading the
// latest snapshot (if any) and *re-running the engine* over the journal
// records after it — the same deterministic policy with the same seed makes
// replay reproduce every decision bit-for-bit, and the journal's recorded
// outcomes (chosen server, cumulative energy as hexfloat) are verified as
// replay-fidelity checksums. tests/test_serve.cpp pins that a daemon-fed
// stream — including one SIGKILLed and restarted mid-stream — produces
// assignments and total energy byte-identical to the same workload through
// `esva stream` (sim/replay.cpp).
//
// Engine configuration mirrors replay_stream exactly (grow-on-demand
// horizon, auto-advance, energy accounting, tolerated late arrivals); fault
// events arrive as client ops through PlacementEngine::apply_fault instead
// of a pre-bound plan, which runs the identical per-event code path.
//
// Threading: the daemon is single-threaded; serve_loop multiplexes
// connections with poll() and handles one request at a time, so the engine
// needs no locking and responses are totally ordered.

#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/allocator.h"
#include "core/streaming.h"
#include "serve/journal.h"
#include "serve/wire.h"
#include "util/rng.h"

namespace esva::serve {

struct DaemonOptions {
  std::string allocator = "min-incremental";
  std::uint64_t seed = 42;
  /// Write-ahead journal path; required.
  std::string wal_path;
  /// Snapshot path; empty disables snapshots (recovery then replays the
  /// whole journal).
  std::string snapshot_path;
  /// Journal fsync batching (WalWriter): 1 = every op durable before its
  /// ack, N = group commit of N.
  int wal_sync_every = 1;
  /// Auto-snapshot after this many journaled ops (0 = only on explicit
  /// snapshot/drain ops). Needs snapshot_path.
  std::uint64_t snapshot_every = 0;
  /// Deferred-retry configuration, forwarded to the engine. Recorded in the
  /// journal header and validated on recovery.
  RetryPolicy retry;
  /// Candidate-scan configuration (threads) — a pure performance knob,
  /// decisions are identical at any setting.
  ScanConfig scan;
  CostOptions cost;
  Energy migration_cost_per_gib = 25.0;
};

class Daemon {
 public:
  /// Builds the engine and runs recovery: snapshot restore (if one exists),
  /// then journal replay of every record past it, with checksum
  /// verification. Throws std::runtime_error on header/config mismatches,
  /// mid-journal corruption, or replay divergence.
  Daemon(std::vector<ServerSpec> servers, DaemonOptions options);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Handles one request line, returns one response line (never throws —
  /// failures become {"ok":false,...} responses). A journal append/sync
  /// failure (ENOSPC, EIO) is NOT an ordinary op error: the engine already
  /// applied the op, so in-memory state is ahead of the durable journal and
  /// replay could no longer reproduce it. The daemon then halts — the
  /// failing op gets its error response, every later line is refused, and
  /// serve_loop exits — matching the refuse-to-serve-on-divergence
  /// philosophy of recovery.
  std::string handle_line(const std::string& line);

  /// Non-empty once a journal write failed and the daemon refuses further
  /// ops (the message explains why).
  const std::string& fatal_error() const { return fatal_; }
  bool halted() const { return !fatal_.empty(); }

  /// End-of-stream drain: finish_stream + journal + sync + snapshot. The
  /// same code path as the wire-level drain op.
  void drain();

  /// Durability checkpoint without draining: journal sync + snapshot (when
  /// configured). Called on graceful shutdown — deliberately NOT drain(), so
  /// a restarted daemon continues the stream with its retry queue intact.
  void checkpoint();

  /// Serves the wire protocol on a unix stream socket until `stop` becomes
  /// true (checked between poll rounds; flip it from a signal handler).
  /// `on_listening` fires once the socket accepts connections (tests).
  /// Returns 0 on a clean stop, 1 when the daemon halted on a journal
  /// failure (fatal_error() has the reason — do NOT checkpoint then, the
  /// snapshot would capture state the journal never recorded); throws on
  /// socket setup failures.
  int serve_loop(const std::string& socket_path, const std::atomic<bool>& stop,
                 const std::function<void()>& on_listening = {});

  // --- introspection (tests, stats op) ------------------------------------
  const PlacementEngine& engine() const { return *engine_; }
  const std::map<VmId, ServerId>& assignment() const { return assignment_; }
  std::uint64_t last_seq() const { return next_seq_ - 1; }
  /// Records re-run during recovery and whether a torn tail was dropped.
  std::uint64_t replayed_records() const { return replayed_; }
  bool recovered_torn_tail() const { return torn_tail_; }
  bool recovered_from_snapshot() const { return from_snapshot_; }
  /// `with_id`/`id`: echo the client's correlation token like every other
  /// response does.
  std::string stats_json(bool with_assignment, bool with_id = false,
                         long long id = 0) const;

 private:
  PlacementDecision apply_place(const VmSpec& vm);
  ServerId apply_retire(VmId vm);
  void replay_record(const WalRecord& rec);
  /// Folds engine resolutions (evacuations, retry placements, unresolved
  /// displacements) accrued since the last call into the assignment map.
  void sync_resolutions();
  void journal(const std::string& record);
  /// WalWriter::append / ::sync with halt-on-failure semantics: a throw
  /// records fatal_ (the engine is ahead of the journal) and rethrows.
  void wal_append(const std::string& record);
  void wal_sync();
  void do_snapshot();
  std::string dispatch(const Request& req);

  DaemonOptions options_;
  WalHeader header_;
  AllocatorPtr allocator_;
  std::unique_ptr<PlacementPolicy> policy_;
  Rng rng_;
  std::unique_ptr<PlacementEngine> engine_;
  std::unique_ptr<WalWriter> wal_;
  std::uint64_t next_seq_ = 1;
  std::map<VmId, ServerId> assignment_;
  std::size_t resolutions_applied_ = 0;
  std::uint64_t ops_since_snapshot_ = 0;
  std::uint64_t replayed_ = 0;
  bool torn_tail_ = false;
  bool from_snapshot_ = false;
  /// Set on the first journal write failure; the daemon refuses ops after.
  std::string fatal_;
};

}  // namespace esva::serve
