// Durable snapshots of the esva serve daemon: the complete restorable engine
// state (core/streaming.h EngineStateSnapshot) plus the pieces the engine
// cannot carry itself — the Rng's four state words, the daemon's vm->server
// assignment map, and a config header validated on restore. One JSON
// document per file, written the way every file the daemon makes durable is
// (serve::replace_file: tmp + fsync + rename, then a directory fsync), so a
// crash mid-snapshot leaves the previous snapshot intact.
//
// Exactness rules (docs/FORMATS.md#snapshot): every double rides as a C99
// hexfloat string (bit-exact round trip, so the restored engine's cumulative
// energy compares == against WAL checksums); every u64 (seed, sequence
// numbers, rng words) rides as a decimal string, because a double-backed
// JSON number cannot carry 64 bits. VMs use serve/wire.h's codec, so
// version 2 writes profiles as [len,cpu,mem] runs; version 3 drops the
// engine's resolution log. Versions 1 (one [cpu,mem] entry per unit) and 2
// still load, their "resolutions" ignored.
//
// A restored daemon replays the WAL records with seq > wal_seq on top of the
// snapshot. Once the daemon compacts its journal after a snapshot, the
// snapshot is the only copy of the records up to its wal_seq, so the
// snapshot and the journal past it are the source of truth together
// (docs/SERVE.md, "Snapshots and compaction").

#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/streaming.h"
#include "util/types.h"

namespace esva::serve {

struct SnapshotData {
  // --- identity (validated against the daemon's own config on restore) ----
  std::string allocator;
  std::uint64_t seed = 0;
  std::size_t num_servers = 0;
  /// Last WAL sequence number applied into this snapshot; recovery replays
  /// strictly-greater records.
  std::uint64_t wal_seq = 0;

  EngineStateSnapshot engine;
  /// xoshiro256** words (Rng::state), restoring the policy's random stream.
  std::array<std::uint64_t, 4> rng{};
  /// The daemon's current vm -> server map (kNoServer = rejected/retired),
  /// sorted by vm id.
  std::vector<std::pair<VmId, ServerId>> assignment;
};

std::string encode_snapshot(const SnapshotData& snap);

/// Accepts versions 1 to 3. Throws std::runtime_error on malformed input
/// or any other version.
SnapshotData decode_snapshot(const std::string& text);

/// Atomic durable write: serve::replace_file (<path>.tmp + fsync + rename),
/// then fsync_directory_of(path). Throws std::runtime_error naming the
/// failed step and the strerror text when any step fails, the directory's
/// open and fsync included: a snapshot is written only once its rename is
/// durable.
void write_snapshot_atomic(const std::string& path, const SnapshotData& snap);

/// Loads and decodes; `found` reports whether the file existed (absent is
/// not an error — a daemon's first run has no snapshot). A snapshot that
/// exists but cannot be read throws (serve::read_whole_file).
SnapshotData load_snapshot(const std::string& path, bool* found);

}  // namespace esva::serve
