// The end-to-end side of the benchmark: the real `esva serve` binary as a
// child process, driven over its unix socket by this process.
//
// One round = spawn the daemon on an empty WAL (setup_s, sampled by a few
// spawn-and-kill cycles before the one that serves the round), an untimed
// closed-loop warm-up, a closed loop with W requests in flight over the rest
// of the stream, timed per slice (ops_rps), VmHWM, a final `stats` with the
// assignment, SIGKILL, and restarts on the same files, each timed to
// "listening" (recovery_s) and followed by one `stats` for the recovered
// state.
//
// A latency round (the traced run) splits the stream after the warm-up into
// a closed-loop phase and an open-loop phase with Poisson send times, each
// ack timed from its request's due time, while a reader connection sends
// `stats` on a fixed schedule throughout both phases.
//
// The client uses at most three threads: the caller (sends), one receiver
// for the open-loop phase, and the reader.

#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "serve/daemon.h"
#include "workloads.h"

namespace esva::bench {

/// Files of one workload's run directory (relative paths keep the socket
/// path short whatever the checkout's location).
struct RunPaths {
  std::string dir;
  std::string servers_csv;
  std::string socket;
  std::string wal;
  std::string snapshot;  ///< empty when the workload takes no snapshots
  std::string daemon_log;

  static RunPaths under(const std::string& dir, const WorkloadSpec& spec);
  /// Removes the WAL, snapshot and socket so the next daemon starts empty.
  void clear_state() const;
};

/// The daemon configuration a workload runs with, for in-process daemons
/// and pipelines over the given journal/snapshot paths.
serve::DaemonOptions daemon_options(const WorkloadSpec& spec,
                                    std::uint64_t seed, const std::string& wal,
                                    const std::string& snapshot);

struct RoundResult {
  std::vector<double> setup_s;     ///< spawn -> "listening", empty WAL
  std::vector<double> recovery_s;  ///< restart after SIGKILL -> "listening"
  /// Untraced rounds: seconds from the closed loop's start to the end of
  /// each of its equal slices.
  std::vector<double> closed_ends_s;
  double ops_rps = 0;  ///< the closed loop's ops over its duration
  double rss_mb = 0;
  /// Latency rounds only: open-loop ack latency from the due time, per open
  /// op in send order (+inf for a failed response).
  std::vector<double> ack_ms;
  /// Send time minus due time, per open op.
  std::vector<double> late_ms;
  /// Reader `stats` latency from the due time.
  std::vector<double> stats_ms;
  /// Every state-changing op's response line, in send order.
  std::vector<std::string> responses;
  std::int64_t attempted = 0;  ///< requests sent, `stats` included
  std::int64_t failed = 0;     ///< ok:false or no response
  std::int64_t request_bytes = 0;
  std::int64_t response_bytes = 0;
  // --- final state before the kill, and the recovered state ---------------
  std::uint64_t final_seq = 0;
  double final_energy = 0;
  std::vector<std::pair<VmId, ServerId>> assignment;
  std::uint64_t recovered_seq = 0;
  double recovered_energy = 0;
  bool restarts_agree = true;  ///< every restart recovered the same state
};

/// Runs one round against a freshly spawned daemon. A `latency` round adds
/// the open-loop phase and the reader, and copies the killed daemon's
/// WAL/snapshot to `<dir>/crash.*` before the restart (the traced run
/// replays them in process). Throws on infrastructure failures (spawn,
/// socket, timeouts); protocol-level failures are counted in `failed`.
RoundResult run_round(const WorkloadSpec& spec, std::uint64_t seed,
                      const Inputs& inputs, const RunPaths& paths,
                      const std::string& esva_bin, bool latency);

/// Statfs type of the directory holding `path` ("tmpfs", "ext4", ...).
std::string filesystem_type(const std::string& path);

}  // namespace esva::bench
