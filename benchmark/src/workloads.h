// The benchmark's workloads: a frozen parameter table (one row per workload,
// README.md says why each exists) and the seeded generator that turns a row
// plus --seed into the daemon's inputs — a fleet and a pre-encoded request
// stream. The daemon only ever sees these generated inputs.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/server_spec.h"
#include "cluster/vm.h"
#include "core/fault_plan.h"
#include "serve/wire.h"

namespace esva::bench {

/// One workload's frozen parameters. Phase sizes are request counts, so two
/// commits always do the same work per round; the open-loop rate was
/// calibrated once (about a quarter of the closed-loop rate on the reference
/// host, where queueing no longer amplifies the host's noise) and is never
/// re-derived.
struct WorkloadSpec {
  std::string name;
  // --- fleet ----------------------------------------------------------------
  int servers = 500;
  bool scaled_fleet = false;  ///< make_scaled_fleet (else make_random_fleet)
  // --- request stream --------------------------------------------------------
  // Untraced rounds send the closed and open phases as one closed loop
  // (ops_rps); the traced run's latency round sends them as named.
  int warmup_ops = 0;  ///< untimed closed-loop slice
  int closed_ops = 0;  ///< closed-loop phase
  int open_ops = 0;    ///< open-loop phase (ack latency)
  double interarrival = 2.0;
  double duration = 50.0;
  bool bursty = false;       ///< generate_bursty_workload (profiled VMs)
  int bursty_phases = 4;
  double bursty_valley = 0.3;
  int fault_every = 0;       ///< ~one fault op per this many requests; 0 = none
  double retire_share = 0.0; ///< share of VMs retired at half-life
  // --- daemon flags ----------------------------------------------------------
  int wal_sync_every = 1;
  int snapshot_every = 0;  ///< 0 = no snapshot file
  int retry_max = 1;
  // --- client ----------------------------------------------------------------
  int window = 8;           ///< requests in flight in the closed loop
  double reader_hz = 100;   ///< `stats` schedule of the reader connection
  double open_rate = 1000;  ///< open-loop Poisson send rate, ops/s
};

/// The frozen table, in BENCHMARK.json order.
const std::vector<WorkloadSpec>& workload_table();

/// Looks a workload up by name; throws std::invalid_argument when unknown.
const WorkloadSpec& find_workload(const std::string& name);

/// The same workload at smoke-test size: every phase and the fleet shrunk so
/// one round takes well under a second, all checks unchanged.
WorkloadSpec smoke_variant(const WorkloadSpec& spec);

/// One state-changing request of the stream.
struct Op {
  serve::Request request;
  std::string line;  ///< encode_request(request), no newline
};

/// Everything a run needs, generated from (spec, seed).
struct Inputs {
  std::vector<ServerSpec> servers;
  std::vector<VmSpec> vms;  ///< every placed VM, dense ids
  std::vector<Op> ops;      ///< warmup + closed + open, in send order
  /// Open-loop send offsets from the phase start, seconds, one per open op.
  std::vector<double> open_offsets_s;
  /// True when the stream is place-only (replay_stream is then a reference).
  bool place_only = true;
};

Inputs generate_inputs(const WorkloadSpec& spec, std::uint64_t seed);

}  // namespace esva::bench
