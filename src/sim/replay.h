// Streaming replay: drives a PlacementEngine (core/streaming.h) from an
// ArrivalStream (workload/arrival_stream.h), advancing the rolling horizon
// to each arrival's start time, and reports what a serving system would
// report — per-request placement latency (p50/p99), requests/sec, telescoped
// energy, the peak resident timeline footprint the garbage collection
// bounds, and — when a FaultPlan or retry policy is configured — the fault
// and retry outcomes (evacuations, downtime, deferred placements). Backs the
// `esva stream` CLI command and the streaming section of
// bench/perf_allocators.

#pragma once

#include <cstddef>
#include <vector>

#include "core/streaming.h"
#include "obs/histogram.h"
#include "workload/arrival_stream.h"

namespace esva {

struct ReplayOptions {
  /// Advance the frontier to each arrival's start before placing it, letting
  /// the engine garbage-collect history. Off replays with full batch state
  /// (the differential baseline: GC must not change any decision).
  bool rolling_gc = true;
  /// Prices each placement (Eq. 17) for the energy report.
  CostOptions cost;
  /// Optional deterministic fail/drain/recover schedule, applied by the
  /// engine at frontier advances; null = fault-free. Must outlive the call.
  const FaultPlan* faults = nullptr;
  /// Deferred-retry configuration (disabled by default — then the replay is
  /// bit-identical to the fault-free one when `faults` is also null).
  RetryPolicy retry;
  /// Live-migration energy charged per GiB when an evacuated VM is re-placed.
  Energy migration_cost_per_gib = 25.0;
  /// Engine metrics (engine.submit_ms / engine.requests / engine.* fault
  /// counters) land here; the policy carries its own ObsContext for tracing
  /// and allocator.* metrics.
  ObsContext obs;
  /// Fleet time-series sampler passed through to the engine; null = no
  /// sampling. A final sample is forced after the end-of-stream drain.
  TimeSeriesSampler* timeseries = nullptr;
  /// Energy-attribution ledger passed through to the engine; null = none.
  EnergyLedger* ledger = nullptr;
  /// Passed through to the engine's cluster: a multi-shard count annotates
  /// every time-series sample with the per-shard load breakdown. Never
  /// changes a decision.
  ShardOptions shard;
};

/// Per-request submit latency, milliseconds. The p50/p99 pair comes from the
/// exact sort-based stats::quantiles; the hist_* fields are read off the
/// log-bucket histogram fed the same samples, so live-path percentiles can
/// be validated against the batch computation (they agree within one bucket
/// width — tests/test_histogram_obs.cpp).
struct LatencySummary {
  double mean_ms = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double max_ms = 0.0;
  double hist_p50_ms = 0.0;
  double hist_p90_ms = 0.0;
  double hist_p99_ms = 0.0;
};

struct ReplayReport {
  std::size_t requests = 0;
  std::size_t placed = 0;
  std::size_t rejected = 0;  ///< terminal rejections (no server, ever)
  std::size_t deferred = 0;  ///< submit-time deferrals into the retry queue
  /// Wall time spent inside submit() and the resulting throughput.
  double submit_total_ms = 0.0;
  double requests_per_sec = 0.0;
  LatencySummary latency;
  /// Raw per-request latencies, in submission order (the percentile source).
  std::vector<double> submit_ms;
  /// The same latencies bucketed into the log-bucket histogram (the live
  /// serving path's representation; source of latency.hist_*).
  HistogramSnapshot latency_hist;
  /// Telescoped Eq. 17 incremental energy of all placements, including the
  /// migration energy of evacuations.
  Energy total_energy = 0.0;
  std::size_t peak_resident_time_units = 0;
  std::size_t final_resident_time_units = 0;
  std::size_t peak_active_vms = 0;
  Time final_frontier = 1;
  /// Fault/retry outcome counters, copied from PlacementEngine::fault_stats()
  /// after the end-of-stream drain. All zero on a fault-free replay.
  FaultStats faults;
  /// Assignment indexed by VmId (the generators and the trace loader produce
  /// dense ids); reflects the *final* hosting after evacuations and retry
  /// placements (engine resolutions applied over submit-time decisions).
  std::vector<ServerId> assignment;
};

/// Replays every arrival through `policy`. The stream must present requests
/// in non-decreasing start-time order (the ArrivalStream contract). Late
/// stragglers (start behind the frontier) are tolerated: they are rejected
/// with a structured kLateArrival and counted, never thrown.
ReplayReport replay_stream(ArrivalStream& arrivals,
                           const std::vector<ServerSpec>& servers,
                           PlacementPolicy& policy, Rng& rng,
                           const ReplayOptions& options = {});

}  // namespace esva
