// Allocator interface shared by the paper's heuristic and all baselines.
//
// Allocators are *online in start-time order* (paper §III): they receive the
// full instance but commit to a server for each VM without revisiting earlier
// decisions (no migration — §V contrasts this problem with migration-based
// work). Stochastic allocators (FFPS's server shuffle, RandomFit) draw from
// the Rng passed to allocate(), keeping runs reproducible.

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/allocation.h"
#include "core/problem.h"
#include "obs/trace.h"
#include "util/rng.h"

namespace esva {

class PlacementPolicy;  // core/streaming.h

/// Order in which VMs are presented to an allocator. The paper always uses
/// ByStartTime; the others exist for the ordering ablation
/// (bench/ablation_ordering).
enum class VmOrder {
  ByStartTime,     ///< increasing t^s (the paper's order)
  ByArrivalId,     ///< request id order (== arrival order for generated loads)
  ByDurationDesc,  ///< longest VM first (offline, bin-packing style)
  ByCpuDesc,       ///< largest CPU demand first (offline, FFD style)
};

std::string to_string(VmOrder order);

/// Indices of problem.vms in the given presentation order (deterministic;
/// ties broken by id).
std::vector<std::size_t> ordered_indices(const ProblemInstance& problem,
                                         VmOrder order);

/// How the streaming engine slices the fleet for per-shard load reporting:
/// `shards` contiguous, balanced server-index blocks (clamped to
/// [1, servers]). A multi-shard cluster adds a per-shard breakdown to every
/// time-series sample (FleetSample::shards); nothing else reads it.
struct ShardOptions {
  int shards = 1;
};

/// Configuration of the candidate-scan engine (core/candidate_scan.h) shared
/// by the allocators that probe every server per VM. Every setting yields the
/// assignment of the traced serial check_fit loop, bit for bit
/// (tests/test_envelope_scan.cpp, docs/PERFORMANCE.md).
struct ScanConfig {
  /// Worker threads per scan: 1 = serial (default), 0 = hardware
  /// concurrency, N > 1 = the arg-min split into N contiguous chunks.
  /// Results are identical at any count.
  int threads = 1;
  /// Shard count for the engine's per-shard load reporting (ShardOptions);
  /// it does not reach the scan.
  int shards = 1;

  /// `threads` with 0 resolved to the hardware concurrency (at least 1).
  int resolved_threads() const;
  /// The sharding subset of this config, as EngineOptions::shard.
  ShardOptions shard_options() const { return ShardOptions{shards}; }
};

class Allocator {
 public:
  virtual ~Allocator() = default;

  /// Short stable name used in reports ("min-incremental", "ffps", ...).
  virtual std::string name() const = 0;

  /// Produces an assignment for every VM (kNoServer where infeasible).
  virtual Allocation allocate(const ProblemInstance& problem, Rng& rng) = 0;

  /// Streaming counterpart of allocate(): a fresh per-request policy
  /// (core/streaming.h) bound to the allocator's current options and
  /// observability context. For every allocator that overrides this,
  /// allocate() is implemented as "sort by start time, feed the stream" over
  /// exactly this policy, so the batch and streaming paths cannot drift
  /// (tests/test_streaming.cpp). Returns null for inherently batch
  /// allocators (the ext lookahead/reoptimization passes).
  virtual std::unique_ptr<PlacementPolicy> make_policy() const;

  /// Configures the candidate-scan engine for allocators built on it
  /// (min-incremental, best-fit-cpu, lowest-idle-power, dot-product-fit).
  /// Default: no-op — allocators without an exhaustive scan (ffps,
  /// random-fit) ignore it.
  virtual void set_scan_config(const ScanConfig& /*config*/) {}

  /// Observability hook shared by every allocator (obs/trace.h): a trace
  /// sink receiving one VmDecisionTrace per VM, and a metrics registry for
  /// timers/counters. The default (null) context must impose no measurable
  /// overhead on allocate() — implementations only take the diagnostic path
  /// (check_fit, per-candidate deltas) when obs().tracing().
  void set_observability(const ObsContext& obs) { obs_ = obs; }
  const ObsContext& obs() const { return obs_; }

 protected:
  ObsContext obs_;
};

using AllocatorPtr = std::unique_ptr<Allocator>;

class Timer;

/// The "allocator.<name>.allocate_ms" timer, or null when `metrics` is null —
/// feed it to a ScopedTimer around the allocation loop.
Timer* allocate_timer(MetricsRegistry* metrics, const std::string& allocator);

/// Flushes the standard per-allocate counters ("allocator.<name>.vms",
/// ".feasible_candidates", ".rejections", ".unallocated"). No-op when
/// `metrics` is null.
void record_allocation_metrics(MetricsRegistry* metrics,
                               const std::string& allocator, std::size_t vms,
                               std::int64_t feasible_candidates,
                               std::int64_t rejections,
                               std::size_t unallocated);

}  // namespace esva
