// Allocator interface shared by the paper's heuristic and all baselines.
//
// Allocators are *online in start-time order* (paper §III): they receive the
// full instance but commit to a server for each VM without revisiting earlier
// decisions (no migration — §V contrasts this problem with migration-based
// work). Stochastic allocators (FFPS's server shuffle, RandomFit) draw from
// the Rng passed to allocate(), keeping runs reproducible.
//
// An allocator is its per-request policy (make_policy(), core/streaming.h):
// the default allocate() is the one batch driver, "sort by start time, feed
// the stream" (run_batch). Only the batch-only ext passes (lookahead,
// delayed admission), which have no policy, override it. The VM order is
// the batch driver's argument, not an allocator option: the ordering
// ablation (bench/ablation_ordering) calls run_batch with the other orders
// itself.

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

/// Order in which run_batch presents VMs to a policy. The paper always uses
/// ByStartTime, and so does Allocator::allocate(); the others exist for the
/// ordering ablation (bench/ablation_ordering).
enum class VmOrder {
  ByStartTime,     ///< increasing t^s (the paper's order)
  ByArrivalId,     ///< request id order (== arrival order for generated loads)
  ByDurationDesc,  ///< longest VM first (offline, bin-packing style)
  ByCpuDesc,       ///< largest CPU demand first (offline, FFD style)
};

std::string to_string(VmOrder order);

/// All orders, for sweep loops.
const std::vector<VmOrder>& all_vm_orders();

/// Indices of problem.vms in the given presentation order (deterministic;
/// ties broken by id).
std::vector<std::size_t> ordered_indices(const ProblemInstance& problem,
                                         VmOrder order);

/// The engine's fleet layout (EngineOptions::shard): one block, so `shards`
/// must be 1.
struct ShardOptions {
  int shards = 1;
};

/// Candidate-scan configuration (core/candidate_scan.h). The scan is serial
/// over one block, so `threads` and `shards` each accept exactly 1:
/// Allocator::set_scan_config, the PlacementEngine constructor and
/// `esva serve --threads` reject any other value rather than ignore it.
struct ScanConfig {
  /// Scan threads; must be 1 (the candidate scan is serial).
  int threads = 1;
  /// Fleet blocks; must be 1.
  int shards = 1;

  /// The layout subset of this config, as EngineOptions::shard.
  ShardOptions shard_options() const { return ShardOptions{shards}; }
};

class Allocator {
 public:
  virtual ~Allocator() = default;

  /// Short stable name used in reports ("min-incremental", "ffps", ...).
  virtual std::string name() const = 0;

  /// Produces an assignment for every VM (kNoServer where infeasible). The
  /// default runs make_policy()'s policy through run_batch in start-time
  /// order, timed as "allocator.<name>.allocate_ms", so the batch and
  /// streaming paths cannot drift (tests/test_streaming.cpp). Allocators
  /// whose make_policy() returns null must override it.
  virtual Allocation allocate(const ProblemInstance& problem, Rng& rng);

  /// Streaming counterpart of allocate(): a fresh per-request policy
  /// (core/streaming.h) bound to the allocator's current options and
  /// observability context. Returns null for inherently batch allocators
  /// (the ext lookahead/reoptimization passes).
  virtual std::unique_ptr<PlacementPolicy> make_policy() const;

  /// Checks a candidate-scan configuration: `config.threads` and
  /// `config.shards` must each be 1, and any other value throws
  /// std::invalid_argument. There is nothing else to configure.
  void set_scan_config(const ScanConfig& config) const;

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
