// Per-server occupancy over the planning horizon.
//
// A ServerTimeline answers the two questions every allocator in this library
// asks, both in O(log T):
//   * feasibility — "does VM j fit on this server throughout [t^s, t^e]?"
//     (paper §III: "a subset of servers having sufficient spare resources
//     throughout its time duration"), via range-add/range-max segment trees
//     per resource dimension;
//   * structure — "what are the busy segments?" (Fig. 1), via a merged
//     IntervalSet, which the cost model turns into energy (Eq. 17).
//
// Most feasibility probes never reach the trees: the trees' O(1) window-wide
// usage envelope (max_all / min_all) lets quick_fit() accept a candidate
// whose demand fits under the window peak, or reject one whose demand
// exceeds the spare capacity of even the emptiest unit, before any O(log T)
// descent (docs/PERFORMANCE.md, "Batched feasibility kernel").
//
// Placements can be undone in LIFO order, which is what the exact
// branch-and-bound solver uses for backtracking.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/server_spec.h"
#include "cluster/vm.h"
#include "util/interval_set.h"
#include "util/segment_tree.h"
#include "util/types.h"

namespace esva {

/// Why a feasibility probe rejected a VM (observability vocabulary; the trace
/// layer serializes these verbatim).
enum class FitReject {
  None,     ///< the VM fits
  Horizon,  ///< the VM's interval falls outside the base..horizon window
  Cpu,      ///< insufficient spare CPU at some time unit
  Mem,      ///< insufficient spare memory at some time unit
};

std::string to_string(FitReject reject);

/// Diagnosed feasibility result: can_fit() plus the first violated dimension
/// and the earliest violating time unit (0 when ok or horizon-rejected).
struct FitCheck {
  bool ok = false;
  FitReject reject = FitReject::None;
  Time at = 0;
};

/// O(1) feasibility triage verdict from the window-wide usage envelope.
enum class QuickFit : std::uint8_t {
  kFits,       ///< peak + demand fits: can_fit(vm) is certainly true
  kCannotFit,  ///< demand exceeds spare everywhere (or window): certainly false
  kUnknown,    ///< undecided; a tree query is required
};

class ServerTimeline {
 public:
  /// A timeline for `spec` over times 1..horizon (inclusive).
  ServerTimeline(const ServerSpec& spec, Time horizon);

  /// A timeline over the window base..horizon (inclusive; empty when
  /// horizon == base - 1). Resource trees cover only the window, so memory
  /// is O(horizon - base); the rolling-horizon ClusterState
  /// (core/streaming.h) rebuilds timelines with an advanced base to keep
  /// state proportional to the active window. VMs starting before `base`
  /// do not fit.
  ServerTimeline(const ServerSpec& spec, Time base, Time horizon);

  const ServerSpec& spec() const { return spec_; }
  Time base() const { return base_; }
  Time horizon() const { return horizon_; }

  /// Resident window size in time units (the resource-tree footprint).
  Time window_units() const { return horizon_ - base_ + 1; }

  /// Inserts a raw busy interval without reserving resources. Used when
  /// rebuilding a garbage-collected timeline: a unit sentinel at the latest
  /// retired busy endpoint preserves every future structure-cost delta
  /// (core/streaming.h explains why). May lie before `base`; the busy
  /// structure is time-indexed, not window-indexed.
  void seed_busy(Time lo, Time hi);

  /// True iff the VM's demand fits within spare capacity at every time unit
  /// of its interval. VMs whose interval falls outside the base..horizon
  /// window do not fit.
  bool can_fit(const VmSpec& vm) const;

  /// O(1) triage: decides can_fit(vm) from the window-wide usage envelope
  /// when possible, without touching the trees. kFits / kCannotFit agree
  /// with can_fit exactly (same floating-point comparisons); kUnknown means
  /// the caller must fall back to can_fit. The candidate scan evaluates the
  /// same comparisons fleet-wide in EnvelopeStore::classify; this per-server
  /// form is can_fit's first step and the classify fuzz's oracle.
  QuickFit quick_fit(const VmSpec& vm) const;

  /// can_fit with a diagnosis: which dimension failed first, and where.
  /// Agrees with can_fit on `ok` for every VM (tested); rejection is
  /// localized by tree descent (RangeAddMaxTree::first_above) in O(log^2 T)
  /// rather than a per-unit scan.
  FitCheck check_fit(const VmSpec& vm) const;

  /// Everything needed to undo a placement.
  struct PlaceRecord {
    VmId vm = 0;
    IntervalSet::InsertDelta busy_delta;
  };

  /// Reserves the VM's resources and extends the busy structure. The caller
  /// must have checked can_fit (asserted in debug builds).
  PlaceRecord place(const VmSpec& vm);

  /// Reverts a placement. Records must be undone in reverse order of their
  /// place() calls (LIFO); this is asserted where cheap.
  void undo(const PlaceRecord& record, const VmSpec& vm);

  /// Merged busy segments (Fig. 1's busy-segments, in increasing order).
  const IntervalSet& busy() const { return busy_; }

  /// VM ids currently placed here, in placement order.
  const std::vector<VmId>& vms() const { return vms_; }

  /// Peak CPU / memory usage over an inclusive time range (0 if empty range
  /// semantics never arise: requires base <= lo <= hi <= horizon).
  double max_cpu_usage(Time lo, Time hi) const;
  double max_mem_usage(Time lo, Time hi) const;

  /// Usage at a single time unit.
  double cpu_usage_at(Time t) const { return max_cpu_usage(t, t); }
  double mem_usage_at(Time t) const { return max_mem_usage(t, t); }

  /// Window-wide usage envelope, O(1): the peak and floor of usage across
  /// the whole base..horizon window (0 for an empty window).
  double peak_cpu_usage() const { return cpu_.max_all(); }
  double peak_mem_usage() const { return mem_.max_all(); }
  double floor_cpu_usage() const { return cpu_.min_all(); }
  double floor_mem_usage() const { return mem_.min_all(); }

  /// Total busy time units.
  Time busy_time() const { return busy_.total_length(); }

 private:
  std::size_t index_of(Time t) const {
    return static_cast<std::size_t>(t - base_);
  }

  ServerSpec spec_;
  Time base_;
  Time horizon_;
  RangeAddMaxTree cpu_;
  RangeAddMaxTree mem_;
  IntervalSet busy_;
  std::vector<VmId> vms_;
};

/// Builds one timeline per server over the instance horizon.
std::vector<ServerTimeline> make_timelines(
    const std::vector<ServerSpec>& servers, Time horizon);

}  // namespace esva
