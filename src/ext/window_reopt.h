// Exact window re-optimization (extension beyond the paper).
//
// A hybrid between the greedy and the exact solver: starting from any
// feasible allocation, repeatedly free a small group of VMs (consecutive in
// start-time order) and re-solve that group to certified optimality with the
// branch-and-bound solver, holding everything else fixed
// (ExactOptions::fixed_assignment). Each re-solve can only improve the
// total, so the procedure is an anytime polisher whose result is locally
// optimal over every window it visited.
//
// Group size trades quality for time: the sub-solve is exponential in
// `group_size` (≈ n^group_size worst case), so sizes 4–8 are practical.

#pragma once

#include "core/allocation.h"
#include "core/cost_model.h"
#include "core/problem.h"
#include "obs/trace.h"

namespace esva {

struct WindowReoptConfig {
  CostOptions cost;
  /// VMs re-optimized together; >= 1. Consecutive windows overlap by half
  /// a group, which catches improvements that straddle a window boundary.
  int group_size = 6;
  /// Node budget per sub-solve; a window that exhausts it keeps its
  /// original assignment (counted in windows_skipped).
  std::uint64_t node_limit_per_window = 2'000'000;
  /// Passes over the whole instance (later passes see earlier improvements).
  int passes = 1;
  /// Optional observability: every reassigned VM is traced with note
  /// "window-reopt"; counters/timers land under "window_reopt.*".
  ObsContext obs;
};

struct WindowReoptResult {
  Allocation allocation;
  Energy energy_before = 0.0;
  Energy energy_after = 0.0;
  int windows_solved = 0;
  int windows_improved = 0;
  int windows_skipped = 0;  ///< node budget exhausted
  std::uint64_t nodes_explored = 0;

  double reduction() const {
    return energy_before > 0 ? (energy_before - energy_after) / energy_before
                             : 0.0;
  }
};

/// Polishes `alloc` (must be capacity-feasible; unallocated VMs are left
/// unallocated — run a placement pass first if needed). energy_after <=
/// energy_before always.
WindowReoptResult window_reoptimize(const ProblemInstance& problem,
                                    const Allocation& alloc,
                                    const WindowReoptConfig& config = {});

}  // namespace esva
