// The four candidate-scan scores (core/candidate_scan.h), one per scan-based
// allocator; lower is better, ties go to the lowest server index. Each score
// names its allocator (kName, the registry name) and says whether it *is*
// the Eq. 17 incremental energy (kIsEnergyDelta), which the traced scan
// then reports as the candidate's delta instead of pricing it again.
// ScanAllocator<Score> is the allocator; MinIncrementalAllocator
// (core/min_incremental.h) is ScanAllocator<MinIncrementalScore>.
//
// They live together because the pristine-class argument in
// candidate_scan.h rests on what they read: the VM, the spec's capacity,
// power and transition doubles, and the timeline's usage and busy set —
// never the server index, id or type name. Servers of one pristine class
// therefore score bit-identically (tests/test_envelope_scan.cpp pins each
// score on a class representative against an eager empty timeline).

#pragma once

#include <cmath>

#include "cluster/resources.h"
#include "cluster/timeline.h"
#include "cluster/vm.h"
#include "core/cost_model.h"
#include "util/types.h"

namespace esva {

/// min-incremental, the paper's heuristic (§III; core/min_incremental.h):
/// the Eq. 17 incremental energy — the score *is* the quantity the paper
/// minimizes, which is also what the trace reports.
struct MinIncrementalScore {
  static constexpr const char* kName = "min-incremental";
  static constexpr bool kIsEnergyDelta = true;

  CostOptions cost;
  double operator()(const ServerTimeline& timeline, const VmSpec& vm) const {
    return incremental_cost(timeline, vm, cost);
  }
};

/// best-fit-cpu — classical Best Fit adapted to the interval setting: the
/// post-placement peak CPU headroom over the VM's interval; minimizing it
/// picks the tightest fit. Energy-oblivious; it separates the
/// "consolidation effect" from the "energy-awareness effect" in the
/// ablation benches. While tracing, ScanPolicy prices candidates with the
/// Eq. 17 delta separately so traces stay comparable across allocators.
struct BestFitCpuScore {
  static constexpr const char* kName = "best-fit-cpu";
  static constexpr bool kIsEnergyDelta = false;

  double operator()(const ServerTimeline& timeline, const VmSpec& vm) const {
    return timeline.spec().capacity.cpu -
           timeline.max_cpu_usage(vm.start, vm.end) - vm.demand.cpu;
  }
};

/// lowest-idle-power — the server's idle draw P_idle. A "static energy
/// label" heuristic: it knows which hardware is efficient but is blind to
/// the temporal structure (existing busy segments, transition costs), so it
/// separates how much of MinIncrementalEnergy's win comes from hardware
/// choice and how much from temporal consolidation.
struct LowestIdlePowerScore {
  static constexpr const char* kName = "lowest-idle-power";
  static constexpr bool kIsEnergyDelta = false;

  double operator()(const ServerTimeline& timeline,
                    const VmSpec& /*vm*/) const {
    return timeline.spec().p_idle;
  }
};

/// dot-product-fit — vector bin packing, an extension beyond the paper.
/// Multi-dimensional packing heuristics pick the server whose remaining
/// capacity vector best *aligns* with the request's demand vector
/// (Panigrahy et al., "Heuristics for Vector Bin Packing"): the cosine
/// between the VM's demand and the server's peak remaining capacity over
/// the VM's interval. That keeps CPU and memory balanced so neither
/// dimension strands the other — the "unevenness" failure mode the paper
/// attributes to FFPS in Fig. 3. Energy-oblivious, so comparing it against
/// MinIncrementalEnergy separates "pack well" from "pack where energy is
/// cheap".
///
/// The scan minimizes, so the score is the *negated* alignment: -a < -b
/// exactly when a > b (negation is exact in IEEE754), keeping the selection
/// bit-identical to the historical maximizing loop.
struct DotProductFitScore {
  static constexpr const char* kName = "dot-product-fit";
  static constexpr bool kIsEnergyDelta = false;

  double operator()(const ServerTimeline& timeline, const VmSpec& vm) const {
    const double demand_norm = std::sqrt(
        vm.demand.cpu * vm.demand.cpu + vm.demand.mem * vm.demand.mem);
    const Resources remaining{
        timeline.spec().capacity.cpu -
            timeline.max_cpu_usage(vm.start, vm.end),
        timeline.spec().capacity.mem -
            timeline.max_mem_usage(vm.start, vm.end)};
    const double remaining_norm = std::sqrt(
        remaining.cpu * remaining.cpu + remaining.mem * remaining.mem);
    // A zero-demand or exactly-full server degenerates; score it neutral.
    double alignment = 0.0;
    if (demand_norm > kEps && remaining_norm > kEps) {
      alignment = (vm.demand.cpu * remaining.cpu +
                   vm.demand.mem * remaining.mem) /
                  (demand_norm * remaining_norm);
    }
    return -alignment;
  }
};

}  // namespace esva
