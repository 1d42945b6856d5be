// The four candidate-scan scores (core/candidate_scan.h), one per scan-based
// allocator; lower is better, ties go to the lowest server index.
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

/// min-incremental: the Eq. 17 incremental energy — the score *is* the
/// quantity the paper minimizes, which is also what the trace reports.
struct MinIncrementalScore {
  CostOptions cost;
  double operator()(const ServerTimeline& timeline, const VmSpec& vm) const {
    return incremental_cost(timeline, vm, cost);
  }
};

/// best-fit-cpu: post-placement CPU headroom; minimizing it is classical
/// Best Fit. While tracing, ScanPolicy prices candidates with the Eq. 17
/// delta separately so traces stay comparable across allocators.
struct BestFitCpuScore {
  double operator()(const ServerTimeline& timeline, const VmSpec& vm) const {
    return timeline.spec().capacity.cpu -
           timeline.max_cpu_usage(vm.start, vm.end) - vm.demand.cpu;
  }
};

/// lowest-idle-power: the server's idle draw.
struct LowestIdlePowerScore {
  double operator()(const ServerTimeline& timeline,
                    const VmSpec& /*vm*/) const {
    return timeline.spec().p_idle;
  }
};

/// dot-product-fit. The scan minimizes, so the score is the *negated*
/// cosine alignment: -a < -b exactly when a > b (negation is exact in
/// IEEE754), keeping the selection bit-identical to the historical
/// maximizing loop.
struct DotProductFitScore {
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
