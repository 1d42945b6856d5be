#include "baselines/vector_fit.h"

#include <cmath>

#include "cluster/timeline.h"
#include "core/candidate_scan.h"
#include "core/streaming.h"
#include "obs/metrics.h"
#include "util/types.h"

namespace esva {

namespace {

/// The scan minimizes, so the score is the *negated* cosine alignment:
/// -a < -b exactly when a > b (negation is exact in IEEE754), keeping the
/// selection bit-identical to the historical maximizing loop.
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

}  // namespace

std::unique_ptr<PlacementPolicy> DotProductFitAllocator::make_policy() const {
  return make_scan_policy(name(), /*score_is_energy_delta=*/false,
                          DotProductFitScore{}, options_.scan, obs_);
}

Allocation DotProductFitAllocator::allocate(const ProblemInstance& problem,
                                            Rng& rng) {
  ScopedTimer total_timer(allocate_timer(obs_.metrics, name()));
  const std::unique_ptr<PlacementPolicy> policy = make_policy();
  return run_batch(problem, *policy, options_.order, rng, obs_);
}

}  // namespace esva
