#include "baselines/best_fit.h"

#include "cluster/timeline.h"
#include "core/candidate_scan.h"
#include "core/streaming.h"
#include "obs/metrics.h"
#include "util/types.h"

namespace esva {

namespace {

/// Post-placement CPU headroom: minimizing it is classical Best Fit. While
/// tracing, ScanPolicy prices candidates with the Eq. 17 delta separately so
/// traces stay comparable across allocators.
struct BestFitCpuScore {
  double operator()(const ServerTimeline& timeline, const VmSpec& vm) const {
    return timeline.spec().capacity.cpu -
           timeline.max_cpu_usage(vm.start, vm.end) - vm.demand.cpu;
  }
};

}  // namespace

std::unique_ptr<PlacementPolicy> BestFitCpuAllocator::make_policy() const {
  return make_scan_policy(name(), /*score_is_energy_delta=*/false,
                          BestFitCpuScore{}, obs_);
}

Allocation BestFitCpuAllocator::allocate(const ProblemInstance& problem,
                                         Rng& rng) {
  ScopedTimer total_timer(allocate_timer(obs_.metrics, name()));
  const std::unique_ptr<PlacementPolicy> policy = make_policy();
  return run_batch(problem, *policy, options_.order, rng, obs_);
}

}  // namespace esva
