#include "baselines/best_fit.h"

#include "cluster/timeline.h"
#include "core/candidate_scan.h"
#include "core/scan_scores.h"
#include "core/streaming.h"
#include "obs/metrics.h"
#include "util/types.h"

namespace esva {

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
