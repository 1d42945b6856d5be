#include "baselines/vector_fit.h"

#include "cluster/timeline.h"
#include "core/candidate_scan.h"
#include "core/scan_scores.h"
#include "core/streaming.h"
#include "obs/metrics.h"
#include "util/types.h"

namespace esva {

std::unique_ptr<PlacementPolicy> DotProductFitAllocator::make_policy() const {
  return make_scan_policy(name(), /*score_is_energy_delta=*/false,
                          DotProductFitScore{}, obs_);
}

Allocation DotProductFitAllocator::allocate(const ProblemInstance& problem,
                                            Rng& rng) {
  ScopedTimer total_timer(allocate_timer(obs_.metrics, name()));
  const std::unique_ptr<PlacementPolicy> policy = make_policy();
  return run_batch(problem, *policy, options_.order, rng, obs_);
}

}  // namespace esva
