#include "core/min_incremental.h"

#include "core/candidate_scan.h"
#include "core/streaming.h"
#include "obs/metrics.h"

namespace esva {

namespace {

/// The Eq. 17 incremental energy — the score *is* the quantity the paper
/// minimizes, which is also what the trace reports.
struct MinIncrementalScore {
  CostOptions cost;
  double operator()(const ServerTimeline& timeline, const VmSpec& vm) const {
    return incremental_cost(timeline, vm, cost);
  }
};

}  // namespace

// The whole decision loop — traced and untraced, serial and parallel — lives
// in ScanPolicy (core/candidate_scan.h), so the traced twin can never drift
// from the fast path (tests/test_obs_trace.cpp and
// tests/test_envelope_scan.cpp pin them together) and the batch and
// streaming drivers share one code path (tests/test_streaming.cpp).
std::unique_ptr<PlacementPolicy> MinIncrementalAllocator::make_policy() const {
  return make_scan_policy(name(), /*score_is_energy_delta=*/true,
                          MinIncrementalScore{options_.cost}, options_.scan,
                          obs_);
}

Allocation MinIncrementalAllocator::allocate(const ProblemInstance& problem,
                                             Rng& rng) {
  ScopedTimer total_timer(allocate_timer(obs_.metrics, name()));
  const std::unique_ptr<PlacementPolicy> policy = make_policy();
  return run_batch(problem, *policy, options_.order, rng, obs_);
}

}  // namespace esva
