#include "ext/timeout_policy.h"

#include <algorithm>
#include <cassert>

#include "core/power_model.h"
#include "core/segments.h"

namespace esva {

std::vector<Interval> timeout_active_intervals(const IntervalSet& busy,
                                               Time horizon,
                                               const TimeoutPolicy& policy) {
  assert(policy.timeout >= 0);
  std::vector<Interval> result;
  const auto& segments = busy.intervals();
  for (std::size_t k = 0; k < segments.size(); ++k) {
    // The server lingers for `timeout` units after the segment — unless the
    // next busy segment starts sooner (then it never powered down), or the
    // horizon cuts the lingering short (compared before adding, so a
    // timeout near the largest Time cannot overflow).
    Time linger_end = policy.timeout >= horizon - segments[k].hi
                          ? horizon
                          : segments[k].hi + policy.timeout;
    if (k + 1 < segments.size())
      linger_end = std::min(linger_end, segments[k + 1].lo - 1);

    if (!result.empty() && segments[k].lo <= result.back().hi + 1) {
      // Previous lingering reached (or touched) this segment: coalesce.
      result.back().hi = std::max(result.back().hi, linger_end);
    } else {
      result.push_back(Interval{segments[k].lo, linger_end});
    }
  }
  return result;
}

CostBreakdown timeout_structure_breakdown(const IntervalSet& busy,
                                          const ServerSpec& server,
                                          Time horizon,
                                          const TimeoutPolicy& policy,
                                          const CostOptions& opts) {
  CostBreakdown cost;
  if (busy.empty()) return cost;
  const std::vector<Interval> actives =
      timeout_active_intervals(busy, horizon, policy);
  for (std::size_t k = 0; k < actives.size(); ++k) {
    cost.idle += server.p_idle * static_cast<double>(actives[k].length());
    if (k > 0 || opts.charge_initial_transition)
      cost.transition += server.transition_cost();
  }
  return cost;
}

Energy evaluate_cost_with_timeout(const ProblemInstance& problem,
                                  const Allocation& alloc,
                                  const TimeoutPolicy& policy,
                                  const CostOptions& opts) {
  Energy total = 0.0;
  const auto grouped = vms_by_server(problem, alloc);
  for (std::size_t i = 0; i < problem.num_servers(); ++i) {
    if (grouped[i].empty()) continue;
    const ServerSpec& server = problem.servers[i];
    total += timeout_structure_breakdown(busy_union(grouped[i]), server,
                                         problem.horizon, policy, opts)
                 .total();
    for (const VmSpec& vm : grouped[i]) total += run_cost(server, vm);
  }
  return total;
}

}  // namespace esva
