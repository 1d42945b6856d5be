#include "ext/window_reopt.h"

#include <algorithm>
#include <cassert>

#include "ilp/branch_and_bound.h"
#include "obs/metrics.h"

namespace esva {

namespace {

/// The sub-universe the polisher works in: only allocated VMs, re-indexed
/// densely (the solver requires dense ids), with a mapping back.
struct ReducedInstance {
  ProblemInstance problem;
  std::vector<std::size_t> original_index;  ///< reduced id -> original id
};

ReducedInstance reduce_to_allocated(const ProblemInstance& problem,
                                    const Allocation& alloc) {
  ReducedInstance reduced;
  std::vector<VmSpec> vms;
  for (std::size_t j = 0; j < problem.num_vms(); ++j) {
    if (alloc.assignment[j] == kNoServer) continue;
    VmSpec vm = problem.vms[j];
    vm.id = static_cast<VmId>(vms.size());
    reduced.original_index.push_back(j);
    vms.push_back(std::move(vm));
  }
  reduced.problem = make_problem(std::move(vms), problem.servers);
  return reduced;
}

}  // namespace

WindowReoptResult window_reoptimize(const ProblemInstance& problem,
                                    const Allocation& alloc,
                                    const WindowReoptConfig& config) {
  assert(config.group_size >= 1 && config.passes >= 1);
  assert(validate_allocation(problem, alloc, /*require_complete=*/false)
             .empty());

  ScopedTimer total_timer(
      config.obs.metrics ? &config.obs.metrics->timer("window_reopt.total_ms")
                         : nullptr);

  WindowReoptResult result;
  result.allocation = alloc;
  result.energy_before = evaluate_cost(problem, alloc, config.cost).total();

  // Work in the allocated-only sub-universe (a never-allocated VM would make
  // every sub-instance infeasible).
  const ReducedInstance reduced = reduce_to_allocated(problem, alloc);
  const std::size_t m = reduced.problem.num_vms();
  std::vector<ServerId> working(m);
  for (std::size_t r = 0; r < m; ++r)
    working[r] = alloc.assignment[reduced.original_index[r]];

  // Windows are consecutive runs in start-time order of the reduced VMs.
  const std::vector<std::size_t> order = order_by_start(reduced.problem.vms);
  Energy current_total =
      result.energy_before;  // reduced-universe cost == full cost: the
                             // unallocated VMs contribute nothing.
  const auto group = static_cast<std::size_t>(config.group_size);
  const std::size_t step = std::max<std::size_t>(1, group / 2);

  for (int pass = 0; pass < config.passes; ++pass) {
    int improved_this_pass = 0;
    for (std::size_t begin = 0; begin < order.size(); begin += step) {
      const std::size_t end = std::min(begin + group, order.size());

      ExactOptions options;
      options.cost = config.cost;
      options.node_limit = config.node_limit_per_window;
      options.initial_upper_bound = current_total + 1e-6;  // keep incumbent
      options.fixed_assignment = working;
      for (std::size_t k = begin; k < end; ++k)
        options.fixed_assignment[order[k]] = kNoServer;

      const ExactResult solved = solve_exact(reduced.problem, options);
      result.nodes_explored += solved.nodes_explored;
      ++result.windows_solved;
      if (!solved.optimal) {
        ++result.windows_skipped;
        continue;
      }
      if (!solved.feasible || solved.cost >= current_total - 1e-9) continue;

      working = solved.best.assignment;
      current_total = solved.cost;
      ++result.windows_improved;
      ++improved_this_pass;
    }
    if (improved_this_pass == 0) break;  // converged
  }

  for (std::size_t r = 0; r < m; ++r) {
    const std::size_t j = reduced.original_index[r];
    if (config.obs.tracing() && working[r] != alloc.assignment[j]) {
      DecisionBuilder decision(config.obs, "window-reopt",
                               problem.vms[j].id);
      decision.set_note("window-reopt");
      decision.commit(working[r]);
    }
    result.allocation.assignment[j] = working[r];
  }
  result.energy_after =
      evaluate_cost(problem, result.allocation, config.cost).total();
  if (config.obs.metrics) {
    config.obs.metrics->inc("window_reopt.windows_solved",
                            result.windows_solved);
    config.obs.metrics->inc("window_reopt.windows_improved",
                            result.windows_improved);
    config.obs.metrics->inc("window_reopt.windows_skipped",
                            result.windows_skipped);
    config.obs.metrics->inc(
        "window_reopt.nodes_explored",
        static_cast<std::int64_t>(result.nodes_explored));
    config.obs.metrics->set("window_reopt.energy_before",
                            result.energy_before);
    config.obs.metrics->set("window_reopt.energy_after", result.energy_after);
  }
  return result;
}

}  // namespace esva
