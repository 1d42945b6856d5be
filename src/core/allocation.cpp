#include "core/allocation.h"

#include <algorithm>
#include <cassert>

#include "core/power_model.h"
#include "core/segments.h"

namespace esva {

std::size_t Allocation::num_unallocated() const {
  return static_cast<std::size_t>(
      std::count(assignment.begin(), assignment.end(), kNoServer));
}

std::vector<std::vector<VmSpec>> vms_by_server(const ProblemInstance& problem,
                                               const Allocation& alloc) {
  assert(alloc.assignment.size() == problem.num_vms());
  std::vector<std::vector<VmSpec>> grouped(problem.num_servers());
  for (std::size_t j = 0; j < problem.num_vms(); ++j) {
    const ServerId server = alloc.assignment[j];
    if (server == kNoServer) continue;
    assert(server >= 0 && static_cast<std::size_t>(server) < grouped.size());
    grouped[static_cast<std::size_t>(server)].push_back(problem.vms[j]);
  }
  return grouped;
}

CostReport evaluate_cost(const ProblemInstance& problem,
                         const Allocation& alloc, const CostOptions& opts) {
  CostReport report;
  report.per_server.resize(problem.num_servers(), 0.0);
  const auto grouped = vms_by_server(problem, alloc);
  for (std::size_t i = 0; i < problem.num_servers(); ++i) {
    if (grouped[i].empty()) continue;
    const ServerSpec& server = problem.servers[i];
    CostBreakdown breakdown =
        structure_breakdown(busy_union(grouped[i]), server, opts);
    for (const VmSpec& vm : grouped[i]) breakdown.run += run_cost(server, vm);
    report.per_server[i] = breakdown.total();
    report.breakdown += breakdown;
    report.used_servers.push_back(static_cast<int>(i));
  }
  return report;
}

void trace_assignment(const ProblemInstance& problem, const Allocation& alloc,
                      TraceSink& sink, const CostOptions& opts) {
  assert(alloc.assignment.size() == problem.num_vms());
  std::vector<ServerTimeline> timelines =
      make_timelines(problem.servers, problem.horizon);
  ObsContext obs;
  obs.trace = &sink;
  for (std::size_t j : order_by_start(problem.vms)) {
    const VmSpec& vm = problem.vms[j];
    const ServerId server = alloc.assignment[j];
    DecisionBuilder decision(obs, "assignment", vm.id);
    if (server == kNoServer) {
      decision.commit(kNoServer);
      continue;
    }
    const auto i = static_cast<std::size_t>(server);
    decision.add_feasible(server, incremental_cost(timelines[i], vm, opts));
    decision.commit(server);
    timelines[i].place(vm);
  }
}

std::string validate_allocation(const ProblemInstance& problem,
                                const Allocation& alloc,
                                bool require_complete) {
  if (alloc.assignment.size() != problem.num_vms())
    return "assignment size " + std::to_string(alloc.assignment.size()) +
           " != vm count " + std::to_string(problem.num_vms());

  for (std::size_t j = 0; j < problem.num_vms(); ++j) {
    const ServerId server = alloc.assignment[j];
    if (server == kNoServer) {
      if (require_complete)
        return "vm " + std::to_string(j) + " is unallocated";
      continue;
    }
    if (server < 0 || static_cast<std::size_t>(server) >= problem.num_servers())
      return "vm " + std::to_string(j) + " assigned to invalid server " +
             std::to_string(server);
  }

  // Capacity constraints (9)-(10): accumulate per-server usage over time via
  // difference arrays, then sweep.
  const auto grouped = vms_by_server(problem, alloc);
  const std::size_t t_len = static_cast<std::size_t>(problem.horizon) + 2;
  for (std::size_t i = 0; i < problem.num_servers(); ++i) {
    if (grouped[i].empty()) continue;
    std::vector<double> cpu_diff(t_len, 0.0);
    std::vector<double> mem_diff(t_len, 0.0);
    for (const VmSpec& vm : grouped[i]) {
      if (!vm.has_profile()) {
        cpu_diff[static_cast<std::size_t>(vm.start)] += vm.demand.cpu;
        cpu_diff[static_cast<std::size_t>(vm.end) + 1] -= vm.demand.cpu;
        mem_diff[static_cast<std::size_t>(vm.start)] += vm.demand.mem;
        mem_diff[static_cast<std::size_t>(vm.end) + 1] -= vm.demand.mem;
        continue;
      }
      for (Time t = vm.start; t <= vm.end; ++t) {
        const Resources r = vm.demand_at(t);
        cpu_diff[static_cast<std::size_t>(t)] += r.cpu;
        cpu_diff[static_cast<std::size_t>(t) + 1] -= r.cpu;
        mem_diff[static_cast<std::size_t>(t)] += r.mem;
        mem_diff[static_cast<std::size_t>(t) + 1] -= r.mem;
      }
    }
    double cpu_usage = 0.0;
    double mem_usage = 0.0;
    const ServerSpec& server = problem.servers[i];
    for (Time t = 1; t <= problem.horizon; ++t) {
      cpu_usage += cpu_diff[static_cast<std::size_t>(t)];
      mem_usage += mem_diff[static_cast<std::size_t>(t)];
      if (cpu_usage > server.capacity.cpu + kEps)
        return "server " + std::to_string(i) + " CPU over capacity at t=" +
               std::to_string(t);
      if (mem_usage > server.capacity.mem + kEps)
        return "server " + std::to_string(i) + " memory over capacity at t=" +
               std::to_string(t);
    }
  }
  return {};
}

}  // namespace esva
