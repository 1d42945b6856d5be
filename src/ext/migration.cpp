#include "ext/migration.h"

#include <algorithm>
#include <cassert>

#include "cluster/timeline.h"
#include "obs/metrics.h"

namespace esva {

namespace {

/// Rebuilds one server's timeline from its current VM list.
ServerTimeline rebuild(const ServerSpec& spec, Time horizon,
                       const std::vector<VmSpec>& vms) {
  ServerTimeline timeline(spec, horizon);
  for (const VmSpec& vm : vms) {
    assert(timeline.can_fit(vm));
    timeline.place(vm);
  }
  return timeline;
}

std::vector<VmSpec> without(const std::vector<VmSpec>& vms, VmId id) {
  std::vector<VmSpec> rest;
  rest.reserve(vms.size() - 1);
  for (const VmSpec& vm : vms)
    if (vm.id != id) rest.push_back(vm);
  return rest;
}

}  // namespace

MigrationResult optimize_with_migration(const ProblemInstance& problem,
                                        const Allocation& alloc,
                                        const MigrationConfig& config) {
  assert(validate_allocation(problem, alloc, /*require_complete=*/false)
             .empty());

  ScopedTimer total_timer(
      config.obs.metrics ? &config.obs.metrics->timer("migration.total_ms")
                         : nullptr);

  MigrationResult result;
  result.allocation = alloc;
  result.energy_before = evaluate_cost(problem, alloc, config.cost).total();

  std::vector<std::vector<VmSpec>> hosted = vms_by_server(problem, alloc);
  std::vector<ServerTimeline> timelines;
  timelines.reserve(problem.num_servers());
  std::vector<Energy> server_costs(problem.num_servers(), 0.0);
  for (std::size_t i = 0; i < problem.num_servers(); ++i) {
    timelines.push_back(rebuild(problem.servers[i], problem.horizon, hosted[i]));
    server_costs[i] = server_cost(problem.servers[i], hosted[i], config.cost);
  }

  for (int round = 0; round < config.max_rounds; ++round) {
    bool improved = false;
    for (std::size_t j = 0; j < problem.num_vms(); ++j) {
      const VmSpec& vm = problem.vms[j];
      const ServerId source = result.allocation.assignment[j];
      const Energy penalty = migration_energy(vm, config.cost_per_gib);

      // Energy released at the source by evicting this VM (0 if currently
      // unallocated — then this is a late placement, not a migration, but
      // we charge the same penalty to stay conservative).
      Energy release = 0.0;
      std::vector<VmSpec> source_rest;
      if (source != kNoServer) {
        source_rest = without(hosted[static_cast<std::size_t>(source)], vm.id);
        release = server_costs[static_cast<std::size_t>(source)] -
                  server_cost(problem.servers[static_cast<std::size_t>(source)],
                              source_rest, config.cost);
      }

      // Best target: smallest added cost among other feasible servers.
      ServerId best_target = kNoServer;
      Energy best_added = kInf;
      for (std::size_t i = 0; i < timelines.size(); ++i) {
        if (static_cast<ServerId>(i) == source) continue;
        if (!timelines[i].can_fit(vm)) continue;
        const Energy added = incremental_cost(timelines[i], vm, config.cost);
        if (added < best_added) {
          best_added = added;
          best_target = static_cast<ServerId>(i);
        }
      }
      if (best_target == kNoServer) continue;

      // A previously unallocated VM is placed unconditionally (serving the
      // request dominates energy); a real relocation must pay for itself.
      if (source != kNoServer) {
        const Energy gain = release - best_added - penalty;
        if (gain <= config.min_gain) continue;
      }

      if (config.obs.tracing()) {
        // Each applied move is a decision: the feasible targets with their
        // added cost, the winner, and the note marking it as a migration.
        DecisionBuilder decision(config.obs, "migration", vm.id);
        decision.set_note(source == kNoServer ? "late-placement" : "migration");
        for (std::size_t i = 0; i < timelines.size(); ++i) {
          if (static_cast<ServerId>(i) == source) continue;
          const FitCheck fit = timelines[i].check_fit(vm);
          if (!fit.ok)
            decision.add_rejected(static_cast<ServerId>(i), fit);
          else
            decision.add_feasible(static_cast<ServerId>(i),
                                  incremental_cost(timelines[i], vm,
                                                   config.cost));
        }
        decision.commit(best_target);
      }

      // Apply the move.
      if (source != kNoServer) {
        hosted[static_cast<std::size_t>(source)] = std::move(source_rest);
        timelines[static_cast<std::size_t>(source)] =
            rebuild(problem.servers[static_cast<std::size_t>(source)],
                    problem.horizon, hosted[static_cast<std::size_t>(source)]);
        server_costs[static_cast<std::size_t>(source)] =
            server_cost(problem.servers[static_cast<std::size_t>(source)],
                        hosted[static_cast<std::size_t>(source)], config.cost);
      }
      const auto target_index = static_cast<std::size_t>(best_target);
      timelines[target_index].place(vm);
      hosted[target_index].push_back(vm);
      server_costs[target_index] = server_cost(
          problem.servers[target_index], hosted[target_index], config.cost);

      result.allocation.assignment[j] = best_target;
      result.migration_overhead += penalty;
      ++result.moves;
      improved = true;
    }
    if (!improved) break;
  }

  result.energy_after =
      evaluate_cost(problem, result.allocation, config.cost).total();
  if (config.obs.metrics) {
    config.obs.metrics->inc("migration.moves", result.moves);
    config.obs.metrics->set("migration.energy_before", result.energy_before);
    config.obs.metrics->set("migration.energy_after", result.energy_after);
    config.obs.metrics->set("migration.overhead", result.migration_overhead);
  }
  return result;
}

}  // namespace esva
