#include "ext/lookahead.h"

#include <algorithm>
#include <cassert>

#include "cluster/timeline.h"
#include "obs/metrics.h"

namespace esva {

namespace {

struct Evaluation {
  ServerId best_server = kNoServer;
  Energy best_delta = kInf;
  Energy second_delta = kInf;

  /// Regret = how much committing this VM late could cost. A VM that fits
  /// nowhere gets infinite regret so its failure is surfaced immediately;
  /// a VM with a single feasible server likewise must be pinned first.
  Energy regret() const {
    if (best_server == kNoServer) return kInf;
    if (second_delta == kInf) return kInf;
    return second_delta - best_delta;
  }
};

Evaluation evaluate(const std::vector<ServerTimeline>& timelines,
                    const VmSpec& vm, const CostOptions& cost) {
  Evaluation eval;
  for (std::size_t i = 0; i < timelines.size(); ++i) {
    if (!timelines[i].can_fit(vm)) continue;
    const Energy delta = incremental_cost(timelines[i], vm, cost);
    if (delta < eval.best_delta) {
      eval.second_delta = eval.best_delta;
      eval.best_delta = delta;
      eval.best_server = static_cast<ServerId>(i);
    } else if (delta < eval.second_delta) {
      eval.second_delta = delta;
    }
  }
  return eval;
}

}  // namespace

Allocation LookaheadAllocator::allocate(const ProblemInstance& problem,
                                        Rng& /*rng*/) {
  assert(options_.window >= 1);
  ScopedTimer total_timer(allocate_timer(obs_.metrics, name()));
  Allocation alloc;
  alloc.assignment.assign(problem.num_vms(), kNoServer);

  std::vector<ServerTimeline> timelines =
      make_timelines(problem.servers, problem.horizon);

  const std::vector<std::size_t> order =
      ordered_indices(problem, VmOrder::ByStartTime);

  // `pending` holds the current window (indices into problem.vms);
  // `next_from_order` refills it in start-time order.
  std::vector<std::size_t> pending;
  std::size_t next_from_order = 0;
  auto refill = [&] {
    while (pending.size() < static_cast<std::size_t>(options_.window) &&
           next_from_order < order.size()) {
      pending.push_back(order[next_from_order++]);
    }
  };

  refill();
  while (!pending.empty()) {
    // Pick the pending VM with maximal regret; ties resolve to the earliest
    // start (lowest position in `pending`, which is kept in start order).
    std::size_t pick_pos = 0;
    Energy pick_regret = -1.0;
    Evaluation pick_eval;
    for (std::size_t pos = 0; pos < pending.size(); ++pos) {
      const Evaluation eval =
          evaluate(timelines, problem.vms[pending[pos]], options_.cost);
      const Energy regret = eval.regret();
      if (regret > pick_regret) {
        pick_regret = regret;
        pick_pos = pos;
        pick_eval = eval;
      }
    }

    const std::size_t j = pending[pick_pos];
    pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(pick_pos));
    if (obs_.tracing()) {
      // The committed VM's decision, re-derived with diagnoses (the regret
      // scan above deliberately stays on the cheap can_fit path).
      const VmSpec& vm = problem.vms[j];
      DecisionBuilder decision(obs_, name(), vm.id);
      for (std::size_t i = 0; i < timelines.size(); ++i) {
        const FitCheck fit = timelines[i].check_fit(vm);
        if (!fit.ok)
          decision.add_rejected(static_cast<ServerId>(i), fit);
        else
          decision.add_feasible(static_cast<ServerId>(i),
                                incremental_cost(timelines[i], vm, options_.cost));
      }
      decision.commit(pick_eval.best_server);
    }
    if (pick_eval.best_server != kNoServer) {
      timelines[static_cast<std::size_t>(pick_eval.best_server)].place(
          problem.vms[j]);
      alloc.assignment[j] = pick_eval.best_server;
    }
    refill();
  }
  if (obs_.metrics) {
    // Regret evaluation re-probes every pending VM per commit, so per-probe
    // counters would mislead; report only the decision-level aggregates.
    const std::string prefix = "allocator." + name() + ".";
    obs_.metrics->inc(prefix + "vms",
                      static_cast<std::int64_t>(problem.num_vms()));
    obs_.metrics->inc(prefix + "unallocated",
                      static_cast<std::int64_t>(alloc.num_unallocated()));
  }
  return alloc;
}

}  // namespace esva
