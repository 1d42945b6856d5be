#include "ilp/branch_and_bound.h"

#include <algorithm>
#include <cassert>
#include <tuple>
#include <vector>

#include "cluster/timeline.h"
#include "core/power_model.h"
#include "util/interval_set.h"

namespace esva {

namespace {

class BnbSearch {
 public:
  BnbSearch(const ProblemInstance& problem, const ExactOptions& options)
      : problem_(problem),
        options_(options),
        timelines_(make_timelines(problem.servers, problem.horizon)) {
    result_.best.assignment.assign(problem.num_vms(), kNoServer);
    result_.cost = options.initial_upper_bound;
    current_.assign(problem.num_vms(), kNoServer);

    // Pre-place fixed VMs (in start order, accumulating their incremental
    // cost — the sum telescopes to their exact joint cost), then branch
    // only over the free ones.
    assert(options.fixed_assignment.empty() ||
           options.fixed_assignment.size() == problem.num_vms());
    for (std::size_t j : order_by_start(problem.vms)) {
      const ServerId fixed = options.fixed_assignment.empty()
                                 ? kNoServer
                                 : options.fixed_assignment[j];
      if (fixed == kNoServer) {
        order_.push_back(j);
        continue;
      }
      const auto i = static_cast<std::size_t>(fixed);
      assert(i < timelines_.size() && timelines_[i].can_fit(problem.vms[j]));
      fixed_cost_ += incremental_cost(timelines_[i], problem.vms[j],
                                      options_.cost);
      timelines_[i].place(problem.vms[j]);
      current_[j] = fixed;
    }
    compute_min_run_costs();
    saved_busy_.resize(order_.size());
  }

  ExactResult run() {
    dfs(0, fixed_cost_);
    if (!aborted_ && result_.feasible) result_.optimal = true;
    // An initial upper bound without a stored assignment is not a solution.
    if (!result_.feasible) result_.cost = kInf;
    return result_;
  }

 private:
  /// tail_bound_[k] = Σ over positions k.. of the position's VM's minimal
  /// possible run cost (over capacity-compatible servers).
  void compute_min_run_costs() {
    tail_bound_.assign(order_.size() + 1, 0.0);
    for (std::size_t pos = order_.size(); pos-- > 0;) {
      const VmSpec& vm = problem_.vms[order_[pos]];
      Energy best = kInf;
      for (const ServerSpec& server : problem_.servers) {
        if (!vm.demand.fits_within(server.capacity)) continue;
        best = std::min(best, run_cost(server, vm));
      }
      // A VM that fits nowhere makes the whole instance infeasible; the
      // search will discover that, the bound just must stay finite.
      if (best == kInf) best = 0.0;
      tail_bound_[pos] = tail_bound_[pos + 1] + best;
    }
  }

  /// Identical empty servers are interchangeable: branch only on the first.
  bool symmetric_duplicate_of_earlier_empty(std::size_t i) const {
    if (!timelines_[i].busy().empty()) return false;
    const ServerSpec& a = problem_.servers[i];
    for (std::size_t k = 0; k < i; ++k) {
      if (!timelines_[k].busy().empty()) continue;
      const ServerSpec& b = problem_.servers[k];
      if (a.capacity == b.capacity && a.p_idle == b.p_idle &&
          a.p_peak == b.p_peak && a.transition_time == b.transition_time)
        return true;
    }
    return false;
  }

  void dfs(std::size_t pos, Energy cost_so_far) {
    if (aborted_) return;
    if (++result_.nodes_explored > options_.node_limit) {
      aborted_ = true;
      return;
    }
    if (pos == order_.size()) {
      if (cost_so_far < result_.cost) {
        result_.cost = cost_so_far;
        result_.best.assignment = current_;
        result_.feasible = true;
      }
      return;
    }
    if (cost_so_far + tail_bound_[pos] >= result_.cost) return;  // prune

    const std::size_t j = order_[pos];
    const VmSpec& vm = problem_.vms[j];

    // Branch order: cheapest incremental cost first (good incumbents early).
    std::vector<std::pair<Energy, std::size_t>> branches;
    for (std::size_t i = 0; i < timelines_.size(); ++i) {
      if (!timelines_[i].can_fit(vm)) continue;
      if (symmetric_duplicate_of_earlier_empty(i)) continue;
      branches.emplace_back(incremental_cost(timelines_[i], vm, options_.cost),
                            i);
    }
    std::sort(branches.begin(), branches.end());

    IntervalSet& saved = saved_busy_[pos];
    for (const auto& [delta, i] : branches) {
      if (cost_so_far + delta + tail_bound_[pos + 1] >= result_.cost) continue;
      saved = timelines_[i].busy();
      timelines_[i].place(vm);
      current_[j] = static_cast<ServerId>(i);
      dfs(pos + 1, cost_so_far + delta);
      current_[j] = kNoServer;
      timelines_[i].unplace(vm, saved);
      if (aborted_) return;
    }
  }

  const ProblemInstance& problem_;
  const ExactOptions& options_;
  std::vector<std::size_t> order_;  ///< free VMs, in start order
  std::vector<ServerTimeline> timelines_;
  /// saved_busy_[pos]: the busy set of the server the VM at `pos` is placed
  /// on, as it was before that placement; reused across branches and nodes.
  std::vector<IntervalSet> saved_busy_;
  std::vector<ServerId> current_;
  std::vector<Energy> tail_bound_;
  Energy fixed_cost_ = 0.0;
  ExactResult result_;
  bool aborted_ = false;
};

}  // namespace

ExactResult solve_exact(const ProblemInstance& problem,
                        const ExactOptions& options) {
  return BnbSearch(problem, options).run();
}

}  // namespace esva
