#include "baselines/random_fit.h"

#include "cluster/timeline.h"
#include "core/cost_model.h"
#include "core/streaming.h"

namespace esva {

namespace {

class RandomFitPolicy final : public PlacementPolicy {
 public:
  RandomFitPolicy(std::string name, const ObsContext& obs)
      : name_(std::move(name)), obs_(obs) {}

  std::string name() const override { return name_; }

  PlacementDecision place_one(const ClusterState& cluster, const VmSpec& vm,
                              Rng& rng) override {
    const std::vector<ServerTimeline>& timelines = cluster.timelines();
    const bool tracing = obs_.tracing();
    DecisionBuilder decision(obs_, name_, vm.id);
    feasible_.clear();
    for (std::size_t i = 0; i < timelines.size(); ++i) {
      if (tracing) {
        const FitCheck fit = timelines[i].check_fit(vm);
        if (!fit.ok) {
          decision.add_rejected(static_cast<ServerId>(i), fit);
          ++rejections_;
          continue;
        }
        decision.add_feasible(static_cast<ServerId>(i),
                              incremental_cost(timelines[i], vm));
      } else if (!timelines[i].can_fit(vm)) {
        ++rejections_;
        continue;
      }
      ++feasible_probes_;
      feasible_.push_back(i);
    }
    PlacementDecision result;
    if (feasible_.empty()) {
      decision.commit(kNoServer);
      return result;
    }
    result.server =
        static_cast<ServerId>(feasible_[rng.index(feasible_.size())]);
    decision.commit(result.server);
    return result;
  }

  void finish(std::size_t requests, std::size_t unallocated) override {
    record_allocation_metrics(obs_.metrics, name_, requests, feasible_probes_,
                              rejections_, unallocated);
  }

 private:
  std::string name_;
  ObsContext obs_;
  std::vector<std::size_t> feasible_;
  std::int64_t feasible_probes_ = 0;
  std::int64_t rejections_ = 0;
};

}  // namespace

std::unique_ptr<PlacementPolicy> RandomFitAllocator::make_policy() const {
  return std::make_unique<RandomFitPolicy>(name(), obs_);
}

}  // namespace esva
