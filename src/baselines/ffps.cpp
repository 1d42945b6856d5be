#include "baselines/ffps.h"

#include <numeric>

#include "cluster/timeline.h"
#include "core/cost_model.h"
#include "core/streaming.h"

namespace esva {

namespace {

/// First-fit over a (possibly shuffled) probe order, one request at a time.
/// §IV-A: "servers are randomly sorted" — one shared order drawn at begin(),
/// optionally re-drawn per VM (Options::reshuffle_per_vm).
class FfpsPolicy final : public PlacementPolicy {
 public:
  FfpsPolicy(std::string name, FfpsAllocator::Options options,
             const ObsContext& obs)
      : name_(std::move(name)), options_(options), obs_(obs) {}

  std::string name() const override { return name_; }

  void begin(const ClusterState& cluster, Rng& rng) override {
    probe_order_.resize(cluster.num_servers());
    std::iota(probe_order_.begin(), probe_order_.end(), std::size_t{0});
    if (options_.shuffle_servers) rng.shuffle(probe_order_);
  }

  PlacementDecision place_one(const ClusterState& cluster, const VmSpec& vm,
                              Rng& rng) override {
    const std::vector<ServerTimeline>& timelines = cluster.timelines();
    if (options_.shuffle_servers && options_.reshuffle_per_vm)
      rng.shuffle(probe_order_);
    const bool tracing = obs_.tracing();
    DecisionBuilder decision(obs_, name_, vm.id);
    PlacementDecision result;
    for (std::size_t i : probe_order_) {
      // First fit: the trace records only the servers actually probed —
      // rejections up to (and including) the server taken.
      if (tracing) {
        const FitCheck fit = timelines[i].check_fit(vm);
        if (!fit.ok) {
          decision.add_rejected(static_cast<ServerId>(i), fit);
          ++rejections_;
          continue;
        }
        decision.add_feasible(static_cast<ServerId>(i),
                              incremental_cost(timelines[i], vm));
        decision.commit(static_cast<ServerId>(i));
      } else if (!timelines[i].can_fit(vm)) {
        ++rejections_;
        continue;
      }
      ++feasible_probes_;
      result.server = static_cast<ServerId>(i);
      return result;
    }
    decision.commit(kNoServer);
    return result;
  }

  void finish(std::size_t requests, std::size_t unallocated) override {
    record_allocation_metrics(obs_.metrics, name_, requests, feasible_probes_,
                              rejections_, unallocated);
  }

 private:
  std::string name_;
  FfpsAllocator::Options options_;
  ObsContext obs_;
  std::vector<std::size_t> probe_order_;
  std::int64_t feasible_probes_ = 0;
  std::int64_t rejections_ = 0;
};

}  // namespace

std::unique_ptr<PlacementPolicy> FfpsAllocator::make_policy() const {
  return std::make_unique<FfpsPolicy>(name(), options_, obs_);
}

}  // namespace esva
