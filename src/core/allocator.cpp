#include "core/allocator.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "core/streaming.h"
#include "obs/metrics.h"

namespace esva {

Allocation Allocator::allocate(const ProblemInstance& problem, Rng& rng) {
  ScopedTimer total_timer(allocate_timer(obs_.metrics, name()));
  const std::unique_ptr<PlacementPolicy> policy = make_policy();
  return run_batch(problem, *policy, VmOrder::ByStartTime, rng, obs_);
}

std::unique_ptr<PlacementPolicy> Allocator::make_policy() const {
  return nullptr;
}

void Allocator::set_scan_config(const ScanConfig& config) const {
  if (config.threads != 1)
    throw std::invalid_argument(
        "ScanConfig::threads must be 1: the candidate scan is serial (got " +
        std::to_string(config.threads) + ")");
  if (config.shards != 1)
    throw std::invalid_argument(
        "ScanConfig::shards must be 1: the fleet is one block (got " +
        std::to_string(config.shards) + ")");
}

Timer* allocate_timer(MetricsRegistry* metrics, const std::string& allocator) {
  if (!metrics) return nullptr;
  return &metrics->timer("allocator." + allocator + ".allocate_ms");
}

void record_allocation_metrics(MetricsRegistry* metrics,
                               const std::string& allocator, std::size_t vms,
                               std::int64_t feasible_candidates,
                               std::int64_t rejections,
                               std::size_t unallocated) {
  if (!metrics) return;
  const std::string prefix = "allocator." + allocator + ".";
  metrics->inc(prefix + "vms", static_cast<std::int64_t>(vms));
  metrics->inc(prefix + "feasible_candidates", feasible_candidates);
  metrics->inc(prefix + "rejections", rejections);
  metrics->inc(prefix + "unallocated", static_cast<std::int64_t>(unallocated));
}

std::string to_string(VmOrder order) {
  switch (order) {
    case VmOrder::ByStartTime: return "by-start-time";
    case VmOrder::ByArrivalId: return "by-arrival-id";
    case VmOrder::ByDurationDesc: return "by-duration-desc";
    case VmOrder::ByCpuDesc: return "by-cpu-desc";
  }
  return "?";
}

const std::vector<VmOrder>& all_vm_orders() {
  static const std::vector<VmOrder> kOrders = {
      VmOrder::ByStartTime, VmOrder::ByArrivalId, VmOrder::ByDurationDesc,
      VmOrder::ByCpuDesc};
  return kOrders;
}

std::vector<std::size_t> ordered_indices(const ProblemInstance& problem,
                                         VmOrder order) {
  const auto& vms = problem.vms;
  std::vector<std::size_t> indices(vms.size());
  std::iota(indices.begin(), indices.end(), std::size_t{0});
  switch (order) {
    case VmOrder::ByStartTime:
      return order_by_start(vms);
    case VmOrder::ByArrivalId:
      return indices;  // ids are dense and in arrival order
    case VmOrder::ByDurationDesc:
      std::stable_sort(indices.begin(), indices.end(),
                       [&](std::size_t a, std::size_t b) {
                         if (vms[a].duration() != vms[b].duration())
                           return vms[a].duration() > vms[b].duration();
                         return vms[a].id < vms[b].id;
                       });
      return indices;
    case VmOrder::ByCpuDesc:
      std::stable_sort(indices.begin(), indices.end(),
                       [&](std::size_t a, std::size_t b) {
                         if (vms[a].demand.cpu != vms[b].demand.cpu)
                           return vms[a].demand.cpu > vms[b].demand.cpu;
                         return vms[a].id < vms[b].id;
                       });
      return indices;
  }
  return indices;
}

}  // namespace esva
