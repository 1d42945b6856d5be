#include "core/allocator.h"

#include <algorithm>
#include <numeric>
#include <thread>

#include "core/streaming.h"
#include "obs/metrics.h"

namespace esva {

std::unique_ptr<PlacementPolicy> Allocator::make_policy() const {
  return nullptr;
}

int ScanConfig::resolved_threads() const {
  if (threads > 0) return threads;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
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
