#include "cluster/vm.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>

namespace esva {

namespace {

/// True iff unit k of `profile` is the last of its run of equal demand: the
/// profile's last unit, or one whose successor differs in cpu or mem.
bool ends_run(const std::vector<Resources>& profile, std::size_t k) {
  return k + 1 == profile.size() || profile[k + 1].cpu != profile[k].cpu ||
         profile[k + 1].mem != profile[k].mem;
}

}  // namespace

void VmSpec::set_profile(std::vector<Resources> new_profile) {
  assert(static_cast<Time>(new_profile.size()) == duration());
  profile = std::move(new_profile);
  demand = Resources{};
  profile_cpu = 0.0;
  std::size_t runs = 0;
  for (std::size_t k = 0; k < profile.size(); ++k) {
    demand.cpu = std::max(demand.cpu, profile[k].cpu);
    demand.mem = std::max(demand.mem, profile[k].mem);
    profile_cpu += profile[k].cpu;
    if (ends_run(profile, k)) ++runs;
  }
  run_ends.clear();
  run_ends.reserve(runs);
  for (std::size_t k = 0; k < profile.size(); ++k)
    if (ends_run(profile, k)) run_ends.push_back(static_cast<Time>(k));
}

bool VmSpec::valid() const {
  if (start < 1 || end < start || !demand.non_negative()) return false;
  if (!has_profile()) return true;
  if (static_cast<Time>(profile.size()) != duration()) return false;
  Resources peak;
  double cpu = 0.0;
  std::size_t runs = 0;
  for (std::size_t k = 0; k < profile.size(); ++k) {
    const Resources& r = profile[k];
    if (!r.non_negative()) return false;
    peak.cpu = std::max(peak.cpu, r.cpu);
    peak.mem = std::max(peak.mem, r.mem);
    cpu += r.cpu;
    if (ends_run(profile, k) &&
        (runs == run_ends.size() || run_ends[runs++] != static_cast<Time>(k)))
      return false;
  }
  return runs == run_ends.size() && cpu == profile_cpu &&
         std::abs(peak.cpu - demand.cpu) <= kEps &&
         std::abs(peak.mem - demand.mem) <= kEps;
}

Time horizon_of(const std::vector<VmSpec>& vms) {
  Time horizon = 0;
  for (const VmSpec& vm : vms) horizon = std::max(horizon, vm.end);
  return horizon;
}

std::vector<std::size_t> order_by_start(const std::vector<VmSpec>& vms) {
  std::vector<std::size_t> order(vms.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     if (vms[a].start != vms[b].start)
                       return vms[a].start < vms[b].start;
                     if (vms[a].end != vms[b].end) return vms[a].end < vms[b].end;
                     return vms[a].id < vms[b].id;
                   });
  return order;
}

}  // namespace esva
