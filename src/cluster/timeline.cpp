#include "cluster/timeline.h"

#include <algorithm>
#include <cassert>

namespace esva {

namespace {

/// Calls visit(first, last, demand) for each run of consecutive units of
/// equal demand (the demand of the run's first unit), in time order, until
/// a call returns false; returns whether none did. A stable VM is one run.
/// A profiled VM's runs are the ones set_profile() stored
/// (VmSpec::run_ends): profiles typically hold each demand level for many
/// units (bursts, diurnal phases), so a probe makes O(#runs) tree calls and
/// never walks the profile. No unit past vm.end is formed, so a VM that
/// ends at the largest Time does not overflow.
template <typename Visit>
bool all_runs(const VmSpec& vm, Visit visit) {
  if (!vm.has_profile()) return visit(vm.start, vm.end, vm.demand);
  Time first = 0;  // offset from vm.start of the run's first unit
  for (const Time last : vm.run_ends) {
    if (!visit(vm.start + first, vm.start + last,
               vm.profile[static_cast<std::size_t>(first)]))
      return false;
    first = last + 1;
  }
  return true;
}

/// Earliest index in [lo, hi] whose usage plus `demand` exceeds
/// `capacity` + kEps, or hi + 1 when none does. The prefix maximum
/// max(lo, k) never decreases as k grows, so the earliest violating unit is
/// the least k whose prefix maximum violates: a bisection over k with
/// O(log(hi - lo)) range-max queries, the first of them over all of
/// [lo, hi].
std::size_t first_violation(const RangeAddMaxTree& tree, std::size_t lo,
                            std::size_t hi, double demand, double capacity) {
  const auto violates = [&](std::size_t k) {
    return tree.max(lo, k) + demand > capacity + kEps;
  };
  if (!violates(hi)) return hi + 1;
  std::size_t first = lo;  // units before `first` fit; `last` violates
  std::size_t last = hi;
  while (first < last) {
    const std::size_t mid = first + (last - first) / 2;
    if (violates(mid)) {
      last = mid;
    } else {
      first = mid + 1;
    }
  }
  return first;
}

}  // namespace

ServerTimeline::ServerTimeline(const ServerSpec& spec, Time horizon)
    : ServerTimeline(spec, /*base=*/1, horizon) {}

ServerTimeline::ServerTimeline(const ServerSpec& spec, Time base, Time horizon)
    : spec_(spec),
      base_(base),
      horizon_(horizon),
      cpu_(static_cast<std::size_t>(horizon - base + 1)),
      mem_(static_cast<std::size_t>(horizon - base + 1)) {
  assert(base >= 1);
  assert(horizon >= base - 1);
}

void ServerTimeline::rewindow(Time base, Time horizon) {
  assert(untouched());
  assert(base >= 1);
  assert(horizon >= base - 1);
  base_ = base;
  horizon_ = horizon;
  cpu_ = RangeAddMaxTree(static_cast<std::size_t>(horizon - base + 1));
  mem_ = RangeAddMaxTree(static_cast<std::size_t>(horizon - base + 1));
}

void ServerTimeline::seed_busy(Time lo, Time hi) {
  assert(lo >= 1 && lo <= hi);
  busy_.insert(lo, hi);
}

QuickFit ServerTimeline::quick_fit(const VmSpec& vm) const {
  if (vm.start < base_ || vm.end > horizon_) return QuickFit::kCannotFit;
  // Quick-accept: peak usage anywhere in the window plus peak demand fits,
  // so every unit of the VM's interval fits a fortiori. Exact for profiled
  // VMs too (vm.demand is their peak).
  const bool cpu_free =
      cpu_.max_all() + vm.demand.cpu <= spec_.capacity.cpu + kEps;
  const bool mem_free =
      mem_.max_all() + vm.demand.mem <= spec_.capacity.mem + kEps;
  if (cpu_free && mem_free) return QuickFit::kFits;
  // Quick-reject: even the emptiest unit of the window lacks spare capacity
  // for the constant demand, so every unit of the interval violates. Unsound
  // for profiled VMs (their per-unit demand dips below the peak), so only
  // stable VMs take it.
  if (!vm.has_profile()) {
    if (!cpu_free && cpu_.min_all() + vm.demand.cpu > spec_.capacity.cpu + kEps)
      return QuickFit::kCannotFit;
    if (!mem_free && mem_.min_all() + vm.demand.mem > spec_.capacity.mem + kEps)
      return QuickFit::kCannotFit;
  }
  return QuickFit::kUnknown;
}

bool ServerTimeline::can_fit(const VmSpec& vm) const {
  switch (quick_fit(vm)) {
    case QuickFit::kFits: return true;
    case QuickFit::kCannotFit: return false;
    case QuickFit::kUnknown: break;
  }
  // The envelope was inconclusive; query the trees over the VM's interval.
  // Per-dimension window-free verdicts are recomputed here (two O(1)
  // comparisons) so a dimension that already fit under the window peak skips
  // its O(log T) query.
  const bool cpu_free =
      cpu_.max_all() + vm.demand.cpu <= spec_.capacity.cpu + kEps;
  const bool mem_free =
      mem_.max_all() + vm.demand.mem <= spec_.capacity.mem + kEps;
  const std::size_t lo = index_of(vm.start);
  const std::size_t hi = index_of(vm.end);
  const bool peak_fits =
      (cpu_free || cpu_.max(lo, hi) + vm.demand.cpu <= spec_.capacity.cpu + kEps) &&
      (mem_free || mem_.max(lo, hi) + vm.demand.mem <= spec_.capacity.mem + kEps);
  if (peak_fits) return true;
  if (!vm.has_profile()) return false;
  // Profiled VM: check each equal-demand run against its own demand R_jt.
  return all_runs(vm, [&](Time first, Time last, const Resources& r) {
    const std::size_t k_lo = index_of(first);
    const std::size_t k_hi = index_of(last);
    return cpu_.max(k_lo, k_hi) + r.cpu <= spec_.capacity.cpu + kEps &&
           mem_.max(k_lo, k_hi) + r.mem <= spec_.capacity.mem + kEps;
  });
}

FitCheck ServerTimeline::check_fit(const VmSpec& vm) const {
  FitCheck check;
  if (vm.start < base_ || vm.end > horizon_) {
    check.reject = FitReject::Horizon;
    return check;
  }
  // Same O(1) quick-accept as can_fit/quick_fit (identical comparisons).
  const bool cpu_free =
      cpu_.max_all() + vm.demand.cpu <= spec_.capacity.cpu + kEps;
  const bool mem_free =
      mem_.max_all() + vm.demand.mem <= spec_.capacity.mem + kEps;
  if (cpu_free && mem_free) {
    check.ok = true;
    return check;
  }
  // Each equal-demand run against its own demand, in time order; a stable
  // VM is one run, whose first query is can_fit's range max.
  check.ok = all_runs(vm, [&](Time first, Time last, const Resources& r) {
    const std::size_t lo = index_of(first);
    const std::size_t hi = index_of(last);
    const std::size_t cpu_at =
        cpu_free ? hi + 1
                 : first_violation(cpu_, lo, hi, r.cpu, spec_.capacity.cpu);
    const std::size_t mem_at =
        mem_free ? hi + 1
                 : first_violation(mem_, lo, hi, r.mem, spec_.capacity.mem);
    if (cpu_at > hi && mem_at > hi) return true;
    // Earliest unit wins; CPU is diagnosed first on a tie (a per-unit scan
    // checks CPU before memory).
    check.reject = cpu_at <= mem_at ? FitReject::Cpu : FitReject::Mem;
    check.at = base_ + static_cast<Time>(std::min(cpu_at, mem_at));
    return false;
  });
  return check;
}

std::string to_string(FitReject reject) {
  switch (reject) {
    case FitReject::None: return "none";
    case FitReject::Horizon: return "horizon";
    case FitReject::Cpu: return "cpu";
    case FitReject::Mem: return "mem";
  }
  return "?";
}

namespace {

/// Applies (or reverts, with sign = -1) a VM's resource footprint. `base` is
/// the timeline's window base (tree index 0). Profiled VMs are applied one
/// equal-demand run at a time (range ops), not one unit at a time.
void apply_demand(RangeAddMaxTree& cpu, RangeAddMaxTree& mem,
                  const VmSpec& vm, Time base, double sign) {
  const auto index_of = [&](Time t) {
    return static_cast<std::size_t>(t - base);
  };
  if (!vm.has_profile()) {
    cpu.add(index_of(vm.start), index_of(vm.end), sign * vm.demand.cpu);
    mem.add(index_of(vm.start), index_of(vm.end), sign * vm.demand.mem);
    return;
  }
  all_runs(vm, [&](Time first, Time last, const Resources& r) {
    if (r.cpu != 0.0) cpu.add(index_of(first), index_of(last), sign * r.cpu);
    if (r.mem != 0.0) mem.add(index_of(first), index_of(last), sign * r.mem);
    return true;
  });
}

}  // namespace

void ServerTimeline::place(const VmSpec& vm) {
  assert(can_fit(vm));
  apply_demand(cpu_, mem_, vm, base_, +1.0);
  busy_.insert(vm.start, vm.end);
}

void ServerTimeline::unplace(const VmSpec& vm,
                             const IntervalSet& busy_before) {
  apply_demand(cpu_, mem_, vm, base_, -1.0);
  busy_ = busy_before;
}

double ServerTimeline::max_cpu_usage(Time lo, Time hi) const {
  assert(base_ <= lo && lo <= hi && hi <= horizon_);
  return cpu_.max(index_of(lo), index_of(hi));
}

double ServerTimeline::max_mem_usage(Time lo, Time hi) const {
  assert(base_ <= lo && lo <= hi && hi <= horizon_);
  return mem_.max(index_of(lo), index_of(hi));
}

std::vector<ServerTimeline> make_timelines(
    const std::vector<ServerSpec>& servers, Time horizon) {
  std::vector<ServerTimeline> timelines;
  timelines.reserve(servers.size());
  for (const ServerSpec& spec : servers) timelines.emplace_back(spec, horizon);
  return timelines;
}

}  // namespace esva
