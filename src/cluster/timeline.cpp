#include "cluster/timeline.h"

#include <cassert>

namespace esva {

namespace {

/// Last time unit (<= vm.end) of the run of consecutive units whose profiled
/// demand equals `r`, starting at `t`. Stable VMs are a single run; profiled
/// VMs typically hold each demand level for many units (bursts, diurnal
/// phases), so batching runs turns O(duration) tree calls into O(#runs).
Time run_end_of(const VmSpec& vm, Time t, const Resources& r) {
  Time e = t;
  while (e < vm.end) {
    const Resources next = vm.demand_at(e + 1);
    if (next.cpu != r.cpu || next.mem != r.mem) break;
    ++e;
  }
  return e;
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

void ServerTimeline::seed_busy(Time lo, Time hi) {
  assert(lo >= 1 && lo <= hi);
  busy_.insert(lo, hi);
}

QuickFit ServerTimeline::quick_fit(const VmSpec& vm) const {
  assert(vm.valid());
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
  for (Time t = vm.start; t <= vm.end;) {
    const Resources r = vm.demand_at(t);
    const Time e = run_end_of(vm, t, r);
    const std::size_t k_lo = index_of(t);
    const std::size_t k_hi = index_of(e);
    if (cpu_.max(k_lo, k_hi) + r.cpu > spec_.capacity.cpu + kEps) return false;
    if (mem_.max(k_lo, k_hi) + r.mem > spec_.capacity.mem + kEps) return false;
    t = e + 1;
  }
  return true;
}

FitCheck ServerTimeline::check_fit(const VmSpec& vm) const {
  assert(vm.valid());
  constexpr std::size_t npos = RangeAddMaxTree::npos;
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
  const std::size_t lo = index_of(vm.start);
  const std::size_t hi = index_of(vm.end);
  const auto cpu_pred = [&](double v) {
    return v + vm.demand.cpu > spec_.capacity.cpu + kEps;
  };
  const auto mem_pred = [&](double v) {
    return v + vm.demand.mem > spec_.capacity.mem + kEps;
  };
  if (!vm.has_profile()) {
    // first_above == npos is bit-for-bit equivalent to the range-max fitting
    // (see segment_tree.h), so `ok` matches can_fit exactly; a non-npos
    // result localizes the earliest violating unit by tree descent.
    const std::size_t cpu_at =
        cpu_free ? npos : cpu_.first_above(lo, hi, cpu_pred);
    const std::size_t mem_at =
        mem_free ? npos : mem_.first_above(lo, hi, mem_pred);
    if (cpu_at == npos && mem_at == npos) {
      check.ok = true;
      return check;
    }
    // Earliest unit wins; CPU is diagnosed first on a tie (the historical
    // per-unit scan checked CPU before memory).
    if (cpu_at <= mem_at) {
      check.reject = FitReject::Cpu;
      check.at = base_ + static_cast<Time>(cpu_at);
    } else {
      check.reject = FitReject::Mem;
      check.at = base_ + static_cast<Time>(mem_at);
    }
    return check;
  }
  // Profiled VM: mirror can_fit's peak-demand accept, then localize within
  // equal-demand runs.
  const bool peak_fits =
      (cpu_free || cpu_.max(lo, hi) + vm.demand.cpu <= spec_.capacity.cpu + kEps) &&
      (mem_free || mem_.max(lo, hi) + vm.demand.mem <= spec_.capacity.mem + kEps);
  if (peak_fits) {
    check.ok = true;
    return check;
  }
  for (Time t = vm.start; t <= vm.end;) {
    const Resources r = vm.demand_at(t);
    const Time e = run_end_of(vm, t, r);
    const std::size_t k_lo = index_of(t);
    const std::size_t k_hi = index_of(e);
    const std::size_t cpu_at = cpu_.first_above(
        k_lo, k_hi,
        [&](double v) { return v + r.cpu > spec_.capacity.cpu + kEps; });
    const std::size_t mem_at = mem_.first_above(
        k_lo, k_hi,
        [&](double v) { return v + r.mem > spec_.capacity.mem + kEps; });
    if (cpu_at != npos || mem_at != npos) {
      if (cpu_at <= mem_at) {
        check.reject = FitReject::Cpu;
        check.at = base_ + static_cast<Time>(cpu_at);
      } else {
        check.reject = FitReject::Mem;
        check.at = base_ + static_cast<Time>(mem_at);
      }
      return check;
    }
    t = e + 1;
  }
  check.ok = true;
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
  for (Time t = vm.start; t <= vm.end;) {
    const Resources r = vm.demand_at(t);
    const Time e = run_end_of(vm, t, r);
    if (r.cpu != 0.0) cpu.add(index_of(t), index_of(e), sign * r.cpu);
    if (r.mem != 0.0) mem.add(index_of(t), index_of(e), sign * r.mem);
    t = e + 1;
  }
}

}  // namespace

ServerTimeline::PlaceRecord ServerTimeline::place(const VmSpec& vm) {
  assert(can_fit(vm));
  apply_demand(cpu_, mem_, vm, base_, +1.0);
  PlaceRecord record;
  record.vm = vm.id;
  record.busy_delta = busy_.insert(vm.start, vm.end);
  vms_.push_back(vm.id);
  return record;
}

void ServerTimeline::undo(const PlaceRecord& record, const VmSpec& vm) {
  assert(!vms_.empty() && vms_.back() == record.vm &&
         "placements must be undone in LIFO order");
  assert(vm.id == record.vm);
  vms_.pop_back();
  apply_demand(cpu_, mem_, vm, base_, -1.0);
  // Restore the busy structure: remove the merged interval, re-add whatever
  // it absorbed.
  const Interval& merged = record.busy_delta.merged;
  busy_.erase_covered(merged.lo, merged.hi);
  for (const Interval& iv : record.busy_delta.absorbed) busy_.insert(iv.lo, iv.hi);
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
