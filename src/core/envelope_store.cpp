#include "core/envelope_store.h"

#include <cassert>

namespace esva {

void EnvelopeStore::reset(const std::vector<ServerTimeline>& timelines) {
  count_ = timelines.size();
  peak_cpu_.resize(count_);
  peak_mem_.resize(count_);
  floor_cpu_.resize(count_);
  floor_mem_.resize(count_);
  cap_cpu_.resize(count_);
  cap_mem_.resize(count_);
  base_.resize(count_);
  horizon_.resize(count_);
  for (std::size_t i = 0; i < count_; ++i) refresh(i, timelines[i]);
}

void EnvelopeStore::refresh(std::size_t i, const ServerTimeline& timeline) {
  assert(i < count_);
  peak_cpu_[i] = timeline.peak_cpu_usage();
  peak_mem_[i] = timeline.peak_mem_usage();
  floor_cpu_[i] = timeline.floor_cpu_usage();
  floor_mem_[i] = timeline.floor_mem_usage();
  cap_cpu_[i] = timeline.spec().capacity.cpu;
  cap_mem_[i] = timeline.spec().capacity.mem;
  base_[i] = timeline.base();
  horizon_[i] = timeline.horizon();
}

void EnvelopeStore::classify(const Probe& probe, std::size_t lo,
                             std::size_t hi, std::uint8_t* verdicts) const {
  // The branch-free verdict arithmetic below encodes the selects as
  // (!fits) * (2 - reject), which maps (fits, reject) onto the enum values.
  static_assert(static_cast<int>(QuickFit::kFits) == 0);
  static_assert(static_cast<int>(QuickFit::kCannotFit) == 1);
  static_assert(static_cast<int>(QuickFit::kUnknown) == 2);
  assert(lo <= hi && hi <= count_);
  const double cpu = probe.cpu;
  const double mem = probe.mem;
  const Time start = probe.start;
  const Time end = probe.end;
  const bool stable = !probe.profiled;
  const double* peak_cpu = peak_cpu_.data();
  const double* peak_mem = peak_mem_.data();
  const double* floor_cpu = floor_cpu_.data();
  const double* floor_mem = floor_mem_.data();
  const double* cap_cpu = cap_cpu_.data();
  const double* cap_mem = cap_mem_.data();
  const Time* base = base_.data();
  const Time* horizon = horizon_.data();
  // The verdict bytes cannot alias the const double/Time rows (writes through
  // `out` would otherwise pin every row load inside the loop).
  std::uint8_t* __restrict__ out = verdicts;
  // quick_fit's decision tree, if-converted: all five comparisons are
  // evaluated unconditionally (they are pure, so evaluating a comparison
  // quick_fit short-circuits past cannot change any verdict), then combined
  // with non-short-circuiting & / | into two selects. No branches in the
  // loop body -> the compiler vectorizes the sweep across servers.
  for (std::size_t i = lo; i < hi; ++i) {
    const bool window_ok = (start >= base[i]) & (end <= horizon[i]);
    const bool cpu_free = peak_cpu[i] + cpu <= cap_cpu[i] + kEps;
    const bool mem_free = peak_mem[i] + mem <= cap_mem[i] + kEps;
    const bool cpu_full = floor_cpu[i] + cpu > cap_cpu[i] + kEps;
    const bool mem_full = floor_mem[i] + mem > cap_mem[i] + kEps;
    const int fits = window_ok & cpu_free & mem_free;
    const int reject =
        (!window_ok) |
        (stable & ((!cpu_free) & cpu_full)) |
        (stable & ((!mem_free) & mem_full));
    out[i] = static_cast<std::uint8_t>((1 - fits) * (2 - reject));
  }
}

bool EnvelopeStore::debug_validate(
    const std::vector<ServerTimeline>& timelines) const {
  if (timelines.size() != count_) return false;
  for (std::size_t i = 0; i < count_; ++i) {
    const ServerTimeline& t = timelines[i];
    if (peak_cpu_[i] != t.peak_cpu_usage()) return false;
    if (peak_mem_[i] != t.peak_mem_usage()) return false;
    if (floor_cpu_[i] != t.floor_cpu_usage()) return false;
    if (floor_mem_[i] != t.floor_mem_usage()) return false;
    if (cap_cpu_[i] != t.spec().capacity.cpu) return false;
    if (cap_mem_[i] != t.spec().capacity.mem) return false;
    if (base_[i] != t.base()) return false;
    if (horizon_[i] != t.horizon()) return false;
  }
  return true;
}

}  // namespace esva
