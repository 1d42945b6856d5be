// Fleet time-series sampler: how the datacenter evolved, not just where it
// ended. The streaming engine (core/streaming.h) fills one FleetSample per
// sampling instant — active VMs, busy/drained/failed servers, instantaneous
// power draw, spare capacity per dimension, retry-queue depth, cumulative
// fault outcomes and the telescoped energy so far — and the sampler keeps
// them in a bounded ring so a week-long replay cannot grow without limit.
//
// The sampler is passive plain data on purpose: it knows nothing about the
// cluster (the obs library sits below core in the layering), it only decides
// *when* a sample is due (every `every` time units of frontier progress) and
// stores what the engine hands it. Samples export as CSV or JSON Lines for
// offline plotting, and `esva top` renders them as sparklines.
//
// Not thread-safe: the streaming engine is single-threaded and records from
// its own advance path.

#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <limits>
#include <vector>

#include "util/types.h"

namespace esva {

/// One snapshot of the fleet at time `t`, as seen by the streaming engine.
struct FleetSample {
  Time t = 0;
  /// VMs placed and not yet retired (including ones starting after t).
  std::uint32_t active_vms = 0;
  /// Up servers hosting at least one VM active at instant t.
  std::uint32_t busy_servers = 0;
  /// Up servers hosting nothing at instant t.
  std::uint32_t idle_servers = 0;
  std::uint32_t drained_servers = 0;
  std::uint32_t failed_servers = 0;
  /// Σ P(u_i) over servers hosting load at t (Eq. 1), drained ones included.
  double total_power_w = 0.0;
  /// Σ (capacity − usage) at t over *placeable* (up) servers only.
  double spare_cpu = 0.0;
  double spare_mem = 0.0;
  std::uint32_t retry_queue_depth = 0;
  /// Cumulative engine counters at sampling time.
  std::int64_t requests = 0;
  std::int64_t evacuated = 0;
  std::int64_t displaced = 0;
  std::int64_t rejected_final = 0;
  /// Telescoped incremental energy so far (0 unless energy accounting).
  double total_energy = 0.0;
};

struct TimeSeriesOptions {
  /// Minimum frontier progress between samples, in time units.
  Time every = 1;
  /// Ring capacity; when full the oldest sample is overwritten (and
  /// counted in dropped()). 0 = unbounded.
  std::size_t capacity = 4096;
};

/// Ring-buffered collector of FleetSamples.
class TimeSeriesSampler {
 public:
  explicit TimeSeriesSampler(TimeSeriesOptions options = {});

  /// True when the frontier has advanced enough since the last sample (the
  /// first call is always due).
  bool due(Time frontier) const { return frontier >= next_due_; }

  /// Stores a sample and schedules the next one at sample.t + every,
  /// saturating at the largest Time rather than wrapping.
  void record(const FleetSample& sample);

  std::size_t size() const;
  /// Samples overwritten because the ring was full.
  std::size_t dropped() const { return dropped_; }
  /// Most recent sample; null when empty.
  const FleetSample* latest() const;
  /// Retained samples, oldest first (unrolls the ring).
  std::vector<FleetSample> samples() const;

  static const char* csv_header();
  /// CSV: header + one row per retained sample.
  void write_csv(std::ostream& out) const;
  /// JSON Lines: one object per retained sample.
  void write_jsonl(std::ostream& out) const;

 private:
  TimeSeriesOptions options_;
  std::vector<FleetSample> ring_;
  std::size_t head_ = 0;  ///< insertion slot once the ring is full
  std::size_t dropped_ = 0;
  Time next_due_ = std::numeric_limits<Time>::min();
};

}  // namespace esva
