// Lazy arrival streams: VM requests produced one at a time, in
// non-decreasing start-time order — the input contract of the streaming
// replay (sim/replay.h) and the `esva stream` CLI command. The Poisson and
// diurnal adapters perform exactly the draws of the materializing
// generators (generate_workload / generate_diurnal_workload are now thin
// drains over them), so a streamed run sees the identical request sequence
// without ever holding the whole workload in memory.

#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "cluster/vm.h"
#include "util/rng.h"
#include "workload/diurnal.h"
#include "workload/generator.h"

namespace esva {

/// A sequence of VM requests with non-decreasing start times. next() returns
/// nullopt once exhausted (and keeps returning it).
class ArrivalStream {
 public:
  virtual ~ArrivalStream() = default;
  virtual std::optional<VmSpec> next() = 0;
};

/// Replays materialized VMs (e.g. a CSV trace) in start-time order —
/// order_by_start's (start, end, id) order, the batch presentation order, so
/// feeding this stream to a PlacementEngine reproduces allocate() exactly.
class VectorArrivalStream final : public ArrivalStream {
 public:
  explicit VectorArrivalStream(std::vector<VmSpec> vms);
  std::optional<VmSpec> next() override;

 private:
  std::vector<VmSpec> vms_;
  std::vector<std::size_t> order_;
  std::size_t pos_ = 0;
};

/// generate_workload (paper §IV-B: homogeneous Poisson arrivals) as a lazy
/// stream: the j-th next() performs exactly the draws the materializing
/// generator performs for VM j. next() throws std::invalid_argument when a
/// request would end past the largest Time (a mean inter-arrival time or
/// duration too large for the time axis). `rng` must outlive the stream.
class PoissonArrivalStream final : public ArrivalStream {
 public:
  PoissonArrivalStream(const WorkloadConfig& config, Rng& rng);
  std::optional<VmSpec> next() override;

 private:
  WorkloadConfig config_;
  Rng* rng_;
  double arrival_clock_ = 0.0;
  int produced_ = 0;
};

/// generate_diurnal_workload (non-homogeneous Poisson via Lewis–Shedler
/// thinning) as a lazy stream; next() throws like PoissonArrivalStream's.
/// `rng` must outlive the stream.
class DiurnalArrivalStream final : public ArrivalStream {
 public:
  DiurnalArrivalStream(const DiurnalConfig& config, Rng& rng);
  std::optional<VmSpec> next() override;

 private:
  DiurnalConfig config_;
  Rng* rng_;
  double lambda_max_;
  double clock_ = 0.0;
  int produced_ = 0;
};

/// Materializes the remainder of a stream.
std::vector<VmSpec> drain(ArrivalStream& stream);

}  // namespace esva
