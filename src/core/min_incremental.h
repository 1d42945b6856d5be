// The paper's contribution (§III): Minimum Incremental Energy allocation.
//
// VMs are processed in increasing start-time order. For each VM:
//   1. collect the subset S_j of servers with sufficient spare CPU *and*
//      memory throughout the VM's time duration;
//   2. for every server in S_j, evaluate the incremental energy cost of
//      hosting the VM there (Eq. 17: run cost + change in busy/idle/
//      transition structure cost under the optimal power-state policy);
//   3. allocate to the server with the minimum incremental cost.
//
// Why this saves energy (paper §III): it gravitates to energy-efficient
// servers (low P¹ and low P_idle), consolidates onto already-busy servers
// (a VM overlapping an existing busy segment adds no idle cost), and prefers
// servers with low transition cost when everything is powered down.
//
// Complexity: O(m · n · log T) — per VM, each server needs an O(log T)
// feasibility probe (segment trees) plus an O(local) structure-cost delta.
// The per-VM scan runs through the candidate-scan engine
// (core/candidate_scan.h): an envelope sweep triages the fleet, then the
// arg-min runs serially or, with Options::scan.threads > 1, in contiguous
// chunks on a thread pool — bit-identical to the serial scan by
// construction.

#pragma once

#include "core/allocator.h"
#include "core/cost_model.h"

namespace esva {

class MinIncrementalAllocator final : public Allocator {
 public:
  struct Options {
    CostOptions cost;
    /// Presentation order; the paper uses ByStartTime. Exposed for the
    /// ordering ablation.
    VmOrder order = VmOrder::ByStartTime;
    /// Scan-engine knobs (threads); the default is the serial scan. Any
    /// setting yields the identical assignment.
    ScanConfig scan;
  };

  MinIncrementalAllocator() = default;
  explicit MinIncrementalAllocator(Options options) : options_(options) {}

  std::string name() const override { return "min-incremental"; }

  void set_scan_config(const ScanConfig& config) override {
    options_.scan = config;
  }

  /// Deterministic (ignores rng): ties on incremental cost break toward the
  /// lowest server id, at every thread count.
  Allocation allocate(const ProblemInstance& problem, Rng& rng) override;

  /// The same decision loop as allocate(), one request at a time
  /// (core/streaming.h).
  std::unique_ptr<PlacementPolicy> make_policy() const override;

 private:
  Options options_;
};

}  // namespace esva
