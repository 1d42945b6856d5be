// First Fit Power Saving — the paper's baseline (§IV-A).
//
// "VMs are allocated in the increasing order of their starting time, and
// servers are randomly sorted. Each VM is allocated on the first searched
// server which can provide sufficient resources to the VM throughout its time
// duration. After all VMs are allocated, each server's state throughout the
// entire period can be determined [optimal power-state policy] ... The energy
// cost of each server can be calculated from Eq. (17)."

#pragma once

#include "core/allocator.h"

namespace esva {

class FfpsAllocator final : public Allocator {
 public:
  struct Options {
    /// If false, servers are probed in id order instead of a random order —
    /// degenerates to plain First Fit (used in tests for determinism).
    bool shuffle_servers = true;
    /// The paper's "servers are randomly sorted" is ambiguous: a single
    /// random order for the whole run, or a fresh random order per VM. We
    /// default to the literal single-shuffle reading, whose measured energy
    /// reduction ratios also land in the paper's reported band (≈10–20%);
    /// per-VM reshuffling spreads VMs much more thinly and roughly doubles
    /// the reported savings. bench/ablation_ffps quantifies both readings;
    /// EXPERIMENTS.md discusses the choice.
    bool reshuffle_per_vm = false;
  };

  FfpsAllocator() = default;
  explicit FfpsAllocator(Options options) : options_(options) {}

  std::string name() const override { return "ffps"; }

  /// First-fit as a stream policy. The probe order is shuffled at begin(),
  /// once per allocate() or replay, using its rng.
  std::unique_ptr<PlacementPolicy> make_policy() const override;

 private:
  Options options_;
};

}  // namespace esva
