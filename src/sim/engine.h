// Discrete-event datacenter simulator.
//
// Replays a committed allocation on an event timeline (VM starts/finishes,
// server power-ons/power-offs under the optimal state policy) and integrates
// power into per-server energy ledgers. This is an independent, operational
// accounting of the same physics the analytic cost model (Eq. 17) expresses
// in closed form — the integration tests assert the two agree to floating-
// point tolerance, which is the strongest internal-consistency check in the
// repository.
//
// Modeling note: like the paper, transitions are charged as an energy impulse
// alpha_i = P_peak × transition_time at switch-on; transition *latency* does
// not delay VM availability (the allocator is assumed to issue wake-ups
// transition_time early).

#pragma once

#include <vector>

#include "core/allocation.h"
#include "core/cost_model.h"
#include "core/problem.h"

namespace esva {

/// Instantaneous datacenter state at one time unit.
struct PowerSample {
  Time t = 0;
  Watts total_power = 0.0;  ///< Σ active servers' P(u); excludes impulses
  int active_servers = 0;
  int running_vms = 0;
};

struct SimulationResult {
  /// Energy components per server, and their datacenter-wide sum.
  std::vector<CostBreakdown> per_server;
  CostBreakdown total;
  /// One sample per time unit in [1, horizon]; empty unless requested.
  std::vector<PowerSample> samples;

  Energy total_energy() const { return total.total(); }
};

class SimulationEngine {
 public:
  /// The allocation must be feasible for the problem (asserted; asserts are
  /// live in every build type). Unallocated VMs are skipped (they consume
  /// no energy).
  SimulationEngine(const ProblemInstance& problem, const Allocation& alloc,
                   const CostOptions& opts = {});

  /// Runs the event loop over [1, horizon].
  SimulationResult run(bool collect_samples = false) const;

 private:
  const ProblemInstance& problem_;
  const Allocation& alloc_;
  CostOptions opts_;
};

}  // namespace esva
