// Physical server descriptions.
//
// Servers are non-homogeneous (a core premise of the paper, §I): each has its
// own capacities, affine power parameters and transition cost. The transition
// cost is modeled per §IV-B3: "During the whole time when the server switches
// on, power is consumed at peak rate. Thus, the server's transition cost is
// P_peak times of transition time."

#pragma once

#include <cmath>
#include <string>

#include "cluster/resources.h"
#include "util/types.h"

namespace esva {

struct ServerSpec {
  ServerId id = 0;
  /// Catalog type name ("server-type-1", ...); informational only.
  std::string type_name;
  Resources capacity;
  /// Power when active and idle (u = 0), watts.
  Watts p_idle = 0.0;
  /// Power at full CPU load (u = 1), watts.
  Watts p_peak = 0.0;
  /// Time to switch power-saving -> active, in time units (minutes). May be
  /// fractional (0.5 = 30 s).
  double transition_time = 1.0;

  /// Transition energy cost alpha_i = P_peak × transition time (§IV-B3).
  Energy transition_cost() const { return p_peak * transition_time; }

  /// P¹_i = (P_peak − P_idle) / C^CPU: power drawn by one CPU unit of load
  /// (Eq. 2). Requires capacity.cpu > 0.
  Watts unit_run_power() const {
    return (p_peak - p_idle) / capacity.cpu;
  }

  /// Affine power model P(u) = P_idle + (P_peak − P_idle)·u for CPU
  /// utilization u ∈ [0, 1] (Eq. 1).
  Watts power_at_load(double utilization) const {
    return p_idle + (p_peak - p_idle) * utilization;
  }

  /// Positive capacities, 0 <= p_idle <= p_peak, transition_time >= 0, and
  /// every one of those numbers finite.
  bool valid() const {
    for (const double x :
         {capacity.cpu, capacity.mem, p_idle, p_peak, transition_time})
      if (!std::isfinite(x)) return false;
    return capacity.cpu > 0 && capacity.mem > 0 && p_idle >= 0 &&
           p_peak >= p_idle && transition_time >= 0;
  }
};

/// One-line human description, e.g.
/// "server-type-1 #3: (16.00 CU, 32.00 GiB), 105.0W idle / 210.0W peak,
///  alpha=210.0".
std::string describe(const ServerSpec& spec);

}  // namespace esva
