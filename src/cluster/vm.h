// Virtual machine requests.
//
// A VM v_j is a resource demand plus a closed time interval [t^s_j, t^e_j]
// over which the demand must be reserved on exactly one server (paper §II).
// The paper's evaluation keeps demands stable over the lifetime (§IV-B1: "The
// resource demands of each VM is stable"): one Resources value. A profiled VM
// carries the general per-unit demand R_jt (Eqs. 3, 9-10) instead, and
// set_profile() derives from it, once, what no server changes: the peak, the
// runs of equal demand and Σ_t R^CPU_jt, so a candidate scan reads them
// rather than walking the profile per server.

#pragma once

#include <string>
#include <vector>

#include "cluster/resources.h"
#include "util/types.h"

namespace esva {

struct VmSpec {
  VmId id = 0;
  /// Human-readable type name ("m1.small", ...); informational only.
  std::string type_name;
  /// Peak demand over the lifetime. For stable VMs (the paper's evaluation,
  /// §IV-B1) this IS the demand at every time unit; for profiled VMs it is
  /// the component-wise maximum of `profile` (maintained by set_profile).
  Resources demand;
  /// Inclusive activity interval; 1 <= start <= end.
  Time start = 1;
  Time end = 1;
  /// Optional per-time-unit demand R_jt (the paper's Eqs. 3/9/10 general
  /// form): empty = stable demand; otherwise profile[k] is the demand at
  /// time start + k and profile.size() == duration(). Use set_profile() to
  /// keep `demand`, `run_ends` and `profile_cpu` consistent.
  std::vector<Resources> profile;
  /// Derived by set_profile(): the offset from `start` of the last unit of
  /// each run of consecutive units with equal demand (cpu and mem compared
  /// with !=, so +0.0 and -0.0 are one run), in increasing order; the last
  /// entry is duration() - 1. Read only while has_profile().
  std::vector<Time> run_ends;
  /// Derived by set_profile(): Σ_t R^CPU_jt over `profile`, added in index
  /// order. Read only while has_profile().
  double profile_cpu = 0.0;

  /// Number of occupied time units: end - start + 1.
  Time duration() const { return end - start + 1; }

  bool has_profile() const { return !profile.empty(); }

  /// Demand at time unit t; requires start <= t <= end.
  Resources demand_at(Time t) const {
    return has_profile() ? profile[static_cast<std::size_t>(t - start)]
                         : demand;
  }

  /// Σ_t R^CPU_jt over the lifetime (the sum in Eq. 3), O(1).
  double total_cpu() const {
    return has_profile() ? profile_cpu
                         : demand.cpu * static_cast<double>(duration());
  }

  /// Installs a per-unit profile (size must equal duration()), sets
  /// `demand` to the component-wise peak and derives `run_ends` and
  /// `profile_cpu`. Allocates at most once, for `run_ends`.
  void set_profile(std::vector<Resources> new_profile);

  /// Structural validity: the interval must be well-formed, demands
  /// non-negative, and — if profiled — the profile sized to the duration,
  /// with `demand`, `run_ends` and `profile_cpu` equal to what
  /// set_profile() derives from it (so a profile edited in place fails).
  /// O(duration): callers check a request once, not once per candidate.
  bool valid() const;
};

/// Largest finishing time across VMs (the planning horizon T); 0 if empty.
Time horizon_of(const std::vector<VmSpec>& vms);

/// Indices of `vms` sorted by (start, end, id) — the paper's allocation order
/// ("allocates VMs in the increasing order of their starting time", §III).
std::vector<std::size_t> order_by_start(const std::vector<VmSpec>& vms);

}  // namespace esva
