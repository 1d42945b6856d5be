// The paper's power/energy model (Eqs. 1–3).
//
// Power of an active server is affine in CPU utilization (Eq. 1):
//     P(u) = P_idle + (P_peak − P_idle)·u.
// The marginal power of one CPU unit of demand is P¹_i (Eq. 2), and the run
// cost of VM j on server i over its whole duration is W_ij (Eq. 3). With
// stable demands, W_ij = P¹_i · R^CPU_j · duration_j; with a per-unit
// profile, W_ij = P¹_i · Σ_t R^CPU_jt (VmSpec::total_cpu).

#pragma once

#include "cluster/server_spec.h"
#include "cluster/vm.h"
#include "util/types.h"

namespace esva {

/// W_ij — energy attributable to running VM `vm` on server `server` for its
/// entire duration (Eq. 3), O(1). `vm` must be valid(); the caller checks
/// that once per request, not once per candidate.
Energy run_cost(const ServerSpec& server, const VmSpec& vm);

/// Instantaneous power of `server` when active with the given CPU usage
/// (absolute compute units, not a ratio). Clamped to [P_idle, P_peak] only by
/// the physics of usage <= capacity, not by this function.
Watts power_at_usage(const ServerSpec& server, CpuUnits cpu_usage);

}  // namespace esva
