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
// (core/candidate_scan.h): an envelope sweep triages the fleet, then one
// serial arg-min in server-index order picks the winner. The heuristic is
// that scan with the Eq. 17 score (MinIncrementalScore, core/scan_scores.h),
// whose one option is the CostOptions it prices with. Deterministic (it
// ignores the rng): ties on incremental cost break toward the lowest
// server id.

#pragma once

#include "core/candidate_scan.h"
#include "core/scan_scores.h"

namespace esva {

using MinIncrementalAllocator = ScanAllocator<MinIncrementalScore>;

}  // namespace esva
