// Name-based allocator factory, used by the examples, the experiment runner
// and the CLI so policies can be selected from the command line. The names
// form one fixed table (baselines/registry.cpp): a new allocator is one row.

#pragma once

#include <string>
#include <vector>

#include "core/allocator.h"

namespace esva {

/// Every allocator name, in canonical comparison order: the paper's
/// heuristic first, its baseline second, the other built-ins, then the
/// lookahead extension (ext/lookahead.h) by window.
const std::vector<std::string>& allocator_names();

/// Builds an allocator by name:
///   "min-incremental"  — the paper's heuristic (§III)
///   "ffps"             — First Fit Power Saving, one random server order for
///                        the whole run (§IV-A; see FfpsAllocator::Options)
///   "ffps-reshuffle"   — FFPS with a fresh random server order per VM
///   "ffps-noshuffle"   — plain First Fit in server-id order (deterministic)
///   "best-fit-cpu"     — tightest CPU fit
///   "dot-product-fit"  — best demand/spare-capacity alignment
///   "random-fit"       — uniform random feasible server
///   "lowest-idle-power"— feasible server with the smallest P_idle
///   "lookahead-K"      — regret insertion over a window of K = 1, 4, 8 or 16
///                        VMs (batch-only: make_policy() is null)
/// Throws std::invalid_argument on unknown names.
AllocatorPtr make_allocator(const std::string& name);

}  // namespace esva
