// The pre-streaming min-incremental batch loop, verbatim: the absolute anchor
// the library's allocate(), streaming replay and candidate scan are checked
// against (tests/test_streaming.cpp, tests/test_envelope_scan.cpp). It reads
// no EnvelopeStore, no thread pool and no engine — only ServerTimeline
// can_fit and the Eq. 17 incremental cost.

#pragma once

#include <cstddef>
#include <vector>

#include "cluster/timeline.h"
#include "core/allocation.h"
#include "core/allocator.h"
#include "core/cost_model.h"
#include "core/problem.h"

namespace esva::testsupport {

/// Serial scan over all servers per VM in start-time order, Eq. 17
/// incremental cost, strict < so ties break to the lowest server id.
inline Allocation historical_min_incremental(const ProblemInstance& problem) {
  std::vector<ServerTimeline> timelines;
  timelines.reserve(problem.num_servers());
  for (const ServerSpec& server : problem.servers)
    timelines.emplace_back(server, problem.horizon);
  Allocation alloc;
  alloc.assignment.assign(problem.num_vms(), kNoServer);
  for (const std::size_t j : ordered_indices(problem, VmOrder::ByStartTime)) {
    const VmSpec& vm = problem.vms[j];
    ServerId best = kNoServer;
    Energy best_cost = 0.0;
    for (std::size_t i = 0; i < timelines.size(); ++i) {
      if (!timelines[i].can_fit(vm)) continue;
      const Energy cost = incremental_cost(timelines[i], vm, CostOptions{});
      if (best == kNoServer || cost < best_cost) {
        best = static_cast<ServerId>(i);
        best_cost = cost;
      }
    }
    if (best == kNoServer) continue;
    timelines[static_cast<std::size_t>(best)].place(vm);
    alloc.assignment[j] = best;
  }
  return alloc;
}

}  // namespace esva::testsupport
