#include "core/min_incremental.h"

#include <gtest/gtest.h>

#include "cluster/timeline.h"
#include "core/cost_model.h"
#include "test_util.h"
#include "util/rng.h"

namespace esva {
namespace {

using testing::basic_server;
using testing::random_problem;
using testing::server;
using testing::vm;

Allocation run_alloc(const ProblemInstance& problem) {
  MinIncrementalAllocator allocator;
  Rng rng(1);
  return allocator.allocate(problem, rng);
}

TEST(MinIncremental, NameIsStable) {
  EXPECT_EQ(MinIncrementalAllocator().name(), "min-incremental");
}

TEST(MinIncremental, ConsolidatesOverlappingVmsOnOneServer) {
  // Two overlapping small VMs: putting the second on the already-busy server
  // costs only its run cost; a fresh server would cost idle + transition.
  const ProblemInstance p = make_problem(
      {vm(0, 1, 10, 2.0, 2.0), vm(1, 1, 10, 2.0, 2.0)},
      {basic_server(0), basic_server(1)});
  const Allocation alloc = run_alloc(p);
  EXPECT_EQ(alloc.assignment[0], alloc.assignment[1]);
}

TEST(MinIncremental, PrefersEnergyEfficientServer) {
  // Server 1 has identical capacity but lower idle power and unit power.
  const ProblemInstance p = make_problem(
      {vm(0, 1, 10, 2.0, 2.0)},
      {server(0, 10, 10, 100, 200), server(1, 10, 10, 50, 120)});
  const Allocation alloc = run_alloc(p);
  EXPECT_EQ(alloc.assignment[0], 1);
}

TEST(MinIncremental, PrefersLowTransitionCostWhenAllPoweredDown) {
  // Same power curves; only the transition time differs (paper §III reason 3).
  const ProblemInstance p = make_problem(
      {vm(0, 1, 2, 1.0, 1.0)},
      {server(0, 10, 10, 100, 200, /*transition_time=*/3.0),
       server(1, 10, 10, 100, 200, /*transition_time=*/0.5)});
  const Allocation alloc = run_alloc(p);
  EXPECT_EQ(alloc.assignment[0], 1);
}

TEST(MinIncremental, AvoidsOversizedServerAtLightLoad) {
  // A small VM should land on the small server (lower idle power), not the
  // big one (paper §III reason 2: high utilization of small servers).
  const ProblemInstance p = make_problem(
      {vm(0, 1, 20, 1.0, 1.0)},
      {server(0, 64, 192, 210, 500), server(1, 16, 32, 105, 210)});
  const Allocation alloc = run_alloc(p);
  EXPECT_EQ(alloc.assignment[0], 1);
}

TEST(MinIncremental, RespectsCapacityWhenConsolidating) {
  // Second VM does not fit next to the first; must go to server 1 even
  // though consolidation would be cheaper.
  const ProblemInstance p = make_problem(
      {vm(0, 1, 10, 8.0, 8.0), vm(1, 5, 12, 8.0, 8.0)},
      {basic_server(0), basic_server(1)});
  const Allocation alloc = run_alloc(p);
  EXPECT_EQ(alloc.assignment[0], 0);
  EXPECT_EQ(alloc.assignment[1], 1);
  EXPECT_EQ(validate_allocation(p, alloc), "");
}

TEST(MinIncremental, ReportsInfeasibleVmAsUnallocated) {
  const ProblemInstance p = make_problem(
      {vm(0, 1, 5, 2.0, 2.0), vm(1, 1, 5, 20.0, 2.0)},  // VM 1 fits nowhere
      {basic_server(0)});
  const Allocation alloc = run_alloc(p);
  EXPECT_EQ(alloc.assignment[0], 0);
  EXPECT_EQ(alloc.assignment[1], kNoServer);
  EXPECT_EQ(alloc.num_unallocated(), 1u);
}

TEST(MinIncremental, TieBreaksTowardLowestServerId) {
  // Identical servers, one VM: both deltas equal, server 0 must win.
  const ProblemInstance p = make_problem(
      {vm(0, 1, 5, 1.0, 1.0)}, {basic_server(0), basic_server(1)});
  EXPECT_EQ(run_alloc(p).assignment[0], 0);
}

TEST(MinIncremental, IsDeterministicAcrossRngs) {
  Rng rng1(1);
  const ProblemInstance p = random_problem(rng1, 20, 8);
  MinIncrementalAllocator allocator;
  Rng a(123);
  Rng b(999);
  EXPECT_EQ(allocator.allocate(p, a).assignment,
            allocator.allocate(p, b).assignment);
}

TEST(MinIncremental, BridgesGapInsteadOfNewServerWhenCheaper) {
  // Server 0 busy [1,10] and [14,20] (gap 3 > 2 would power-cycle).
  // A VM [11,13] on server 0 merges everything: delta = run + 3·100 idle
  // − refunded 200 transition = run + 100. A fresh server: run + 300 idle +
  // 200 transition. Consolidation wins.
  std::vector<VmSpec> vms{vm(0, 1, 10, 2.0, 2.0), vm(1, 14, 20, 2.0, 2.0),
                          vm(2, 11, 13, 1.0, 1.0)};
  const ProblemInstance p =
      make_problem(std::move(vms), {basic_server(0), basic_server(1)});
  const Allocation alloc = run_alloc(p);
  EXPECT_EQ(alloc.assignment[2], alloc.assignment[0]);
}

// Reference implementation: recompute the greedy choice naively (full server
// cost re-evaluation per candidate) and compare full assignments.
TEST(MinIncrementalProperty, MatchesNaiveGreedyReference) {
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    Rng rng(seed);
    const ProblemInstance p = random_problem(rng, 15, 6);

    // Naive greedy.
    Allocation expected;
    expected.assignment.assign(p.num_vms(), kNoServer);
    std::vector<std::vector<VmSpec>> hosted(p.num_servers());
    std::vector<ServerTimeline> timelines =
        make_timelines(p.servers, p.horizon);
    for (std::size_t j : ordered_indices(p, VmOrder::ByStartTime)) {
      const VmSpec& candidate = p.vms[j];
      ServerId best = kNoServer;
      Energy best_delta = kInf;
      for (std::size_t i = 0; i < p.num_servers(); ++i) {
        if (!timelines[i].can_fit(candidate)) continue;
        std::vector<VmSpec> with = hosted[i];
        with.push_back(candidate);
        const Energy delta = server_cost(p.servers[i], with) -
                             server_cost(p.servers[i], hosted[i]);
        if (delta < best_delta - 1e-9) {
          best_delta = delta;
          best = static_cast<ServerId>(i);
        }
      }
      if (best == kNoServer) continue;
      hosted[static_cast<std::size_t>(best)].push_back(candidate);
      timelines[static_cast<std::size_t>(best)].place(candidate);
      expected.assignment[j] = best;
    }

    const Allocation actual = run_alloc(p);
    ASSERT_EQ(actual.assignment, expected.assignment) << "seed " << seed;
    ASSERT_EQ(validate_allocation(p, actual, false), "");
  }
}

TEST(MinIncrementalProperty, AllocationsAlwaysFeasible) {
  for (std::uint64_t seed = 100; seed < 120; ++seed) {
    Rng rng(seed);
    const ProblemInstance p = random_problem(rng, 25, 10);
    const Allocation alloc = run_alloc(p);
    ASSERT_EQ(validate_allocation(p, alloc, false), "") << "seed " << seed;
  }
}

}  // namespace
}  // namespace esva
