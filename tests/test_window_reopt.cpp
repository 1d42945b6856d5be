#include "ext/window_reopt.h"

#include <gtest/gtest.h>

#include "baselines/registry.h"
#include "ilp/branch_and_bound.h"
#include "test_util.h"

namespace esva {
namespace {

using testing::basic_server;
using testing::random_problem;
using testing::vm;

// --- fixed-assignment support in the exact solver ------------------------

TEST(BnbFixedAssignment, FullyFixedReturnsThatAssignmentsCost) {
  Rng gen(3);
  const ProblemInstance p = random_problem(gen, 8, 4, 2.0, 6.0);
  Rng rng(1);
  const Allocation alloc = make_allocator("ffps")->allocate(p, rng);
  ASSERT_TRUE(alloc.fully_allocated());

  ExactOptions options;
  options.fixed_assignment = alloc.assignment;
  const ExactResult solved = solve_exact(p, options);
  ASSERT_TRUE(solved.optimal);
  EXPECT_EQ(solved.best.assignment, alloc.assignment);
  EXPECT_NEAR(solved.cost, evaluate_cost(p, alloc).total(), 1e-6);
}

TEST(BnbFixedAssignment, PartiallyFixedNeverBeatsFullyFree) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng gen(seed);
    const ProblemInstance p = random_problem(gen, 7, 3, 2.0, 6.0);
    const ExactResult free_opt = solve_exact(p);
    if (!free_opt.feasible) continue;

    Rng rng(seed);
    const Allocation greedy =
        make_allocator("min-incremental")->allocate(p, rng);
    ExactOptions options;
    options.fixed_assignment = greedy.assignment;
    // Free the first three VMs only.
    int freed = 0;
    for (std::size_t j = 0; j < p.num_vms() && freed < 3; ++j, ++freed)
      options.fixed_assignment[j] = kNoServer;
    const ExactResult partial = solve_exact(p, options);
    ASSERT_TRUE(partial.optimal) << "seed " << seed;
    // Conditioned optimum >= unconditioned optimum, <= greedy cost.
    EXPECT_GE(partial.cost, free_opt.cost - 1e-6) << "seed " << seed;
    EXPECT_LE(partial.cost, evaluate_cost(p, greedy).total() + 1e-6);
    EXPECT_EQ(validate_allocation(p, partial.best), "") << "seed " << seed;
  }
}

TEST(BnbFixedAssignment, FixedVmsKeepTheirServers) {
  Rng gen(9);
  const ProblemInstance p = random_problem(gen, 8, 4, 2.0, 6.0);
  Rng rng(2);
  const Allocation greedy = make_allocator("min-incremental")->allocate(p, rng);
  ExactOptions options;
  options.fixed_assignment = greedy.assignment;
  options.fixed_assignment[0] = kNoServer;
  options.fixed_assignment[3] = kNoServer;
  const ExactResult solved = solve_exact(p, options);
  ASSERT_TRUE(solved.optimal);
  for (std::size_t j = 0; j < p.num_vms(); ++j) {
    if (j == 0 || j == 3) continue;
    EXPECT_EQ(solved.best.assignment[j], greedy.assignment[j]) << "vm " << j;
  }
}

// --- the window polisher --------------------------------------------------

TEST(WindowReopt, NeverIncreasesEnergy) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Rng gen(seed * 11);
    const ProblemInstance p = random_problem(gen, 16, 6);
    for (const std::string name : {"min-incremental", "ffps", "random-fit"}) {
      Rng rng(seed);
      const Allocation alloc = make_allocator(name)->allocate(p, rng);
      const WindowReoptResult result = window_reoptimize(p, alloc);
      ASSERT_LE(result.energy_after, result.energy_before + 1e-6)
          << name << " seed " << seed;
      ASSERT_EQ(validate_allocation(p, result.allocation, false), "")
          << name << " seed " << seed;
      ASSERT_NEAR(result.energy_after,
                  evaluate_cost(p, result.allocation).total(), 1e-6);
    }
  }
}

TEST(WindowReopt, RecoversTheOptimumWhenWindowCoversEverything) {
  // group_size >= m makes the first window an unconditioned exact solve;
  // the overlapping windows after it only keep or improve its optimum.
  Rng gen(5);
  const ProblemInstance p = random_problem(gen, 6, 3, 2.0, 6.0);
  Rng rng(1);
  const Allocation bad = make_allocator("random-fit")->allocate(p, rng);
  ASSERT_TRUE(bad.fully_allocated());

  WindowReoptConfig config;
  config.group_size = 6;
  const WindowReoptResult result = window_reoptimize(p, bad, config);

  const ExactResult optimum = solve_exact(p);
  ASSERT_TRUE(optimum.optimal);
  EXPECT_NEAR(result.energy_after, optimum.cost, 1e-6);
}

TEST(WindowReopt, ImprovesABadAllocationMeasurably) {
  Rng gen(21);
  const ProblemInstance p = random_problem(gen, 18, 8);
  Rng rng(3);
  const Allocation bad = make_allocator("random-fit")->allocate(p, rng);
  WindowReoptConfig config;
  config.group_size = 5;
  config.passes = 3;
  const WindowReoptResult result = window_reoptimize(p, bad, config);
  EXPECT_GT(result.reduction(), 0.05);  // random placement leaves a lot
  EXPECT_GT(result.windows_improved, 0);
}

TEST(WindowReopt, LeavesUnallocatedVmsUntouched) {
  const ProblemInstance p = make_problem(
      {vm(0, 1, 10, 2.0, 2.0), vm(1, 1, 10, 99.0, 2.0), vm(2, 3, 12, 2.0, 2.0)},
      {basic_server(0), basic_server(1)});
  Rng rng(1);
  const Allocation alloc = make_allocator("min-incremental")->allocate(p, rng);
  ASSERT_EQ(alloc.assignment[1], kNoServer);
  const WindowReoptResult result = window_reoptimize(p, alloc);
  EXPECT_EQ(result.allocation.assignment[1], kNoServer);
  EXPECT_EQ(validate_allocation(p, result.allocation, false), "");
}

TEST(WindowReopt, ReportsCountsConsistently) {
  Rng gen(31);
  const ProblemInstance p = random_problem(gen, 12, 5);
  Rng rng(1);
  const Allocation alloc = make_allocator("ffps")->allocate(p, rng);
  WindowReoptConfig config;
  config.group_size = 4;
  config.passes = 2;
  const WindowReoptResult result = window_reoptimize(p, alloc, config);
  EXPECT_GE(result.windows_solved,
            result.windows_improved + result.windows_skipped);
  EXPECT_GT(result.nodes_explored, 0u);
}

TEST(WindowReopt, TinyNodeBudgetSkipsGracefully) {
  Rng gen(41);
  const ProblemInstance p = random_problem(gen, 14, 6);
  Rng rng(1);
  const Allocation alloc = make_allocator("ffps")->allocate(p, rng);
  WindowReoptConfig config;
  config.node_limit_per_window = 2;  // everything aborts
  const WindowReoptResult result = window_reoptimize(p, alloc, config);
  EXPECT_EQ(result.windows_improved, 0);
  EXPECT_EQ(result.windows_skipped, result.windows_solved);
  EXPECT_DOUBLE_EQ(result.energy_after, result.energy_before);
}

}  // namespace
}  // namespace esva
