#include "ext/lookahead.h"

#include <gtest/gtest.h>

#include "core/min_incremental.h"
#include "baselines/registry.h"
#include "test_util.h"

namespace esva {
namespace {

using testing::basic_server;
using testing::random_problem;
using testing::server;
using testing::vm;

TEST(Lookahead, WindowOneEqualsMinIncremental) {
  // Regret insertion over a single-VM window degenerates to the paper's
  // greedy: same VM (the only one), same argmin server.
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    Rng gen(seed);
    const ProblemInstance p = random_problem(gen, 18, 8);
    LookaheadAllocator::Options options;
    options.window = 1;
    LookaheadAllocator lookahead(options);
    MinIncrementalAllocator greedy;
    Rng r1(3);
    Rng r2(3);
    ASSERT_EQ(lookahead.allocate(p, r1).assignment,
              greedy.allocate(p, r2).assignment)
        << "seed " << seed;
  }
}

TEST(Lookahead, NameEncodesWindow) {
  LookaheadAllocator::Options options;
  options.window = 16;
  EXPECT_EQ(LookaheadAllocator(options).name(), "lookahead-16");
}

TEST(Lookahead, ProducesFeasibleAllocations) {
  for (std::uint64_t seed = 20; seed <= 30; ++seed) {
    Rng gen(seed);
    const ProblemInstance p = random_problem(gen, 25, 10);
    LookaheadAllocator::Options options;
    options.window = 6;
    LookaheadAllocator allocator(options);
    Rng rng(1);
    const Allocation alloc = allocator.allocate(p, rng);
    ASSERT_EQ(validate_allocation(p, alloc, false), "") << "seed " << seed;
    EXPECT_EQ(alloc.num_unallocated(), 0u) << "seed " << seed;
  }
}

TEST(Lookahead, ResolvesContentionTheGreedyGetsWrong) {
  // Construction: VM A (flexible, starts first) and VM B (only fits on the
  // small efficient server, starts one step later, overlapping A).
  // Greedy places A on the efficient server (locally cheapest), forcing B
  // onto the expensive one. Regret sees that B has no alternative and pins
  // B first.
  std::vector<VmSpec> vms{
      vm(0, 1, 60, 4.0, 4.0),   // A: fits both servers
      vm(1, 2, 61, 8.0, 8.0),   // B: only fits server 0 once A is elsewhere
  };
  // Server 0: cheap, capacity 10 (cannot host A+B together: 12 > 10).
  // Server 1: expensive, huge.
  std::vector<ServerSpec> servers{server(0, 10, 10, 50, 100),
                                  server(1, 30, 30, 400, 800)};
  const ProblemInstance p = make_problem(std::move(vms), std::move(servers));

  MinIncrementalAllocator greedy;
  Rng r1(1);
  const Allocation greedy_alloc = greedy.allocate(p, r1);
  EXPECT_EQ(greedy_alloc.assignment[0], 0);  // greedy grabs the cheap server
  EXPECT_EQ(greedy_alloc.assignment[1], 1);

  LookaheadAllocator::Options options;
  options.window = 2;
  LookaheadAllocator lookahead(options);
  Rng r2(1);
  const Allocation ahead_alloc = lookahead.allocate(p, r2);
  EXPECT_EQ(ahead_alloc.assignment[1], 0);  // B pinned to its only good home
  EXPECT_EQ(ahead_alloc.assignment[0], 1);

  EXPECT_LT(evaluate_cost(p, ahead_alloc).total(),
            evaluate_cost(p, greedy_alloc).total());
}

TEST(Lookahead, NeverMuchWorseThanGreedyOnRandomInstances) {
  // Lookahead is not a strict improvement in theory, but across random
  // instances it should be at least competitive in aggregate.
  double greedy_total = 0.0;
  double lookahead_total = 0.0;
  for (std::uint64_t seed = 40; seed <= 60; ++seed) {
    Rng gen(seed);
    const ProblemInstance p = random_problem(gen, 24, 10);
    Rng r1(1);
    Rng r2(1);
    MinIncrementalAllocator greedy;
    LookaheadAllocator::Options options;
    options.window = 8;
    LookaheadAllocator lookahead(options);
    greedy_total += evaluate_cost(p, greedy.allocate(p, r1)).total();
    lookahead_total += evaluate_cost(p, lookahead.allocate(p, r2)).total();
  }
  EXPECT_LT(lookahead_total, greedy_total * 1.02);
}

TEST(Lookahead, RegistersWithTheRegistry) {
  AllocatorPtr a = make_allocator("lookahead-8");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->name(), "lookahead-8");
  bool found = false;
  for (const std::string& name : allocator_names())
    found = found || name == "lookahead-8";
  EXPECT_TRUE(found);
}

TEST(Lookahead, InfeasibleVmReportedNotPlaced) {
  const ProblemInstance p = make_problem(
      {vm(0, 1, 5, 2.0, 2.0), vm(1, 1, 5, 50.0, 2.0)}, {basic_server(0)});
  LookaheadAllocator allocator;
  Rng rng(1);
  const Allocation alloc = allocator.allocate(p, rng);
  EXPECT_EQ(alloc.assignment[0], 0);
  EXPECT_EQ(alloc.assignment[1], kNoServer);
}

}  // namespace
}  // namespace esva
