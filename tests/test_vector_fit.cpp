#include <gtest/gtest.h>

#include "baselines/registry.h"
#include "core/candidate_scan.h"
#include "core/scan_scores.h"
#include "test_util.h"

namespace esva {
namespace {

using testing::random_problem;
using testing::server;
using testing::vm;

TEST(DotProductFit, PrefersAlignedServer) {
  // CPU-heavy VM (8 CPU, 1 GiB): server 0's remaining capacity is CPU-heavy
  // (aligned), server 1's is memory-heavy (misaligned).
  const ProblemInstance p = make_problem(
      {vm(0, 1, 10, 8.0, 1.0)},
      {server(0, 16, 4, 100, 200), server(1, 10, 64, 100, 200)});
  ScanAllocator<DotProductFitScore> allocator;
  Rng rng(1);
  EXPECT_EQ(allocator.allocate(p, rng).assignment[0], 0);
}

TEST(DotProductFit, AlignmentUsesRemainingNotTotalCapacity) {
  // Both servers start identical (16 CPU, 16 GiB). Pre-load server 0 with a
  // memory-hog so its remaining vector becomes CPU-heavy: the CPU-heavy VM
  // should then prefer server 0.
  const ProblemInstance p = make_problem(
      {vm(0, 1, 20, 1.0, 12.0),   // memory hog, placed first (earlier start)
       vm(1, 5, 15, 8.0, 1.0)},   // CPU-heavy
      {server(0, 16, 16, 100, 200), server(1, 16, 16, 100, 200)});
  ScanAllocator<DotProductFitScore> allocator;
  Rng rng(1);
  const Allocation alloc = allocator.allocate(p, rng);
  EXPECT_EQ(alloc.assignment[0], 0);  // tie -> lower id
  EXPECT_EQ(alloc.assignment[1], 0);  // remaining (15, 4) aligns with (8, 1)
}

TEST(DotProductFit, SkipsInfeasibleServers) {
  const ProblemInstance p = make_problem(
      {vm(0, 1, 10, 8.0, 8.0)},
      {server(0, 4, 4, 10, 20), server(1, 16, 16, 100, 200)});
  ScanAllocator<DotProductFitScore> allocator;
  Rng rng(1);
  EXPECT_EQ(allocator.allocate(p, rng).assignment[0], 1);
}

TEST(DotProductFit, FeasibleOnRandomInstances) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    Rng gen(seed + 7);
    const ProblemInstance p = random_problem(gen, 22, 9);
    ScanAllocator<DotProductFitScore> allocator;
    Rng rng(seed);
    const Allocation alloc = allocator.allocate(p, rng);
    ASSERT_EQ(validate_allocation(p, alloc, false), "") << "seed " << seed;
    EXPECT_EQ(alloc.num_unallocated(), 0u);
  }
}

TEST(DotProductFit, RegisteredAsBuiltin) {
  AllocatorPtr a = make_allocator("dot-product-fit");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->name(), "dot-product-fit");
}

TEST(DotProductFit, BalancesDimensionsBetterThanCpuOnlyBestFit) {
  // Mixed CPU-heavy and memory-heavy VMs on dimension-skewed servers: the
  // vector heuristic should strand less capacity, i.e. leave fewer
  // unallocated VMs (or at worst tie) when the fleet is tight.
  std::vector<VmSpec> vms;
  for (int k = 0; k < 12; ++k) {
    const bool cpu_heavy = k % 2 == 0;
    vms.push_back(vm(k, 1, 30, cpu_heavy ? 6.0 : 1.0, cpu_heavy ? 1.0 : 6.0));
  }
  std::vector<ServerSpec> servers;
  for (int i = 0; i < 6; ++i) servers.push_back(server(i, 8, 8, 50, 100));
  const ProblemInstance p = make_problem(std::move(vms), std::move(servers));

  Rng r1(1);
  Rng r2(1);
  const Allocation vector_alloc =
      ScanAllocator<DotProductFitScore>().allocate(p, r1);
  const Allocation cpu_alloc =
      make_allocator("best-fit-cpu")->allocate(p, r2);
  EXPECT_LE(vector_alloc.num_unallocated(), cpu_alloc.num_unallocated());
}

}  // namespace
}  // namespace esva
