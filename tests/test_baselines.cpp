#include <gtest/gtest.h>

#include <set>

#include "baselines/ffps.h"
#include "baselines/random_fit.h"
#include "baselines/registry.h"
#include "core/candidate_scan.h"
#include "core/scan_scores.h"
#include "core/streaming.h"
#include "test_util.h"

namespace esva {
namespace {

using testing::basic_server;
using testing::random_problem;
using testing::server;
using testing::vm;

TEST(Ffps, NoShuffleIsPlainFirstFit) {
  FfpsAllocator::Options options;
  options.shuffle_servers = false;
  FfpsAllocator allocator(options);
  // Both VMs fit on server 0 -> both land there, in id order.
  const ProblemInstance p = make_problem(
      {vm(0, 1, 5, 2.0, 2.0), vm(1, 2, 6, 2.0, 2.0)},
      {basic_server(0), basic_server(1)});
  Rng rng(9);
  const Allocation alloc = allocator.allocate(p, rng);
  EXPECT_EQ(alloc.assignment, (std::vector<ServerId>{0, 0}));
}

TEST(Ffps, NoShuffleSpillsToNextServerWhenFull) {
  FfpsAllocator::Options options;
  options.shuffle_servers = false;
  FfpsAllocator allocator(options);
  const ProblemInstance p = make_problem(
      {vm(0, 1, 5, 8.0, 8.0), vm(1, 2, 6, 8.0, 8.0)},
      {basic_server(0), basic_server(1)});
  Rng rng(9);
  EXPECT_EQ(allocator.allocate(p, rng).assignment,
            (std::vector<ServerId>{0, 1}));
}

TEST(Ffps, ShuffleIsSeedDeterministic) {
  Rng gen(3);
  const ProblemInstance p = random_problem(gen, 20, 10);
  FfpsAllocator allocator;
  Rng a(42);
  Rng b(42);
  EXPECT_EQ(allocator.allocate(p, a).assignment,
            allocator.allocate(p, b).assignment);
}

TEST(Ffps, DifferentSeedsCanProduceDifferentProbes) {
  Rng gen(4);
  const ProblemInstance p = random_problem(gen, 20, 10);
  FfpsAllocator allocator;
  std::set<std::vector<ServerId>> distinct;
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    Rng rng(seed);
    distinct.insert(allocator.allocate(p, rng).assignment);
  }
  EXPECT_GT(distinct.size(), 1u);
}

TEST(Ffps, AllocationsAreFeasible) {
  for (std::uint64_t seed = 0; seed < 15; ++seed) {
    Rng gen(seed);
    const ProblemInstance p = random_problem(gen, 25, 12);
    FfpsAllocator allocator;
    Rng rng(seed * 7 + 1);
    const Allocation alloc = allocator.allocate(p, rng);
    ASSERT_EQ(validate_allocation(p, alloc, false), "") << "seed " << seed;
  }
}

TEST(Ffps, AllocatesInStartTimeOrderNotIdOrder) {
  FfpsAllocator::Options options;
  options.shuffle_servers = false;
  FfpsAllocator allocator(options);
  // VM 1 starts earlier than VM 0; they clash, so the earlier-starting VM
  // must claim server 0 first.
  const ProblemInstance p = make_problem(
      {vm(0, 10, 20, 8.0, 8.0), vm(1, 5, 15, 8.0, 8.0)},
      {basic_server(0), basic_server(1)});
  Rng rng(1);
  const Allocation alloc = allocator.allocate(p, rng);
  EXPECT_EQ(alloc.assignment[1], 0);
  EXPECT_EQ(alloc.assignment[0], 1);
}

TEST(BestFitCpu, PicksTightestServer) {
  // VM of 6 CPU: server 1 (capacity 7) leaves headroom 1; server 0 leaves 4.
  const ProblemInstance p = make_problem(
      {vm(0, 1, 5, 6.0, 1.0)},
      {server(0, 10, 10, 100, 200), server(1, 7, 10, 100, 200)});
  ScanAllocator<BestFitCpuScore> allocator;
  Rng rng(1);
  EXPECT_EQ(allocator.allocate(p, rng).assignment[0], 1);
}

TEST(BestFitCpu, AccountsForExistingLoad) {
  // Both servers have 10 CPU; server 0 already hosts 3 CPU overlapping, so
  // it is the tighter fit for a 5-CPU VM.
  const ProblemInstance p = make_problem(
      {vm(0, 1, 10, 3.0, 1.0), vm(1, 5, 8, 5.0, 1.0)},
      {basic_server(0), basic_server(1)});
  ScanAllocator<BestFitCpuScore> allocator;
  Rng rng(1);
  const Allocation alloc = allocator.allocate(p, rng);
  EXPECT_EQ(alloc.assignment[0], 0);  // first VM: tie -> server 0
  EXPECT_EQ(alloc.assignment[1], 0);
}

TEST(RandomFit, ProducesFeasibleAllocations) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    Rng gen(seed + 50);
    const ProblemInstance p = random_problem(gen, 20, 8);
    RandomFitAllocator allocator;
    Rng rng(seed);
    ASSERT_EQ(validate_allocation(p, allocator.allocate(p, rng), false), "");
  }
}

TEST(RandomFit, SpreadsAcrossServers) {
  // 30 tiny concurrent VMs on 10 big servers: random fit should not put
  // everything on one machine.
  std::vector<VmSpec> vms;
  for (int j = 0; j < 30; ++j) vms.push_back(vm(j, 1, 10, 0.1, 0.1));
  std::vector<ServerSpec> servers;
  for (int i = 0; i < 10; ++i) servers.push_back(basic_server(i));
  const ProblemInstance p = make_problem(std::move(vms), std::move(servers));
  RandomFitAllocator allocator;
  Rng rng(5);
  const Allocation alloc = allocator.allocate(p, rng);
  std::set<ServerId> used(alloc.assignment.begin(), alloc.assignment.end());
  EXPECT_GT(used.size(), 3u);
}

TEST(LowestIdlePower, PicksMostEfficientFeasibleServer) {
  const ProblemInstance p = make_problem(
      {vm(0, 1, 5, 6.0, 6.0)},
      {server(0, 10, 10, 80, 200), server(1, 10, 10, 60, 210),
       server(2, 4, 4, 40, 100)});  // server 2 is cheapest but too small
  ScanAllocator<LowestIdlePowerScore> allocator;
  Rng rng(1);
  EXPECT_EQ(allocator.allocate(p, rng).assignment[0], 1);
}

TEST(Registry, KnowsAllNamesAndBuildsThem) {
  for (const std::string& name : allocator_names()) {
    AllocatorPtr allocator = make_allocator(name);
    ASSERT_NE(allocator, nullptr);
    EXPECT_FALSE(allocator->name().empty());
  }
  EXPECT_EQ(allocator_names().front(), "min-incremental");
}

// The registry is one fixed table. Under ctest every TEST runs in a fresh
// process, so the first call here is the process's first; the list is the
// same after make_allocator has built every name on it (each under its own
// name where the allocator reports one) and refused every other name.
TEST(Registry, NamesAreOneFixedTable) {
  const std::vector<std::string> expected = {
      "min-incremental", "ffps", "ffps-reshuffle", "ffps-noshuffle",
      "best-fit-cpu", "dot-product-fit", "random-fit", "lowest-idle-power",
      "lookahead-1", "lookahead-4", "lookahead-8", "lookahead-16"};
  const std::vector<std::string>& names = allocator_names();
  EXPECT_EQ(names, expected);
  for (const std::string& name : names) {
    const AllocatorPtr allocator = make_allocator(name);
    ASSERT_NE(allocator, nullptr) << name;
    if (name.rfind("ffps-", 0) != 0) {
      EXPECT_EQ(allocator->name(), name);
    }
  }
  for (const std::string name :
       {"", "lookahead", "lookahead-2", "lookahead-8 ", "FFPS", "ffps-"})
    EXPECT_THROW(make_allocator(name), std::invalid_argument) << name;
  EXPECT_EQ(&allocator_names(), &names);
  EXPECT_EQ(allocator_names(), expected);
}

TEST(Registry, UnknownNameThrows) {
  EXPECT_THROW(make_allocator("definitely-not-an-allocator"),
               std::invalid_argument);
}

TEST(Registry, EveryAllocatorSolvesARandomInstanceFeasibly) {
  Rng gen(77);
  const ProblemInstance p = random_problem(gen, 18, 9);
  for (const std::string& name : allocator_names()) {
    AllocatorPtr allocator = make_allocator(name);
    Rng rng(11);
    const Allocation alloc = allocator->allocate(p, rng);
    ASSERT_EQ(validate_allocation(p, alloc, false), "") << name;
    EXPECT_EQ(alloc.num_unallocated(), 0u) << name;
  }
}

// The VM order is run_batch's argument, and it reaches the decisions: two
// VMs that clash on equal servers go to server 0 in the order they are
// presented. By start time the short early VM is presented first; by
// duration the long late one is.
TEST(Ordering, RunBatchPresentsVmsInTheRequestedOrder) {
  const ProblemInstance p = make_problem(
      {vm(0, 1, 5, 8.0, 8.0), vm(1, 2, 20, 8.0, 8.0)},
      {basic_server(0), basic_server(1)});
  for (const std::string name : {"min-incremental", "ffps-noshuffle"}) {
    const AllocatorPtr allocator = make_allocator(name);
    Rng by_start_rng(1);
    EXPECT_EQ(run_batch(p, *allocator->make_policy(), VmOrder::ByStartTime,
                        by_start_rng)
                  .assignment,
              (std::vector<ServerId>{0, 1}))
        << name;
    Rng by_duration_rng(1);
    EXPECT_EQ(run_batch(p, *allocator->make_policy(), VmOrder::ByDurationDesc,
                        by_duration_rng)
                  .assignment,
              (std::vector<ServerId>{1, 0}))
        << name;
  }
}

TEST(Ordering, AllOrdersEnumerated) {
  EXPECT_EQ(all_vm_orders().size(), 4u);
  std::set<std::string> names;
  for (VmOrder order : all_vm_orders()) names.insert(to_string(order));
  EXPECT_EQ(names.size(), 4u);
}

}  // namespace
}  // namespace esva
