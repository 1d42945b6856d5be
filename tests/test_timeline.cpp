#include "cluster/timeline.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "test_util.h"
#include "util/rng.h"

namespace esva {
namespace {

using testing::basic_server;
using testing::vm;

TEST(ServerTimeline, EmptyTimelineFitsAnythingWithinCapacity) {
  ServerTimeline timeline(basic_server(), 100);
  EXPECT_TRUE(timeline.can_fit(vm(0, 1, 100, 10.0, 10.0)));   // exactly full
  EXPECT_FALSE(timeline.can_fit(vm(0, 1, 10, 10.1, 1.0)));    // CPU over
  EXPECT_FALSE(timeline.can_fit(vm(0, 1, 10, 1.0, 10.1)));    // memory over
}

TEST(ServerTimeline, VmBeyondHorizonDoesNotFit) {
  ServerTimeline timeline(basic_server(), 50);
  EXPECT_TRUE(timeline.can_fit(vm(0, 45, 50)));
  EXPECT_FALSE(timeline.can_fit(vm(0, 45, 51)));
}

TEST(ServerTimeline, CapacityIsPerTimeUnitNotAggregate) {
  ServerTimeline timeline(basic_server(), 100);
  timeline.place(vm(0, 1, 50, 6.0, 1.0));
  // Overlapping VM needing 6 CPU doesn't fit (6+6 > 10)...
  EXPECT_FALSE(timeline.can_fit(vm(1, 25, 75, 6.0, 1.0)));
  // ...but the same VM after the first one finishes does.
  EXPECT_TRUE(timeline.can_fit(vm(1, 51, 100, 6.0, 1.0)));
  // And a smaller overlapping VM fits.
  EXPECT_TRUE(timeline.can_fit(vm(1, 25, 75, 4.0, 1.0)));
}

TEST(ServerTimeline, MemoryDimensionIsCheckedIndependently) {
  ServerTimeline timeline(basic_server(), 100);
  timeline.place(vm(0, 1, 50, 1.0, 9.0));
  EXPECT_FALSE(timeline.can_fit(vm(1, 50, 60, 1.0, 2.0)));  // mem clash at t=50
  EXPECT_TRUE(timeline.can_fit(vm(1, 51, 60, 1.0, 2.0)));
}

TEST(ServerTimeline, PlaceUpdatesBusyAndUsage) {
  ServerTimeline timeline(basic_server(), 100);
  timeline.place(vm(0, 10, 20, 3.0, 2.0));
  timeline.place(vm(1, 15, 30, 2.0, 1.0));
  EXPECT_EQ(timeline.busy().intervals().size(), 1u);
  EXPECT_EQ(timeline.busy().intervals()[0], (Interval{10, 30}));
  EXPECT_DOUBLE_EQ(timeline.cpu_usage_at(12), 3.0);
  EXPECT_DOUBLE_EQ(timeline.cpu_usage_at(17), 5.0);
  EXPECT_DOUBLE_EQ(timeline.cpu_usage_at(25), 2.0);
  EXPECT_DOUBLE_EQ(timeline.cpu_usage_at(31), 0.0);
  EXPECT_DOUBLE_EQ(timeline.mem_usage_at(17), 3.0);
  EXPECT_EQ(timeline.busy_time(), 21);
  EXPECT_EQ(timeline.vms(), (std::vector<VmId>{0, 1}));
}

TEST(ServerTimeline, DisjointVmsKeepSeparateBusySegments) {
  ServerTimeline timeline(basic_server(), 100);
  timeline.place(vm(0, 1, 5));
  timeline.place(vm(1, 10, 15));
  EXPECT_EQ(timeline.busy().size(), 2u);
  EXPECT_EQ(timeline.busy().gaps(),
            (std::vector<Interval>{{6, 9}}));
}

TEST(ServerTimeline, UndoRestoresEverything) {
  ServerTimeline timeline(basic_server(), 100);
  timeline.place(vm(0, 10, 20, 3.0, 2.0));
  const auto busy_before = timeline.busy().intervals();
  const double cpu_before = timeline.max_cpu_usage(1, 100);

  const VmSpec second = vm(1, 15, 40, 2.0, 1.0);
  const auto record = timeline.place(second);
  timeline.undo(record, second);

  EXPECT_EQ(timeline.busy().intervals(), busy_before);
  EXPECT_DOUBLE_EQ(timeline.max_cpu_usage(1, 100), cpu_before);
  EXPECT_DOUBLE_EQ(timeline.max_mem_usage(21, 100), 0.0);
  EXPECT_EQ(timeline.vms(), (std::vector<VmId>{0}));
}

TEST(ServerTimeline, UndoRestoresMergedSegments) {
  ServerTimeline timeline(basic_server(), 100);
  timeline.place(vm(0, 1, 5));
  timeline.place(vm(1, 10, 15));
  // Bridge the two segments, then undo the bridge.
  const VmSpec bridge = vm(2, 4, 12);
  const auto record = timeline.place(bridge);
  EXPECT_EQ(timeline.busy().size(), 1u);
  timeline.undo(record, bridge);
  EXPECT_EQ(timeline.busy().intervals(),
            (std::vector<Interval>{{1, 5}, {10, 15}}));
}

TEST(ServerTimeline, LifoUndoPropertyOnRandomPlacements) {
  Rng rng(77);
  for (int trial = 0; trial < 100; ++trial) {
    ServerTimeline timeline(basic_server(), 200);
    // A couple of permanent residents.
    timeline.place(vm(0, 20, 60, 1.0, 1.0));
    timeline.place(vm(1, 100, 130, 2.0, 2.0));
    const auto busy_before = timeline.busy().intervals();

    // Place a random stack of VMs, then unwind it.
    std::vector<std::pair<ServerTimeline::PlaceRecord, VmSpec>> stack;
    const int pushes = static_cast<int>(rng.uniform_int(1, 6));
    for (int k = 0; k < pushes; ++k) {
      const Time start = static_cast<Time>(rng.uniform_int(1, 180));
      const Time end = static_cast<Time>(
          rng.uniform_int(start, std::min<Time>(200, start + 40)));
      const VmSpec extra = vm(10 + k, start, end, 0.5, 0.5);
      if (!timeline.can_fit(extra)) continue;
      stack.emplace_back(timeline.place(extra), extra);
    }
    while (!stack.empty()) {
      timeline.undo(stack.back().first, stack.back().second);
      stack.pop_back();
    }
    ASSERT_EQ(timeline.busy().intervals(), busy_before) << "trial " << trial;
    ASSERT_DOUBLE_EQ(timeline.max_cpu_usage(1, 19), 0.0);
    ASSERT_DOUBLE_EQ(timeline.max_cpu_usage(61, 99), 0.0);
  }
}

// --- quick_fit: the O(1) envelope triage in front of the trees -------------

TEST(QuickFitTriage, DecidesFromWindowEnvelope) {
  ServerTimeline timeline(basic_server(), 100);
  timeline.place(vm(0, 1, 50, 6.0, 2.0));  // peak 6 CPU / 2 MEM, floor 0
  // Peak + demand fits: certain accept without a tree query.
  EXPECT_EQ(timeline.quick_fit(vm(1, 25, 75, 4.0, 1.0)), QuickFit::kFits);
  // Even the emptiest unit lacks spare CPU: certain reject.
  EXPECT_EQ(timeline.quick_fit(vm(2, 60, 90, 10.5, 1.0)),
            QuickFit::kCannotFit);
  // Peak + demand over, floor + demand under: undecided.
  EXPECT_EQ(timeline.quick_fit(vm(3, 60, 90, 5.0, 1.0)), QuickFit::kUnknown);
  // Out of window: certain reject.
  EXPECT_EQ(timeline.quick_fit(vm(4, 90, 101, 1.0, 1.0)),
            QuickFit::kCannotFit);
}

TEST(QuickFitTriage, AgreesWithCanFitOnRandomPlacements) {
  Rng rng(2024);
  for (int trial = 0; trial < 50; ++trial) {
    ServerTimeline timeline(basic_server(), 120);
    const int residents = static_cast<int>(rng.uniform_int(0, 6));
    for (int k = 0; k < residents; ++k) {
      const Time start = static_cast<Time>(rng.uniform_int(1, 100));
      const Time end = static_cast<Time>(rng.uniform_int(start, start + 30));
      const VmSpec resident = vm(k, start, end, 1.0 + (k % 3), 1.0 + (k % 4));
      if (timeline.can_fit(resident)) timeline.place(resident);
    }
    for (int probe = 0; probe < 40; ++probe) {
      const Time start = static_cast<Time>(rng.uniform_int(1, 110));
      const Time end = static_cast<Time>(rng.uniform_int(start, start + 40));
      const VmSpec candidate =
          vm(100 + probe, start, end, rng.uniform_double(0.1, 12.0),
             rng.uniform_double(0.1, 12.0));
      const QuickFit quick = timeline.quick_fit(candidate);
      if (quick != QuickFit::kUnknown) {
        ASSERT_EQ(quick == QuickFit::kFits, timeline.can_fit(candidate))
            << "trial " << trial << " probe " << probe;
      }
    }
  }
}

// Boundary cases of the envelope triage, table-driven: exact-capacity fits
// (the <= capacity + kEps comparison at equality), zero-demand VMs, and
// window edges at the horizon and at an advanced base. Each expectation
// pins the QuickFit verdict AND, where decided, its agreement with the
// exact can_fit answer — the same dual contract the SoA envelope sweep
// (core/envelope_store.h) inherits verbatim (tests/test_envelope_scan.cpp).
TEST(QuickFitTriage, BoundaryCasesTableDriven) {
  // basic_server: 10 CPU / 10 GiB. Resident [1,50] at 6 CPU / 2 MEM, so the
  // window envelope is peak (6, 2), floor (0, 0) over horizon 100.
  ServerTimeline timeline(basic_server(), 100);
  timeline.place(vm(0, 1, 50, 6.0, 2.0));

  struct Case {
    const char* why;
    VmSpec candidate;
    QuickFit expected;
  };
  const Case cases[] = {
      {"exact-capacity fit: peak + demand == capacity in both dimensions",
       vm(1, 25, 75, 4.0, 8.0), QuickFit::kFits},
      {"zero-demand VM always quick-fits inside the window",
       vm(2, 1, 100, 0.0, 0.0), QuickFit::kFits},
      {"zero-demand VM past the horizon is still a window reject",
       vm(3, 90, 101, 0.0, 0.0), QuickFit::kCannotFit},
      {"window edge: single unit exactly at the horizon",
       vm(4, 100, 100, 1.0, 1.0), QuickFit::kFits},
      {"window edge: end one past the horizon",
       vm(5, 95, 101, 1.0, 1.0), QuickFit::kCannotFit},
      {"demand over capacity even on the empty floor",
       vm(6, 60, 90, 10.5, 1.0), QuickFit::kCannotFit},
      {"exact-capacity on the floor: floor + demand == capacity stays "
       "undecided (not > capacity + kEps)",
       vm(7, 25, 75, 10.0, 1.0), QuickFit::kUnknown},
      {"peak + demand just over, floor + demand under: undecided",
       vm(8, 60, 90, 4.1, 1.0), QuickFit::kUnknown},
  };
  for (const Case& c : cases) {
    const QuickFit quick = timeline.quick_fit(c.candidate);
    EXPECT_EQ(quick, c.expected) << c.why;
    if (quick != QuickFit::kUnknown) {
      EXPECT_EQ(quick == QuickFit::kFits, timeline.can_fit(c.candidate))
          << c.why << " (decided verdicts must agree with can_fit)";
    }
  }
}

TEST(QuickFitTriage, AdvancedBaseRejectsStartsBehindTheWindow) {
  // A rebuilt (rolling-GC) timeline with base 10: starts behind the base are
  // window rejects, starts exactly at the base are triaged normally.
  ServerTimeline timeline(basic_server(), /*base=*/10, /*horizon=*/100);
  struct Case {
    const char* why;
    VmSpec candidate;
    QuickFit expected;
  };
  const Case cases[] = {
      {"start one behind the base", vm(1, 9, 20, 1.0, 1.0),
       QuickFit::kCannotFit},
      {"start exactly at the base", vm(2, 10, 20, 1.0, 1.0), QuickFit::kFits},
      {"whole window, exact capacity", vm(3, 10, 100, 10.0, 10.0),
       QuickFit::kFits},
      {"whole window, capacity exceeded", vm(4, 10, 100, 10.5, 1.0),
       QuickFit::kCannotFit},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(timeline.quick_fit(c.candidate), c.expected) << c.why;
    EXPECT_EQ(c.expected == QuickFit::kFits, timeline.can_fit(c.candidate))
        << c.why;
  }
}

// --- profiled VMs: equal-demand runs are applied/checked as range ops ------

VmSpec profiled_vm(VmId id, Time start, std::vector<Resources> levels) {
  VmSpec spec;
  spec.id = id;
  spec.type_name = "profiled";
  spec.start = start;
  spec.end = start + static_cast<Time>(levels.size()) - 1;
  spec.set_profile(std::move(levels));
  return spec;
}

TEST(ProfiledTimeline, CoalescedRunsMatchPerUnitSemantics) {
  ServerTimeline timeline(basic_server(), 100);
  // Three runs: [10,12] at (2,1), [13,15] at (6,3), [16,17] at (1,8); the
  // middle run also has a zero-CPU tail to cover the skip-zero-delta path.
  const VmSpec workload = profiled_vm(
      0, 10,
      {{2, 1}, {2, 1}, {2, 1}, {6, 3}, {6, 3}, {6, 3}, {1, 8}, {1, 8},
       {0, 2}, {0, 2}});
  ASSERT_TRUE(timeline.can_fit(workload));
  const auto record = timeline.place(workload);

  // Usage at every unit equals the profile level of that unit's run.
  for (Time t = 10; t <= 19; ++t) {
    const Resources r = workload.demand_at(t);
    EXPECT_DOUBLE_EQ(timeline.cpu_usage_at(t), r.cpu) << "t=" << t;
    EXPECT_DOUBLE_EQ(timeline.mem_usage_at(t), r.mem) << "t=" << t;
  }
  EXPECT_DOUBLE_EQ(timeline.cpu_usage_at(9), 0.0);
  EXPECT_DOUBLE_EQ(timeline.cpu_usage_at(20), 0.0);

  // A stable VM fits against the valleys but not across the (6,3) burst.
  EXPECT_TRUE(timeline.can_fit(vm(1, 16, 30, 5.0, 1.0)));
  EXPECT_FALSE(timeline.can_fit(vm(2, 10, 15, 5.0, 1.0)));

  // A second profiled VM whose burst interleaves with the valleys fits.
  const VmSpec complement = profiled_vm(
      3, 10,
      {{7, 8}, {7, 8}, {7, 8}, {2, 2}, {2, 2}, {2, 2}, {8, 1}, {8, 1},
       {9, 7}, {9, 7}});
  EXPECT_TRUE(timeline.can_fit(complement));
  // check_fit agrees and localizes a violation inside the right run.
  const VmSpec clash = profiled_vm(4, 12, {{1, 1}, {5, 1}, {5, 1}});
  ASSERT_FALSE(timeline.can_fit(clash));
  const FitCheck fit = timeline.check_fit(clash);
  EXPECT_FALSE(fit.ok);
  EXPECT_EQ(fit.reject, FitReject::Cpu);
  EXPECT_EQ(fit.at, 13);  // first unit where 6 (resident) + 5 > 10

  // Undo restores the exact pre-placement state.
  timeline.undo(record, workload);
  for (Time t = 9; t <= 20; ++t) {
    EXPECT_DOUBLE_EQ(timeline.cpu_usage_at(t), 0.0) << "t=" << t;
    EXPECT_DOUBLE_EQ(timeline.mem_usage_at(t), 0.0) << "t=" << t;
  }
}

TEST(MakeTimelines, OnePerServer) {
  std::vector<ServerSpec> servers{basic_server(0), basic_server(1)};
  const auto timelines = make_timelines(servers, 42);
  ASSERT_EQ(timelines.size(), 2u);
  EXPECT_EQ(timelines[0].horizon(), 42);
  EXPECT_EQ(timelines[1].spec().id, 1);
}

}  // namespace
}  // namespace esva
