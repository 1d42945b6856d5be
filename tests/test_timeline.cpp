#include "cluster/timeline.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "core/streaming.h"
#include "counting_new.h"
#include "test_util.h"
#include "util/rng.h"

namespace esva {
namespace {

/// operator new calls this thread makes while `f` runs (counting_new.h).
template <typename F>
std::size_t allocations_in(F&& f) {
  testing::allocations = {};
  testing::counting_allocations = true;
  f();
  testing::counting_allocations = false;
  return testing::allocations.calls;
}

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
}

TEST(ServerTimeline, DisjointVmsKeepSeparateBusySegments) {
  ServerTimeline timeline(basic_server(), 100);
  timeline.place(vm(0, 1, 5));
  timeline.place(vm(1, 10, 15));
  EXPECT_EQ(timeline.busy().size(), 2u);
  EXPECT_EQ(timeline.busy().gaps(),
            (std::vector<Interval>{{6, 9}}));
}

TEST(ServerTimeline, UnplaceRestoresEverything) {
  ServerTimeline timeline(basic_server(), 100);
  timeline.place(vm(0, 10, 20, 3.0, 2.0));
  const IntervalSet busy_before = timeline.busy();
  const double cpu_before = timeline.max_cpu_usage(1, 100);

  const VmSpec second = vm(1, 15, 40, 2.0, 1.0);
  timeline.place(second);
  timeline.unplace(second, busy_before);

  EXPECT_EQ(timeline.busy().intervals(), busy_before.intervals());
  EXPECT_DOUBLE_EQ(timeline.max_cpu_usage(1, 100), cpu_before);
  EXPECT_DOUBLE_EQ(timeline.max_mem_usage(21, 100), 0.0);
}

TEST(ServerTimeline, UnplaceRestoresMergedSegments) {
  ServerTimeline timeline(basic_server(), 100);
  timeline.place(vm(0, 1, 5));
  timeline.place(vm(1, 10, 15));
  // Bridge the two segments, then take the bridge back.
  const IntervalSet busy_before = timeline.busy();
  const VmSpec bridge = vm(2, 4, 12);
  timeline.place(bridge);
  EXPECT_EQ(timeline.busy().size(), 1u);
  timeline.unplace(bridge, busy_before);
  EXPECT_EQ(timeline.busy().intervals(),
            (std::vector<Interval>{{1, 5}, {10, 15}}));
}

TEST(ServerTimeline, LifoUnplacePropertyOnRandomPlacements) {
  Rng rng(77);
  for (int trial = 0; trial < 100; ++trial) {
    ServerTimeline timeline(basic_server(), 200);
    // A couple of permanent residents.
    timeline.place(vm(0, 20, 60, 1.0, 1.0));
    timeline.place(vm(1, 100, 130, 2.0, 2.0));
    const auto busy_before = timeline.busy().intervals();

    // Place a random stack of VMs, each with the busy set it found, then
    // unwind it.
    std::vector<std::pair<VmSpec, IntervalSet>> stack;
    const int pushes = static_cast<int>(rng.uniform_int(1, 6));
    for (int k = 0; k < pushes; ++k) {
      const Time start = static_cast<Time>(rng.uniform_int(1, 180));
      const Time end = static_cast<Time>(
          rng.uniform_int(start, std::min<Time>(200, start + 40)));
      const VmSpec extra = vm(10 + k, start, end, 0.5, 0.5);
      if (!timeline.can_fit(extra)) continue;
      stack.emplace_back(extra, timeline.busy());
      timeline.place(extra);
    }
    while (!stack.empty()) {
      timeline.unplace(stack.back().first, stack.back().second);
      stack.pop_back();
    }
    ASSERT_EQ(timeline.busy().intervals(), busy_before) << "trial " << trial;
    ASSERT_DOUBLE_EQ(timeline.max_cpu_usage(1, 19), 0.0);
    ASSERT_DOUBLE_EQ(timeline.max_cpu_usage(61, 99), 0.0);
  }
}

// A placement that overlaps or touches the busy set, on a timeline whose
// trees are materialized, allocates nothing: place() keeps no record, and
// the merge writes over the busy set's own storage. So does the same
// insert into a copy of that busy set.
TEST(ServerTimeline, MergingPlaceAllocatesNothing) {
  ServerTimeline timeline(basic_server(), 200);
  timeline.place(vm(0, 10, 20, 1.0, 1.0));
  timeline.place(vm(1, 40, 60, 1.0, 1.0));
  timeline.place(vm(2, 90, 95, 1.0, 1.0));
  const std::vector<VmSpec> merging = {
      vm(3, 15, 30, 1.0, 1.0),  // overlaps [10,20]
      vm(4, 31, 39, 1.0, 1.0),  // touches [10,30] and [40,60]
      vm(5, 96, 99, 1.0, 1.0),  // touches [90,95] on the right
      vm(6, 80, 89, 1.0, 1.0),  // touches [90,99] on the left
      vm(7, 50, 55, 1.0, 1.0),  // inside [10,60]
      vm(8, 1, 100, 1.0, 1.0),  // covers everything
  };
  for (const VmSpec& v : merging) {
    ASSERT_TRUE(timeline.can_fit(v)) << v.id;
    IntervalSet copy = timeline.busy();
    ASSERT_FALSE(copy.preview_insert_view(v.start, v.end).absorbed.empty())
        << v.id;
    EXPECT_EQ(allocations_in([&] { copy.insert(v.start, v.end); }), 0u)
        << v.id;
    EXPECT_EQ(allocations_in([&] { timeline.place(v); }), 0u) << v.id;
    EXPECT_EQ(timeline.busy().intervals(), copy.intervals()) << v.id;
  }
  EXPECT_EQ(timeline.busy().intervals(), (std::vector<Interval>{{1, 100}}));
  // The counter is live: a disjoint interval past a full vector grows it.
  IntervalSet grown = timeline.busy();
  EXPECT_GT(allocations_in([&] { grown.insert(150, 160); }), 0u);
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
  // Parenthesized so a profile that ends at the largest Time cannot
  // overflow on the way.
  spec.end = start + (static_cast<Time>(levels.size()) - 1);
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
  const IntervalSet busy_before = timeline.busy();
  timeline.place(workload);

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

  // unplace restores the exact pre-placement state.
  timeline.unplace(workload, busy_before);
  EXPECT_TRUE(timeline.busy().empty());
  for (Time t = 9; t <= 20; ++t) {
    EXPECT_DOUBLE_EQ(timeline.cpu_usage_at(t), 0.0) << "t=" << t;
    EXPECT_DOUBLE_EQ(timeline.mem_usage_at(t), 0.0) << "t=" << t;
  }
}

// set_profile() counts the runs, then reserves: installing a profile makes
// one allocation, for the run list, however many runs it has.
TEST(ProfiledTimeline, SetProfileAllocatesOnceForTheRuns) {
  for (const std::size_t runs : {1, 7, 300}) {
    std::vector<Resources> levels;
    for (std::size_t r = 0; r < runs; ++r)
      levels.insert(levels.end(), 3,
                    Resources{static_cast<double>(r % 2 + 1), 1.0});
    VmSpec spec = vm(0, 1, static_cast<Time>(levels.size()));
    EXPECT_EQ(allocations_in([&] { spec.set_profile(std::move(levels)); }),
              1u)
        << runs << " runs";
    EXPECT_EQ(spec.run_ends.size(), runs);
  }
}

// A window that ends at the largest Time: probes, placements and their
// reversal stop at the run that ends there instead of stepping one unit
// past it, and VMs that end there merge in the busy set.
TEST(ProfiledTimeline, RunsEndingAtTheLargestTime) {
  constexpr Time kEnd = std::numeric_limits<Time>::max();
  ServerTimeline timeline(basic_server(), kEnd - 99, kEnd);
  timeline.place(vm(0, kEnd - 99, kEnd - 50, 8.0, 1.0));  // the window peak
  timeline.place(vm(1, kEnd - 7, kEnd - 4, 4.0, 1.0));

  // Stable: not quick-accepted (8 + 5 > 10), so check_fit walks its one
  // run, which ends at kEnd.
  const VmSpec stable = vm(2, kEnd - 9, kEnd, 5.0, 1.0);
  ASSERT_EQ(timeline.quick_fit(stable), QuickFit::kUnknown);
  EXPECT_TRUE(timeline.check_fit(stable).ok);
  EXPECT_TRUE(timeline.can_fit(stable));

  // Profiled: its peak (9) over the range max (4) does not fit, each run
  // against its own demand does; the second run ends at kEnd.
  const VmSpec phased =
      profiled_vm(3, kEnd - 7, {{5, 1}, {5, 1}, {5, 1}, {5, 1}, {9, 1}, {9, 1},
                                {9, 1}, {9, 1}});
  ASSERT_EQ(phased.end, kEnd);
  EXPECT_TRUE(timeline.can_fit(phased));
  EXPECT_TRUE(timeline.check_fit(phased).ok);
  const IntervalSet busy_before = timeline.busy();
  timeline.place(phased);
  EXPECT_DOUBLE_EQ(timeline.cpu_usage_at(kEnd - 4), 9.0);
  EXPECT_DOUBLE_EQ(timeline.cpu_usage_at(kEnd), 9.0);
  EXPECT_EQ(timeline.busy().intervals(),
            (std::vector<Interval>{{kEnd - 99, kEnd - 50}, {kEnd - 7, kEnd}}));
  const FitCheck over = timeline.check_fit(vm(4, kEnd - 2, kEnd, 2.0, 1.0));
  EXPECT_FALSE(over.ok);
  EXPECT_EQ(over.reject, FitReject::Cpu);
  EXPECT_EQ(over.at, kEnd - 2);

  timeline.unplace(phased, busy_before);
  EXPECT_DOUBLE_EQ(timeline.cpu_usage_at(kEnd - 4), 4.0);
  EXPECT_DOUBLE_EQ(timeline.cpu_usage_at(kEnd), 0.0);
  EXPECT_EQ(timeline.busy().intervals(), busy_before.intervals());

  // The same last-unit VM twice: one busy interval.
  for (int k = 0; k < 2; ++k) timeline.place(vm(5 + k, kEnd - 1, kEnd));
  EXPECT_EQ(timeline.busy().intervals(),
            (std::vector<Interval>{{kEnd - 99, kEnd - 50},
                                   {kEnd - 7, kEnd - 4},
                                   {kEnd - 1, kEnd}}));
}

// --- lazy trees ---------------------------------------------------------------

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// The eager twin of a never-placed timeline: trees materialized by one
/// placement and its unplace, so they hold exact zeros, with an empty busy
/// set.
ServerTimeline eager_empty(const ServerSpec& spec, Time base, Time horizon) {
  ServerTimeline timeline(spec, base, horizon);
  const VmSpec filler = vm(99999, base, base, 1.0, 1.0);
  timeline.place(filler);
  timeline.unplace(filler, IntervalSet{});
  return timeline;
}

/// A probe that may reach outside [base, horizon] and exceed the capacity,
/// profiled with probability 0.3.
VmSpec random_probe(Rng& rng, Time horizon) {
  const Time start = static_cast<Time>(rng.uniform_int(1, horizon + 5));
  const Time end = start + static_cast<Time>(rng.uniform_int(0, 50));
  VmSpec probe = vm(500, start, end, rng.uniform_double(0.1, 12.0),
                    rng.uniform_double(0.1, 12.0));
  if (rng.bernoulli(0.3)) {
    std::vector<Resources> profile(static_cast<std::size_t>(probe.duration()));
    for (Resources& r : profile)
      r = {rng.uniform_double(0.1, 12.0), rng.uniform_double(0.1, 12.0)};
    probe.set_profile(std::move(profile));
  }
  return probe;
}

// A never-placed timeline holds no trees yet decides every probe — quick_fit,
// can_fit, check_fit's diagnosis, usage maxima and the envelope — exactly as
// an eager empty timeline over the same window does.
TEST(LazyTimeline, NeverPlacedAnswersLikeAnEagerEmptyTimeline) {
  Rng rng(1017);
  constexpr Time kHorizon = 160;
  for (const Time base : {1, 40}) {
    const ServerTimeline lazy(basic_server(), base, kHorizon);
    const ServerTimeline eager = eager_empty(basic_server(), base, kHorizon);
    EXPECT_TRUE(lazy.untouched());
    EXPECT_EQ(lazy.resident_units(), 0);
    EXPECT_FALSE(eager.untouched());
    EXPECT_EQ(eager.resident_units(), eager.window_units());
    EXPECT_EQ(bits(lazy.peak_cpu_usage()), bits(eager.peak_cpu_usage()));
    EXPECT_EQ(bits(lazy.peak_mem_usage()), bits(eager.peak_mem_usage()));
    EXPECT_EQ(bits(lazy.floor_cpu_usage()), bits(eager.floor_cpu_usage()));
    EXPECT_EQ(bits(lazy.floor_mem_usage()), bits(eager.floor_mem_usage()));
    int profiled = 0;
    int undecided = 0;
    for (int k = 0; k < 600; ++k) {
      const VmSpec probe = random_probe(rng, kHorizon);
      profiled += probe.has_profile() ? 1 : 0;
      const QuickFit quick = lazy.quick_fit(probe);
      undecided += quick == QuickFit::kUnknown ? 1 : 0;
      ASSERT_EQ(quick, eager.quick_fit(probe)) << "probe " << k;
      ASSERT_EQ(lazy.can_fit(probe), eager.can_fit(probe)) << "probe " << k;
      const FitCheck a = lazy.check_fit(probe);
      const FitCheck b = eager.check_fit(probe);
      ASSERT_EQ(a.ok, b.ok) << "probe " << k;
      ASSERT_EQ(a.reject, b.reject) << "probe " << k;
      ASSERT_EQ(a.at, b.at) << "probe " << k;
      if (probe.start >= base && probe.end <= kHorizon) {
        ASSERT_EQ(bits(lazy.max_cpu_usage(probe.start, probe.end)),
                  bits(eager.max_cpu_usage(probe.start, probe.end)));
        ASSERT_EQ(bits(lazy.max_mem_usage(probe.start, probe.end)),
                  bits(eager.max_mem_usage(probe.start, probe.end)));
      }
    }
    // Both triage outcomes and the profiled tree path were exercised.
    EXPECT_GT(profiled, 0);
    EXPECT_GT(undecided, 0);
  }
}

// --- check_fit's diagnosis against a per-unit scan ---------------------------

/// check_fit's contract spelled out unit by unit: the window check, then the
/// first unit whose usage plus that unit's demand exceeds the capacity +
/// kEps, CPU before memory.
FitCheck per_unit_check(const ServerTimeline& timeline, const VmSpec& probe) {
  FitCheck check;
  if (probe.start < timeline.base() || probe.end > timeline.horizon()) {
    check.reject = FitReject::Horizon;
    return check;
  }
  const Resources& capacity = timeline.spec().capacity;
  for (Time t = probe.start; t <= probe.end; ++t) {
    const Resources r = probe.demand_at(t);
    const bool cpu = timeline.cpu_usage_at(t) + r.cpu > capacity.cpu + kEps;
    const bool mem = timeline.mem_usage_at(t) + r.mem > capacity.mem + kEps;
    if (cpu || mem) {
      check.reject = cpu ? FitReject::Cpu : FitReject::Mem;
      check.at = t;
      return check;
    }
  }
  check.ok = true;
  return check;
}

/// A VM inside [1, horizon + 10], stable or (with probability `profiled`)
/// made of phases of 1 to 25 equal units, so a violation can fall inside a
/// run as well as at its first unit.
VmSpec random_phased_vm(Rng& rng, VmId id, Time horizon, double max_demand,
                        double profiled) {
  const Time start = static_cast<Time>(rng.uniform_int(1, horizon + 10));
  const Time end = start + static_cast<Time>(rng.uniform_int(0, 60));
  VmSpec spec = vm(id, start, end, rng.uniform_double(0.1, max_demand),
                   rng.uniform_double(0.1, max_demand));
  if (rng.bernoulli(profiled)) {
    std::vector<Resources> profile;
    const auto units = static_cast<std::size_t>(spec.duration());
    while (profile.size() < units) {
      const Resources level{rng.uniform_double(0.0, max_demand),
                            rng.uniform_double(0.0, max_demand)};
      const auto length = static_cast<std::size_t>(rng.uniform_int(1, 25));
      for (std::size_t k = 0; k < length && profile.size() < units; ++k)
        profile.push_back(level);
    }
    spec.set_profile(std::move(profile));
  }
  return spec;
}

// check_fit on timelines shaped by random place/unplace interleavings: lazy
// and eager twins fed the same operations, and the empty-window stub a
// failed or drained server holds. Every stable or profiled probe gets
// can_fit's verdict as `ok` and the per-unit scan's reject and unit.
TEST(CheckFitDiagnosis, MatchesCanFitAndAPerUnitScan) {
  Rng rng(20261019);
  constexpr Time kHorizon = 200;
  const int trials = testing::fuzz_quick() ? 6 : 30;
  int tree_fits = 0;
  int rejects_at[4] = {0, 0, 0, 0};
  int inside_run = 0;
  int ties = 0;
  for (int trial = 0; trial < trials; ++trial) {
    const Time base =
        trial % 3 == 0 ? 1 : static_cast<Time>(rng.uniform_int(2, 60));
    ServerTimeline lazy(basic_server(), base, kHorizon);
    ServerTimeline eager = eager_empty(basic_server(), base, kHorizon);
    const ServerTimeline stub(basic_server(), base, base - 1);
    struct Placed {
      VmSpec vm;
      IntervalSet lazy_busy, eager_busy;  // each twin's busy set before it
    };
    std::vector<Placed> stack;
    for (int op = 0; op < 60; ++op) {
      if (!stack.empty() && rng.bernoulli(0.35)) {
        lazy.unplace(stack.back().vm, stack.back().lazy_busy);
        eager.unplace(stack.back().vm, stack.back().eager_busy);
        stack.pop_back();
      } else {
        const VmSpec resident =
            random_phased_vm(rng, 1000 + op, kHorizon, 6.0, 0.5);
        ASSERT_EQ(lazy.can_fit(resident), eager.can_fit(resident));
        if (lazy.can_fit(resident)) {
          stack.push_back({resident, lazy.busy(), eager.busy()});
          lazy.place(resident);
          eager.place(resident);
        }
      }
      for (int k = 0; k < 20; ++k) {
        const VmSpec probe = random_phased_vm(rng, 1, kHorizon, 10.0, 0.4);
        const FitCheck expected = per_unit_check(lazy, probe);
        for (const ServerTimeline* timeline : {&lazy, &eager}) {
          const FitCheck fit = timeline->check_fit(probe);
          ASSERT_EQ(fit.ok, timeline->can_fit(probe))
              << "trial " << trial << " op " << op << " probe " << k;
          ASSERT_EQ(fit.ok, expected.ok)
              << "trial " << trial << " op " << op << " probe " << k;
          ASSERT_EQ(fit.reject, expected.reject)
              << "trial " << trial << " op " << op << " probe " << k;
          ASSERT_EQ(fit.at, expected.at)
              << "trial " << trial << " op " << op << " probe " << k;
        }
        const FitCheck on_stub = stub.check_fit(probe);
        ASSERT_FALSE(on_stub.ok);
        ASSERT_FALSE(stub.can_fit(probe));
        ASSERT_EQ(on_stub.reject, FitReject::Horizon);
        ASSERT_EQ(on_stub.at, 0);

        ++rejects_at[static_cast<int>(expected.reject)];
        if (expected.ok && lazy.quick_fit(probe) == QuickFit::kUnknown)
          ++tree_fits;
        if (expected.reject == FitReject::Cpu ||
            expected.reject == FitReject::Mem) {
          const Time t = expected.at;
          if (probe.has_profile() && t > probe.start &&
              probe.demand_at(t - 1).cpu == probe.demand_at(t).cpu &&
              probe.demand_at(t - 1).mem == probe.demand_at(t).mem)
            ++inside_run;
          if (expected.reject == FitReject::Cpu &&
              lazy.mem_usage_at(t) + probe.demand_at(t).mem >
                  lazy.spec().capacity.mem + kEps)
            ++ties;
        }
      }
    }
  }
  // Every outcome was exercised: fits decided by the trees, all three
  // rejects, violations after a run's first unit, and CPU winning a tie.
  EXPECT_GT(tree_fits, 0);
  EXPECT_GT(rejects_at[static_cast<int>(FitReject::Horizon)], 0);
  EXPECT_GT(rejects_at[static_cast<int>(FitReject::Cpu)], 0);
  EXPECT_GT(rejects_at[static_cast<int>(FitReject::Mem)], 0);
  EXPECT_GT(inside_run, 0);
  EXPECT_GT(ties, 0);
}

// A run that meets the capacity exactly, through a sum that rounds above it
// (0.3 + 7.9 + 1.8 is 10.000000000000002 in doubles), fits: kEps decides in
// check_fit's bisection as in can_fit and the per-unit scan.
TEST(CheckFitDiagnosis, ExactCapacityThroughAnInexactSumFits) {
  ServerTimeline timeline(basic_server(), 200);
  timeline.place(vm(0, 20, 40, 0.3, 1.0));
  timeline.place(vm(1, 20, 40, 7.9, 1.0));
  timeline.place(vm(2, 100, 110, 9.0, 1.0));  // a peak quick-accept sees
  ASSERT_GT(timeline.cpu_usage_at(30) + 1.8, 10.0);
  std::vector<Resources> levels(5, Resources{0.5, 1.0});
  levels.resize(26, Resources{1.8, 1.0});
  for (const VmSpec& probe :
       {vm(3, 20, 40, 1.8, 1.0), profiled_vm(4, 15, levels)}) {
    ASSERT_EQ(timeline.quick_fit(probe), QuickFit::kUnknown) << probe.id;
    EXPECT_TRUE(timeline.check_fit(probe).ok) << probe.id;
    EXPECT_TRUE(timeline.can_fit(probe)) << probe.id;
    EXPECT_TRUE(per_unit_check(timeline, probe).ok) << probe.id;
  }
  // A tenth more is a violation, first at unit 20, inside the probe's run.
  const FitCheck over = timeline.check_fit(vm(5, 15, 40, 1.9, 1.0));
  EXPECT_FALSE(over.ok);
  EXPECT_EQ(over.reject, FitReject::Cpu);
  EXPECT_EQ(over.at, 20);
}

// rewindow moves an untouched window without materializing anything; the
// timeline then answers like one built over the new window, and its first
// placement materializes trees of exactly that window.
TEST(LazyTimeline, RewindowMovesTheWindowOfAnUntouchedTimeline) {
  ServerTimeline timeline(basic_server(), 1, 50);
  EXPECT_EQ(allocations_in([&] { timeline.rewindow(30, 400); }), 0u);
  EXPECT_TRUE(timeline.untouched());
  const ServerTimeline fresh(basic_server(), 30, 400);
  EXPECT_EQ(timeline.base(), fresh.base());
  EXPECT_EQ(timeline.horizon(), fresh.horizon());
  for (const VmSpec& probe : {vm(1, 29, 40), vm(2, 30, 400), vm(3, 30, 401),
                              vm(4, 100, 200, 11.0, 1.0)})
    EXPECT_EQ(timeline.quick_fit(probe), fresh.quick_fit(probe)) << probe.id;
  timeline.place(vm(5, 100, 120, 2.0, 2.0));
  EXPECT_FALSE(timeline.untouched());
  EXPECT_EQ(timeline.resident_units(), 371);
}

/// A fleet of `n` servers in five spec classes, like the benchmark fleets.
std::vector<ServerSpec> five_class_fleet(std::size_t n) {
  std::vector<ServerSpec> fleet;
  fleet.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double k = static_cast<double>(i % 5);
    fleet.push_back(testing::server(static_cast<ServerId>(i), 8.0 + 4.0 * k,
                                    16.0 + 8.0 * k, 80.0 + 10.0 * k,
                                    170.0 + 20.0 * k));
  }
  return fleet;
}

// On an all-pristine fleet, growing the horizon and advancing the frontier
// allocate nothing at all: every window move is a bound update.
TEST(LazyTimeline, PristineFleetGrowsAndAdvancesWithoutAllocating) {
  ClusterState cluster(five_class_fleet(10000), /*initial_horizon=*/0);
  EXPECT_EQ(allocations_in([&] {
              cluster.ensure_horizon(300);
              cluster.advance_to(120);
              cluster.ensure_horizon(2000);
              cluster.advance_to(1500);
              cluster.ensure_horizon(1000000);
            }),
            0u);
  EXPECT_EQ(cluster.resident_time_units(), 0u);
  for (const ServerTimeline& t : cluster.timelines()) {
    ASSERT_TRUE(t.untouched());
    ASSERT_EQ(t.base(), 1500);
    ASSERT_EQ(t.horizon(), cluster.horizon());
  }
  EXPECT_TRUE(cluster.envelopes().debug_validate(cluster.timelines()));
}

/// Allocations made by growth and retire ticks on a fleet of `n` servers of
/// which only one ever hosts a VM.
std::size_t allocations_with_one_touched_server(std::size_t n) {
  ClusterState cluster(five_class_fleet(n), /*initial_horizon=*/0);
  cluster.ensure_horizon(100);
  cluster.place(3, vm(1, 1, 60, 2.0, 2.0));
  return allocations_in([&] {
    cluster.ensure_horizon(400);  // rebuilds the touched server
    cluster.advance_to(80);       // retires the VM
    cluster.ensure_horizon(3000);
    cluster.advance_to(2000);     // GC rebuild of the touched server
  });
}

// The same growth and retire ticks allocate exactly as much on 10,000
// servers as on 10: only the touched server's trees are ever rebuilt.
TEST(LazyTimeline, GrowthAndRetireAllocateForTouchedServersOnly) {
  const std::size_t small = allocations_with_one_touched_server(10);
  EXPECT_GT(small, 0u);
  EXPECT_EQ(allocations_with_one_touched_server(10000), small);
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
