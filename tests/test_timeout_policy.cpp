#include "ext/timeout_policy.h"

#include <gtest/gtest.h>

#include <limits>

#include "baselines/registry.h"
#include "core/segments.h"
#include "test_util.h"

namespace esva {
namespace {

using testing::basic_server;
using testing::random_problem;
using testing::vm;

IntervalSet busy_of(std::initializer_list<Interval> intervals) {
  IntervalSet set;
  for (const Interval& iv : intervals) set.insert(iv.lo, iv.hi);
  return set;
}

TEST(TimeoutPolicy, ZeroTimeoutMatchesBusySegments) {
  const IntervalSet busy = busy_of({{1, 5}, {10, 12}});
  const auto actives = timeout_active_intervals(busy, 100, {.timeout = 0});
  EXPECT_EQ(actives, (std::vector<Interval>{{1, 5}, {10, 12}}));
}

TEST(TimeoutPolicy, LingerExtendsEachSegment) {
  const IntervalSet busy = busy_of({{1, 5}, {20, 22}});
  const auto actives = timeout_active_intervals(busy, 100, {.timeout = 3});
  EXPECT_EQ(actives, (std::vector<Interval>{{1, 8}, {20, 25}}));
}

TEST(TimeoutPolicy, ShortGapCoalesces) {
  // Gap {6..9} (4 units) with timeout 4: the server never powers down.
  const IntervalSet busy = busy_of({{1, 5}, {10, 12}});
  const auto actives = timeout_active_intervals(busy, 100, {.timeout = 4});
  ASSERT_EQ(actives.size(), 1u);
  EXPECT_EQ(actives[0].lo, 1);
  EXPECT_EQ(actives[0].hi, 12 + 4);
}

TEST(TimeoutPolicy, LingerClampedToHorizonAndNextSegment) {
  const IntervalSet busy = busy_of({{1, 5}, {8, 10}});
  // timeout 10 but next segment starts at 8: linger stops at 7, coalesces;
  // final linger clamped to horizon 12.
  const auto actives = timeout_active_intervals(busy, 12, {.timeout = 10});
  EXPECT_EQ(actives, (std::vector<Interval>{{1, 12}}));
}

// A timeout reaching past the horizon lingers to the horizon, up to the
// largest Time: segment end + timeout must not overflow into a negative
// interval (`esva evaluate --timeout 2147483647` must price a real energy).
TEST(TimeoutPolicy, TimeoutUpToTheLargestTimeLingersToTheHorizon) {
  const IntervalSet busy = busy_of({{1, 5}, {20, 22}});
  for (const Time timeout : {Time{100}, std::numeric_limits<Time>::max() - 4,
                             std::numeric_limits<Time>::max()}) {
    EXPECT_EQ(timeout_active_intervals(busy, 30, {.timeout = timeout}),
              (std::vector<Interval>{{1, 30}}))
        << timeout;
  }
}

TEST(TimeoutPolicy, BreakdownChargesLingerAsIdle) {
  // basic_server: P_idle 100, alpha 200. One segment [1,5], timeout 3:
  // active [1,8] -> idle 800, one transition 200.
  const IntervalSet busy = busy_of({{1, 5}});
  const CostBreakdown bd =
      timeout_structure_breakdown(busy, basic_server(), 100, {.timeout = 3});
  EXPECT_DOUBLE_EQ(bd.idle, 800.0);
  EXPECT_DOUBLE_EQ(bd.transition, 200.0);
}

TEST(TimeoutPolicy, EmptyBusyCostsNothing) {
  const CostBreakdown bd =
      timeout_structure_breakdown(IntervalSet{}, basic_server(), 50, {});
  EXPECT_DOUBLE_EQ(bd.total(), 0.0);
}

TEST(TimeoutPolicy, NeverBeatsTheOptimalPolicy) {
  // Clairvoyant gap decisions are optimal by construction; any timeout must
  // cost at least as much, on any busy structure.
  Rng rng(31);
  for (int trial = 0; trial < 200; ++trial) {
    IntervalSet busy;
    const int segments = static_cast<int>(rng.uniform_int(1, 6));
    for (int k = 0; k < segments; ++k) {
      const Time lo = static_cast<Time>(rng.uniform_int(1, 180));
      busy.insert(lo, static_cast<Time>(
                          rng.uniform_int(lo, std::min<Time>(200, lo + 30))));
    }
    const ServerSpec spec = basic_server();
    const Energy optimal = structure_cost(busy, spec);
    for (Time timeout : {0, 1, 2, 5, 20, 100}) {
      const Energy priced =
          timeout_structure_breakdown(busy, spec, 200, {.timeout = timeout})
              .total();
      ASSERT_GE(priced, optimal - 1e-9)
          << "trial " << trial << " timeout " << timeout;
    }
  }
}

TEST(TimeoutPolicy, OptimalGapThresholdTimeoutPaysOnlyTrailingLinger) {
  // For the basic server (alpha/P_idle = 2), a timeout of exactly 2 makes
  // the same bridge/power-down decisions as the optimal policy on every
  // interior gap; the residual difference is the 2-unit linger after each
  // power-down (here: after the [1,10] block and after the final segment).
  const IntervalSet busy = busy_of({{1, 5}, {8, 10}, {50, 60}});
  const ServerSpec spec = basic_server();
  const Energy optimal = structure_cost(busy, spec);  // 2500
  const Energy timeout2 =
      timeout_structure_breakdown(busy, spec, 200, {.timeout = 2}).total();
  EXPECT_DOUBLE_EQ(timeout2, optimal + 4.0 * spec.p_idle);
}

TEST(TimeoutPolicy, EvaluateCostIntegratesOverFleet) {
  Rng gen(5);
  const ProblemInstance p = random_problem(gen, 15, 6);
  Rng rng(1);
  const Allocation alloc = make_allocator("min-incremental")->allocate(p, rng);
  const Energy optimal = evaluate_cost(p, alloc).total();
  const Energy timeout = evaluate_cost_with_timeout(p, alloc, {.timeout = 5});
  EXPECT_GE(timeout, optimal - 1e-6);
  // A huge timeout makes servers stay on until the horizon: strictly worse.
  const Energy always_on =
      evaluate_cost_with_timeout(p, alloc, {.timeout = 100000});
  EXPECT_GT(always_on, timeout);
}

}  // namespace
}  // namespace esva
