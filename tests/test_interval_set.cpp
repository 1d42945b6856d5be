#include "util/interval_set.h"

#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "util/rng.h"

namespace esva {
namespace {

std::vector<Interval> ivs(std::initializer_list<Interval> list) {
  return std::vector<Interval>(list);
}

/// A preview's absorbed run, copied out of the set it points into.
std::vector<Interval> absorbed(const IntervalSet::PreviewView& preview) {
  return std::vector<Interval>(preview.absorbed.begin(),
                               preview.absorbed.end());
}

TEST(IntervalSet, StartsEmpty) {
  IntervalSet set;
  EXPECT_TRUE(set.empty());
  EXPECT_EQ(set.size(), 0u);
  EXPECT_EQ(set.total_length(), 0);
  EXPECT_TRUE(set.gaps().empty());
}

TEST(IntervalSet, SingleInsert) {
  IntervalSet set;
  const auto preview = set.preview_insert_view(3, 7);
  EXPECT_EQ(preview.merged, (Interval{3, 7}));
  EXPECT_TRUE(preview.absorbed.empty());
  set.insert(3, 7);
  EXPECT_EQ(set.intervals(), ivs({{3, 7}}));
  EXPECT_EQ(set.total_length(), 5);
}

TEST(IntervalSet, DisjointInsertsStaySorted) {
  IntervalSet set;
  set.insert(10, 12);
  set.insert(1, 2);
  set.insert(5, 6);
  EXPECT_EQ(set.intervals(), ivs({{1, 2}, {5, 6}, {10, 12}}));
}

TEST(IntervalSet, OverlapMergesAndReportsAbsorbed) {
  IntervalSet set;
  set.insert(1, 3);
  set.insert(8, 10);
  const auto preview = set.preview_insert_view(2, 9);
  EXPECT_EQ(preview.merged, (Interval{1, 10}));
  EXPECT_EQ(absorbed(preview), ivs({{1, 3}, {8, 10}}));
  set.insert(2, 9);
  EXPECT_EQ(set.intervals(), ivs({{1, 10}}));
}

TEST(IntervalSet, AdjacentIntervalsCoalesce) {
  // [1,3] and [4,6] leave no idle time unit between them: the server is
  // continuously busy, so they must merge (Fig. 1 semantics).
  IntervalSet set;
  set.insert(1, 3);
  EXPECT_EQ(set.preview_insert_view(4, 6).merged, (Interval{1, 6}));
  set.insert(4, 6);
  EXPECT_EQ(set.intervals(), ivs({{1, 6}}));
  // Touching on both sides bridges: [7,9] between [1,6] and [10,12].
  set.insert(10, 12);
  set.insert(7, 9);
  EXPECT_EQ(set.intervals(), ivs({{1, 12}}));
}

TEST(IntervalSet, GapOfOneUnitDoesNotCoalesce) {
  IntervalSet set;
  set.insert(1, 3);
  set.insert(5, 6);
  EXPECT_EQ(set.intervals(), ivs({{1, 3}, {5, 6}}));
  EXPECT_EQ(set.gaps(), ivs({{4, 4}}));
}

TEST(IntervalSet, InsertFullyInsideIsAbsorbedIntoExisting) {
  IntervalSet set;
  set.insert(1, 10);
  const auto preview = set.preview_insert_view(4, 5);
  EXPECT_EQ(preview.merged, (Interval{1, 10}));
  EXPECT_EQ(absorbed(preview), ivs({{1, 10}}));
  set.insert(4, 5);
  EXPECT_EQ(set.intervals(), ivs({{1, 10}}));
}

TEST(IntervalSet, InsertCoveringEverything) {
  IntervalSet set;
  set.insert(2, 3);
  set.insert(6, 7);
  set.insert(10, 11);
  EXPECT_EQ(set.preview_insert_view(1, 12).absorbed.size(), 3u);
  set.insert(1, 12);
  EXPECT_EQ(set.intervals(), ivs({{1, 12}}));
}

TEST(IntervalSet, GapsBetweenThreeIntervals) {
  IntervalSet set;
  set.insert(1, 2);
  set.insert(5, 6);
  set.insert(10, 20);
  EXPECT_EQ(set.gaps(), ivs({{3, 4}, {7, 9}}));
}

TEST(IntervalSet, ContainsEndpointsAndInterior) {
  IntervalSet set;
  set.insert(5, 8);
  EXPECT_FALSE(set.contains(4));
  EXPECT_TRUE(set.contains(5));
  EXPECT_TRUE(set.contains(7));
  EXPECT_TRUE(set.contains(8));
  EXPECT_FALSE(set.contains(9));
}

TEST(IntervalSet, PreviewMatchesInsertWithoutMutation) {
  IntervalSet set;
  set.insert(1, 3);
  set.insert(7, 9);
  set.insert(15, 20);

  const auto preview = set.preview_insert_view(4, 8);
  EXPECT_EQ(set.size(), 3u) << "preview must not mutate";
  EXPECT_EQ(preview.merged, (Interval{1, 9}));  // absorbs [1,3] (adjacent) and [7,9]
  EXPECT_EQ(absorbed(preview), ivs({{1, 3}, {7, 9}}));
  EXPECT_FALSE(preview.has_left);
  EXPECT_TRUE(preview.has_right);
  EXPECT_EQ(preview.right, (Interval{15, 20}));

  // The insert is the preview applied: the merged interval replaces the
  // absorbed run, and the right neighbour survives.
  const Interval merged = preview.merged;
  set.insert(4, 8);
  EXPECT_EQ(set.intervals(), ivs({merged, {15, 20}}));
}

TEST(IntervalSet, PreviewNeighborsWhenNothingAbsorbed) {
  IntervalSet set;
  set.insert(1, 2);
  set.insert(10, 12);
  const auto preview = set.preview_insert_view(5, 6);
  EXPECT_TRUE(preview.absorbed.empty());
  EXPECT_TRUE(preview.has_left);
  EXPECT_EQ(preview.left, (Interval{1, 2}));
  EXPECT_TRUE(preview.has_right);
  EXPECT_EQ(preview.right, (Interval{10, 12}));
}

// Intervals that end at the largest Time merge like any others: the
// right-adjacency test subtracts from the stored lo instead of adding to hi,
// which would overflow there.
TEST(IntervalSet, MergesAtTheEndOfTime) {
  constexpr Time kEnd = std::numeric_limits<Time>::max();
  IntervalSet set;
  set.insert(kEnd - 47, kEnd);
  const auto preview = set.preview_insert_view(kEnd - 47, kEnd);
  EXPECT_EQ(preview.merged, (Interval{kEnd - 47, kEnd}));
  EXPECT_EQ(absorbed(preview), ivs({{kEnd - 47, kEnd}}));
  EXPECT_FALSE(preview.has_left);
  EXPECT_FALSE(preview.has_right);
  set.insert(kEnd - 47, kEnd);
  EXPECT_EQ(set.intervals(), ivs({{kEnd - 47, kEnd}}));

  set.insert(kEnd - 100, kEnd - 48);  // left-adjacent
  EXPECT_EQ(set.intervals(), ivs({{kEnd - 100, kEnd}}));
  set.insert(1, 1);
  set.insert(kEnd, kEnd);  // inside the last interval
  EXPECT_EQ(set.intervals(), ivs({{1, 1}, {kEnd - 100, kEnd}}));
  EXPECT_EQ(set.gaps(), ivs({{2, kEnd - 101}}));
  set.insert(2, kEnd);
  EXPECT_EQ(set.intervals(), ivs({{1, kEnd}}));
  EXPECT_EQ(set.total_length(), kEnd);
}

// Property: a random insertion sequence matches a naive boolean-array model.
TEST(IntervalSetProperty, MatchesNaiveModelOnRandomSequences) {
  Rng rng(101);
  constexpr Time kMax = 60;
  for (int trial = 0; trial < 200; ++trial) {
    IntervalSet set;
    std::vector<bool> model(kMax + 2, false);
    const int inserts = static_cast<int>(rng.uniform_int(1, 12));
    for (int k = 0; k < inserts; ++k) {
      const Time lo = static_cast<Time>(rng.uniform_int(1, kMax - 1));
      const Time hi =
          static_cast<Time>(rng.uniform_int(lo, std::min<Time>(kMax, lo + 15)));
      set.insert(lo, hi);
      for (Time t = lo; t <= hi; ++t) model[static_cast<std::size_t>(t)] = true;
    }
    // Rebuild intervals from the model and compare.
    std::vector<Interval> expected;
    for (Time t = 1; t <= kMax; ++t) {
      if (!model[static_cast<std::size_t>(t)]) continue;
      if (!expected.empty() && expected.back().hi == t - 1)
        expected.back().hi = t;
      else
        expected.push_back(Interval{t, t});
    }
    ASSERT_EQ(set.intervals(), expected) << "trial " << trial;
    for (Time t = 1; t <= kMax; ++t)
      ASSERT_EQ(set.contains(t), static_cast<bool>(model[static_cast<std::size_t>(t)]));
  }
}

// Property: every insert leaves exactly what its preview describes: the
// intervals before the absorbed run, the merged interval, then the rest,
// with the preview's neighbours beside the merged interval.
TEST(IntervalSetProperty, InsertIsThePreviewApplied) {
  Rng rng(202);
  constexpr Time kMax = 80;
  for (int trial = 0; trial < 200; ++trial) {
    IntervalSet set;
    const int inserts = static_cast<int>(rng.uniform_int(1, 14));
    for (int k = 0; k < inserts; ++k) {
      const Time lo = static_cast<Time>(rng.uniform_int(1, kMax - 1));
      const Time hi =
          static_cast<Time>(rng.uniform_int(lo, std::min<Time>(kMax, lo + 12)));
      const auto preview = set.preview_insert_view(lo, hi);
      const std::vector<Interval>& before = set.intervals();
      const auto first = static_cast<std::size_t>(preview.absorbed.data() -
                                                  before.data());
      std::vector<Interval> expected(before.begin(),
                                     before.begin() + static_cast<long>(first));
      expected.push_back(preview.merged);
      expected.insert(expected.end(),
                      before.begin() + static_cast<long>(
                                           first + preview.absorbed.size()),
                      before.end());
      ASSERT_EQ(preview.has_left, first > 0) << "trial " << trial;
      if (preview.has_left) {
        ASSERT_EQ(preview.left, before[first - 1]) << "trial " << trial;
      }
      ASSERT_EQ(preview.has_right,
                first + preview.absorbed.size() < before.size())
          << "trial " << trial;

      set.insert(lo, hi);
      ASSERT_EQ(set.intervals(), expected) << "trial " << trial << " insert "
                                           << k;
      // Sorted, disjoint and never adjacent.
      for (std::size_t i = 1; i < set.size(); ++i)
        ASSERT_GT(set.intervals()[i].lo, set.intervals()[i - 1].hi + 1);
    }
  }
}

}  // namespace
}  // namespace esva
