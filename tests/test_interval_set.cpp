#include "util/interval_set.h"

#include <gtest/gtest.h>

#include <vector>

#include "util/rng.h"

namespace esva {
namespace {

std::vector<Interval> ivs(std::initializer_list<Interval> list) {
  return std::vector<Interval>(list);
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
  const auto delta = set.insert(3, 7);
  EXPECT_EQ(delta.merged, (Interval{3, 7}));
  EXPECT_TRUE(delta.absorbed.empty());
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
  const auto delta = set.insert(2, 9);
  EXPECT_EQ(delta.merged, (Interval{1, 10}));
  EXPECT_EQ(delta.absorbed, ivs({{1, 3}, {8, 10}}));
  EXPECT_EQ(set.intervals(), ivs({{1, 10}}));
}

TEST(IntervalSet, AdjacentIntervalsCoalesce) {
  // [1,3] and [4,6] leave no idle time unit between them: the server is
  // continuously busy, so they must merge (Fig. 1 semantics).
  IntervalSet set;
  set.insert(1, 3);
  const auto delta = set.insert(4, 6);
  EXPECT_EQ(delta.merged, (Interval{1, 6}));
  EXPECT_EQ(set.intervals(), ivs({{1, 6}}));
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
  const auto delta = set.insert(4, 5);
  EXPECT_EQ(delta.merged, (Interval{1, 10}));
  EXPECT_EQ(delta.absorbed, ivs({{1, 10}}));
  EXPECT_EQ(set.intervals(), ivs({{1, 10}}));
}

TEST(IntervalSet, InsertCoveringEverything) {
  IntervalSet set;
  set.insert(2, 3);
  set.insert(6, 7);
  set.insert(10, 11);
  const auto delta = set.insert(1, 12);
  EXPECT_EQ(delta.absorbed.size(), 3u);
  EXPECT_EQ(set.intervals(), ivs({{1, 12}}));
}

TEST(IntervalSet, GapsBetweenThreeIntervals) {
  IntervalSet set;
  set.insert(1, 2);
  set.insert(5, 6);
  set.insert(10, 20);
  EXPECT_EQ(set.gaps(), ivs({{3, 4}, {7, 9}}));
}

TEST(IntervalSet, ContainsAndIntersects) {
  IntervalSet set;
  set.insert(5, 8);
  EXPECT_FALSE(set.contains(4));
  EXPECT_TRUE(set.contains(5));
  EXPECT_TRUE(set.contains(7));
  EXPECT_TRUE(set.contains(8));
  EXPECT_FALSE(set.contains(9));
  EXPECT_TRUE(set.intersects(1, 5));
  EXPECT_TRUE(set.intersects(8, 12));
  EXPECT_FALSE(set.intersects(1, 4));
  EXPECT_FALSE(set.intersects(9, 12));
}

TEST(IntervalSet, SpanCoversFirstToLast) {
  IntervalSet set;
  set.insert(4, 5);
  set.insert(20, 22);
  EXPECT_EQ(set.span(), (Interval{4, 22}));
}

TEST(IntervalSet, PreviewMatchesInsertWithoutMutation) {
  IntervalSet set;
  set.insert(1, 3);
  set.insert(7, 9);
  set.insert(15, 20);

  const auto preview = set.preview_insert_view(4, 8);
  EXPECT_EQ(set.size(), 3u) << "preview must not mutate";
  EXPECT_EQ(preview.merged, (Interval{1, 9}));  // absorbs [1,3] (adjacent) and [7,9]
  // Copied out: the span is valid only until the insert below.
  const std::vector<Interval> absorbed(preview.absorbed.begin(),
                                       preview.absorbed.end());
  EXPECT_EQ(absorbed, ivs({{1, 3}, {7, 9}}));
  EXPECT_FALSE(preview.has_left);
  EXPECT_TRUE(preview.has_right);
  EXPECT_EQ(preview.right, (Interval{15, 20}));

  const Interval merged = preview.merged;
  const auto delta = set.insert(4, 8);
  EXPECT_EQ(delta.merged, merged);
  EXPECT_EQ(delta.absorbed, absorbed);
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

TEST(IntervalSet, EraseCoveredExactInterval) {
  IntervalSet set;
  set.insert(3, 8);
  set.erase_covered(3, 8);
  EXPECT_TRUE(set.empty());
}

TEST(IntervalSet, EraseCoveredMiddleSplits) {
  IntervalSet set;
  set.insert(1, 10);
  set.erase_covered(4, 6);
  EXPECT_EQ(set.intervals(), ivs({{1, 3}, {7, 10}}));
}

TEST(IntervalSet, EraseCoveredPrefixAndSuffix) {
  IntervalSet set;
  set.insert(1, 10);
  set.erase_covered(1, 3);
  EXPECT_EQ(set.intervals(), ivs({{4, 10}}));
  set.erase_covered(8, 10);
  EXPECT_EQ(set.intervals(), ivs({{4, 7}}));
}

TEST(IntervalSet, InsertUndoRoundTripRestoresState) {
  IntervalSet set;
  set.insert(1, 3);
  set.insert(7, 9);
  const auto before = set.intervals();

  const auto delta = set.insert(2, 8);
  set.erase_covered(delta.merged.lo, delta.merged.hi);
  for (const Interval& iv : delta.absorbed) set.insert(iv.lo, iv.hi);
  EXPECT_EQ(set.intervals(), before);
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

}  // namespace
}  // namespace esva
