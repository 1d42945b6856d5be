#include "util/segment_tree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "testsupport/reference_segment_tree.h"
#include "util/rng.h"

namespace esva {
namespace {

TEST(RangeAddMaxTree, EmptyTree) {
  RangeAddMaxTree tree(0);
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_EQ(tree.max_all(), 0.0);
  EXPECT_EQ(tree.min_all(), 0.0);
}

TEST(RangeAddMaxTree, SingleElement) {
  RangeAddMaxTree tree(1);
  EXPECT_EQ(tree.max(0, 0), 0.0);
  tree.add(0, 0, 3.5);
  EXPECT_EQ(tree.max(0, 0), 3.5);
  tree.add(0, 0, -1.0);
  EXPECT_EQ(tree.max(0, 0), 2.5);
  EXPECT_EQ(tree.max_all(), 2.5);
}

TEST(RangeAddMaxTree, InitiallyAllZero) {
  RangeAddMaxTree tree(16);
  EXPECT_EQ(tree.max(0, 15), 0.0);
  EXPECT_EQ(tree.max(3, 7), 0.0);
}

TEST(RangeAddMaxTree, DisjointRangeAdds) {
  RangeAddMaxTree tree(10);
  tree.add(0, 4, 1.0);
  tree.add(5, 9, 2.0);
  EXPECT_EQ(tree.max(0, 4), 1.0);
  EXPECT_EQ(tree.max(5, 9), 2.0);
  EXPECT_EQ(tree.max(0, 9), 2.0);
  EXPECT_EQ(tree.max(4, 5), 2.0);
}

TEST(RangeAddMaxTree, OverlappingAddsAccumulate) {
  RangeAddMaxTree tree(10);
  tree.add(0, 6, 1.0);
  tree.add(4, 9, 1.0);
  EXPECT_EQ(tree.max(0, 3), 1.0);
  EXPECT_EQ(tree.max(4, 6), 2.0);
  EXPECT_EQ(tree.max(7, 9), 1.0);
  EXPECT_EQ(tree.max_all(), 2.0);
}

TEST(RangeAddMaxTree, NegativeDeltasRelease) {
  RangeAddMaxTree tree(8);
  tree.add(0, 7, 5.0);
  tree.add(2, 5, -5.0);
  EXPECT_EQ(tree.max(2, 5), 0.0);
  EXPECT_EQ(tree.max(0, 7), 5.0);
}

TEST(RangeAddMaxTree, QueryDoesNotMutate) {
  RangeAddMaxTree tree(8);
  tree.add(1, 6, 2.0);
  const double first = tree.max(0, 7);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(tree.max(0, 7), first);
}

TEST(RangeAddMaxTree, NonPowerOfTwoSize) {
  RangeAddMaxTree tree(13);
  tree.add(12, 12, 7.0);
  EXPECT_EQ(tree.max(12, 12), 7.0);
  EXPECT_EQ(tree.max(0, 11), 0.0);
  EXPECT_EQ(tree.max_all(), 7.0);
}

TEST(RangeAddMaxTree, MinAllTracksTheFloor) {
  RangeAddMaxTree tree(10);
  EXPECT_EQ(tree.min_all(), 0.0);
  tree.add(0, 9, 2.0);
  EXPECT_EQ(tree.min_all(), 2.0);
  tree.add(3, 5, 4.0);
  EXPECT_EQ(tree.min_all(), 2.0);  // the untouched units are the floor
  tree.add(0, 2, -1.5);
  EXPECT_EQ(tree.min_all(), 0.5);
  EXPECT_EQ(tree.max_all(), 6.0);
}

// Property: behaves identically to a plain array under random operations.
TEST(RangeAddMaxTreeProperty, MatchesNaiveArray) {
  Rng rng(7);
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t n = static_cast<std::size_t>(rng.uniform_int(1, 200));
    RangeAddMaxTree tree(n);
    std::vector<double> naive(n, 0.0);
    for (int op = 0; op < 200; ++op) {
      const auto lo = static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
      const auto hi = static_cast<std::size_t>(
          rng.uniform_int(static_cast<std::int64_t>(lo), static_cast<std::int64_t>(n) - 1));
      if (rng.bernoulli(0.6)) {
        const double delta = rng.uniform_double(-5.0, 10.0);
        tree.add(lo, hi, delta);
        for (std::size_t k = lo; k <= hi; ++k) naive[k] += delta;
      } else {
        const double expected = *std::max_element(naive.begin() + static_cast<std::ptrdiff_t>(lo),
                                                  naive.begin() + static_cast<std::ptrdiff_t>(hi) + 1);
        ASSERT_NEAR(tree.max(lo, hi), expected, 1e-9)
            << "trial " << trial << " op " << op;
      }
    }
    ASSERT_NEAR(tree.max_all(), *std::max_element(naive.begin(), naive.end()),
                1e-9);
  }
}

// Differential fuzz: the flat iterative tree against the original recursive
// implementation it replaced (testsupport/reference_segment_tree.h), under
// random add/max interleavings across sizes from a single unit up — the
// equivalence proof demanded by the replacement. The two layouts associate
// their floating-point sums differently, so values are compared to 1e-9
// (far below the library's feasibility granularity), not bit-for-bit.
TEST(RangeAddMaxTreeProperty, MatchesRecursiveReferenceTree) {
  Rng rng(20260807);
  for (int trial = 0; trial < 120; ++trial) {
    // Bias towards small and awkward sizes (1, 2, 3, powers of two ± 1).
    const std::size_t n = static_cast<std::size_t>(
        trial < 40 ? rng.uniform_int(1, 9) : rng.uniform_int(1, 300));
    RangeAddMaxTree flat(n);
    ReferenceRangeAddMaxTree reference(n);
    ASSERT_EQ(flat.size(), reference.size());
    for (int op = 0; op < 150; ++op) {
      const auto lo = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
      const auto hi = static_cast<std::size_t>(rng.uniform_int(
          static_cast<std::int64_t>(lo), static_cast<std::int64_t>(n) - 1));
      if (rng.bernoulli(0.55)) {
        const double delta = rng.uniform_double(-6.0, 10.0);
        flat.add(lo, hi, delta);
        reference.add(lo, hi, delta);
      } else {
        ASSERT_NEAR(flat.max(lo, hi), reference.max(lo, hi), 1e-9)
            << "trial " << trial << " op " << op << " n " << n << " ["
            << lo << ", " << hi << "]";
      }
      if (op % 25 == 0) {
        ASSERT_NEAR(flat.max_all(), reference.max_all(), 1e-9);
      }
    }
  }
}

// Differential fuzz for the roots: min_all and max_all against
// std::min_element / std::max_element over a mirrored plain array, with range
// maxima checked in between.
TEST(RangeAddMaxTreeProperty, RootsMatchNaive) {
  Rng rng(555);
  for (int trial = 0; trial < 80; ++trial) {
    const std::size_t n = static_cast<std::size_t>(
        trial < 30 ? rng.uniform_int(1, 10) : rng.uniform_int(1, 260));
    RangeAddMaxTree tree(n);
    std::vector<double> naive(n, 0.0);
    for (int op = 0; op < 120; ++op) {
      const auto lo = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
      const auto hi = static_cast<std::size_t>(rng.uniform_int(
          static_cast<std::int64_t>(lo), static_cast<std::int64_t>(n) - 1));
      if (rng.bernoulli(0.5)) {
        const double delta = rng.uniform_double(-6.0, 10.0);
        tree.add(lo, hi, delta);
        for (std::size_t k = lo; k <= hi; ++k) naive[k] += delta;
      } else {
        const auto first = naive.begin() + static_cast<std::ptrdiff_t>(lo);
        const auto last = naive.begin() + static_cast<std::ptrdiff_t>(hi) + 1;
        const double expected = *std::max_element(first, last);
        ASSERT_NEAR(tree.max(lo, hi), expected, 1e-9)
            << "trial " << trial << " op " << op << " n " << n << " ["
            << lo << ", " << hi << "]";
      }
      if (op % 20 == 0) {
        ASSERT_NEAR(tree.min_all(), *std::min_element(naive.begin(), naive.end()),
                    1e-9);
        ASSERT_NEAR(tree.max_all(), *std::max_element(naive.begin(), naive.end()),
                    1e-9);
      }
    }
  }
}

// --- lazy storage ------------------------------------------------------------

/// Bit pattern of a double: lazy and eager trees must agree bit for bit, and
/// == would equate -0.0 with 0.0.
std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// A tree whose arrays exist from the start: adding +0.0 everywhere
/// materializes it without changing any value.
RangeAddMaxTree eager_tree(std::size_t n) {
  RangeAddMaxTree tree(n);
  if (n > 0) tree.add(0, n - 1, 0.0);
  return tree;
}

/// Every query the library makes agrees bit for bit between two trees of
/// one size: max over random ranges and both roots.
void expect_same_answers(const RangeAddMaxTree& lazy,
                         const RangeAddMaxTree& eager, Rng& rng,
                         const char* when) {
  ASSERT_EQ(lazy.size(), eager.size()) << when;
  ASSERT_EQ(bits(lazy.max_all()), bits(eager.max_all())) << when;
  ASSERT_EQ(bits(lazy.min_all()), bits(eager.min_all())) << when;
  const auto n = static_cast<std::int64_t>(lazy.size());
  if (n == 0) return;
  for (int q = 0; q < 12; ++q) {
    const auto lo = static_cast<std::size_t>(rng.uniform_int(0, n - 1));
    const auto hi = static_cast<std::size_t>(
        rng.uniform_int(static_cast<std::int64_t>(lo), n - 1));
    ASSERT_EQ(bits(lazy.max(lo, hi)), bits(eager.max(lo, hi)))
        << when << " [" << lo << ", " << hi << "]";
  }
}

// A tree allocates nothing until its first add, and until then answers
// every query exactly as the materialized all-zero tree does.
TEST(RangeAddMaxTreeLazy, UnmaterializedReadsAsTheEagerZeroTree) {
  Rng rng(31);
  for (const std::size_t n : {0u, 1u, 2u, 3u, 7u, 8u, 9u, 64u, 255u}) {
    const RangeAddMaxTree lazy(n);
    EXPECT_FALSE(lazy.materialized()) << n;
    const RangeAddMaxTree eager = eager_tree(n);
    EXPECT_EQ(eager.materialized(), n > 0) << n;
    expect_same_answers(lazy, eager, rng, "unmaterialized");
    if (n == 0) continue;
    // Against the eager recursive reference too: zero everywhere.
    const ReferenceRangeAddMaxTree reference(n);
    EXPECT_EQ(bits(lazy.max(0, n - 1)), bits(reference.max(0, n - 1))) << n;
  }
}

// From the first add on, a lazy tree is the eager tree fed the same
// sequence: random range adds and their LIFO undos leave every answer bit
// equal after each step.
TEST(RangeAddMaxTreeLazy, AddsAndUndosMatchAnEagerTreeBitForBit) {
  Rng rng(20261017);
  for (int trial = 0; trial < 60; ++trial) {
    const std::size_t n = static_cast<std::size_t>(
        trial < 20 ? rng.uniform_int(1, 9) : rng.uniform_int(1, 300));
    RangeAddMaxTree lazy(n);
    RangeAddMaxTree eager = eager_tree(n);
    struct Add {
      std::size_t lo, hi;
      double delta;
    };
    std::vector<Add> stack;
    for (int op = 0; op < 80; ++op) {
      if (!stack.empty() && rng.bernoulli(0.4)) {
        const Add undo = stack.back();
        stack.pop_back();
        lazy.add(undo.lo, undo.hi, -undo.delta);
        eager.add(undo.lo, undo.hi, -undo.delta);
      } else {
        const auto lo = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
        const auto hi = static_cast<std::size_t>(rng.uniform_int(
            static_cast<std::int64_t>(lo), static_cast<std::int64_t>(n) - 1));
        const Add add{lo, hi, rng.uniform_double(0.01, 8.0)};
        stack.push_back(add);
        lazy.add(add.lo, add.hi, add.delta);
        eager.add(add.lo, add.hi, add.delta);
      }
      ASSERT_TRUE(lazy.materialized());
      expect_same_answers(lazy, eager, rng, "after add/undo");
    }
  }
}

}  // namespace
}  // namespace esva
