// Lazy segment tree supporting range-add and range-max/min over doubles.
//
// Each server keeps one tree per resource dimension over the horizon [1, T];
// the allocator's feasibility test "does VM j fit on server i throughout
// [t^s, t^e]?" becomes a single O(log T) range-max query:
//     max_usage(interval) + demand <= capacity.
//
// Layout: iterative, flat-array ("bottom-up") tree sized 2n, not the classic
// recursive 4n allocation. Leaves for positions 0..n-1 live at array slots
// n..2n-1; internal node x has children 2x and 2x+1. Three arrays:
//   mx_[x] — max over x's subtree, including x's own pending delta d_[x]
//            but excluding ancestors' pending deltas;
//   mn_[x] — same, for the minimum (feeds the O(1) spare-capacity summary
//            min_all() used by ServerTimeline's quick-reject);
//   d_[x]  — pending range-add delta covering x's whole subtree (internal
//            nodes only).
// add() applies deltas to the O(log n) canonical border nodes bottom-up and
// then recomputes the two border leaf-to-root chains; max() folds the same
// canonical nodes, accumulating ancestor deltas as it climbs. No recursion,
// no per-node [nl, nr] bookkeeping, and 5n doubles instead of 8n.
//
// Range maxima are the only positional query. ServerTimeline::check_fit,
// which also reports where a VM first fails to fit, finds that unit by
// bisecting over max(lo, k), the prefix maximum that never decreases as k
// grows.
//
// Storage is lazy: a tree allocates its arrays on its first add(), and until
// then reads as the all-zero tree it would be if eager — max, max_all and
// min_all return exactly the eager zero tree's answers. A server that never
// hosts a VM (core/streaming.h, "pristine") therefore holds no tree storage
// at all, whatever its window size.

#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <vector>

namespace esva {

class RangeAddMaxTree {
 public:
  /// Tree over positions 0..n-1, all initially 0. n may be 0 (empty tree).
  /// Allocates nothing; the first add() does.
  explicit RangeAddMaxTree(std::size_t n) : n_(n) {}

  std::size_t size() const { return n_; }

  /// True once an add() has allocated the arrays. An unmaterialized tree
  /// reads as all zeros.
  bool materialized() const { return !mx_.empty(); }

  /// Adds `delta` to every position in [lo, hi] (inclusive). Requires
  /// lo <= hi < size().
  void add(std::size_t lo, std::size_t hi, double delta) {
    assert(lo <= hi && hi < n_);
    if (!materialized()) {
      mx_.assign(2 * n_, 0.0);
      mn_.assign(2 * n_, 0.0);
      d_.assign(n_, 0.0);
    }
    const std::size_t ll = lo + n_;
    const std::size_t rr = hi + n_;
    std::size_t l = ll;
    std::size_t r = rr + 1;
    while (l < r) {
      if (l & 1) apply(l++, delta);
      if (r & 1) apply(--r, delta);
      l >>= 1;
      r >>= 1;
    }
    pull(ll);
    pull(rr);
  }

  /// Maximum value over [lo, hi] (inclusive). Requires lo <= hi < size().
  double max(std::size_t lo, std::size_t hi) const {
    assert(lo <= hi && hi < n_);
    if (!materialized()) return 0.0;
    double resl = kNone;
    double resr = kNone;
    std::size_t l = lo + n_;
    std::size_t r = hi + n_ + 1;
    while (l < r) {
      if (l & 1) resl = std::max(resl, mx_[l++]);
      if (r & 1) resr = std::max(resr, mx_[--r]);
      l >>= 1;
      r >>= 1;
      // After each climb, (l - 1) and r are ancestors of every node consumed
      // so far on their side; fold in their pending deltas. Guarded to the
      // internal region (leaves carry no delta; d_[0] is unused and 0).
      if (l - 1 < n_) resl += d_[l - 1];
      if (r < n_) resr += d_[r];
    }
    for (std::size_t x = l - 1; x > 1;) {
      x >>= 1;
      resl += d_[x];
    }
    for (std::size_t x = r; x > 1;) {
      x >>= 1;
      resr += d_[x];
    }
    return std::max(resl, resr);
  }

  /// Maximum over the whole range; 0 for an empty tree. O(1).
  double max_all() const { return materialized() ? mx_[1] : 0.0; }

  /// Minimum over the whole range; 0 for an empty tree. O(1). Together with
  /// max_all this brackets the usage envelope: max_all is the window-wide
  /// peak (quick-accept when peak + demand fits) and min_all the window-wide
  /// floor (quick-reject when even the emptiest unit lacks spare capacity).
  double min_all() const { return materialized() ? mn_[1] : 0.0; }

 private:
  static constexpr double kNone = -1e300;

  void apply(std::size_t x, double delta) {
    mx_[x] += delta;
    mn_[x] += delta;
    if (x < n_) d_[x] += delta;
  }

  void pull(std::size_t x) {
    while (x > 1) {
      x >>= 1;
      mx_[x] = std::max(mx_[2 * x], mx_[2 * x + 1]) + d_[x];
      mn_[x] = std::min(mn_[2 * x], mn_[2 * x + 1]) + d_[x];
    }
  }

  std::size_t n_;
  std::vector<double> mx_;
  std::vector<double> mn_;
  std::vector<double> d_;
};

}  // namespace esva
