// Sorted set of disjoint, inclusive integer intervals with merge-on-insert.
//
// This is the substrate for the paper's busy-segment bookkeeping (Fig. 1): a
// server that hosts a set of VMs is busy on the merged union of their
// [start, finish] intervals, and the idle-segments are the interior gaps.
// Adjacent intervals ([1,3] and [4,6]) are coalesced because the server is
// continuously busy across them; a gap must have length >= 1 time unit.
// Stored times are model times, 1 through the largest Time. An insert keeps
// no record of what it absorbed, so a caller that must return to an earlier
// state (the exact solver's backtracking) keeps a copy of the set.

#pragma once

#include <span>
#include <vector>

#include "util/types.h"

namespace esva {

/// Closed integer interval [lo, hi], lo <= hi.
struct Interval {
  Time lo = 0;
  Time hi = 0;

  /// Number of time units covered (inclusive endpoints): hi - lo + 1.
  Time length() const { return hi - lo + 1; }

  friend bool operator==(const Interval&, const Interval&) = default;
};

class IntervalSet {
 public:
  /// Inserts [lo, hi] (requires 1 <= lo <= hi), merging with any overlapping
  /// or adjacent intervals: preview_insert_view(lo, hi) applied, its merged
  /// interval written over the absorbed run. A merge allocates nothing.
  void insert(Time lo, Time hi);

  /// The effect insert(lo, hi) would have, computed without mutating: the
  /// merged interval, the intervals it would absorb and the surviving
  /// neighbors (if any) — everything the incremental energy-cost evaluator
  /// needs to recompute the local busy/idle structure. The absorbed
  /// intervals are always a contiguous run of this set's own storage, so
  /// `absorbed` is a span into it, not a copy: valid only until the next
  /// mutation of this set — fine for the evaluator, which consumes it
  /// immediately (the candidate-scan hot path calls this once per feasible
  /// probe).
  struct PreviewView {
    Interval merged;
    std::span<const Interval> absorbed;
    bool has_left = false;
    bool has_right = false;
    Interval left;   // valid iff has_left
    Interval right;  // valid iff has_right
  };

  PreviewView preview_insert_view(Time lo, Time hi) const;

  /// True iff t lies in some interval.
  bool contains(Time t) const;

  /// The disjoint intervals in increasing order.
  const std::vector<Interval>& intervals() const { return ivs_; }

  /// Sum of lengths of all intervals.
  Time total_length() const;

  /// Interior gaps between consecutive intervals (empty if size() < 2).
  std::vector<Interval> gaps() const;

  bool empty() const { return ivs_.empty(); }
  std::size_t size() const { return ivs_.size(); }
  void clear() { ivs_.clear(); }

 private:
  std::vector<Interval> ivs_;
};

}  // namespace esva
