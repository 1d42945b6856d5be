#include "util/interval_set.h"

#include <algorithm>
#include <cassert>

namespace esva {

IntervalSet::InsertDelta IntervalSet::insert(Time lo, Time hi) {
  assert(lo <= hi);
  InsertDelta delta;
  Time merged_lo = lo;
  Time merged_hi = hi;

  // First interval whose hi >= lo - 1 (i.e. could overlap or be left-adjacent).
  auto first = std::lower_bound(
      ivs_.begin(), ivs_.end(), lo,
      [](const Interval& iv, Time value) { return iv.hi < value - 1; });
  // Last interval whose lo <= hi + 1 (overlap or right-adjacent); `last` is
  // one past it.
  auto last = first;
  while (last != ivs_.end() && last->lo <= hi + 1) ++last;

  for (auto it = first; it != last; ++it) {
    delta.absorbed.push_back(*it);
    merged_lo = std::min(merged_lo, it->lo);
    merged_hi = std::max(merged_hi, it->hi);
  }

  delta.merged = Interval{merged_lo, merged_hi};
  auto pos = ivs_.erase(first, last);
  ivs_.insert(pos, delta.merged);
  return delta;
}

IntervalSet::PreviewView IntervalSet::preview_insert_view(Time lo,
                                                          Time hi) const {
  assert(lo <= hi);
  PreviewView preview;
  Time merged_lo = lo;
  Time merged_hi = hi;

  auto first = std::lower_bound(
      ivs_.begin(), ivs_.end(), lo,
      [](const Interval& iv, Time value) { return iv.hi < value - 1; });
  auto last = first;
  while (last != ivs_.end() && last->lo <= hi + 1) ++last;

  if (first != last) {
    merged_lo = std::min(merged_lo, first->lo);
    merged_hi = std::max(merged_hi, std::prev(last)->hi);
  }
  preview.absorbed = std::span<const Interval>(first, last);
  preview.merged = Interval{merged_lo, merged_hi};
  if (first != ivs_.begin()) {
    preview.has_left = true;
    preview.left = *std::prev(first);
  }
  if (last != ivs_.end()) {
    preview.has_right = true;
    preview.right = *last;
  }
  return preview;
}

void IntervalSet::erase_covered(Time lo, Time hi) {
  assert(lo <= hi);
  auto it = std::lower_bound(
      ivs_.begin(), ivs_.end(), lo,
      [](const Interval& iv, Time value) { return iv.hi < value; });
  assert(it != ivs_.end() && it->lo <= lo && hi <= it->hi &&
         "erase_covered requires the range to be fully inside one interval");
  const Interval cover = *it;
  it = ivs_.erase(it);
  if (hi < cover.hi) it = ivs_.insert(it, Interval{hi + 1, cover.hi});
  if (cover.lo < lo) ivs_.insert(it, Interval{cover.lo, lo - 1});
}

bool IntervalSet::contains(Time t) const {
  auto it = std::lower_bound(
      ivs_.begin(), ivs_.end(), t,
      [](const Interval& iv, Time value) { return iv.hi < value; });
  return it != ivs_.end() && it->lo <= t;
}

bool IntervalSet::intersects(Time lo, Time hi) const {
  assert(lo <= hi);
  auto it = std::lower_bound(
      ivs_.begin(), ivs_.end(), lo,
      [](const Interval& iv, Time value) { return iv.hi < value; });
  return it != ivs_.end() && it->lo <= hi;
}

Time IntervalSet::total_length() const {
  Time total = 0;
  for (const Interval& iv : ivs_) total += iv.length();
  return total;
}

std::vector<Interval> IntervalSet::gaps() const {
  std::vector<Interval> result;
  for (std::size_t i = 1; i < ivs_.size(); ++i) {
    result.push_back(Interval{ivs_[i - 1].hi + 1, ivs_[i].lo - 1});
  }
  return result;
}

Interval IntervalSet::span() const {
  assert(!empty());
  return Interval{ivs_.front().lo, ivs_.back().hi};
}

}  // namespace esva
