#include "util/interval_set.h"

#include <algorithm>
#include <cassert>

namespace esva {

void IntervalSet::insert(Time lo, Time hi) {
  assert(lo >= 1);
  const PreviewView preview = preview_insert_view(lo, hi);
  const auto first = ivs_.begin() + (preview.absorbed.data() - ivs_.data());
  if (preview.absorbed.empty()) {
    ivs_.insert(first, preview.merged);
    return;
  }
  *first = preview.merged;
  ivs_.erase(first + 1, first + std::ssize(preview.absorbed));
}

IntervalSet::PreviewView IntervalSet::preview_insert_view(Time lo,
                                                          Time hi) const {
  assert(lo <= hi);
  PreviewView preview;
  Time merged_lo = lo;
  Time merged_hi = hi;

  // The absorbed run: from the first interval whose hi >= lo - 1 (it
  // overlaps or is left-adjacent) through the last whose lo - 1 <= hi (it
  // overlaps or is right-adjacent). Subtracting from a stored lo (>= 1)
  // rather than adding to hi cannot overflow, even at the largest Time.
  auto first = std::lower_bound(
      ivs_.begin(), ivs_.end(), lo,
      [](const Interval& iv, Time value) { return iv.hi < value - 1; });
  auto last = first;
  while (last != ivs_.end() && last->lo - 1 <= hi) ++last;

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

bool IntervalSet::contains(Time t) const {
  auto it = std::lower_bound(
      ivs_.begin(), ivs_.end(), t,
      [](const Interval& iv, Time value) { return iv.hi < value; });
  return it != ivs_.end() && it->lo <= t;
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

}  // namespace esva
