#include "obs/histogram.h"

#include <algorithm>
#include <cmath>

namespace esva {

int LatencyHistogram::bucket_index(double ms) {
  // NaN, negatives and sub-resolution values all land in the underflow bin
  // (the !(>=) form catches NaN without a separate isnan branch).
  if (!(ms >= kMinMs)) return 0;
  const double r = ms / kMinMs;  // >= 1 by the guard above
  int exp = 0;
  std::frexp(r, &exp);  // r = m·2^exp with m in [0.5, 1)
  const int octave = exp - 1;
  if (octave >= kOctaves) return kNumBuckets - 1;
  // u = r / 2^octave lies in [1, 2); the sub-bucket is linear within it.
  const double u = std::ldexp(r, -octave);
  const int sub = std::min(kSubBuckets - 1,
                           static_cast<int>((u - 1.0) * kSubBuckets));
  return 1 + octave * kSubBuckets + sub;
}

double LatencyHistogram::bucket_lower(int bucket) {
  if (bucket <= 0) return 0.0;
  if (bucket >= kNumBuckets - 1)
    return kMinMs * std::ldexp(1.0, kOctaves);
  const int octave = (bucket - 1) / kSubBuckets;
  const int sub = (bucket - 1) % kSubBuckets;
  return kMinMs * std::ldexp(1.0, octave) *
         (1.0 + static_cast<double>(sub) / kSubBuckets);
}

double LatencyHistogram::bucket_upper(int bucket) {
  if (bucket < 0) return 0.0;
  if (bucket >= kNumBuckets - 1)
    return std::numeric_limits<double>::infinity();
  return bucket_lower(bucket + 1);
}

namespace {

/// CAS loop updating an atomic double toward the more extreme value.
template <typename Better>
void update_extreme(std::atomic<double>& slot, double value, Better better) {
  double current = slot.load(std::memory_order_relaxed);
  while (better(value, current) &&
         !slot.compare_exchange_weak(current, value,
                                     std::memory_order_relaxed)) {
  }
}

}  // namespace

void LatencyHistogram::record(double ms) {
  counts_[bucket_index(ms)].fetch_add(1, std::memory_order_relaxed);
  total_.fetch_add(1, std::memory_order_relaxed);
  update_extreme(min_ms_, ms, [](double a, double b) { return a < b; });
  update_extreme(max_ms_, ms, [](double a, double b) { return a > b; });
}

HistogramSnapshot LatencyHistogram::snapshot() const {
  HistogramSnapshot snap;
  snap.counts.resize(kNumBuckets);
  std::uint64_t total = 0;
  for (int b = 0; b < kNumBuckets; ++b) {
    snap.counts[static_cast<std::size_t>(b)] =
        counts_[b].load(std::memory_order_relaxed);
    total += snap.counts[static_cast<std::size_t>(b)];
  }
  // Recompute from the buckets (not total_) so the snapshot is internally
  // consistent even when writers raced the copy loop.
  snap.total = total;
  if (total > 0) {
    snap.min_ms = min_ms_.load(std::memory_order_relaxed);
    snap.max_ms = max_ms_.load(std::memory_order_relaxed);
  }
  return snap;
}

double HistogramSnapshot::quantile(double p) const {
  if (total == 0) return 0.0;
  p = std::clamp(p, 0.0, 1.0);
  // The extremes are tracked exactly; don't bucket-round them (matters for
  // the unbounded overflow bin, where interpolation has no finite edge).
  if (p == 0.0) return min_ms;
  if (p == 1.0) return max_ms;
  // Same rank convention as stats::quantile: the exact answer interpolates
  // between order statistics floor(h) and ceil(h).
  const double h = p * static_cast<double>(total - 1);
  const auto target = static_cast<std::uint64_t>(h);
  std::uint64_t cum = 0;
  for (std::size_t b = 0; b < counts.size(); ++b) {
    const std::uint64_t c = counts[b];
    if (c == 0) continue;
    if (target < cum + c) {
      const int bucket = static_cast<int>(b);
      const double lower = LatencyHistogram::bucket_lower(bucket);
      double upper = LatencyHistogram::bucket_upper(bucket);
      // The overflow bin has no finite edge; the exact max bounds it.
      if (!std::isfinite(upper)) upper = std::max(max_ms, lower);
      // Spread the bucket's mass evenly and interpolate at the fractional
      // rank, centered so a single-sample bucket reads its midpoint...
      const double pos =
          (h - static_cast<double>(cum) + 0.5) / static_cast<double>(c);
      const double v = lower + (upper - lower) * std::clamp(pos, 0.0, 1.0);
      // ...then clamp to the exact extremes, so one-sample histograms (and
      // the p0/p100 ends) report recorded values exactly.
      return std::clamp(v, min_ms, max_ms);
    }
    cum += c;
  }
  return max_ms;
}

}  // namespace esva
