// Fixed log-bucket latency histogram (HDR-histogram style) for the hot
// streaming paths: recording is a relaxed atomic increment into a
// statically-sized bucket array, so concurrent writers never block and a
// snapshot can be taken at any time without stopping them.
//
// Bucket layout: bucket 0 is the underflow bin [0, kMinMs); then kOctaves
// octaves starting at kMinMs, each split into kSubBuckets linear sub-buckets
// (so the relative bucket width is bounded by 1/kSubBuckets ≈ 6%, and any
// quantile read off the histogram is within one bucket width of the exact
// order statistic); the last bucket absorbs everything at or above
// kMinMs·2^kOctaves (~67 s). The octave index comes from std::frexp and the
// sub-bucket from exact linear arithmetic, so bucketing is deterministic
// across platforms — no std::log2 rounding differences.
//
// Quantiles use the same rank convention as stats::quantile (h = p·(n−1)
// with linear interpolation between order statistics), interpolated within
// the bucket holding the target rank and clamped to the exact [min, max]
// observed, so a single-sample histogram reports that sample exactly and
// the histogram path agrees with the sort-based batch computation within one
// bucket width (tests/test_histogram_obs.cpp pins this).

#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace esva {

/// Point-in-time copy of a LatencyHistogram: plain data, safe to keep after
/// the histogram is gone. Not a consistent cut under concurrent recording —
/// counts may lag min/max by a few samples — which is fine for reporting.
struct HistogramSnapshot {
  /// One count per bucket (LatencyHistogram::kNumBuckets; last = overflow).
  std::vector<std::uint64_t> counts;
  std::uint64_t total = 0;
  double min_ms = 0.0;  ///< exact smallest recorded value (0 when empty)
  double max_ms = 0.0;  ///< exact largest recorded value (0 when empty)

  bool empty() const { return total == 0; }

  /// Sample p-quantile (p clamped to [0, 1]); 0 when empty. Same rank
  /// formula as stats::quantile, interpolated within the target bucket and
  /// clamped to [min_ms, max_ms].
  double quantile(double p) const;

  double p50() const { return quantile(0.50); }
  double p90() const { return quantile(0.90); }
  double p99() const { return quantile(0.99); }
};

/// Lock-free fixed-bucket latency histogram, milliseconds.
class LatencyHistogram {
 public:
  static constexpr double kMinMs = 1e-3;  ///< 1 µs — lowest tracked latency
  static constexpr int kSubBuckets = 16;  ///< linear bins per octave
  static constexpr int kOctaves = 26;     ///< kMinMs·2^26 ≈ 67 s tracked
  /// Underflow + log buckets + overflow.
  static constexpr int kNumBuckets = 2 + kOctaves * kSubBuckets;

  LatencyHistogram() = default;
  LatencyHistogram(const LatencyHistogram&) = delete;
  LatencyHistogram& operator=(const LatencyHistogram&) = delete;

  /// Records one sample. Thread-safe, wait-free (relaxed atomics plus a
  /// CAS loop for the exact min/max).
  void record(double ms);

  std::uint64_t total() const {
    return total_.load(std::memory_order_relaxed);
  }

  HistogramSnapshot snapshot() const;

  /// Bucket index for a value; NaN and negatives land in the underflow bin.
  static int bucket_index(double ms);
  /// Inclusive lower edge of a bucket (0 for the underflow bin).
  static double bucket_lower(int bucket);
  /// Exclusive upper edge of a bucket (+inf for the overflow bin).
  static double bucket_upper(int bucket);

 private:
  std::atomic<std::uint64_t> counts_[kNumBuckets] = {};
  std::atomic<std::uint64_t> total_{0};
  /// ±inf sentinels make the CAS min/max race-free without an "empty" flag;
  /// snapshot() maps the empty histogram back to 0/0.
  std::atomic<double> min_ms_{std::numeric_limits<double>::infinity()};
  std::atomic<double> max_ms_{-std::numeric_limits<double>::infinity()};
};

}  // namespace esva
