// The log-bucket latency histogram (obs/histogram.h): bucket-edge geometry,
// the edge cases (empty, single sample, underflow, overflow), the
// one-bucket-width agreement between histogram quantiles and the exact
// sort-based stats::quantile, concurrent recording (this binary runs under
// TSan in CI), and the Timer/registry integration.

#include "obs/histogram.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "stats/summary.h"
#include "util/rng.h"

namespace esva {
namespace {

TEST(HistogramBuckets, EdgesAreMonotoneAndIndexRoundTrips) {
  double prev_upper = 0.0;
  for (int b = 0; b < LatencyHistogram::kNumBuckets; ++b) {
    const double lower = LatencyHistogram::bucket_lower(b);
    const double upper = LatencyHistogram::bucket_upper(b);
    ASSERT_LT(lower, upper) << "bucket " << b;
    if (b > 0) {
      ASSERT_DOUBLE_EQ(lower, prev_upper) << "bucket " << b;
    }
    prev_upper = upper;
    // A point safely inside the bucket maps back to it.
    const double inside = std::isfinite(upper)
                              ? lower + (upper - lower) / 2
                              : lower * 2;
    ASSERT_EQ(LatencyHistogram::bucket_index(inside), b) << "bucket " << b;
  }
  EXPECT_FALSE(
      std::isfinite(LatencyHistogram::bucket_upper(
          LatencyHistogram::kNumBuckets - 1)));
}

TEST(HistogramBuckets, RelativeWidthIsBoundedBySubBucketCount) {
  // Buckets above the underflow bin are at most lower/kSubBuckets wide — the
  // guarantee behind "quantiles within one bucket width ≈ 6%".
  for (int b = 1; b < LatencyHistogram::kNumBuckets - 1; ++b) {
    const double lower = LatencyHistogram::bucket_lower(b);
    const double width = LatencyHistogram::bucket_upper(b) - lower;
    EXPECT_LE(width, lower / LatencyHistogram::kSubBuckets * (1 + 1e-12))
        << "bucket " << b;
  }
}

TEST(Histogram, EmptySnapshotIsAllZero) {
  LatencyHistogram hist;
  EXPECT_EQ(hist.total(), 0u);
  const HistogramSnapshot snap = hist.snapshot();
  EXPECT_TRUE(snap.empty());
  EXPECT_EQ(snap.total, 0u);
  EXPECT_EQ(snap.min_ms, 0.0);
  EXPECT_EQ(snap.max_ms, 0.0);
  EXPECT_EQ(snap.quantile(0.5), 0.0);
  EXPECT_EQ(snap.p99(), 0.0);
}

TEST(Histogram, SingleSampleReportsItselfAtEveryQuantile) {
  LatencyHistogram hist;
  hist.record(3.7);
  const HistogramSnapshot snap = hist.snapshot();
  EXPECT_EQ(snap.total, 1u);
  EXPECT_EQ(snap.min_ms, 3.7);
  EXPECT_EQ(snap.max_ms, 3.7);
  // The [min, max] clamp makes the lone sample exact, not bucket-rounded.
  EXPECT_EQ(snap.quantile(0.0), 3.7);
  EXPECT_EQ(snap.p50(), 3.7);
  EXPECT_EQ(snap.p99(), 3.7);
  EXPECT_EQ(snap.quantile(1.0), 3.7);
}

TEST(Histogram, UnderflowNegativeAndNanLandInBucketZero) {
  EXPECT_EQ(LatencyHistogram::bucket_index(0.0), 0);
  EXPECT_EQ(LatencyHistogram::bucket_index(-1.0), 0);
  EXPECT_EQ(LatencyHistogram::bucket_index(LatencyHistogram::kMinMs / 2), 0);
  EXPECT_EQ(LatencyHistogram::bucket_index(std::nan("")), 0);
  EXPECT_EQ(LatencyHistogram::bucket_index(LatencyHistogram::kMinMs), 1);

  LatencyHistogram hist;
  hist.record(0.0);
  hist.record(5e-4);
  const HistogramSnapshot snap = hist.snapshot();
  EXPECT_EQ(snap.counts[0], 2u);
  EXPECT_EQ(snap.min_ms, 0.0);
  EXPECT_EQ(snap.max_ms, 5e-4);
  EXPECT_LE(snap.p50(), LatencyHistogram::kMinMs);
}

TEST(Histogram, OverflowBucketClampsToObservedMax) {
  LatencyHistogram hist;
  const double huge = 1e9;  // far beyond kMinMs·2^kOctaves ≈ 67 s
  EXPECT_EQ(LatencyHistogram::bucket_index(huge),
            LatencyHistogram::kNumBuckets - 1);
  hist.record(1.0);
  hist.record(huge);
  const HistogramSnapshot snap = hist.snapshot();
  EXPECT_EQ(snap.counts[static_cast<std::size_t>(
                LatencyHistogram::kNumBuckets - 1)],
            1u);
  EXPECT_EQ(snap.max_ms, huge);
  // The overflow bin has no finite upper edge; the exact max bounds it.
  EXPECT_EQ(snap.quantile(1.0), huge);
  EXPECT_LE(snap.p99(), huge);
}

TEST(Histogram, QuantilesAgreeWithExactSortWithinOneBucketWidth) {
  // Log-uniform latencies over ~7 decades, deterministic seed. The histogram
  // quantile must land within the bucket span covered by the two order
  // statistics the exact computation interpolates between.
  Rng rng(2024);
  std::vector<double> samples;
  for (int i = 0; i < 5000; ++i) {
    const double u = rng.next_double();
    samples.push_back(std::exp(std::log(1e-3) +
                               u * (std::log(3e4) - std::log(1e-3))));
  }
  LatencyHistogram hist;
  for (double ms : samples) hist.record(ms);
  const HistogramSnapshot snap = hist.snapshot();

  std::vector<double> sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  for (const double p : {0.0, 0.1, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0}) {
    const double exact = quantile(samples, p);
    const double approx = snap.quantile(p);
    const double h = p * static_cast<double>(sorted.size() - 1);
    const auto lo_rank = static_cast<std::size_t>(std::floor(h));
    const auto hi_rank = static_cast<std::size_t>(std::ceil(h));
    // Both values lie within [lower(bucket of lo), upper(bucket of hi)].
    const double tol =
        LatencyHistogram::bucket_upper(
            LatencyHistogram::bucket_index(sorted[hi_rank])) -
        LatencyHistogram::bucket_lower(
            LatencyHistogram::bucket_index(sorted[lo_rank]));
    EXPECT_NEAR(approx, exact, tol + 1e-12) << "p=" << p;
  }
}

TEST(Histogram, ConcurrentRecordingIsLossless) {
  // 8 writers × 10k samples; run under TSan in CI (thread-sanitizer job).
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  LatencyHistogram hist;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&hist, t] {
      for (int i = 0; i < kPerThread; ++i) {
        hist.record(0.001 * static_cast<double>(t + 1) +
                    0.01 * static_cast<double>(i % 100));
      }
    });
  }
  for (std::thread& th : threads) th.join();
  const HistogramSnapshot snap = hist.snapshot();
  EXPECT_EQ(snap.total, static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(hist.total(), snap.total);
  EXPECT_EQ(snap.min_ms, 0.001);
  EXPECT_EQ(snap.max_ms, 0.001 * kThreads + 0.01 * 99);
}

TEST(TimerHistogram, BackingIsOptInAndFeedsPercentiles) {
  MetricsRegistry registry;
  Timer& plain = registry.timer("plain_ms");
  plain.record_ms(1.0);
  EXPECT_FALSE(plain.has_histogram());
  EXPECT_TRUE(plain.histogram_snapshot().empty());

  Timer& backed = registry.histogram_timer("backed_ms");
  EXPECT_TRUE(backed.has_histogram());
  // histogram_timer() on the same name returns the same timer, still backed.
  EXPECT_EQ(&registry.histogram_timer("backed_ms"), &backed);
  EXPECT_EQ(&registry.timer("backed_ms"), &backed);
  for (int i = 1; i <= 100; ++i) backed.record_ms(static_cast<double>(i));
  const Timer::Stats stats = backed.stats();
  const HistogramSnapshot snap = backed.histogram_snapshot();
  EXPECT_EQ(static_cast<std::uint64_t>(stats.count), snap.total);
  EXPECT_EQ(snap.min_ms, stats.min_ms);
  EXPECT_EQ(snap.max_ms, stats.max_ms);
  EXPECT_GE(snap.p50(), snap.min_ms);
  EXPECT_LE(snap.p50(), snap.p99());
  EXPECT_LE(snap.p99(), snap.max_ms);

  // The registry snapshot carries the histogram only where one is backed.
  const MetricsRegistry::Snapshot reg = registry.snapshot();
  ASSERT_EQ(reg.timers.size(), 2u);
  EXPECT_EQ(reg.timers[0].name, "backed_ms");
  EXPECT_TRUE(reg.timers[0].has_histogram);
  EXPECT_EQ(reg.timers[0].histogram.total, 100u);
  EXPECT_EQ(reg.timers[1].name, "plain_ms");
  EXPECT_FALSE(reg.timers[1].has_histogram);
}

}  // namespace
}  // namespace esva
