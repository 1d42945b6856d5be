// Observability pillar 1: a process-wide metrics registry.
//
// Named counters, gauges and duration timers with stable handles: looking a
// metric up once (registry lock) returns a reference that is then updated
// lock-free (counters/gauges) or under a per-metric mutex (timers), so hot
// paths pay a name lookup only at setup time. Registries snapshot to JSON
// (`esva allocate --stats`) and CSV for offline analysis.
//
// Overhead contract (see docs/OBSERVABILITY.md): code instrumented against a
// *null* registry pointer must not pay for observability — every call site in
// the library guards on `metrics != nullptr`, and ScopedTimer accepts a null
// timer and compiles to two branch-predicted no-ops.

#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/histogram.h"

namespace esva {

/// Monotonically increasing event count (thread-safe, lock-free).
class Counter {
 public:
  void inc(std::int64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  std::int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Last-written instantaneous value (thread-safe).
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Duration aggregate: count / total / min / max in milliseconds, optionally
/// backed by a LatencyHistogram for percentile extraction.
class Timer {
 public:
  void record_ms(double ms);

  struct Stats {
    std::int64_t count = 0;
    double total_ms = 0.0;
    double min_ms = 0.0;
    double max_ms = 0.0;
    double mean_ms() const {
      return count > 0 ? total_ms / static_cast<double>(count) : 0.0;
    }
  };
  Stats stats() const;

  /// Attaches a latency histogram; subsequent record_ms() calls also bucket
  /// the sample, so stats() gains p50/p90/p99 via histogram_snapshot().
  /// Idempotent; samples recorded before the call are not back-filled.
  void enable_histogram();
  bool has_histogram() const;
  /// Snapshot of the backing histogram (empty snapshot when none).
  HistogramSnapshot histogram_snapshot() const;

 private:
  mutable std::mutex mutex_;
  Stats stats_;
  std::unique_ptr<LatencyHistogram> histogram_;
};

/// RAII wall-clock probe: records the elapsed time into `timer` on
/// destruction. A null timer makes construction and destruction no-ops, so
/// hot paths can be instrumented unconditionally.
class ScopedTimer {
 public:
  explicit ScopedTimer(Timer* timer)
      : timer_(timer),
        start_(timer ? std::chrono::steady_clock::now()
                     : std::chrono::steady_clock::time_point{}) {}
  ~ScopedTimer() {
    if (!timer_) return;
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    timer_->record_ms(
        std::chrono::duration<double, std::milli>(elapsed).count());
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Timer* timer_;
  std::chrono::steady_clock::time_point start_;
};

/// Thread-safe name -> metric registry. Handles returned by counter() /
/// gauge() / timer() remain valid for the registry's lifetime (metrics are
/// heap-allocated and never erased).
class MetricsRegistry {
 public:
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Timer& timer(const std::string& name);
  /// timer(name) with a latency histogram attached (idempotent).
  Timer& histogram_timer(const std::string& name);

  /// One-shot conveniences (lookup + update).
  void inc(const std::string& name, std::int64_t n = 1) { counter(name).inc(n); }
  void set(const std::string& name, double v) { gauge(name).set(v); }

  /// Point-in-time copy of every metric, sorted by name within each kind.
  struct TimerEntry {
    std::string name;
    Timer::Stats stats;
    bool has_histogram = false;
    HistogramSnapshot histogram;  ///< empty unless has_histogram
  };
  struct Snapshot {
    std::vector<std::pair<std::string, std::int64_t>> counters;
    std::vector<std::pair<std::string, double>> gauges;
    std::vector<TimerEntry> timers;
  };
  Snapshot snapshot() const;

  /// Serializes a snapshot: one JSON object with "counters" / "gauges" /
  /// "timers" sections (histogram-backed timers gain p50/p90/p99_ms), or
  /// flat CSV rows `kind,name,field,value` (RFC 4180 quoting).
  std::string to_json() const;
  void write_csv(std::ostream& out) const;

  /// Prometheus text exposition format, version 0.0.4: names sanitized to
  /// [a-zA-Z0-9_] and prefixed `esva_`, counters suffixed `_total`, timers
  /// exposed as summaries (quantile lines when histogram-backed, then _sum
  /// and _count). Families are sorted by exposed name for stable output.
  std::string to_prometheus() const;

  /// Drops every registered metric (handles become dangling; test-only).
  void reset();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Timer>> timers_;
};

}  // namespace esva
