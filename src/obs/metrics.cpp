#include "obs/metrics.h"

#include <algorithm>
#include <cctype>
#include <ostream>
#include <sstream>
#include <utility>

#include "util/csv.h"
#include "util/json.h"

namespace esva {

void Timer::record_ms(double ms) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (stats_.count == 0 || ms < stats_.min_ms) stats_.min_ms = ms;
  if (stats_.count == 0 || ms > stats_.max_ms) stats_.max_ms = ms;
  ++stats_.count;
  stats_.total_ms += ms;
  if (histogram_) histogram_->record(ms);
}

Timer::Stats Timer::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

void Timer::enable_histogram() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!histogram_) histogram_ = std::make_unique<LatencyHistogram>();
}

bool Timer::has_histogram() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return histogram_ != nullptr;
}

HistogramSnapshot Timer::histogram_snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return histogram_ ? histogram_->snapshot() : HistogramSnapshot{};
}

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Timer& MetricsRegistry::timer(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = timers_[name];
  if (!slot) slot = std::make_unique<Timer>();
  return *slot;
}

Timer& MetricsRegistry::histogram_timer(const std::string& name) {
  Timer& t = timer(name);
  t.enable_histogram();
  return t;
}

MetricsRegistry::Snapshot MetricsRegistry::snapshot() const {
  Snapshot snap;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [name, c] : counters_) snap.counters.emplace_back(name, c->value());
  for (const auto& [name, g] : gauges_) snap.gauges.emplace_back(name, g->value());
  for (const auto& [name, t] : timers_) {
    TimerEntry entry;
    entry.name = name;
    entry.stats = t->stats();
    entry.has_histogram = t->has_histogram();
    if (entry.has_histogram) entry.histogram = t->histogram_snapshot();
    snap.timers.push_back(std::move(entry));
  }
  return snap;
}

namespace {

/// Doubles in metric output: plain decimal, enough digits to round-trip.
std::string fmt_number(double v) {
  std::ostringstream out;
  out.precision(12);
  out << v;
  return out.str();
}

/// Prometheus metric name: [a-zA-Z0-9_] only, prefixed with the esva_
/// namespace (which also guarantees a legal leading character).
std::string prometheus_name(const std::string& name) {
  std::string out = "esva_";
  for (char c : name) {
    const auto u = static_cast<unsigned char>(c);
    out += std::isalnum(u) ? c : '_';
  }
  return out;
}

/// Prometheus sample values: shortest round-trip decimal.
std::string prom_number(double v) { return CsvWriter::field_to_string(v); }

}  // namespace

std::string MetricsRegistry::to_json() const {
  const Snapshot snap = snapshot();
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : snap.counters) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    out += json::escape(name);
    out += ": " + std::to_string(value);
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"gauges\": {";
  first = true;
  for (const auto& [name, value] : snap.gauges) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    out += json::escape(name);
    out += ": " + fmt_number(value);
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"timers\": {";
  first = true;
  for (const TimerEntry& entry : snap.timers) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    out += json::escape(entry.name);
    out += ": {\"count\": " + std::to_string(entry.stats.count) +
           ", \"total_ms\": " + fmt_number(entry.stats.total_ms) +
           ", \"mean_ms\": " + fmt_number(entry.stats.mean_ms()) +
           ", \"min_ms\": " + fmt_number(entry.stats.min_ms) +
           ", \"max_ms\": " + fmt_number(entry.stats.max_ms);
    if (entry.has_histogram) {
      out += ", \"p50_ms\": " + fmt_number(entry.histogram.p50()) +
             ", \"p90_ms\": " + fmt_number(entry.histogram.p90()) +
             ", \"p99_ms\": " + fmt_number(entry.histogram.p99());
    }
    out += "}";
  }
  out += first ? "}\n" : "\n  }\n";
  out += "}\n";
  return out;
}

void MetricsRegistry::write_csv(std::ostream& out) const {
  const Snapshot snap = snapshot();
  out << "kind,name,field,value\n";
  CsvWriter writer(out);
  for (const auto& [name, value] : snap.counters)
    writer.typed_row("counter", name, "value", static_cast<long long>(value));
  for (const auto& [name, value] : snap.gauges)
    writer.typed_row("gauge", name, "value", value);
  for (const TimerEntry& entry : snap.timers) {
    const Timer::Stats& stats = entry.stats;
    writer.typed_row("timer", entry.name, "count",
                     static_cast<long long>(stats.count));
    writer.typed_row("timer", entry.name, "total_ms", stats.total_ms);
    writer.typed_row("timer", entry.name, "mean_ms", stats.mean_ms());
    writer.typed_row("timer", entry.name, "min_ms", stats.min_ms);
    writer.typed_row("timer", entry.name, "max_ms", stats.max_ms);
    if (entry.has_histogram) {
      writer.typed_row("timer", entry.name, "p50_ms", entry.histogram.p50());
      writer.typed_row("timer", entry.name, "p90_ms", entry.histogram.p90());
      writer.typed_row("timer", entry.name, "p99_ms", entry.histogram.p99());
    }
  }
}

std::string MetricsRegistry::to_prometheus() const {
  const Snapshot snap = snapshot();
  // One (exposed name, text block) pair per family, globally sorted by the
  // exposed name so output order is stable regardless of metric kind.
  std::vector<std::pair<std::string, std::string>> families;
  for (const auto& [name, value] : snap.counters) {
    const std::string prom = prometheus_name(name) + "_total";
    families.emplace_back(
        prom, "# TYPE " + prom + " counter\n" + prom + " " +
                  std::to_string(value) + "\n");
  }
  for (const auto& [name, value] : snap.gauges) {
    const std::string prom = prometheus_name(name);
    families.emplace_back(prom, "# TYPE " + prom + " gauge\n" + prom + " " +
                                    prom_number(value) + "\n");
  }
  for (const TimerEntry& entry : snap.timers) {
    const std::string prom = prometheus_name(entry.name);
    std::string block = "# TYPE " + prom + " summary\n";
    if (entry.has_histogram && !entry.histogram.empty()) {
      block += prom + "{quantile=\"0.5\"} " +
               prom_number(entry.histogram.p50()) + "\n";
      block += prom + "{quantile=\"0.9\"} " +
               prom_number(entry.histogram.p90()) + "\n";
      block += prom + "{quantile=\"0.99\"} " +
               prom_number(entry.histogram.p99()) + "\n";
    }
    block += prom + "_sum " + prom_number(entry.stats.total_ms) + "\n";
    block += prom + "_count " + std::to_string(entry.stats.count) + "\n";
    families.emplace_back(prom, std::move(block));
  }
  std::sort(families.begin(), families.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::string out;
  for (const auto& [name, block] : families) out += block;
  return out;
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  counters_.clear();
  gauges_.clear();
  timers_.clear();
}

}  // namespace esva
