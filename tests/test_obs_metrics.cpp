#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <chrono>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "util/csv.h"

namespace esva {
namespace {

TEST(Counter, StartsAtZeroAndAccumulates) {
  Counter c;
  EXPECT_EQ(c.value(), 0);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42);
}

TEST(Gauge, KeepsLastWrittenValue) {
  Gauge g;
  EXPECT_EQ(g.value(), 0.0);
  g.set(3.5);
  g.set(-1.25);
  EXPECT_EQ(g.value(), -1.25);
}

TEST(Timer, AggregatesCountTotalMinMax) {
  Timer t;
  EXPECT_EQ(t.stats().count, 0);
  EXPECT_EQ(t.stats().mean_ms(), 0.0);  // no division by zero
  t.record_ms(4.0);
  t.record_ms(1.0);
  t.record_ms(7.0);
  const Timer::Stats s = t.stats();
  EXPECT_EQ(s.count, 3);
  EXPECT_DOUBLE_EQ(s.total_ms, 12.0);
  EXPECT_DOUBLE_EQ(s.min_ms, 1.0);
  EXPECT_DOUBLE_EQ(s.max_ms, 7.0);
  EXPECT_DOUBLE_EQ(s.mean_ms(), 4.0);
}

TEST(ScopedTimer, RecordsOneNonNegativeSampleOnDestruction) {
  Timer t;
  {
    ScopedTimer probe(&t);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  const Timer::Stats s = t.stats();
  ASSERT_EQ(s.count, 1);
  EXPECT_GE(s.total_ms, 0.0);
}

TEST(ScopedTimer, NullTimerIsANoOp) {
  ScopedTimer probe(nullptr);  // must not crash on construction/destruction
}

TEST(MetricsRegistry, HandlesAreStableAcrossLookups) {
  MetricsRegistry registry;
  Counter& a = registry.counter("allocations");
  a.inc(3);
  Counter& b = registry.counter("allocations");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(b.value(), 3);

  Gauge& g1 = registry.gauge("load");
  g1.set(0.75);
  EXPECT_EQ(&g1, &registry.gauge("load"));

  Timer& t1 = registry.timer("alloc_ms");
  t1.record_ms(5.0);
  EXPECT_EQ(&t1, &registry.timer("alloc_ms"));
  EXPECT_EQ(registry.timer("alloc_ms").stats().count, 1);
}

TEST(MetricsRegistry, SameNameDifferentKindsAreSeparateMetrics) {
  MetricsRegistry registry;
  registry.inc("x", 2);
  registry.set("x", 9.0);
  registry.timer("x").record_ms(1.0);
  EXPECT_EQ(registry.counter("x").value(), 2);
  EXPECT_EQ(registry.gauge("x").value(), 9.0);
  EXPECT_EQ(registry.timer("x").stats().count, 1);
}

TEST(MetricsRegistry, SnapshotIsSortedByName) {
  MetricsRegistry registry;
  registry.inc("zebra");
  registry.inc("alpha", 5);
  registry.set("mid", 1.5);
  const MetricsRegistry::Snapshot snap = registry.snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].first, "alpha");
  EXPECT_EQ(snap.counters[0].second, 5);
  EXPECT_EQ(snap.counters[1].first, "zebra");
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_EQ(snap.gauges[0].first, "mid");
}

TEST(MetricsRegistry, JsonContainsAllSectionsAndValues) {
  MetricsRegistry registry;
  registry.inc("vm.count", 7);
  registry.set("cpu.load", 0.5);
  registry.timer("alloc_ms").record_ms(2.0);
  const std::string json = registry.to_json();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"timers\""), std::string::npos);
  EXPECT_NE(json.find("\"vm.count\""), std::string::npos);
  EXPECT_NE(json.find("7"), std::string::npos);
  EXPECT_NE(json.find("\"alloc_ms\""), std::string::npos);
  EXPECT_NE(json.find("\"count\""), std::string::npos);
}

TEST(MetricsRegistry, CsvEmitsOneRowPerField) {
  MetricsRegistry registry;
  registry.inc("events", 3);
  registry.set("level", 2.5);
  registry.timer("t").record_ms(1.0);
  std::ostringstream out;
  registry.write_csv(out);
  const std::string csv = out.str();
  EXPECT_NE(csv.find("counter,events,value,3"), std::string::npos);
  EXPECT_NE(csv.find("gauge,level,value,2.5"), std::string::npos);
  EXPECT_NE(csv.find("timer,t,count,1"), std::string::npos);
}

TEST(MetricsRegistry, ResetDropsEverything) {
  MetricsRegistry registry;
  registry.inc("a", 10);
  registry.reset();
  const MetricsRegistry::Snapshot snap = registry.snapshot();
  EXPECT_TRUE(snap.counters.empty());
  EXPECT_EQ(registry.counter("a").value(), 0);  // fresh metric after reset
}

TEST(MetricsRegistry, ConcurrentIncrementsAreLossless) {
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  constexpr int kIncrementsPerThread = 10000;
  Counter& hot = registry.counter("hot");
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&registry, &hot] {
      for (int i = 0; i < kIncrementsPerThread; ++i) {
        hot.inc();
        // Mixed-path hammering: lookups and timer records race too.
        if (i % 1000 == 0) {
          registry.inc("cold");
          registry.timer("t").record_ms(0.001);
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(hot.value(), kThreads * kIncrementsPerThread);
  EXPECT_EQ(registry.counter("cold").value(),
            kThreads * (kIncrementsPerThread / 1000));
  EXPECT_EQ(registry.timer("t").stats().count,
            kThreads * (kIncrementsPerThread / 1000));
}

// No process-wide registry: callers hand one in explicitly, and two
// registries share no metric even under the same name.
TEST(MetricsRegistry, RegistriesShareNoMetrics) {
  MetricsRegistry a;
  MetricsRegistry b;
  a.inc("requests", 3);
  EXPECT_NE(&a.counter("requests"), &b.counter("requests"));
  EXPECT_EQ(a.counter("requests").value(), 3);
  EXPECT_EQ(b.counter("requests").value(), 0);
}

// --- export hygiene: quoting, escaping, exposition format -------------------

TEST(MetricsRegistry, CsvQuotesNamesWithCommasAndQuotes) {
  MetricsRegistry registry;
  registry.inc("events,total", 3);
  registry.set("say \"hi\"", 1.0);
  std::ostringstream out;
  registry.write_csv(out);
  std::istringstream lines(out.str());
  std::string line;
  bool saw_counter = false;
  bool saw_gauge = false;
  while (std::getline(lines, line)) {
    // Every row must parse back to exactly four fields despite the embedded
    // comma/quote (RFC 4180 quoting round-trips through parse_csv_line).
    const std::vector<std::string> fields = parse_csv_line(line);
    ASSERT_EQ(fields.size(), 4u) << line;
    if (fields[1] == "events,total") {
      saw_counter = true;
      EXPECT_EQ(fields[0], "counter");
      EXPECT_EQ(fields[3], "3");
      EXPECT_NE(line.find("\"events,total\""), std::string::npos);
    }
    if (fields[1] == "say \"hi\"") {
      saw_gauge = true;
      EXPECT_NE(line.find("\"say \"\"hi\"\"\""), std::string::npos);
    }
  }
  EXPECT_TRUE(saw_counter);
  EXPECT_TRUE(saw_gauge);
}

TEST(MetricsRegistry, JsonEscapesControlCharactersAndQuotes) {
  MetricsRegistry registry;
  registry.inc("weird\"name\\with\nnewline\tand\x01" "ctrl");
  const std::string json = registry.to_json();
  EXPECT_NE(json.find("weird\\\"name\\\\with\\nnewline\\tand\\u0001ctrl"),
            std::string::npos);
  // No raw control bytes may survive into the output.
  for (char c : json) {
    EXPECT_TRUE(static_cast<unsigned char>(c) >= 0x20 || c == '\n') << json;
  }
}

TEST(MetricsRegistry, PrometheusExpositionIsSortedSanitizedAndTyped) {
  MetricsRegistry registry;
  registry.inc("engine.requests", 7);
  registry.set("cpu load%", 0.5);
  registry.timer("plain_ms").record_ms(2.0);
  Timer& backed = registry.histogram_timer("engine.submit_ms");
  backed.record_ms(1.0);
  backed.record_ms(3.0);
  const std::string text = registry.to_prometheus();

  // Dots and spaces sanitize to underscores under the esva_ prefix; counters
  // get the _total suffix and a TYPE line.
  EXPECT_NE(text.find("# TYPE esva_engine_requests_total counter\n"
                      "esva_engine_requests_total 7\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE esva_cpu_load_ gauge\nesva_cpu_load_ 0.5\n"),
            std::string::npos);
  // Histogram-backed timers expose summary quantiles; plain timers only
  // _sum/_count.
  EXPECT_NE(text.find("esva_engine_submit_ms{quantile=\"0.5\"}"),
            std::string::npos);
  EXPECT_NE(text.find("esva_engine_submit_ms_sum 4\n"), std::string::npos);
  EXPECT_NE(text.find("esva_engine_submit_ms_count 2\n"), std::string::npos);
  EXPECT_EQ(text.find("esva_plain_ms{quantile"), std::string::npos);
  EXPECT_NE(text.find("# TYPE esva_plain_ms summary\n"), std::string::npos);

  // Families are globally sorted by exposed name, independent of kind.
  const std::vector<std::string> order = {
      "# TYPE esva_cpu_load_ gauge", "# TYPE esva_engine_requests_total",
      "# TYPE esva_engine_submit_ms summary", "# TYPE esva_plain_ms summary"};
  std::size_t pos = 0;
  for (const std::string& marker : order) {
    const std::size_t at = text.find(marker);
    ASSERT_NE(at, std::string::npos) << marker;
    EXPECT_GE(at, pos) << marker;
    pos = at;
  }
  // Exposition ends with a newline (text-format requirement).
  ASSERT_FALSE(text.empty());
  EXPECT_EQ(text.back(), '\n');
}

TEST(MetricsRegistry, PrometheusOutputIsStableAcrossInsertionOrder) {
  MetricsRegistry a;
  a.inc("zz");
  a.set("aa", 1.0);
  MetricsRegistry b;
  b.set("aa", 1.0);
  b.inc("zz");
  EXPECT_EQ(a.to_prometheus(), b.to_prometheus());
}

}  // namespace
}  // namespace esva
