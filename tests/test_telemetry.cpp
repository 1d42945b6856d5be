// Fleet telemetry (obs/timeseries.h + obs/energy_ledger.h) end to end:
// the ISSUE's acceptance invariants — the energy ledger conserves the
// cost-model total to 1e-6 relative on fig2-style stable and profiled
// workloads, and binding the full telemetry stack (metrics registry,
// time-series sampler, ledger) leaves assignments and energies byte
// identical — plus the sampler's cadence/ring semantics and the export
// formats both collectors emit.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "baselines/registry.h"
#include "cluster/catalog.h"
#include "core/fault_plan.h"
#include "core/power_model.h"
#include "core/streaming.h"
#include "obs/energy_ledger.h"
#include "obs/histogram.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "sim/replay.h"
#include "test_util.h"
#include "util/rng.h"
#include "workload/arrival_stream.h"
#include "workload/generator.h"

namespace esva {
namespace {

using testing::make_fleet;

constexpr int kNumVms = 180;
constexpr int kNumServers = 36;

WorkloadConfig workload_config() {
  WorkloadConfig config;
  config.num_vms = kNumVms;
  config.mean_interarrival = 1.5;
  config.mean_duration = 30.0;
  config.vm_types = all_vm_types();
  return config;
}

/// Stable demand (the paper's workload) or per-time-unit profiles (R_jt).
ProblemInstance instance(std::uint64_t seed, bool profiled) {
  Rng rng(seed);
  if (profiled) {
    return make_problem(
        generate_bursty_workload(workload_config(), /*phases=*/4,
                                 /*valley_factor=*/0.45, rng),
        make_fleet(kNumServers));
  }
  return make_problem(generate_workload(workload_config(), rng),
                      make_fleet(kNumServers));
}

/// A seeded plan of `failures` fail events in [5, window_hi] over the test
/// fleet, each repaired after 40 time units on average.
FaultPlan chaos_plan(int failures, Time window_hi, std::uint64_t seed) {
  ChaosConfig chaos;
  chaos.num_servers = static_cast<std::size_t>(kNumServers);
  chaos.failures = failures;
  chaos.window_lo = 5;
  chaos.window_hi = window_hi;
  chaos.mean_repair = 40;
  Rng rng(seed);
  return random_fault_plan(chaos, rng);
}

/// Holds the collectors across a replay; MetricsRegistry owns mutexes, so
/// this is constructed in place and filled by replay() rather than returned.
struct TelemetryRun {
  ReplayReport report;
  EnergyLedger ledger;
  TimeSeriesSampler sampler{TimeSeriesOptions{/*every=*/1, /*capacity=*/0}};
  MetricsRegistry metrics;
};

/// Replays `problem` through the allocator's streaming policy with the full
/// telemetry stack bound (or none of it, for the differential baseline).
void replay(const std::string& name, const ProblemInstance& problem,
            bool telemetry, TelemetryRun& run,
            const FaultPlan* faults = nullptr, int max_attempts = 1) {
  AllocatorPtr allocator = make_allocator(name);
  std::unique_ptr<PlacementPolicy> policy = allocator->make_policy();
  ASSERT_NE(policy, nullptr) << name;
  Rng rng(7);
  VectorArrivalStream arrivals(problem.vms);
  ReplayOptions options;
  options.faults = faults;
  options.retry.max_attempts = max_attempts;
  if (telemetry) {
    options.obs.metrics = &run.metrics;
    options.timeseries = &run.sampler;
    options.ledger = &run.ledger;
  }
  run.report = replay_stream(arrivals, problem.servers, *policy, rng, options);
}

Energy cause_sum(const EnergyLedger& ledger) {
  return ledger.total_for(EnergyCause::kRun) +
         ledger.total_for(EnergyCause::kIdle) +
         ledger.total_for(EnergyCause::kTransition) +
         ledger.total_for(EnergyCause::kMigration);
}

// --- conservation: ledger total == cost-model total -------------------------

TEST(EnergyLedgerConservation, HoldsOnStableAndProfiledWorkloads) {
  for (const bool profiled : {false, true}) {
    const ProblemInstance problem = instance(42, profiled);
    TelemetryRun run;
    replay("min-incremental", problem, true, run);
    ASSERT_GT(run.report.placed, 0u) << (profiled ? "profiled" : "stable");

    // Every placement posts at least a run entry.
    EXPECT_GE(run.ledger.size(), run.report.placed);
    // The acceptance invariant: Σ deltas == telescoped engine energy to 1e-6
    // relative (the ledger recomputes through the breakdown path, so the two
    // only agree to rounding, never bitwise).
    EXPECT_TRUE(run.ledger.conserves(run.report.total_energy))
        << "ledger " << run.ledger.total() << " vs engine "
        << run.report.total_energy << (profiled ? " (profiled)" : " (stable)");
    // The cause totals partition the ledger total.
    EXPECT_NEAR(cause_sum(run.ledger), run.ledger.total(),
                1e-9 * std::max(1.0, std::abs(run.ledger.total())));
    // Fault-free: no migration energy anywhere.
    EXPECT_EQ(run.ledger.total_for(EnergyCause::kMigration), 0.0);
    // Run energy is always non-negative per entry and dominates the total.
    EXPECT_GT(run.ledger.total_for(EnergyCause::kRun), 0.0);
    for (const EnergyEntry& entry : run.ledger.entries()) {
      if (entry.cause == EnergyCause::kRun) {
        EXPECT_GE(entry.delta, 0.0);
      }
    }
  }
}

TEST(EnergyLedgerConservation, HoldsUnderChaosAndAttributesMigration) {
  const ProblemInstance problem = instance(23, /*profiled=*/false);
  const FaultPlan plan = chaos_plan(6, /*window_hi=*/200, /*seed=*/101);

  TelemetryRun run;
  replay("min-incremental", problem, true, run, &plan, /*max_attempts=*/3);
  EXPECT_GT(run.report.faults.fault_events, 0);
  EXPECT_TRUE(run.ledger.conserves(run.report.total_energy))
      << "ledger " << run.ledger.total() << " vs engine "
      << run.report.total_energy;
  // Evacuation re-placements are the only source of migration entries.
  if (run.report.faults.evacuated + run.report.faults.retried_placed > 0) {
    EXPECT_GT(run.ledger.total_for(EnergyCause::kMigration), 0.0);
  } else {
    EXPECT_EQ(run.ledger.total_for(EnergyCause::kMigration), 0.0);
  }
  for (const EnergyEntry& entry : run.ledger.entries()) {
    if (entry.cause == EnergyCause::kMigration) {
      EXPECT_GT(entry.delta, 0.0);
    }
  }
}

// The engine is the one pricer. With a cost other than the default (no
// charge for a server's first switch-on), a traced and an untraced replay of
// every streamable allocator charge every placement the same energy, and the
// ledger, which prices with the same cost, conserves in both — whatever cost
// the policy scored with and whether it traced.
TEST(EnergyLedgerConservation, NonDefaultCostPricesTracedAndUntracedAlike) {
  const ProblemInstance problem = instance(42, /*profiled=*/false);
  for (const std::string& name : allocator_names()) {
    if (!make_allocator(name)->make_policy()) continue;  // batch-only ext
    std::vector<ReplayReport> reports;
    for (const bool traced : {false, true}) {
      const std::string label = name + (traced ? " traced" : " untraced");
      AllocatorPtr allocator = make_allocator(name);
      MemoryTraceSink sink;
      if (traced) {
        ObsContext obs;
        obs.trace = &sink;
        allocator->set_observability(obs);
      }
      const std::unique_ptr<PlacementPolicy> policy = allocator->make_policy();
      ASSERT_NE(policy, nullptr) << label;
      EnergyLedger ledger;
      Rng rng(7);
      VectorArrivalStream arrivals(problem.vms);
      ReplayOptions options;
      options.cost.charge_initial_transition = false;
      options.ledger = &ledger;
      reports.push_back(
          replay_stream(arrivals, problem.servers, *policy, rng, options));
      ASSERT_GT(reports.back().placed, 0u) << label;
      EXPECT_EQ(sink.size(), traced ? problem.num_vms() : 0u) << label;
      EXPECT_TRUE(ledger.conserves(reports.back().total_energy))
          << label << ": ledger " << ledger.total() << " vs engine "
          << reports.back().total_energy;
    }
    EXPECT_EQ(reports[1].assignment, reports[0].assignment) << name;
    EXPECT_EQ(reports[1].total_energy, reports[0].total_energy) << name;
  }
}

// --- binding telemetry never changes a decision ------------------------------

TEST(TelemetryDifferential, FullStackLeavesReplayByteIdentical) {
  for (const bool profiled : {false, true}) {
    const ProblemInstance problem = instance(5, profiled);
    TelemetryRun plain;
    TelemetryRun full;
    replay("min-incremental", problem, false, plain);
    replay("min-incremental", problem, true, full);
    // Byte-identical: same assignment vector, same FP energy, same counts.
    ASSERT_EQ(plain.report.assignment, full.report.assignment)
        << (profiled ? "profiled" : "stable");
    EXPECT_EQ(plain.report.total_energy, full.report.total_energy);
    EXPECT_EQ(plain.report.placed, full.report.placed);
    EXPECT_EQ(plain.report.rejected, full.report.rejected);
    // And the telemetry run actually collected something.
    EXPECT_GT(full.sampler.size(), 0u);
    EXPECT_GT(full.ledger.size(), 0u);
  }
}

TEST(TelemetryDifferential, FullStackByteIdenticalUnderFaultsAndRetries) {
  const ProblemInstance problem = instance(31, /*profiled=*/true);
  const FaultPlan plan = chaos_plan(4, /*window_hi=*/150, /*seed=*/7);

  TelemetryRun plain;
  TelemetryRun full;
  replay("min-incremental", problem, false, plain, &plan, /*max_attempts=*/3);
  replay("min-incremental", problem, true, full, &plan, /*max_attempts=*/3);
  ASSERT_EQ(plain.report.assignment, full.report.assignment);
  EXPECT_EQ(plain.report.total_energy, full.report.total_energy);
  EXPECT_EQ(plain.report.faults.displaced, full.report.faults.displaced);
  EXPECT_EQ(plain.report.faults.evacuated, full.report.faults.evacuated);
  EXPECT_EQ(plain.report.faults.retries, full.report.faults.retries);
  EXPECT_EQ(plain.report.faults.rejected_final,
            full.report.faults.rejected_final);
}

// --- time-series sampler: what the engine records ----------------------------

// Fault-free and under a seeded chaos plan with retries: busy, idle,
// drained and failed servers partition the fleet in every sample, and the
// cumulative counters never regress.
TEST(TimeSeries, SamplesPartitionTheFleetAndGrowMonotonically) {
  const ProblemInstance problem = instance(42, /*profiled=*/false);
  const FaultPlan plan = chaos_plan(6, /*window_hi=*/200, /*seed=*/101);
  for (const FaultPlan* faults : {static_cast<const FaultPlan*>(nullptr),
                                  &plan}) {
    SCOPED_TRACE(faults ? "chaos" : "fault-free");
    TelemetryRun run;
    replay("min-incremental", problem, true, run, faults,
           /*max_attempts=*/faults ? 3 : 1);
    const std::vector<FleetSample> samples = run.sampler.samples();
    ASSERT_FALSE(samples.empty());
    EXPECT_EQ(run.sampler.dropped(), 0u);  // capacity 0 = unbounded

    Time prev_t = std::numeric_limits<Time>::min();
    std::int64_t prev_requests = 0;
    double prev_energy = 0.0;
    for (const FleetSample& s : samples) {
      // The forced end-of-stream sample may share the final frontier, so
      // non-decreasing rather than strictly increasing.
      EXPECT_GE(s.t, prev_t);
      prev_t = s.t;
      // busy/idle/drained/failed partition the fleet at every instant.
      EXPECT_EQ(s.busy_servers + s.idle_servers + s.drained_servers +
                    s.failed_servers,
                static_cast<std::uint32_t>(kNumServers));
      EXPECT_LE(s.active_vms, static_cast<std::uint32_t>(kNumVms));
      EXPECT_GE(s.total_power_w, 0.0);
      EXPECT_GE(s.spare_cpu, 0.0);
      EXPECT_GE(s.spare_mem, 0.0);
      // Cumulative counters never regress.
      EXPECT_GE(s.requests, prev_requests);
      prev_requests = s.requests;
      EXPECT_GE(s.total_energy, prev_energy - 1e-9);
      prev_energy = s.total_energy;
    }
    // The forced final sample reflects the drained end state.
    const FleetSample* last = run.sampler.latest();
    ASSERT_NE(last, nullptr);
    EXPECT_EQ(last->t, run.report.final_frontier);
    EXPECT_EQ(last->requests,
              static_cast<std::int64_t>(run.report.requests));
    EXPECT_EQ(last->retry_queue_depth, 0u);
    EXPECT_EQ(last->total_energy, run.report.total_energy);
    // Somewhere mid-run the fleet was actually busy, and under chaos some
    // server was down.
    bool saw_busy = false;
    bool saw_failed = false;
    for (const FleetSample& s : samples) {
      saw_busy |= s.busy_servers > 0;
      saw_failed |= s.failed_servers > 0;
    }
    EXPECT_TRUE(saw_busy);
    EXPECT_EQ(saw_failed, faults != nullptr);
  }
}

// sample(t) with one server drained while it hosts a VM and another failed:
// the four server states partition the fleet, the drained server's running
// VM still draws power, spare capacity counts up servers only, and the
// failed server's displaced VMs are no longer active.
TEST(TimeSeries, SampleCountsDrainedAndFailedServers) {
  const std::vector<ServerSpec> fleet = make_fleet(6);
  ClusterState cluster(fleet, /*initial_horizon=*/100);
  const VmSpec up_vm = testing::vm(1, 2, 40, 1.0, 2.0);
  const VmSpec drained_vm = testing::vm(2, 2, 40, 2.0, 1.0);
  cluster.place(0, up_vm);
  cluster.place(1, drained_vm);
  cluster.place(2, testing::vm(3, 2, 40, 1.5, 1.0));
  cluster.place(2, testing::vm(4, 2, 40, 0.5, 1.0));
  cluster.drain_server(1);
  ASSERT_EQ(cluster.fail_server(2).size(), 2u);

  const FleetSample s = cluster.sample(/*t=*/10);
  EXPECT_EQ(s.busy_servers, 1u);
  EXPECT_EQ(s.idle_servers, 3u);
  EXPECT_EQ(s.drained_servers, 1u);
  EXPECT_EQ(s.failed_servers, 1u);
  EXPECT_EQ(s.busy_servers + s.idle_servers + s.drained_servers +
                s.failed_servers,
            static_cast<std::uint32_t>(fleet.size()));
  EXPECT_EQ(s.active_vms, 2u);
  EXPECT_DOUBLE_EQ(s.total_power_w,
                   power_at_usage(fleet[0], up_vm.demand.cpu) +
                       power_at_usage(fleet[1], drained_vm.demand.cpu));
  double spare_cpu = fleet[0].capacity.cpu - up_vm.demand.cpu;
  double spare_mem = fleet[0].capacity.mem - up_vm.demand.mem;
  for (const std::size_t i : {3, 4, 5}) {
    spare_cpu += fleet[i].capacity.cpu;
    spare_mem += fleet[i].capacity.mem;
  }
  EXPECT_DOUBLE_EQ(s.spare_cpu, spare_cpu);
  EXPECT_DOUBLE_EQ(s.spare_mem, spare_mem);
}

// sample(t) charges a VM to the one server hosting it, at any index of a
// mixed fleet: one busy server drawing its power at the VM's cpu, the rest
// idle, and the spare capacity short by exactly the VM's demand.
TEST(TimeSeries, SampleChargesAVmToItsServerOnly) {
  const std::vector<ServerSpec> fleet = make_fleet(7);
  const VmSpec vm = testing::vm(1, 2, 20, 1.5, 2.5);
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    ClusterState cluster(fleet, /*initial_horizon=*/50);
    cluster.place(i, vm);
    const FleetSample s = cluster.sample(/*t=*/5);
    double spare_cpu = 0.0, spare_mem = 0.0;
    for (std::size_t j = 0; j < fleet.size(); ++j) {
      spare_cpu += fleet[j].capacity.cpu - (j == i ? vm.demand.cpu : 0.0);
      spare_mem += fleet[j].capacity.mem - (j == i ? vm.demand.mem : 0.0);
    }
    EXPECT_EQ(s.active_vms, 1u) << i;
    EXPECT_EQ(s.busy_servers, 1u) << i;
    EXPECT_EQ(s.idle_servers, fleet.size() - 1) << i;
    EXPECT_DOUBLE_EQ(s.total_power_w, power_at_usage(fleet[i], vm.demand.cpu))
        << i;
    EXPECT_DOUBLE_EQ(s.spare_cpu, spare_cpu) << i;
    EXPECT_DOUBLE_EQ(s.spare_mem, spare_mem) << i;
  }
}

TEST(TimeSeries, CadenceGateAndFirstSampleAlwaysDue) {
  TimeSeriesOptions options;
  options.every = 5;
  TimeSeriesSampler sampler(options);
  EXPECT_TRUE(sampler.due(std::numeric_limits<Time>::min()));
  FleetSample s;
  s.t = 1;
  sampler.record(s);
  EXPECT_FALSE(sampler.due(2));
  EXPECT_FALSE(sampler.due(5));
  EXPECT_TRUE(sampler.due(6));  // t + every
  s.t = 9;
  sampler.record(s);
  EXPECT_FALSE(sampler.due(13));
  EXPECT_TRUE(sampler.due(14));
  // An interval reaching past the largest Time saturates there instead of
  // wrapping into "always due".
  options.every = std::numeric_limits<Time>::max();
  TimeSeriesSampler sparse(options);
  sparse.record(s);
  EXPECT_FALSE(sparse.due(std::numeric_limits<Time>::max() - 1));
}

TEST(TimeSeries, RingOverwritesOldestAndCountsDrops) {
  TimeSeriesOptions options;
  options.every = 1;
  options.capacity = 3;
  TimeSeriesSampler sampler(options);
  EXPECT_EQ(sampler.size(), 0u);
  EXPECT_EQ(sampler.latest(), nullptr);
  for (Time t = 1; t <= 5; ++t) {
    FleetSample s;
    s.t = t;
    s.active_vms = static_cast<std::uint32_t>(t);
    sampler.record(s);
  }
  EXPECT_EQ(sampler.size(), 3u);
  EXPECT_EQ(sampler.dropped(), 2u);
  const std::vector<FleetSample> kept = sampler.samples();
  ASSERT_EQ(kept.size(), 3u);
  EXPECT_EQ(kept[0].t, 3);  // oldest retained, in order
  EXPECT_EQ(kept[1].t, 4);
  EXPECT_EQ(kept[2].t, 5);
  ASSERT_NE(sampler.latest(), nullptr);
  EXPECT_EQ(sampler.latest()->t, 5);
}

TEST(TimeSeries, CsvAndJsonlExport) {
  TimeSeriesSampler sampler;
  FleetSample s;
  s.t = 7;
  s.active_vms = 3;
  s.busy_servers = 2;
  s.total_power_w = 123.5;
  s.spare_cpu = 10.25;
  sampler.record(s);
  s.t = 8;
  sampler.record(s);

  std::ostringstream csv;
  sampler.write_csv(csv);
  std::istringstream csv_lines(csv.str());
  std::string line;
  ASSERT_TRUE(std::getline(csv_lines, line));
  EXPECT_EQ(line, TimeSeriesSampler::csv_header());
  std::size_t rows = 0;
  while (std::getline(csv_lines, line)) {
    ++rows;
    EXPECT_EQ(line.rfind("7,3,2,", 0) == 0 || line.rfind("8,3,2,", 0) == 0,
              true)
        << line;
  }
  EXPECT_EQ(rows, 2u);

  std::ostringstream jsonl;
  sampler.write_jsonl(jsonl);
  std::istringstream json_lines(jsonl.str());
  std::size_t objects = 0;
  while (std::getline(json_lines, line)) {
    ++objects;
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_NE(line.find("\"t\":"), std::string::npos);
    EXPECT_NE(line.find("\"total_power_w\":123.5"), std::string::npos);
  }
  EXPECT_EQ(objects, 2u);
}

// The two exports carry one schema: on a chaos replay, every JSONL line is
// its CSV row keyed by the CSV header, field for field and byte for byte.
TEST(TimeSeries, JsonlLineIsTheCsvRowKeyedByTheHeader) {
  const FaultPlan plan = chaos_plan(6, /*window_hi=*/200, /*seed=*/101);
  TelemetryRun run;
  replay("min-incremental", instance(42, /*profiled=*/false), true, run, &plan,
         /*max_attempts=*/3);
  std::ostringstream csv, jsonl;
  run.sampler.write_csv(csv);
  run.sampler.write_jsonl(jsonl);
  std::istringstream csv_lines(csv.str()), json_lines(jsonl.str());
  std::string header, row, line;
  ASSERT_TRUE(std::getline(csv_lines, header));
  std::size_t rows = 0;
  for (; std::getline(csv_lines, row); ++rows) {
    std::istringstream keys(header), values(row);
    std::string expected, key, value;
    while (std::getline(keys, key, ',')) {
      ASSERT_TRUE(std::getline(values, value, ',')) << key << " in " << row;
      expected += (expected.empty() ? "{\"" : ",\"") + key + "\":" + value;
    }
    EXPECT_FALSE(std::getline(values, value)) << "extra field in " << row;
    ASSERT_TRUE(std::getline(json_lines, line)) << rows;
    EXPECT_EQ(line, expected + "}");
  }
  EXPECT_EQ(rows, run.sampler.size());
  EXPECT_FALSE(std::getline(json_lines, line)) << line;
}

// --- ledger bookkeeping and exports ------------------------------------------

TEST(EnergyLedger, TotalsAndCauseFilters) {
  EnergyLedger ledger;
  EXPECT_EQ(ledger.size(), 0u);
  EXPECT_EQ(ledger.total(), 0.0);
  EXPECT_TRUE(ledger.conserves(0.0));
  ledger.post(1, 0, 2, EnergyCause::kRun, 10.0);
  ledger.post(1, 0, 2, EnergyCause::kIdle, -1.5);
  ledger.post(3, 1, 2, EnergyCause::kTransition, 4.0);
  ledger.post(5, 1, 4, EnergyCause::kMigration, 2.25);
  EXPECT_EQ(ledger.size(), 4u);
  EXPECT_DOUBLE_EQ(ledger.total(), 14.75);
  EXPECT_DOUBLE_EQ(ledger.total_for(EnergyCause::kRun), 10.0);
  EXPECT_DOUBLE_EQ(ledger.total_for(EnergyCause::kIdle), -1.5);
  EXPECT_DOUBLE_EQ(ledger.total_for(EnergyCause::kTransition), 4.0);
  EXPECT_DOUBLE_EQ(ledger.total_for(EnergyCause::kMigration), 2.25);
  EXPECT_TRUE(ledger.conserves(14.75));
  EXPECT_TRUE(ledger.conserves(14.75 + 1e-6));   // within 1e-6 · max(1, |E|)
  EXPECT_FALSE(ledger.conserves(14.75 + 1e-3));  // clearly out
  ledger.clear();
  EXPECT_EQ(ledger.size(), 0u);
  EXPECT_EQ(ledger.total(), 0.0);
}

TEST(EnergyLedger, CsvAndJsonlExport) {
  EnergyLedger ledger;
  ledger.post(2, 7, 1, EnergyCause::kRun, 5.5);
  ledger.post(4, 7, 1, EnergyCause::kMigration, 0.5);

  std::ostringstream csv;
  ledger.write_csv(csv);
  std::istringstream csv_lines(csv.str());
  std::string line;
  ASSERT_TRUE(std::getline(csv_lines, line));
  EXPECT_EQ(line, "at,vm,server,cause,delta");
  ASSERT_TRUE(std::getline(csv_lines, line));
  EXPECT_EQ(line, "2,7,1,run,5.5");
  ASSERT_TRUE(std::getline(csv_lines, line));
  EXPECT_EQ(line, "4,7,1,migration,0.5");
  EXPECT_FALSE(std::getline(csv_lines, line));

  std::ostringstream jsonl;
  ledger.write_jsonl(jsonl);
  std::istringstream json_lines(jsonl.str());
  std::size_t objects = 0;
  while (std::getline(json_lines, line)) {
    ++objects;
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_NE(line.find("\"cause\":"), std::string::npos);
  }
  EXPECT_EQ(objects, 2u);
}

// --- histogram-vs-exact agreement on a real replay ---------------------------

TEST(LatencyHistogramReplay, HistQuantilesTrackExactWithinOneBucketWidth) {
  const ProblemInstance problem = instance(42, /*profiled=*/false);
  TelemetryRun run;
  replay("min-incremental", problem, true, run);
  const ReplayReport& report = run.report;
  ASSERT_GT(report.submit_ms.size(), 0u);
  ASSERT_EQ(report.latency_hist.total, report.submit_ms.size());

  // replay_stream feeds the histogram the same measured samples it sorts for
  // the exact quantiles, so agreement is deterministic: within the width of
  // the bucket(s) the exact order statistics fall into.
  std::vector<double> sorted = report.submit_ms;
  std::sort(sorted.begin(), sorted.end());
  const struct {
    double p;
    double exact;
    double hist;
  } cases[] = {{0.50, report.latency.p50_ms, report.latency.hist_p50_ms},
               {0.99, report.latency.p99_ms, report.latency.hist_p99_ms}};
  for (const auto& c : cases) {
    const double h = c.p * static_cast<double>(sorted.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(h));
    const auto hi = static_cast<std::size_t>(std::ceil(h));
    const double tol = LatencyHistogram::bucket_upper(
                           LatencyHistogram::bucket_index(sorted[hi])) -
                       LatencyHistogram::bucket_lower(
                           LatencyHistogram::bucket_index(sorted[lo]));
    EXPECT_NEAR(c.hist, c.exact, tol + 1e-12) << "p=" << c.p;
  }
  EXPECT_GE(report.latency.hist_p90_ms, report.latency.hist_p50_ms);
  EXPECT_LE(report.latency.hist_p99_ms, report.latency.max_ms);
}

}  // namespace
}  // namespace esva
