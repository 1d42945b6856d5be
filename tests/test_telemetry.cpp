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
#include <utility>
#include <vector>

#include "baselines/registry.h"
#include "cluster/catalog.h"
#include "core/fault_plan.h"
#include "core/streaming.h"
#include "obs/energy_ledger.h"
#include "obs/histogram.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "sim/replay.h"
#include "test_util.h"
#include "util/json.h"
#include "util/rng.h"
#include "workload/arrival_stream.h"
#include "workload/generator.h"

namespace esva {
namespace {

constexpr int kNumVms = 180;
constexpr int kNumServers = 36;

std::vector<ServerSpec> make_fleet(int num_servers) {
  std::vector<ServerSpec> servers;
  const auto& types = all_server_types();
  for (int i = 0; i < num_servers; ++i) {
    const double transition_time = 0.5 + static_cast<double>(i % 3);
    const std::size_t type_index =
        types.size() - 1 - static_cast<std::size_t>(i) % types.size();
    servers.push_back(make_server(types[type_index], i, transition_time));
  }
  return servers;
}

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
  ChaosConfig chaos;
  chaos.num_servers = static_cast<std::size_t>(kNumServers);
  chaos.failures = 6;
  chaos.window_lo = 5;
  chaos.window_hi = 200;
  chaos.mean_repair = 40;
  Rng plan_rng(101);
  const FaultPlan plan = random_fault_plan(chaos, plan_rng);

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
  ChaosConfig chaos;
  chaos.num_servers = static_cast<std::size_t>(kNumServers);
  chaos.failures = 4;
  chaos.window_lo = 5;
  chaos.window_hi = 150;
  chaos.mean_repair = 40;
  Rng plan_rng(7);
  const FaultPlan plan = random_fault_plan(chaos, plan_rng);

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

TEST(TimeSeries, SamplesPartitionTheFleetAndGrowMonotonically) {
  const ProblemInstance problem = instance(42, /*profiled=*/false);
  TelemetryRun run;
  replay("min-incremental", problem, true, run);
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
  // Somewhere mid-run the fleet was actually busy.
  bool saw_busy = false;
  for (const FleetSample& s : samples) saw_busy |= s.busy_servers > 0;
  EXPECT_TRUE(saw_busy);
}

// sample(t) on a multi-shard cluster slices the fleet totals exactly: per-
// shard counts and power sum back to the fleet-wide fields, and the slices
// land in the right contiguous server block.
TEST(TimeSeries, FleetSampleSlicesTotalsPerShard) {
  ClusterState cluster(make_fleet(12), /*initial_horizon=*/100,
                       ShardOptions{3});
  const VmSpec a = testing::vm(1, 2, 40, 1.0, 1.0);   // server 0 -> shard 0
  const VmSpec b = testing::vm(2, 2, 40, 2.0, 1.0);   // server 5 -> shard 1
  ASSERT_TRUE(cluster.timelines()[0].can_fit(a));
  ASSERT_TRUE(cluster.timelines()[5].can_fit(b));
  cluster.place(0, a);
  cluster.place(5, b);

  const FleetSample sample = cluster.sample(/*t=*/10);
  ASSERT_EQ(sample.shards.size(), 3u);
  std::uint32_t active = 0, busy = 0, idle = 0;
  double power = 0.0;
  for (const ShardLoad& shard : sample.shards) {
    active += shard.active_vms;
    busy += shard.busy_servers;
    idle += shard.idle_servers;
    power += shard.power_w;
  }
  EXPECT_EQ(active, sample.active_vms);
  EXPECT_EQ(busy, sample.busy_servers);
  EXPECT_EQ(idle, sample.idle_servers);
  EXPECT_DOUBLE_EQ(power, sample.total_power_w);
  EXPECT_EQ(sample.shards[0].active_vms, 1u);
  EXPECT_EQ(sample.shards[1].active_vms, 1u);
  EXPECT_EQ(sample.shards[2].active_vms, 0u);
  EXPECT_EQ(sample.shards[2].power_w, 0.0);

  // An unsharded cluster leaves the per-shard vector empty (CSV/JSONL schema
  // stability for existing consumers), and the count clamps to the fleet.
  ClusterState flat(make_fleet(4), /*initial_horizon=*/50);
  EXPECT_TRUE(flat.sample(5).shards.empty());
  ClusterState clamped(make_fleet(2), /*initial_horizon=*/50,
                       ShardOptions{64});
  EXPECT_EQ(clamped.sample(5).shards.size(), 2u);
}

// Shard s is the contiguous server block {i : i * N / n == s}: a VM on
// server i shows up in exactly that slice, and the blocks tile the fleet in
// index order with sizes differing by at most one.
TEST(ClusterShards, ContiguousBlocksAreBalanced) {
  const std::pair<int, int> layouts[] = {{10, 4}, {12, 3}, {7, 7}, {9, 2},
                                         {16, 5}};
  for (const auto& [servers, shards] : layouts) {
    const std::size_t n = static_cast<std::size_t>(servers);
    const std::size_t count = static_cast<std::size_t>(shards);
    ClusterState empty(make_fleet(servers), /*initial_horizon=*/50,
                       ShardOptions{shards});
    const FleetSample idle = empty.sample(5);
    ASSERT_EQ(idle.shards.size(), count);
    std::uint32_t smallest = idle.shards[0].idle_servers;
    std::uint32_t largest = smallest;
    std::uint32_t total = 0;
    for (const ShardLoad& shard : idle.shards) {
      smallest = std::min(smallest, shard.idle_servers);
      largest = std::max(largest, shard.idle_servers);
      total += shard.idle_servers;
    }
    EXPECT_EQ(total, static_cast<std::uint32_t>(servers));
    EXPECT_LE(largest - smallest, 1u) << servers << "/" << shards;
    EXPECT_GE(smallest, 1u) << servers << "/" << shards;

    for (std::size_t i = 0; i < n; ++i) {
      ClusterState cluster(make_fleet(servers), /*initial_horizon=*/50,
                           ShardOptions{shards});
      cluster.place(i, testing::vm(1, 2, 20, 1.0, 1.0));
      const FleetSample sample = cluster.sample(5);
      for (std::size_t s = 0; s < count; ++s) {
        const std::uint32_t expected = (s == i * count / n) ? 1u : 0u;
        EXPECT_EQ(sample.shards[s].active_vms, expected)
            << servers << "/" << shards << " server " << i << " shard " << s;
        EXPECT_EQ(sample.shards[s].busy_servers, expected)
            << servers << "/" << shards << " server " << i << " shard " << s;
      }
    }
  }
}

// Fewer than two shards — including non-positive counts and any count on a
// one-server fleet — means no per-shard breakdown at all.
TEST(ClusterShards, CountBelowTwoOmitsTheBreakdown) {
  for (const int shards : {-3, 0, 1}) {
    ClusterState cluster(make_fleet(8), /*initial_horizon=*/50,
                         ShardOptions{shards});
    cluster.place(3, testing::vm(1, 2, 20, 1.0, 1.0));
    const FleetSample sample = cluster.sample(5);
    EXPECT_EQ(sample.active_vms, 1u) << shards;
    EXPECT_TRUE(sample.shards.empty()) << shards;
  }
  ClusterState single(make_fleet(1), /*initial_horizon=*/50, ShardOptions{4});
  EXPECT_TRUE(single.sample(5).shards.empty());
}

// The per-shard breakdown is JSONL-only: it appends a "shards" array to the
// sample object (the rest of the line is byte-identical to the unsharded
// one) and leaves the CSV row untouched.
TEST(TimeSeries, ShardBreakdownExportsToJsonlOnly) {
  FleetSample s;
  s.t = 3;
  s.active_vms = 3;
  s.busy_servers = 2;
  s.idle_servers = 1;
  s.total_power_w = 250.5;
  TimeSeriesSampler flat;
  flat.record(s);
  s.shards = {ShardLoad{2, 1, 0, 150.25}, ShardLoad{1, 1, 1, 100.25}};
  TimeSeriesSampler sliced;
  sliced.record(s);

  std::ostringstream flat_csv, sliced_csv;
  flat.write_csv(flat_csv);
  sliced.write_csv(sliced_csv);
  EXPECT_EQ(sliced_csv.str(), flat_csv.str());

  std::ostringstream flat_jsonl, sliced_jsonl;
  flat.write_jsonl(flat_jsonl);
  sliced.write_jsonl(sliced_jsonl);
  std::string flat_line = flat_jsonl.str();
  const std::string sliced_line = sliced_jsonl.str();
  ASSERT_GE(flat_line.size(), 2u);
  flat_line.resize(flat_line.size() - 2);  // drop the closing "}\n"
  EXPECT_EQ(sliced_line.rfind(flat_line + ",\"shards\":[", 0), 0u)
      << sliced_line;

  EXPECT_EQ(json::parse(flat_jsonl.str()).find("shards"), nullptr);
  const json::Value parsed = json::parse(sliced_line);
  const json::Value* shards = parsed.find("shards");
  ASSERT_NE(shards, nullptr);
  ASSERT_EQ(shards->array.size(), 2u);
  EXPECT_EQ(json::require_number(shards->array[0], "active_vms", "shard"),
            2.0);
  EXPECT_EQ(json::require_number(shards->array[0], "busy_servers", "shard"),
            1.0);
  EXPECT_EQ(json::require_number(shards->array[1], "idle_servers", "shard"),
            1.0);
  EXPECT_EQ(json::require_number(shards->array[1], "power_w", "shard"),
            100.25);
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
