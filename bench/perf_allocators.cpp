// P1/P2 — allocator performance harness with a machine-readable artifact.
//
// Two modes:
//   * default          — measures the paper-scale allocators, checks the
//                        zero-overhead contract of the observability layer
//                        (obs/), measures the candidate-scan engine
//                        (core/candidate_scan.h): serial-vs-parallel
//                        speedup, and writes
//                        BENCH_perf.json so the perf trajectory accumulates
//                        across PRs. Exits nonzero if allocation with a
//                        *null* TraceSink is more than --overhead-budget
//                        (default 5%) slower than the uninstrumented
//                        reference loop, if any parallel run diverges from
//                        the serial assignment, if the
//                        single-thread min-incremental run is less than
//                        --single-thread-budget (default 2x) faster than the
//                        committed pre-flat-tree baseline medians (enforced
//                        outside --quick whenever a baseline exists for the
//                        scenario size), or if the 4-thread
//                        speedup misses --speedup-budget (default 2x; only
//                        enforced on machines with >= 4 hardware threads and
//                        outside --quick — never gated on smaller hosts,
//                        but always labeled in the artifact), or if the SoA
//                        envelope triage sweep is less than
//                        --envelope-budget (default 1.3x) faster than the
//                        AoS quick_fit loop it replaces (enforced outside
//                        --quick; verdicts must be bit-identical always),
//                        or if the 4-thread fleet scan diverges from the
//                        serial assignment at any tier (enforced always),
//                        or if the 4-thread 100k-server scan is less than
//                        --fleet-speedup-budget (default 1.5x) faster than
//                        the serial scan (enforced at the
//                        --fleet-full 100k tier on >= 4-thread machines,
//                        full mode), or if the serve daemon's write-ahead
//                        journal (on tmpfs, group commit every 32 records)
//                        costs more than --overhead-budget over the bare
//                        stream replay at fig2@500 (enforced
//                        outside --quick; the journal must round-trip to
//                        the batch assignment and exact total energy
//                        always). Medians from
//                        the previous BENCH_perf.json at the same path are
//                        echoed into an informational "regression" section.
//   * --gbench         — additionally runs the google-benchmark
//                        microbenchmarks (hot primitives: feasibility probe,
//                        incremental cost delta), forwarding --benchmark_*
//                        flags.
//
// The uninstrumented reference is a verbatim copy of the pre-observability
// MinIncrementalAllocator::allocate loop: same timelines, same cost calls, no
// obs hook — the honest "what did instrumentation cost us" baseline.

#include <benchmark/benchmark.h>

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "baselines/registry.h"
#include "cluster/datacenter.h"
#include "cluster/timeline.h"
#include "core/cost_model.h"
#include "core/envelope_store.h"
#include "core/streaming.h"
#include "core/fault_plan.h"
#include "core/min_incremental.h"
#include "obs/energy_ledger.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "serve/journal.h"
#include "sim/metrics.h"
#include "sim/replay.h"
#include "util/cli.h"
#include "workload/arrival_stream.h"
#include "workload/generator.h"
#include "workload/scenarios.h"

namespace {

using namespace esva;

ProblemInstance instance_for(int num_vms, std::uint64_t seed) {
  Rng rng(seed);
  return fig2_scenario(num_vms, 2.0).instantiate(rng);
}

// ---------------------------------------------------------------------------
// google-benchmark microbenchmarks (run with --gbench)
// ---------------------------------------------------------------------------

void BM_Allocator(benchmark::State& state, const std::string& name) {
  const ProblemInstance problem =
      instance_for(static_cast<int>(state.range(0)), 42);
  for (auto _ : state) {
    Rng rng(7);
    AllocatorPtr allocator = make_allocator(name);
    Allocation alloc = allocator->allocate(problem, rng);
    benchmark::DoNotOptimize(alloc.assignment.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(problem.num_vms()));
}

void BM_EvaluateCost(benchmark::State& state) {
  const ProblemInstance problem =
      instance_for(static_cast<int>(state.range(0)), 42);
  Rng rng(7);
  const Allocation alloc =
      make_allocator("min-incremental")->allocate(problem, rng);
  for (auto _ : state) {
    CostReport report = evaluate_cost(problem, alloc);
    benchmark::DoNotOptimize(report.breakdown);
  }
}

void BM_Metrics(benchmark::State& state) {
  const ProblemInstance problem =
      instance_for(static_cast<int>(state.range(0)), 42);
  Rng rng(7);
  const Allocation alloc =
      make_allocator("min-incremental")->allocate(problem, rng);
  for (auto _ : state) {
    AllocationMetrics metrics = compute_metrics(problem, alloc);
    benchmark::DoNotOptimize(metrics.utilization);
  }
}

void BM_FeasibilityProbe(benchmark::State& state) {
  const ProblemInstance problem = instance_for(300, 42);
  std::vector<ServerTimeline> timelines =
      make_timelines(problem.servers, problem.horizon);
  // Pre-load half the VMs round-robin so probes hit non-trivial trees.
  for (std::size_t j = 0; j < problem.num_vms() / 2; ++j) {
    auto& timeline = timelines[j % timelines.size()];
    if (timeline.can_fit(problem.vms[j])) timeline.place(problem.vms[j]);
  }
  std::size_t j = problem.num_vms() / 2;
  for (auto _ : state) {
    const VmSpec& vm = problem.vms[j % problem.num_vms()];
    for (const ServerTimeline& timeline : timelines)
      benchmark::DoNotOptimize(timeline.can_fit(vm));
    ++j;
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(timelines.size()));
}

void BM_IncrementalCostDelta(benchmark::State& state) {
  const ProblemInstance problem = instance_for(300, 42);
  std::vector<ServerTimeline> timelines =
      make_timelines(problem.servers, problem.horizon);
  for (std::size_t j = 0; j < problem.num_vms() / 2; ++j) {
    auto& timeline = timelines[j % timelines.size()];
    if (timeline.can_fit(problem.vms[j])) timeline.place(problem.vms[j]);
  }
  std::size_t j = problem.num_vms() / 2;
  for (auto _ : state) {
    const VmSpec& vm = problem.vms[j % problem.num_vms()];
    for (const ServerTimeline& timeline : timelines)
      benchmark::DoNotOptimize(incremental_cost(timeline, vm));
    ++j;
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(timelines.size()));
}

// ---------------------------------------------------------------------------
// Overhead guard + BENCH_perf.json
// ---------------------------------------------------------------------------

/// Verbatim copy of MinIncrementalAllocator::allocate as it existed before
/// the observability hook: the reference the null-sink path is held to.
Allocation allocate_uninstrumented(const ProblemInstance& problem) {
  Allocation alloc;
  alloc.assignment.assign(problem.num_vms(), kNoServer);
  std::vector<ServerTimeline> timelines =
      make_timelines(problem.servers, problem.horizon);
  for (std::size_t j : ordered_indices(problem, VmOrder::ByStartTime)) {
    const VmSpec& vm = problem.vms[j];
    ServerId best_server = kNoServer;
    Energy best_delta = kInf;
    for (std::size_t i = 0; i < timelines.size(); ++i) {
      if (!timelines[i].can_fit(vm)) continue;
      const Energy delta = incremental_cost(timelines[i], vm);
      if (delta < best_delta) {
        best_delta = delta;
        best_server = static_cast<ServerId>(i);
      }
    }
    if (best_server == kNoServer) continue;
    timelines[static_cast<std::size_t>(best_server)].place(vm);
    alloc.assignment[j] = best_server;
  }
  return alloc;
}

double time_ms(const std::function<void()>& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

double median(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

std::string json_array(const std::vector<double>& xs) {
  std::string out = "[";
  for (std::size_t i = 0; i < xs.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.3f", xs[i]);
    out += (i ? std::string(", ") : std::string()) + buf;
  }
  return out + "]";
}

struct OverheadReport {
  int num_vms = 0;
  std::vector<double> uninstrumented_ms;
  std::vector<double> null_sink_ms;
  std::vector<double> traced_ms;
  double overhead = 0.0;  ///< min over reps of null_sink[i]/uninstrumented[i], minus 1
  bool assignments_match = false;
  std::size_t trace_records = 0;
};

OverheadReport measure_overhead(int num_vms, int reps) {
  OverheadReport report;
  report.num_vms = num_vms;
  const ProblemInstance problem = instance_for(num_vms, 42);

  // The guard compares a ~2-5% effect, so it needs more samples than the
  // throughput sections: the best-rep estimator is only as good as the
  // chance that both variants caught a quiet scheduling window. Extra reps
  // are nearly free now that the feasibility kernel shrank each run ~7x.
  reps = std::max(reps, 11);

  Allocation reference;
  Allocation instrumented;
  // Warm-up (touches every timeline allocation path once), then alternate
  // the variants so drift (thermal, frequency scaling) hits both equally.
  (void)allocate_uninstrumented(problem);
  for (int rep = 0; rep < reps; ++rep) {
    report.uninstrumented_ms.push_back(
        time_ms([&] { reference = allocate_uninstrumented(problem); }));
    report.null_sink_ms.push_back(time_ms([&] {
      MinIncrementalAllocator allocator;
      Rng rng(7);
      instrumented = allocator.allocate(problem, rng);
    }));
  }
  report.assignments_match =
      reference.assignment == instrumented.assignment;

  // Informational: the cost of a *live* trace (memory sink + registry).
  MemoryTraceSink sink;
  MetricsRegistry registry;
  for (int rep = 0; rep < std::max(1, reps / 2); ++rep) {
    sink.clear();
    report.traced_ms.push_back(time_ms([&] {
      MinIncrementalAllocator allocator;
      ObsContext obs;
      obs.trace = &sink;
      obs.metrics = &registry;
      allocator.set_observability(obs);
      Rng rng(7);
      Allocation alloc = allocator.allocate(problem, rng);
      benchmark::DoNotOptimize(alloc.assignment.data());
    }));
  }
  report.trace_records = sink.size();

  // Gate on the best *paired* ratio, not min-vs-min across the whole run:
  // timing noise on a shared container is one-sided (interrupts, frequency
  // dips) and drifts on the scale of seconds, so the two variants of the
  // same rep — measured back to back — share a scheduling window while reps
  // minutes of load apart do not. min-vs-min breaks exactly there: if the
  // uninstrumented variant catches one quiet window the null-sink run never
  // matches, the ratio reports load drift as overhead. The per-rep ratio
  // cancels the drift; taking the min over reps then discards the pairs a
  // blip landed in. This matters more now that the feasibility kernel shrank
  // these runs ~7x — a single descheduling blip is a double-digit percentage
  // of the run. Medians and full rep arrays still go in the JSON.
  double best_ratio = kInf;
  for (std::size_t i = 0; i < report.uninstrumented_ms.size(); ++i)
    best_ratio = std::min(
        best_ratio, report.null_sink_ms[i] / report.uninstrumented_ms[i]);
  report.overhead = best_ratio - 1.0;
  return report;
}

struct AllocatorPoint {
  std::string name;
  int num_vms = 0;
  double median_ms = 0.0;
  double vms_per_sec = 0.0;
};

// ---------------------------------------------------------------------------
// Single-thread speedup gate vs the committed pre-optimization baselines
// ---------------------------------------------------------------------------

/// min-incremental fig2 medians (ms) from the BENCH_perf.json committed
/// before the flat-segment-tree / spare-capacity-pruning kernel landed —
/// the denominators of the single-thread speedup gate. Measured on the CI
/// container class; the gate demands a margin (2x) far above machine noise.
struct BaselinePoint {
  int num_vms;
  double median_ms;
};
constexpr BaselinePoint kMinIncrementalBaseline[] = {
    {100, 1.03396}, {500, 61.1332}, {1000, 266.366}};

double baseline_for(int num_vms) {
  for (const BaselinePoint& b : kMinIncrementalBaseline)
    if (b.num_vms == num_vms) return b.median_ms;
  return 0.0;
}

struct SingleThreadGate {
  int num_vms = 0;
  double baseline_ms = 0.0;  ///< 0 when no baseline exists for num_vms
  double measured_ms = 0.0;
  double speedup = 0.0;
  bool enforced = false;
  bool pass = true;
};

SingleThreadGate check_single_thread(const std::vector<AllocatorPoint>& points,
                                     int num_vms, double budget, bool quick) {
  SingleThreadGate gate;
  gate.num_vms = num_vms;
  gate.baseline_ms = baseline_for(num_vms);
  for (const AllocatorPoint& p : points)
    if (p.name == "min-incremental" && p.num_vms == num_vms)
      gate.measured_ms = p.median_ms;
  if (gate.baseline_ms > 0 && gate.measured_ms > 0)
    gate.speedup = gate.baseline_ms / gate.measured_ms;
  gate.enforced = !quick && gate.baseline_ms > 0 && gate.measured_ms > 0;
  gate.pass = !gate.enforced || gate.speedup >= budget;
  std::printf("  single-thread vs committed baseline (n=%d): %.2f ms vs "
              "%.2f ms -> %.2fx (budget %.1fx, %s) %s\n",
              gate.num_vms, gate.measured_ms, gate.baseline_ms, gate.speedup,
              budget,
              gate.enforced ? "enforced" : "not enforced (no baseline or --quick)",
              gate.pass ? "OK" : "FAIL");
  return gate;
}

// ---------------------------------------------------------------------------
// Previous-run medians (regression section)
// ---------------------------------------------------------------------------

/// One allocator data point recovered from the previous BENCH_perf.json.
/// Parsed with a dumb line scanner — the artifact writes each point as a
/// single `{"name": ..., "num_vms": ..., "median_ms": ...}` line and this
/// tool has no JSON reader; anything that doesn't match is skipped.
struct PreviousPoint {
  std::string name;
  int num_vms = 0;
  double median_ms = 0.0;
};

std::vector<PreviousPoint> read_previous_points(const std::string& path) {
  std::vector<PreviousPoint> points;
  std::ifstream in(path);
  if (!in) return points;
  std::string line;
  while (std::getline(in, line)) {
    const std::string name_key = "{\"name\": \"";
    const auto name_pos = line.find(name_key);
    if (name_pos == std::string::npos) continue;
    const auto name_begin = name_pos + name_key.size();
    const auto name_end = line.find('"', name_begin);
    const auto vms_pos = line.find("\"num_vms\": ");
    const auto ms_pos = line.find("\"median_ms\": ");
    if (name_end == std::string::npos || vms_pos == std::string::npos ||
        ms_pos == std::string::npos)
      continue;
    PreviousPoint p;
    p.name = line.substr(name_begin, name_end - name_begin);
    p.num_vms = std::atoi(line.c_str() + vms_pos + 11);
    p.median_ms = std::atof(line.c_str() + ms_pos + 13);
    points.push_back(std::move(p));
  }
  return points;
}

AllocatorPoint measure_allocator(const std::string& name, int num_vms,
                                 int reps) {
  AllocatorPoint point;
  point.name = name;
  point.num_vms = num_vms;
  const ProblemInstance problem = instance_for(num_vms, 42);
  std::vector<double> times;
  for (int rep = 0; rep < reps; ++rep) {
    times.push_back(time_ms([&] {
      Rng rng(7);
      Allocation alloc = make_allocator(name)->allocate(problem, rng);
      benchmark::DoNotOptimize(alloc.assignment.data());
    }));
  }
  point.median_ms = median(times);
  point.vms_per_sec =
      point.median_ms > 0 ? 1000.0 * num_vms / point.median_ms : 0.0;
  return point;
}

// ---------------------------------------------------------------------------
// Candidate-scan engine: serial vs parallel
// ---------------------------------------------------------------------------

struct TimedRun {
  double median_ms = 0.0;
  Allocation alloc;
};

TimedRun run_scan_config(const ProblemInstance& problem, int threads,
                         int reps) {
  TimedRun result;
  ScanConfig scan;
  scan.threads = threads;
  std::vector<double> times;
  for (int rep = 0; rep < reps; ++rep) {
    times.push_back(time_ms([&] {
      MinIncrementalAllocator allocator;
      allocator.set_scan_config(scan);
      Rng rng(7);
      result.alloc = allocator.allocate(problem, rng);
      benchmark::DoNotOptimize(result.alloc.assignment.data());
    }));
  }
  result.median_ms = median(times);
  return result;
}

struct ParallelScanReport {
  unsigned hardware_threads = 0;
  double serial_ms = 0.0;
  std::vector<std::pair<int, double>> parallel_ms;  ///< (threads, median ms)
  double speedup_at_4 = 0.0;
  bool assignments_match = true;
  bool speedup_enforced = false;
  std::string speedup_unenforced_reason;  ///< empty when enforced
  bool pass = true;
};

ParallelScanReport measure_parallel_scan(int num_vms, int reps,
                                         double speedup_budget, bool quick) {
  ParallelScanReport report;
  report.hardware_threads = std::thread::hardware_concurrency();
  const ProblemInstance problem = instance_for(num_vms, 42);

  std::printf("measuring candidate-scan engine (%d VMs, %u hardware "
              "threads)...\n",
              num_vms, report.hardware_threads);
  const TimedRun serial = run_scan_config(problem, 1, reps);
  report.serial_ms = serial.median_ms;
  std::printf("  threads=1       %8.2f ms (median)\n", report.serial_ms);

  for (const int threads : {2, 4}) {
    const TimedRun parallel = run_scan_config(problem, threads, reps);
    report.parallel_ms.emplace_back(threads, parallel.median_ms);
    const bool match = parallel.alloc.assignment == serial.alloc.assignment;
    report.assignments_match = report.assignments_match && match;
    const double speedup =
        parallel.median_ms > 0 ? report.serial_ms / parallel.median_ms : 0.0;
    if (threads == 4) report.speedup_at_4 = speedup;
    std::printf("  threads=%-7d %8.2f ms (median)  -> %.2fx  assignments %s\n",
                threads, parallel.median_ms, speedup,
                match ? "identical" : "DIVERGED (BUG)");
  }

  // The speedup budget only means something with real cores to scale onto;
  // on hosts with fewer than 4 hardware threads (and in --quick smoke runs)
  // the number is reported and labeled but never gates the build.
  report.speedup_enforced = !quick && report.hardware_threads >= 4;
  if (!report.speedup_enforced) {
    report.speedup_unenforced_reason =
        quick ? "quick mode"
              : "host has fewer than 4 hardware threads";
  }
  report.pass = report.assignments_match &&
                (!report.speedup_enforced ||
                 report.speedup_at_4 >= speedup_budget);
  std::printf("  speedup at 4 threads: %.2fx (budget %.1fx, %s%s) %s\n",
              report.speedup_at_4, speedup_budget,
              report.speedup_enforced ? "enforced" : "not enforced: ",
              report.speedup_enforced
                  ? ""
                  : report.speedup_unenforced_reason.c_str(),
              report.pass ? "OK" : "FAIL");
  return report;
}

// ---------------------------------------------------------------------------
// SoA envelope triage: the packed classify() sweep vs the AoS quick_fit loop
// it replaces
// ---------------------------------------------------------------------------

struct EnvelopeReport {
  int num_vms = 0;
  std::vector<double> sweep_ms;     ///< per rep: classify() for every VM
  std::vector<double> quickfit_ms;  ///< paired: per-server quick_fit loop
  double triage_speedup = 0.0;      ///< best paired quickfit/sweep ratio
  bool verdicts_match = true;       ///< classify == quick_fit, every probe row
  bool triage_enforced = false;     ///< outside --quick
  double triage_budget = 0.0;
  bool pass = true;
};

/// The envelope gate. The enforced number is the *triage* comparison: sweep
/// the packed envelope rows (EnvelopeStore::classify) vs calling
/// ServerTimeline::quick_fit per server — the exact loop the envelope pass
/// replaces — over every fig2 VM against the fully loaded fleet. That ratio
/// is what the SoA layout buys and holds far above the budget (~4-5x: one
/// contiguous vectorized sweep vs 500 pointer-chasing envelope reads).
EnvelopeReport measure_envelope(int num_vms, int reps, double triage_budget,
                                bool quick) {
  EnvelopeReport report;
  report.num_vms = num_vms;
  report.triage_budget = triage_budget;
  const ProblemInstance problem = instance_for(num_vms, 42);

  std::printf("measuring SoA envelope triage (%d VMs x %zu servers)...\n",
              num_vms, problem.servers.size());

  // A loaded fleet: replay the min-incremental assignment so the envelopes
  // carry realistic peaks/floors, not empty-timeline trivia.
  Rng seed_rng(7);
  const Allocation loaded =
      make_allocator("min-incremental")->allocate(problem, seed_rng);
  ClusterState cluster(problem.servers, problem.horizon);
  for (const std::size_t j : ordered_indices(problem, VmOrder::ByStartTime)) {
    if (loaded.assignment[j] == kNoServer) continue;
    cluster.place(static_cast<std::size_t>(loaded.assignment[j]),
                  problem.vms[j]);
  }

  const std::size_t n = cluster.num_servers();
  std::vector<std::uint8_t> sweep_verdicts(n);
  std::vector<std::uint8_t> loop_verdicts(n);
  for (int rep = 0; rep < reps; ++rep) {
    report.sweep_ms.push_back(time_ms([&] {
      for (const VmSpec& vm : problem.vms) {
        cluster.envelopes().classify(EnvelopeStore::probe_of(vm),
                                     sweep_verdicts.data());
        benchmark::DoNotOptimize(sweep_verdicts.data());
      }
    }));
    report.quickfit_ms.push_back(time_ms([&] {
      const std::vector<ServerTimeline>& timelines = cluster.timelines();
      for (const VmSpec& vm : problem.vms) {
        for (std::size_t i = 0; i < n; ++i)
          loop_verdicts[i] =
              static_cast<std::uint8_t>(timelines[i].quick_fit(vm));
        benchmark::DoNotOptimize(loop_verdicts.data());
      }
    }));
  }
  // Paired best ratio (see measure_overhead: the two variants of one rep
  // share a scheduling window; reps apart do not).
  double best_ratio = 0.0;
  for (std::size_t i = 0; i < report.sweep_ms.size(); ++i)
    best_ratio =
        std::max(best_ratio, report.quickfit_ms[i] / report.sweep_ms[i]);
  report.triage_speedup = best_ratio;

  for (const VmSpec& vm : problem.vms) {
    cluster.envelopes().classify(EnvelopeStore::probe_of(vm),
                                 sweep_verdicts.data());
    for (std::size_t i = 0; i < n; ++i) {
      if (sweep_verdicts[i] !=
          static_cast<std::uint8_t>(cluster.timelines()[i].quick_fit(vm)))
        report.verdicts_match = false;
    }
  }
  std::printf("  triage sweep:   %8.3f ms vs %.3f ms quick_fit loop "
              "(medians) -> %.2fx best paired, verdicts %s\n",
              median(report.sweep_ms), median(report.quickfit_ms),
              report.triage_speedup,
              report.verdicts_match ? "bit-identical" : "DIVERGED (BUG)");

  report.triage_enforced = !quick;
  report.pass = report.verdicts_match &&
                (!report.triage_enforced ||
                 report.triage_speedup >= triage_budget);
  std::printf("  triage speedup %.2fx (budget %.1fx, %s) -> %s\n",
              report.triage_speedup, triage_budget,
              report.triage_enforced ? "enforced" : "not enforced in --quick",
              report.pass ? "OK" : "FAIL");
  return report;
}

// ---------------------------------------------------------------------------
// Streaming engine: request throughput, submit latency, GC memory bound
// ---------------------------------------------------------------------------

struct StreamingVariant {
  double median_ms = 0.0;
  double requests_per_sec = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  std::size_t peak_resident_time_units = 0;
  bool matches_batch = false;
};

struct StreamingReport {
  int num_vms = 0;
  StreamingVariant gc;
  StreamingVariant no_gc;
  bool pass = true;
};

StreamingVariant run_streaming(const ProblemInstance& problem,
                               const Allocation& batch, bool rolling_gc,
                               int reps) {
  StreamingVariant variant;
  std::vector<double> times;
  ReplayReport report;
  for (int rep = 0; rep < reps; ++rep) {
    times.push_back(time_ms([&] {
      AllocatorPtr allocator = make_allocator("min-incremental");
      std::unique_ptr<PlacementPolicy> policy = allocator->make_policy();
      Rng rng(7);
      VectorArrivalStream arrivals(problem.vms);
      ReplayOptions options;
      options.rolling_gc = rolling_gc;
      report = replay_stream(arrivals, problem.servers, *policy, rng, options);
      benchmark::DoNotOptimize(report.assignment.data());
    }));
  }
  variant.median_ms = median(times);
  variant.requests_per_sec = report.requests_per_sec;
  variant.p50_ms = report.latency.p50_ms;
  variant.p99_ms = report.latency.p99_ms;
  variant.peak_resident_time_units = report.peak_resident_time_units;

  Allocation streamed;
  streamed.assignment.assign(problem.num_vms(), kNoServer);
  for (std::size_t j = 0; j < problem.num_vms(); ++j) {
    const auto id = static_cast<std::size_t>(problem.vms[j].id);
    if (id < report.assignment.size())
      streamed.assignment[j] = report.assignment[id];
  }
  variant.matches_batch = streamed.assignment == batch.assignment;
  return variant;
}

StreamingReport measure_streaming(int num_vms, int reps) {
  StreamingReport report;
  report.num_vms = num_vms;
  const ProblemInstance problem = instance_for(num_vms, 42);
  Rng rng(7);
  const Allocation batch =
      make_allocator("min-incremental")->allocate(problem, rng);

  std::printf("measuring streaming engine (%d VMs, min-incremental)...\n",
              num_vms);
  report.gc = run_streaming(problem, batch, /*rolling_gc=*/true, reps);
  report.no_gc = run_streaming(problem, batch, /*rolling_gc=*/false, reps);
  report.pass = report.gc.matches_batch && report.no_gc.matches_batch;
  for (const auto& [label, v] :
       {std::pair<const char*, const StreamingVariant&>{"gc on ", report.gc},
        {"gc off", report.no_gc}}) {
    std::printf("  %s: %8.2f ms, %9.0f req/s, p50 %.4f ms, p99 %.4f ms, "
                "peak resident %zu units, batch match %s\n",
                label, v.median_ms, v.requests_per_sec, v.p50_ms, v.p99_ms,
                v.peak_resident_time_units,
                v.matches_batch ? "yes" : "NO (BUG)");
  }
  std::printf("  GC memory: %zu / %zu peak resident units (%.1f%%)\n",
              report.gc.peak_resident_time_units,
              report.no_gc.peak_resident_time_units,
              report.no_gc.peak_resident_time_units > 0
                  ? 100.0 *
                        static_cast<double>(report.gc.peak_resident_time_units) /
                        static_cast<double>(
                            report.no_gc.peak_resident_time_units)
                  : 0.0);
  return report;
}

// ---------------------------------------------------------------------------
// Telemetry gate: full collector stack vs the bare replay
// ---------------------------------------------------------------------------

struct TelemetryReport {
  int num_vms = 0;
  std::vector<double> plain_ms;
  std::vector<double> telemetry_ms;
  double overhead = 0.0;  ///< best paired ratio minus 1 (see measure_overhead)
  bool assignments_match = false;  ///< always enforced
  bool conserves = false;          ///< always enforced, 1e-6 relative
  double ledger_total = 0.0;
  double engine_total = 0.0;
  std::size_t samples = 0;
  std::size_t ledger_entries = 0;
  bool overhead_enforced = false;
  bool pass = true;
};

/// fig2@num_vms replay, bare vs with the full telemetry stack bound: metrics
/// registry (histogram-backed submit timer), per-tick time-series sampler,
/// energy ledger. Gates: assignments byte-identical and ledger conservation
/// always; the overhead budget outside --quick. Same paired-best-ratio
/// estimator as the null-sink guard — the two variants of one rep share a
/// scheduling window, reps minutes apart do not.
TelemetryReport measure_telemetry(int num_vms, int reps, double budget,
                                  bool quick) {
  TelemetryReport report;
  report.num_vms = num_vms;
  const ProblemInstance problem = instance_for(num_vms, 42);
  reps = std::max(reps, 7);

  const auto run = [&](bool telemetry, ReplayReport& out_report,
                       EnergyLedger* ledger, std::size_t* samples) {
    AllocatorPtr allocator = make_allocator("min-incremental");
    std::unique_ptr<PlacementPolicy> policy = allocator->make_policy();
    Rng rng(7);
    VectorArrivalStream arrivals(problem.vms);
    MetricsRegistry metrics;
    TimeSeriesOptions ts_options;
    ts_options.every = 1;
    ts_options.capacity = 0;
    TimeSeriesSampler sampler(ts_options);
    ReplayOptions options;
    if (telemetry) {
      options.obs.metrics = &metrics;
      options.timeseries = &sampler;
      options.ledger = ledger;
    }
    out_report = replay_stream(arrivals, problem.servers, *policy, rng,
                               options);
    if (samples) *samples = sampler.size();
    benchmark::DoNotOptimize(out_report.assignment.data());
  };

  ReplayReport plain;
  ReplayReport full;
  EnergyLedger ledger;
  // Warm-up, then alternate so drift hits both variants equally.
  run(false, plain, nullptr, nullptr);
  for (int rep = 0; rep < reps; ++rep) {
    report.plain_ms.push_back(
        time_ms([&] { run(false, plain, nullptr, nullptr); }));
    ledger.clear();
    report.telemetry_ms.push_back(time_ms(
        [&] { run(true, full, &ledger, &report.samples); }));
  }
  report.ledger_entries = ledger.size();
  report.assignments_match = plain.assignment == full.assignment &&
                             plain.total_energy == full.total_energy;
  report.ledger_total = ledger.total();
  report.engine_total = full.total_energy;
  report.conserves = ledger.conserves(full.total_energy);

  double best_ratio = kInf;
  for (std::size_t i = 0; i < report.plain_ms.size(); ++i)
    best_ratio =
        std::min(best_ratio, report.telemetry_ms[i] / report.plain_ms[i]);
  report.overhead = best_ratio - 1.0;
  report.overhead_enforced = !quick;
  report.pass = report.assignments_match && report.conserves &&
                (!report.overhead_enforced || report.overhead <= budget);

  std::printf("measuring telemetry stack (%d VMs, sampler every tick + "
              "histogram + ledger)...\n",
              num_vms);
  std::printf("  bare replay:    %8.2f ms (median)\n",
              median(report.plain_ms));
  std::printf("  full telemetry: %8.2f ms (median)  -> overhead %+.2f%% "
              "(best paired ratio, budget %.0f%%, %s) %s\n",
              median(report.telemetry_ms), 100.0 * report.overhead,
              100.0 * budget,
              report.overhead_enforced ? "enforced" : "not enforced (--quick)",
              !report.overhead_enforced || report.overhead <= budget
                  ? "OK"
                  : "FAIL");
  std::printf("  %zu samples, %zu ledger entries\n", report.samples,
              report.ledger_entries);
  std::printf("  assignments identical: %s   ledger conserves energy: %s "
              "(%.6f vs %.6f W*min)\n",
              report.assignments_match ? "yes" : "NO (BUG)",
              report.conserves ? "yes" : "NO (BUG)", report.ledger_total,
              report.engine_total);
  return report;
}

// ---------------------------------------------------------------------------
// WAL gate: journaled engine submit loop vs the bare stream replay
// ---------------------------------------------------------------------------

struct WalReport {
  int num_vms = 0;
  std::string journal_dir;
  bool tmpfs = false;  ///< journal landed on /dev/shm (vs TMPDIR fallback)
  int sync_every = 32;  ///< group-commit batch (the daemon's --wal-sync-every)
  std::vector<double> stream_ms;
  std::vector<double> wal_ms;
  double overhead = 0.0;  ///< best paired ratio minus 1 (see measure_overhead)
  /// Journal read back through decisions_from_wal + assignment_from_trace
  /// equals the batch replay's assignment; always enforced.
  bool assignments_match = false;
  bool energy_match = false;  ///< exact-double total energy; always enforced
  std::size_t journal_records = 0;
  std::size_t journal_bytes = 0;
  bool overhead_enforced = false;
  bool pass = true;
};

/// The serve daemon's durability cost at the fig2@num_vms acceptance point:
/// the same arrival stream run through a PlacementEngine submit loop that
/// journals every accepted placement (encode_place_record + WalWriter group
/// commit at sync_every=32 — the fsync-batched configuration; sync_every=1,
/// the daemon's conservative default, pays two syscalls per ack and buys
/// per-record durability instead of throughput) against the bare
/// `esva stream` replay. The journal lands on tmpfs (/dev/shm, falling back
/// to TMPDIR) so the gate measures the WAL code path — encode, batch
/// write, fsync — not a spinning disk. Identity gates always: the journal
/// must round-trip through the real trace loader to the replay's
/// assignment, and the journaled run's total energy must equal the
/// replay's exactly. The <= budget overhead gate enforces outside --quick,
/// with the same paired-best-ratio estimator as the telemetry guard.
WalReport measure_wal(int num_vms, int reps, double budget, bool quick) {
  WalReport report;
  report.num_vms = num_vms;
  const ProblemInstance problem = instance_for(num_vms, 42);
  const std::vector<std::size_t> order = order_by_start(problem.vms);
  reps = std::max(reps, 13);

  report.tmpfs = ::access("/dev/shm", W_OK) == 0;
  if (report.tmpfs) {
    report.journal_dir = "/dev/shm";
  } else {
    const char* tmpdir = std::getenv("TMPDIR");
    report.journal_dir = tmpdir && *tmpdir ? tmpdir : "/tmp";
  }
  const std::string journal_path = report.journal_dir + "/esva-bench-" +
                                   std::to_string(::getpid()) + ".wal";

  const auto run_stream = [&](ReplayReport& out_report) {
    AllocatorPtr allocator = make_allocator("min-incremental");
    std::unique_ptr<PlacementPolicy> policy = allocator->make_policy();
    Rng rng(7);
    VectorArrivalStream arrivals(problem.vms);
    out_report = replay_stream(arrivals, problem.servers, *policy, rng,
                               ReplayOptions{});
    benchmark::DoNotOptimize(out_report.assignment.data());
  };

  // The daemon's submit path minus the socket/JSON wire: place in arrival
  // order, journal each decision after the engine applied it, fsync per the
  // batch policy, drain. EngineOptions mirror serve::Daemon (and thus
  // replay_stream) exactly.
  const auto run_wal = [&](Energy* out_energy) {
    ::unlink(journal_path.c_str());
    AllocatorPtr allocator = make_allocator("min-incremental");
    std::unique_ptr<PlacementPolicy> policy = allocator->make_policy();
    Rng rng(7);
    EngineOptions eopts;
    eopts.initial_horizon = 0;
    eopts.auto_advance = true;
    eopts.account_energy = true;
    eopts.tolerate_late_arrivals = true;
    PlacementEngine engine(problem.servers, *policy, rng, eopts);
    serve::WalHeader header;
    header.allocator = "min-incremental";
    header.seed = 7;
    header.num_servers = problem.num_servers();
    serve::WalWriter wal(journal_path, header, report.sync_every);
    std::uint64_t seq = 1;
    for (const std::size_t j : order) {
      const VmSpec& vm = problem.vms[j];
      const PlacementDecision decision = engine.submit(vm);
      wal.append(serve::encode_place_record(seq++, "min-incremental", vm,
                                            decision,
                                            engine.total_energy()));
    }
    engine.finish_stream();
    wal.sync();
    if (out_energy) *out_energy = engine.total_energy();
  };

  ReplayReport stream;
  Energy wal_energy = 0.0;
  // Warm-up, then pair the variants per rep, alternating which goes first:
  // within-pair drift (frequency step, background load arriving mid-rep)
  // then penalizes each variant on half the pairs instead of always the
  // journaled one, and the best-ratio estimator picks the cleanest pair.
  run_stream(stream);
  run_wal(&wal_energy);
  for (int rep = 0; rep < reps; ++rep) {
    if (rep % 2 == 0) {
      report.stream_ms.push_back(time_ms([&] { run_stream(stream); }));
      report.wal_ms.push_back(time_ms([&] { run_wal(&wal_energy); }));
    } else {
      report.wal_ms.push_back(time_ms([&] { run_wal(&wal_energy); }));
      report.stream_ms.push_back(time_ms([&] { run_stream(stream); }));
    }
  }

  // Round-trip the surviving journal through the real trace loader: the WAL
  // is a decision trace, so last-write-wins folding must reproduce the batch
  // replay's assignment (retries are off here, so submit decisions are
  // final).
  const serve::WalFile journal = serve::read_wal(journal_path);
  report.journal_records = journal.records.size();
  {
    std::ifstream in(journal_path, std::ios::binary | std::ios::ate);
    if (in) report.journal_bytes = static_cast<std::size_t>(in.tellg());
  }
  const std::vector<ServerId> replayed = assignment_from_trace(
      decisions_from_wal(journal.records), problem.vms.size());
  report.assignments_match = replayed == stream.assignment;
  report.energy_match = wal_energy == stream.total_energy;
  ::unlink(journal_path.c_str());

  double best_ratio = kInf;
  for (std::size_t i = 0; i < report.stream_ms.size(); ++i)
    best_ratio = std::min(best_ratio, report.wal_ms[i] / report.stream_ms[i]);
  report.overhead = best_ratio - 1.0;
  report.overhead_enforced = !quick;
  report.pass = report.assignments_match && report.energy_match &&
                (!report.overhead_enforced || report.overhead <= budget);

  std::printf("measuring WAL durability cost (%d VMs, journal on %s, fsync "
              "every %d)...\n",
              num_vms, report.journal_dir.c_str(), report.sync_every);
  std::printf("  bare stream:     %8.2f ms (median)\n",
              median(report.stream_ms));
  std::printf("  journaled:       %8.2f ms (median)  -> overhead %+.2f%% "
              "(best paired ratio, budget %.0f%%, %s) %s\n",
              median(report.wal_ms), 100.0 * report.overhead, 100.0 * budget,
              report.overhead_enforced ? "enforced" : "not enforced (--quick)",
              !report.overhead_enforced || report.overhead <= budget
                  ? "OK"
                  : "FAIL");
  std::printf("  %zu journal records, %zu bytes\n", report.journal_records,
              report.journal_bytes);
  std::printf("  journal replays to batch assignment: %s   energy exact: "
              "%s\n",
              report.assignments_match ? "yes" : "NO (BUG)",
              report.energy_match ? "yes" : "NO (BUG)");
  return report;
}

// ---------------------------------------------------------------------------
// Chaos: streaming under a seeded fault plan with the retry queue enabled
// ---------------------------------------------------------------------------

struct ChaosReport {
  int num_vms = 0;
  int failures = 0;
  double median_ms = 0.0;
  FaultStats stats;
  std::size_t placed = 0;
  std::size_t rejected = 0;
  Energy total_energy = 0.0;
  bool reproducible = false;  ///< two seeded runs byte-identical
  bool pass = true;
};

ChaosReport measure_chaos(int num_vms, int reps) {
  ChaosReport report;
  report.num_vms = num_vms;
  const ProblemInstance problem = instance_for(num_vms, 42);
  // min-incremental packs onto low-id servers, so uniform failures need to
  // cover a decent fraction of the fleet before evacuation actually triggers.
  report.failures =
      std::max(4, static_cast<int>(problem.num_servers()) / 3);

  ChaosConfig chaos;
  chaos.num_servers = problem.num_servers();
  chaos.failures = report.failures;
  chaos.window_lo = 5;
  chaos.window_hi = std::max<Time>(10, problem.horizon / 2);
  chaos.mean_repair = std::max<Time>(10, problem.horizon / 10);
  Rng plan_rng(42);
  const FaultPlan plan = random_fault_plan(chaos, plan_rng);

  const auto run = [&] {
    AllocatorPtr allocator = make_allocator("min-incremental");
    std::unique_ptr<PlacementPolicy> policy = allocator->make_policy();
    Rng rng(7);
    VectorArrivalStream arrivals(problem.vms);
    ReplayOptions options;
    options.faults = &plan;
    options.retry.max_attempts = 3;
    return replay_stream(arrivals, problem.servers, *policy, rng, options);
  };

  std::printf("measuring chaos streaming (%d VMs, %d seeded failures, "
              "retries on)...\n",
              num_vms, report.failures);
  std::vector<double> times;
  ReplayReport first;
  ReplayReport last;
  for (int rep = 0; rep < std::max(2, reps); ++rep) {
    times.push_back(time_ms([&] {
      last = run();
      benchmark::DoNotOptimize(last.assignment.data());
    }));
    if (rep == 0) first = last;
  }
  report.median_ms = median(times);
  report.stats = last.faults;
  report.placed = last.placed;
  report.rejected = last.rejected;
  report.total_energy = last.total_energy;
  // The chaos gate: a seeded plan must replay byte-identically run-to-run.
  report.reproducible = first.assignment == last.assignment &&
                        first.total_energy == last.total_energy &&
                        first.faults.rejected_final ==
                            last.faults.rejected_final &&
                        first.faults.downtime_units ==
                            last.faults.downtime_units;
  report.pass = report.reproducible;
  std::printf("  %8.2f ms (median), %zu placed / %zu rejected, "
              "%lld evacuated, %lld downtime units, reproducible %s\n",
              report.median_ms, report.placed, report.rejected,
              static_cast<long long>(report.stats.evacuated),
              static_cast<long long>(report.stats.downtime_units),
              report.reproducible ? "yes" : "NO (BUG)");
  return report;
}

// ---------------------------------------------------------------------------
// Fleet scale: the candidate scan at 10k / 100k servers, serial vs 4 threads
// ---------------------------------------------------------------------------

/// One thread-count replay of the fleet tier's stream.
struct FleetVariant {
  int threads = 1;
  double median_ms = 0.0;
  double requests_per_sec = 0.0;
  double submit_p99_ms = 0.0;
  double hist_p99_ms = 0.0;
  std::size_t peak_resident_time_units = 0;
  std::vector<ServerId> assignment;
};

/// One fleet size tier (10k always, 100k behind --fleet-full).
struct FleetTier {
  int num_servers = 0;
  int num_vms = 0;
  std::vector<FleetVariant> variants;  ///< threads 1 (reference), then 4
  double parallel_speedup = 0.0;  ///< serial / 4-thread median
  bool identity = true;           ///< 4-thread byte-identical — enforced
  bool speedup_enforced = false;
  std::string speedup_unenforced_reason;
  bool pass = true;
};

struct FleetReport {
  unsigned hardware_threads = 0;
  double speedup_budget = 0.0;
  std::vector<FleetTier> tiers;
  bool pass = true;
};

/// The fleet bench uses lowest-idle-power: a representative scan policy with
/// an O(1) score, so the measurement isolates the scan machinery the threads
/// split (triage sweep + tree fallback + chunk reduction) rather than the
/// Eq. 17 scoring arithmetic the fig2 sections already gate. The
/// deterministic round-robin fleet (make_scaled_fleet) keeps the identity
/// comparison meaningful across hosts.
FleetVariant run_fleet_variant(const ProblemInstance& problem, int threads,
                               int reps) {
  FleetVariant variant;
  variant.threads = threads;
  std::vector<double> times;
  ReplayReport report;
  for (int rep = 0; rep < reps; ++rep) {
    times.push_back(time_ms([&] {
      AllocatorPtr allocator = make_allocator("lowest-idle-power");
      ScanConfig scan;
      scan.threads = threads;
      allocator->set_scan_config(scan);
      std::unique_ptr<PlacementPolicy> policy = allocator->make_policy();
      Rng rng(7);
      VectorArrivalStream arrivals(problem.vms);
      report = replay_stream(arrivals, problem.servers, *policy, rng,
                             ReplayOptions{});
      benchmark::DoNotOptimize(report.assignment.data());
    }));
  }
  variant.median_ms = median(times);
  variant.requests_per_sec = report.requests_per_sec;
  variant.submit_p99_ms = report.latency.p99_ms;
  variant.hist_p99_ms = report.latency.hist_p99_ms;
  variant.peak_resident_time_units = report.peak_resident_time_units;
  variant.assignment = std::move(report.assignment);
  return variant;
}

FleetTier measure_fleet_tier(int num_servers, int num_vms, int reps,
                             double speedup_budget, bool quick) {
  FleetTier tier;
  tier.num_servers = num_servers;
  tier.num_vms = num_vms;

  WorkloadConfig config;
  config.num_vms = num_vms;
  config.mean_interarrival = 0.5;
  config.mean_duration = 50.0;
  config.vm_types = all_vm_types();
  Rng rng(42);
  ProblemInstance problem =
      make_problem(generate_workload(config, rng),
                   make_scaled_fleet(num_servers, all_server_types(), 1.0));

  std::printf("measuring fleet-scale scan (%d servers, %d VMs, "
              "lowest-idle-power stream)...\n",
              num_servers, num_vms);
  for (const int threads : {1, 4}) {
    FleetVariant variant = run_fleet_variant(problem, threads, reps);
    const bool match = tier.variants.empty() ||
                       variant.assignment == tier.variants.front().assignment;
    tier.identity = tier.identity && match;
    std::printf("  threads=%d %10.2f ms  %8.0f req/s  p99 %.4f ms  "
                "peak resident %zu units  assignments %s\n",
                variant.threads, variant.median_ms, variant.requests_per_sec,
                variant.submit_p99_ms, variant.peak_resident_time_units,
                match ? "identical" : "DIVERGED (BUG)");
    tier.variants.push_back(std::move(variant));
  }
  tier.parallel_speedup =
      tier.variants[0].median_ms / tier.variants[1].median_ms;

  // The >= 1.5x parallel gate is a large-fleet property: below 100k servers
  // the per-request scan is too short for the fan-out to amortize, and
  // without real cores there is nothing to scale onto — so it enforces only
  // at the 100k tier on >= 4-thread hosts, outside --quick (always labeled
  // in the artifact).
  const unsigned hw = std::thread::hardware_concurrency();
  tier.speedup_enforced = !quick && num_servers >= 100000 && hw >= 4;
  if (!tier.speedup_enforced) {
    tier.speedup_unenforced_reason =
        quick ? "quick mode"
        : num_servers < 100000
            ? "sub-100k tier"
            : "host has fewer than 4 hardware threads";
  }
  tier.pass = tier.identity &&
              (!tier.speedup_enforced ||
               tier.parallel_speedup >= speedup_budget);
  std::printf("  4-thread speedup: %.2fx (budget %.1fx, %s%s) %s\n",
              tier.parallel_speedup, speedup_budget,
              tier.speedup_enforced ? "enforced" : "not enforced: ",
              tier.speedup_enforced ? ""
                                    : tier.speedup_unenforced_reason.c_str(),
              tier.pass ? "OK" : "FAIL");
  return tier;
}

FleetReport measure_fleet(int reps, double speedup_budget, bool quick,
                          bool full) {
  FleetReport report;
  report.hardware_threads = std::thread::hardware_concurrency();
  report.speedup_budget = speedup_budget;
  const int fleet_reps = std::max(2, reps / 2);
  if (quick) {
    // Smoke scale: the identity gate still runs, the tier is just small
    // enough for the Release CI overhead-guard job.
    report.tiers.push_back(
        measure_fleet_tier(2000, 400, fleet_reps, speedup_budget, quick));
  } else {
    report.tiers.push_back(
        measure_fleet_tier(10000, 2000, fleet_reps, speedup_budget, quick));
    if (full)
      report.tiers.push_back(
          measure_fleet_tier(100000, 600, std::max(2, fleet_reps / 2),
                             speedup_budget, quick));
  }
  for (const FleetTier& tier : report.tiers)
    report.pass = report.pass && tier.pass;
  return report;
}

int run_perf_report(const std::string& out_path, int num_vms, int reps,
                    double overhead_budget, double speedup_budget,
                    double single_thread_budget, double envelope_budget,
                    double fleet_speedup_budget, bool fleet_full,
                    bool quick) {
  // Harvest the previous artifact's medians before this run overwrites it.
  const std::vector<PreviousPoint> previous = read_previous_points(out_path);
  std::printf("measuring null-sink observability overhead (%d VMs, %d reps "
              "per variant)...\n",
              num_vms, reps);
  const OverheadReport overhead = measure_overhead(num_vms, reps);
  const bool pass = overhead.overhead <= overhead_budget;

  std::printf("  uninstrumented: %8.2f ms (median)\n",
              median(overhead.uninstrumented_ms));
  std::printf("  null sink:      %8.2f ms (median)  -> overhead %+.2f%% "
              "(best paired ratio, budget %.0f%%) %s\n",
              median(overhead.null_sink_ms), 100.0 * overhead.overhead,
              100.0 * overhead_budget, pass ? "OK" : "FAIL");
  std::printf("  live trace:     %8.2f ms (median), %zu decision records\n",
              median(overhead.traced_ms), overhead.trace_records);
  std::printf("  assignments identical: %s\n",
              overhead.assignments_match ? "yes" : "NO (BUG)");

  std::vector<AllocatorPoint> points;
  for (const std::string& name :
       {std::string("min-incremental"), std::string("ffps"),
        std::string("best-fit-cpu")}) {
    for (int n : {100, 500, num_vms}) {
      points.push_back(measure_allocator(name, n, std::max(3, reps / 2)));
      const AllocatorPoint& p = points.back();
      std::printf("  %-16s n=%-5d %8.2f ms  (%.0f VMs/s)\n", p.name.c_str(),
                  p.num_vms, p.median_ms, p.vms_per_sec);
    }
  }

  const SingleThreadGate single_thread =
      check_single_thread(points, num_vms, single_thread_budget, quick);

  const ParallelScanReport scan =
      measure_parallel_scan(num_vms, reps, speedup_budget, quick);

  const EnvelopeReport envelope =
      measure_envelope(num_vms, reps, envelope_budget, quick);

  const StreamingReport streaming =
      measure_streaming(num_vms, std::max(3, reps / 2));

  // The telemetry gate runs at the fig2@500 acceptance point in full mode
  // (quick keeps the smoke-test scenario size).
  const TelemetryReport telemetry = measure_telemetry(
      quick ? num_vms : 500, reps, overhead_budget, quick);

  // The WAL gate shares the fig2@500 acceptance point (and the telemetry
  // guard's budget): the serve daemon's journal must cost <= 5% over the
  // bare stream replay.
  const WalReport wal =
      measure_wal(quick ? num_vms : 500, reps, overhead_budget, quick);

  const ChaosReport chaos = measure_chaos(num_vms, std::max(2, reps / 2));

  const FleetReport fleet =
      measure_fleet(reps, fleet_speedup_budget, quick, fleet_full);

  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  out << "{\n  \"scenario\": {\"family\": \"fig2\", \"num_vms\": " << num_vms
      << ", \"mean_interarrival\": 2.0, \"seed\": 42},\n";
  out << "  \"overhead_guard\": {\n"
      << "    \"uninstrumented_ms\": " << json_array(overhead.uninstrumented_ms)
      << ",\n"
      << "    \"null_sink_ms\": " << json_array(overhead.null_sink_ms) << ",\n"
      << "    \"traced_ms\": " << json_array(overhead.traced_ms) << ",\n"
      << "    \"median_uninstrumented_ms\": "
      << median(overhead.uninstrumented_ms) << ",\n"
      << "    \"median_null_sink_ms\": " << median(overhead.null_sink_ms)
      << ",\n"
      << "    \"median_traced_ms\": " << median(overhead.traced_ms) << ",\n"
      << "    \"null_sink_overhead\": " << overhead.overhead << ",\n"
      << "    \"overhead_budget\": " << overhead_budget << ",\n"
      << "    \"trace_records\": " << overhead.trace_records << ",\n"
      << "    \"assignments_match\": "
      << (overhead.assignments_match ? "true" : "false") << ",\n"
      << "    \"pass\": " << (pass ? "true" : "false") << "\n  },\n";
  out << "  \"allocators\": [\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const AllocatorPoint& p = points[i];
    out << "    {\"name\": \"" << p.name << "\", \"num_vms\": " << p.num_vms
        << ", \"median_ms\": " << p.median_ms
        << ", \"vms_per_sec\": " << p.vms_per_sec << "}"
        << (i + 1 < points.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"single_thread\": {\n"
      << "    \"allocator\": \"min-incremental\",\n"
      << "    \"num_vms\": " << single_thread.num_vms << ",\n"
      << "    \"baseline_ms\": " << single_thread.baseline_ms << ",\n"
      << "    \"measured_ms\": " << single_thread.measured_ms << ",\n"
      << "    \"speedup_vs_baseline\": " << single_thread.speedup << ",\n"
      << "    \"budget\": " << single_thread_budget << ",\n"
      << "    \"enforced\": " << (single_thread.enforced ? "true" : "false")
      << ",\n"
      << "    \"pass\": " << (single_thread.pass ? "true" : "false")
      << "\n  },\n";
  out << "  \"regression\": {\n"
      << "    \"note\": \"previous-run medians from the prior artifact at "
         "this path; informational, the gates live in single_thread and "
         "parallel_scan\",\n"
      << "    \"points\": [\n";
  {
    bool first_point = true;
    for (const AllocatorPoint& p : points) {
      for (const PreviousPoint& prev : previous) {
        if (prev.name != p.name || prev.num_vms != p.num_vms) continue;
        if (!first_point) out << ",\n";
        first_point = false;
        const double ratio =
            prev.median_ms > 0 ? p.median_ms / prev.median_ms : 0.0;
        out << "      {\"name\": \"" << p.name
            << "\", \"num_vms\": " << p.num_vms
            << ", \"previous_ms\": " << prev.median_ms
            << ", \"median_ms\": " << p.median_ms
            << ", \"ratio\": " << ratio << "}";
        break;
      }
    }
    out << "\n    ]\n  },\n";
  }
  out << "  \"parallel_scan\": {\n"
      << "    \"hardware_threads\": " << scan.hardware_threads << ",\n"
      << "    \"serial_ms\": " << scan.serial_ms << ",\n";
  for (const auto& [threads, ms] : scan.parallel_ms)
    out << "    \"parallel_ms_t" << threads << "\": " << ms << ",\n";
  out << "    \"speedup_at_4_threads\": " << scan.speedup_at_4 << ",\n"
      << "    \"speedup_budget\": " << speedup_budget << ",\n"
      << "    \"speedup_enforced\": "
      << (scan.speedup_enforced ? "true" : "false") << ",\n"
      << "    \"speedup_unenforced_reason\": \""
      << scan.speedup_unenforced_reason << "\",\n"
      << "    \"assignments_match\": "
      << (scan.assignments_match ? "true" : "false") << ",\n"
      << "    \"pass\": " << (scan.pass ? "true" : "false") << "\n  },\n";
  out << "  \"envelope\": {\n"
      << "    \"num_vms\": " << envelope.num_vms << ",\n"
      << "    \"sweep_ms\": " << json_array(envelope.sweep_ms) << ",\n"
      << "    \"quickfit_loop_ms\": " << json_array(envelope.quickfit_ms)
      << ",\n"
      << "    \"median_sweep_ms\": " << median(envelope.sweep_ms) << ",\n"
      << "    \"median_quickfit_loop_ms\": " << median(envelope.quickfit_ms)
      << ",\n"
      << "    \"triage_speedup\": " << envelope.triage_speedup << ",\n"
      << "    \"triage_budget\": " << envelope.triage_budget << ",\n"
      << "    \"triage_enforced\": "
      << (envelope.triage_enforced ? "true" : "false") << ",\n"
      << "    \"verdicts_match\": "
      << (envelope.verdicts_match ? "true" : "false") << ",\n"
      << "    \"pass\": " << (envelope.pass ? "true" : "false") << "\n  },\n";
  out << "  \"streaming\": {\n"
      << "    \"allocator\": \"min-incremental\",\n"
      << "    \"num_vms\": " << streaming.num_vms << ",\n";
  const auto emit_variant = [&out](const char* key,
                                   const StreamingVariant& v, bool last) {
    out << "    \"" << key << "\": {\n"
        << "      \"median_ms\": " << v.median_ms << ",\n"
        << "      \"requests_per_sec\": " << v.requests_per_sec << ",\n"
        << "      \"submit_p50_ms\": " << v.p50_ms << ",\n"
        << "      \"submit_p99_ms\": " << v.p99_ms << ",\n"
        << "      \"peak_resident_time_units\": " << v.peak_resident_time_units
        << ",\n"
        << "      \"matches_batch\": " << (v.matches_batch ? "true" : "false")
        << "\n    }" << (last ? "" : ",") << "\n";
  };
  emit_variant("rolling_gc", streaming.gc, false);
  emit_variant("no_gc", streaming.no_gc, false);
  out << "    \"pass\": " << (streaming.pass ? "true" : "false") << "\n  },\n";
  out << "  \"telemetry\": {\n"
      << "    \"allocator\": \"min-incremental\",\n"
      << "    \"num_vms\": " << telemetry.num_vms << ",\n"
      << "    \"plain_ms\": " << json_array(telemetry.plain_ms) << ",\n"
      << "    \"telemetry_ms\": " << json_array(telemetry.telemetry_ms)
      << ",\n"
      << "    \"median_plain_ms\": " << median(telemetry.plain_ms) << ",\n"
      << "    \"median_telemetry_ms\": " << median(telemetry.telemetry_ms)
      << ",\n"
      << "    \"overhead\": " << telemetry.overhead << ",\n"
      << "    \"overhead_budget\": " << overhead_budget << ",\n"
      << "    \"overhead_enforced\": "
      << (telemetry.overhead_enforced ? "true" : "false") << ",\n"
      << "    \"samples\": " << telemetry.samples << ",\n"
      << "    \"ledger_entries\": " << telemetry.ledger_entries << ",\n"
      << "    \"ledger_total\": " << telemetry.ledger_total << ",\n"
      << "    \"engine_total\": " << telemetry.engine_total << ",\n"
      << "    \"conserves\": " << (telemetry.conserves ? "true" : "false")
      << ",\n"
      << "    \"assignments_match\": "
      << (telemetry.assignments_match ? "true" : "false") << ",\n"
      << "    \"pass\": " << (telemetry.pass ? "true" : "false") << "\n  },\n";
  out << "  \"wal\": {\n"
      << "    \"allocator\": \"min-incremental\",\n"
      << "    \"num_vms\": " << wal.num_vms << ",\n"
      << "    \"journal_dir\": \"" << wal.journal_dir << "\",\n"
      << "    \"tmpfs\": " << (wal.tmpfs ? "true" : "false") << ",\n"
      << "    \"sync_every\": " << wal.sync_every << ",\n"
      << "    \"stream_ms\": " << json_array(wal.stream_ms) << ",\n"
      << "    \"wal_ms\": " << json_array(wal.wal_ms) << ",\n"
      << "    \"median_stream_ms\": " << median(wal.stream_ms) << ",\n"
      << "    \"median_wal_ms\": " << median(wal.wal_ms) << ",\n"
      << "    \"overhead\": " << wal.overhead << ",\n"
      << "    \"overhead_budget\": " << overhead_budget << ",\n"
      << "    \"overhead_enforced\": "
      << (wal.overhead_enforced ? "true" : "false") << ",\n"
      << "    \"journal_records\": " << wal.journal_records << ",\n"
      << "    \"journal_bytes\": " << wal.journal_bytes << ",\n"
      << "    \"assignments_match\": "
      << (wal.assignments_match ? "true" : "false") << ",\n"
      << "    \"energy_match\": " << (wal.energy_match ? "true" : "false")
      << ",\n"
      << "    \"pass\": " << (wal.pass ? "true" : "false") << "\n  },\n";
  out << "  \"chaos\": {\n"
      << "    \"allocator\": \"min-incremental\",\n"
      << "    \"num_vms\": " << chaos.num_vms << ",\n"
      << "    \"seeded_failures\": " << chaos.failures << ",\n"
      << "    \"median_ms\": " << chaos.median_ms << ",\n"
      << "    \"placed\": " << chaos.placed << ",\n"
      << "    \"rejected\": " << chaos.rejected << ",\n"
      << "    \"total_energy\": " << chaos.total_energy << ",\n"
      << "    \"fault_events\": " << chaos.stats.fault_events << ",\n"
      << "    \"displaced\": " << chaos.stats.displaced << ",\n"
      << "    \"evacuated\": " << chaos.stats.evacuated << ",\n"
      << "    \"retries\": " << chaos.stats.retries << ",\n"
      << "    \"retried_placed\": " << chaos.stats.retried_placed << ",\n"
      << "    \"rejected_final\": " << chaos.stats.rejected_final << ",\n"
      << "    \"downtime_units\": " << chaos.stats.downtime_units << ",\n"
      << "    \"reproducible\": " << (chaos.reproducible ? "true" : "false")
      << ",\n"
      << "    \"pass\": " << (chaos.pass ? "true" : "false") << "\n  },\n";
  out << "  \"fleet\": {\n"
      << "    \"allocator\": \"lowest-idle-power\",\n"
      << "    \"hardware_threads\": " << fleet.hardware_threads << ",\n"
      << "    \"speedup_budget\": " << fleet.speedup_budget << ",\n"
      << "    \"tiers\": [\n";
  for (std::size_t t = 0; t < fleet.tiers.size(); ++t) {
    const FleetTier& tier = fleet.tiers[t];
    out << "      {\"num_servers\": " << tier.num_servers
        << ", \"num_vms\": " << tier.num_vms << ",\n"
        << "       \"variants\": [\n";
    for (std::size_t v = 0; v < tier.variants.size(); ++v) {
      const FleetVariant& var = tier.variants[v];
      out << "         {\"threads\": " << var.threads
          << ", \"median_ms\": " << var.median_ms
          << ", \"requests_per_sec\": " << var.requests_per_sec
          << ", \"submit_p99_ms\": " << var.submit_p99_ms
          << ", \"hist_p99_ms\": " << var.hist_p99_ms
          << ", \"peak_resident_time_units\": "
          << var.peak_resident_time_units << "}"
          << (v + 1 < tier.variants.size() ? "," : "") << "\n";
    }
    out << "       ],\n"
        << "       \"parallel_speedup\": " << tier.parallel_speedup << ",\n"
        << "       \"identity\": " << (tier.identity ? "true" : "false")
        << ",\n"
        << "       \"speedup_enforced\": "
        << (tier.speedup_enforced ? "true" : "false") << ",\n"
        << "       \"speedup_unenforced_reason\": \""
        << tier.speedup_unenforced_reason << "\",\n"
        << "       \"pass\": " << (tier.pass ? "true" : "false") << "}"
        << (t + 1 < fleet.tiers.size() ? "," : "") << "\n";
  }
  out << "    ],\n"
      << "    \"pass\": " << (fleet.pass ? "true" : "false") << "\n  }\n";
  out << "}\n";
  std::printf("wrote %s\n", out_path.c_str());

  if (!overhead.assignments_match) {
    std::fprintf(stderr,
                 "FAIL: instrumented allocator diverged from the reference "
                 "loop\n");
    return 1;
  }
  if (!pass) {
    std::fprintf(stderr,
                 "FAIL: null-sink overhead %.2f%% exceeds budget %.0f%%\n",
                 100.0 * overhead.overhead, 100.0 * overhead_budget);
    return 1;
  }
  if (!single_thread.pass) {
    std::fprintf(stderr,
                 "FAIL: single-thread speedup %.2fx vs committed baseline "
                 "below budget %.1fx (n=%d)\n",
                 single_thread.speedup, single_thread_budget,
                 single_thread.num_vms);
    return 1;
  }
  if (!scan.assignments_match) {
    std::fprintf(stderr,
                 "FAIL: parallel scan diverged from the serial assignment\n");
    return 1;
  }
  if (!scan.pass) {
    std::fprintf(stderr,
                 "FAIL: 4-thread speedup %.2fx below budget %.1fx\n",
                 scan.speedup_at_4, speedup_budget);
    return 1;
  }
  if (!envelope.verdicts_match) {
    std::fprintf(stderr,
                 "FAIL: envelope classify() verdicts diverged from "
                 "quick_fit\n");
    return 1;
  }
  if (!envelope.pass) {
    std::fprintf(stderr,
                 "FAIL: envelope triage speedup %.2fx below budget %.1fx\n",
                 envelope.triage_speedup, envelope.triage_budget);
    return 1;
  }
  if (!streaming.pass) {
    std::fprintf(stderr,
                 "FAIL: streaming replay diverged from the batch "
                 "assignment\n");
    return 1;
  }
  if (!telemetry.assignments_match) {
    std::fprintf(stderr,
                 "FAIL: binding the telemetry stack changed the replay "
                 "(assignments or total energy diverged)\n");
    return 1;
  }
  if (!telemetry.conserves) {
    std::fprintf(stderr,
                 "FAIL: energy ledger does not conserve: %.9f vs engine "
                 "%.9f W*min (1e-6 relative)\n",
                 telemetry.ledger_total, telemetry.engine_total);
    return 1;
  }
  if (!telemetry.pass) {
    std::fprintf(stderr,
                 "FAIL: telemetry overhead %.2f%% exceeds budget %.0f%%\n",
                 100.0 * telemetry.overhead, 100.0 * overhead_budget);
    return 1;
  }
  if (!wal.assignments_match || !wal.energy_match) {
    std::fprintf(stderr,
                 "FAIL: WAL journal did not round-trip to the batch replay "
                 "(assignment %s, energy %s)\n",
                 wal.assignments_match ? "ok" : "DIVERGED",
                 wal.energy_match ? "ok" : "DIVERGED");
    return 1;
  }
  if (!wal.pass) {
    std::fprintf(stderr,
                 "FAIL: WAL submit overhead %.2f%% exceeds budget %.0f%%\n",
                 100.0 * wal.overhead, 100.0 * overhead_budget);
    return 1;
  }
  if (!chaos.pass) {
    std::fprintf(stderr,
                 "FAIL: seeded chaos replay was not reproducible "
                 "run-to-run\n");
    return 1;
  }
  for (const FleetTier& tier : fleet.tiers) {
    if (!tier.identity) {
      std::fprintf(stderr,
                   "FAIL: 4-thread fleet scan diverged from the serial "
                   "assignment at %d servers\n",
                   tier.num_servers);
      return 1;
    }
    if (!tier.pass) {
      std::fprintf(stderr,
                   "FAIL: 4-thread fleet speedup %.2fx below budget "
                   "%.1fx at %d servers\n",
                   tier.parallel_speedup, fleet.speedup_budget,
                   tier.num_servers);
      return 1;
    }
  }
  return 0;
}

}  // namespace

BENCHMARK_CAPTURE(BM_Allocator, min_incremental, "min-incremental")
    ->Arg(100)
    ->Arg(500)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Allocator, ffps, "ffps")
    ->Arg(100)
    ->Arg(500)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Allocator, best_fit_cpu, "best-fit-cpu")
    ->Arg(100)
    ->Arg(500)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_EvaluateCost)->Arg(100)->Arg(500)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Metrics)->Arg(100)->Arg(500)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_FeasibilityProbe);
BENCHMARK(BM_IncrementalCostDelta);

int main(int argc, char** argv) {
  // Separate our flags from google-benchmark's (--benchmark_*).
  std::vector<char*> gbench_argv{argv[0]};
  bool run_gbench = false;
  std::vector<const char*> own_argv{argv[0]};
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--gbench") {
      run_gbench = true;
    } else if (arg.rfind("--benchmark_", 0) == 0) {
      gbench_argv.push_back(argv[i]);
    } else {
      own_argv.push_back(argv[i]);
    }
  }

  esva::CliParser parser(
      "bench/perf_allocators — allocator throughput, observability overhead "
      "guard, BENCH_perf.json artifact (add --gbench for microbenchmarks)");
  parser.add_string("out", "BENCH_perf.json", "JSON artifact output path");
  parser.add_int("vms", 1000, "VM count of the overhead-guard scenario");
  parser.add_int("reps", 7, "timed repetitions per variant");
  parser.add_double("overhead-budget", 0.05,
                    "max tolerated null-sink slowdown (fraction)");
  parser.add_double("speedup-budget", 2.0,
                    "min required 4-thread scan speedup (enforced only on "
                    ">=4-thread machines, full mode)");
  parser.add_double("single-thread-budget", 2.0,
                    "min required single-thread min-incremental speedup vs "
                    "the committed baseline medians (enforced in full mode "
                    "when a baseline exists for --vms)");
  parser.add_double("envelope-budget", 1.3,
                    "min required SoA envelope sweep speedup vs the AoS "
                    "quick_fit loop (enforced in full mode)");
  parser.add_double("fleet-speedup-budget", 1.5,
                    "min required 4-thread fleet scan speedup vs the serial "
                    "scan (enforced at the 100k tier on >=4-thread machines, "
                    "full mode)");
  parser.add_bool("fleet-full",
                  "also run the 100k-server fleet tier (default stops at "
                  "10k; the committed BENCH_perf.json carries both)");
  parser.add_bool("quick", "300-VM scenario, 3 reps (smoke test)");
  if (!parser.parse(static_cast<int>(own_argv.size()), own_argv.data()))
    return parser.parse_error() ? 1 : 0;

  int num_vms = static_cast<int>(parser.get_int("vms"));
  int reps = static_cast<int>(parser.get_int("reps"));
  if (parser.get_bool("quick")) {
    num_vms = 300;
    reps = 5;
  }

  const int status =
      run_perf_report(parser.get_string("out"), num_vms, reps,
                      parser.get_double("overhead-budget"),
                      parser.get_double("speedup-budget"),
                      parser.get_double("single-thread-budget"),
                      parser.get_double("envelope-budget"),
                      parser.get_double("fleet-speedup-budget"),
                      parser.get_bool("fleet-full"),
                      parser.get_bool("quick"));
  if (run_gbench) {
    int gbench_argc = static_cast<int>(gbench_argv.size());
    benchmark::Initialize(&gbench_argc, gbench_argv.data());
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
  }
  return status;
}
