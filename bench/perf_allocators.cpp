// P1/P2 — allocator performance gates with a machine-readable artifact.
//
// Runs four paired gates and writes BENCH_perf.json. Exits nonzero on any
// identity failure (the measured variant's assignment or energy diverging
// from its reference) or when a gate misses its budget:
//   - null-sink overhead: min-incremental with a metrics registry bound and
//     no trace sink vs the same allocator with no observability context, at
//     most 5% slower (always enforced);
//   - envelope triage: the SoA classify() sweep at least 1.3x faster than
//     the quick_fit loop it replaces (outside --quick);
//   - telemetry and WAL overhead: the full telemetry stack, and the serve
//     daemon's journal (tmpfs, group commit of 32), each at most 5% over the
//     bare stream replay at fig2@500 (outside --quick).
// Each gate is paired: time_paired() alternates the two variants and gates
// on the median per-pair ratio.

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "baselines/registry.h"
#include "cluster/timeline.h"
#include "core/cost_model.h"
#include "core/envelope_store.h"
#include "core/streaming.h"
#include "core/min_incremental.h"
#include "obs/energy_ledger.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "serve/journal.h"
#include "sim/replay.h"
#include "stats/summary.h"
#include "util/cli.h"
#include "workload/arrival_stream.h"
#include "workload/scenarios.h"

namespace {

using namespace esva;

ProblemInstance instance_for(int num_vms, std::uint64_t seed) {
  Rng rng(seed);
  return fig2_scenario(num_vms, 2.0).instantiate(rng);
}

// ---------------------------------------------------------------------------
// Overhead guard + BENCH_perf.json
// ---------------------------------------------------------------------------

double time_ms(const std::function<void()>& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

double median(std::span<const double> xs) { return quantile(xs, 0.5); }

/// Keeps the optimizer from dropping a timed result that nothing reads: the
/// empty asm claims to read `p` and all of memory.
void keep(const void* p) { asm volatile("" : : "g"(p) : "memory"); }

/// Per-pair timings of a reference and a measured variant, and the gate
/// statistic: the median over pairs of measured_ms[i] / reference_ms[i].
/// The ratios' quartiles say whether a verdict is resolved: a budget that
/// lies between q1 and q3 is inside the pairs' own spread.
struct PairedTiming {
  std::vector<double> reference_ms;
  std::vector<double> measured_ms;
  double q1_ratio = 0.0;
  double median_ratio = 0.0;
  double q3_ratio = 0.0;
};

constexpr double kQuartiles[] = {0.25, 0.5, 0.75};

/// Runs both variants once to warm up, then `pairs` times each, alternating
/// which goes first so drift within a pair (a frequency step, load arriving
/// mid-pair) penalizes each variant on half the pairs. The median per-pair
/// ratio cancels drift between pairs, and unlike the best or worst pair it
/// moves when either variant really gets slower.
PairedTiming time_paired(int pairs, const std::function<void()>& reference,
                         const std::function<void()>& measured) {
  PairedTiming timing;
  reference();
  measured();
  std::vector<double> ratios;
  for (int pair = 0; pair < pairs; ++pair) {
    if (pair % 2 == 0) {
      timing.reference_ms.push_back(time_ms(reference));
      timing.measured_ms.push_back(time_ms(measured));
    } else {
      timing.measured_ms.push_back(time_ms(measured));
      timing.reference_ms.push_back(time_ms(reference));
    }
    ratios.push_back(timing.measured_ms.back() / timing.reference_ms.back());
  }
  const std::vector<double> qs = quantiles(ratios, kQuartiles);
  timing.q1_ratio = qs[0];
  timing.median_ratio = qs[1];
  timing.q3_ratio = qs[2];
  return timing;
}

/// The per-pair ratio quartiles as the artifact's "ratio_quartiles" array:
/// [q1, median, q3] of measured / reference.
std::string json_quartiles(const PairedTiming& timing) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "[%.4f, %.4f, %.4f]", timing.q1_ratio,
                timing.median_ratio, timing.q3_ratio);
  return buf;
}

/// The quartiles of an overhead gate's per-pair ratio minus 1, printed
/// beside its verdict.
std::string overhead_quartiles(const PairedTiming& timing) {
  char buf[96];
  std::snprintf(buf, sizeof(buf),
                "pairs q1 %+.2f%% / median %+.2f%% / q3 %+.2f%%",
                100.0 * (timing.q1_ratio - 1.0),
                100.0 * (timing.median_ratio - 1.0),
                100.0 * (timing.q3_ratio - 1.0));
  return buf;
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
  /// reference: no observability context; measured: a metrics registry
  /// bound, no trace sink.
  PairedTiming timing;
  std::vector<double> traced_ms;
  double overhead = 0.0;  ///< median paired ratio minus 1
  bool assignments_match = false;
  std::size_t trace_records = 0;
};

OverheadReport measure_overhead(int num_vms, int reps) {
  OverheadReport report;
  report.num_vms = num_vms;
  const ProblemInstance problem = instance_for(num_vms, 42);

  // The guard compares a few-percent effect, so it needs at least 11 pairs
  // for a stable median.
  reps = std::max(reps, 11);

  Allocation unobserved;
  Allocation observed;
  MetricsRegistry registry;
  report.timing = time_paired(
      reps,
      [&] {
        MinIncrementalAllocator allocator;
        Rng rng(7);
        unobserved = allocator.allocate(problem, rng);
      },
      [&] {
        MinIncrementalAllocator allocator;
        ObsContext obs;
        obs.metrics = &registry;
        allocator.set_observability(obs);
        Rng rng(7);
        observed = allocator.allocate(problem, rng);
      });
  report.assignments_match = unobserved.assignment == observed.assignment;
  report.overhead = report.timing.median_ratio - 1.0;

  // Informational: the cost of a *live* trace (memory sink + registry).
  MemoryTraceSink sink;
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
      keep(alloc.assignment.data());
    }));
  }
  report.trace_records = sink.size();
  return report;
}

// ---------------------------------------------------------------------------
// SoA envelope triage: the packed classify() sweep vs the AoS quick_fit loop
// it replaces
// ---------------------------------------------------------------------------

struct EnvelopeReport {
  int num_vms = 0;
  /// reference: the per-server quick_fit loop; measured: classify() for
  /// every VM.
  PairedTiming timing;
  double triage_speedup = 0.0;  ///< 1 / median paired sweep/loop ratio
  bool verdicts_match = true;   ///< classify == quick_fit, every probe row
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
  report.timing = time_paired(
      reps,
      [&] {
        const std::vector<ServerTimeline>& timelines = cluster.timelines();
        for (const VmSpec& vm : problem.vms) {
          for (std::size_t i = 0; i < n; ++i)
            loop_verdicts[i] =
                static_cast<std::uint8_t>(timelines[i].quick_fit(vm));
          keep(loop_verdicts.data());
        }
      },
      [&] {
        for (const VmSpec& vm : problem.vms) {
          cluster.envelopes().classify(EnvelopeStore::probe_of(vm),
                                       sweep_verdicts.data());
          keep(sweep_verdicts.data());
        }
      });
  report.triage_speedup = 1.0 / report.timing.median_ratio;

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
              "(medians) -> %.2fx median paired, verdicts %s\n",
              median(report.timing.measured_ms),
              median(report.timing.reference_ms), report.triage_speedup,
              report.verdicts_match ? "bit-identical" : "DIVERGED (BUG)");

  report.triage_enforced = !quick;
  report.pass = report.verdicts_match &&
                (!report.triage_enforced ||
                 report.triage_speedup >= triage_budget);
  std::printf("  triage speedup %.2fx (budget %.1fx, %s; pairs q1 %.2fx / "
              "median %.2fx / q3 %.2fx) -> %s\n",
              report.triage_speedup, triage_budget,
              report.triage_enforced ? "enforced" : "not enforced in --quick",
              1.0 / report.timing.q3_ratio, report.triage_speedup,
              1.0 / report.timing.q1_ratio, report.pass ? "OK" : "FAIL");
  return report;
}

// ---------------------------------------------------------------------------
// Telemetry gate: full collector stack vs the bare replay
// ---------------------------------------------------------------------------

struct TelemetryReport {
  int num_vms = 0;
  /// reference: the bare replay; measured: the full telemetry stack.
  PairedTiming timing;
  double overhead = 0.0;  ///< median paired ratio minus 1
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
/// always; the overhead budget (median paired ratio, time_paired) outside
/// --quick.
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
    keep(out_report.assignment.data());
  };

  ReplayReport plain;
  ReplayReport full;
  EnergyLedger ledger;
  report.timing = time_paired(
      reps, [&] { run(false, plain, nullptr, nullptr); },
      [&] {
        ledger.clear();
        run(true, full, &ledger, &report.samples);
      });
  report.ledger_entries = ledger.size();
  report.assignments_match = plain.assignment == full.assignment &&
                             plain.total_energy == full.total_energy;
  report.ledger_total = ledger.total();
  report.engine_total = full.total_energy;
  report.conserves = ledger.conserves(full.total_energy);

  report.overhead = report.timing.median_ratio - 1.0;
  report.overhead_enforced = !quick;
  report.pass = report.assignments_match && report.conserves &&
                (!report.overhead_enforced || report.overhead <= budget);

  std::printf("measuring telemetry stack (%d VMs, sampler every tick + "
              "histogram + ledger)...\n",
              num_vms);
  std::printf("  bare replay:    %8.2f ms (median)\n",
              median(report.timing.reference_ms));
  std::printf("  full telemetry: %8.2f ms (median)  -> overhead %+.2f%% "
              "(median paired ratio, budget %.0f%%, %s; %s) %s\n",
              median(report.timing.measured_ms), 100.0 * report.overhead,
              100.0 * budget,
              report.overhead_enforced ? "enforced" : "not enforced (--quick)",
              overhead_quartiles(report.timing).c_str(),
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
  /// reference: the bare stream replay; measured: the journaled loop.
  PairedTiming timing;
  double overhead = 0.0;  ///< median paired ratio minus 1
  /// The journal's place records, read back through read_wal, hold the
  /// batch replay's assignment; always enforced.
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
/// must read back through the daemon's recovery reader to the replay's
/// assignment, and the journaled run's total energy must equal the
/// replay's exactly. The <= budget overhead gate (median paired ratio,
/// time_paired) enforces outside --quick.
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
    keep(out_report.assignment.data());
  };

  // The daemon's submit path minus the socket/JSON wire: place in arrival
  // order, journal each decision after the engine applied it, fsync per the
  // batch policy, drain. The engine is configured as serve::Daemon's and
  // replay_stream's are, with their default cost, retry and migration
  // options.
  const auto run_wal = [&](Energy* out_energy) {
    ::unlink(journal_path.c_str());
    AllocatorPtr allocator = make_allocator("min-incremental");
    std::unique_ptr<PlacementPolicy> policy = allocator->make_policy();
    Rng rng(7);
    PlacementEngine engine(
        problem.servers, *policy, rng,
        streaming_engine_options(CostOptions{}, RetryPolicy{}, 25.0));
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
  report.timing = time_paired(reps, [&] { run_stream(stream); },
                              [&] { run_wal(&wal_energy); });

  // Read the surviving journal back the way recovery does: it holds one
  // place record per VM, and their recorded outcomes must be the batch
  // replay's assignment (retries are off here, so submit decisions are
  // final).
  const serve::WalFile journal = serve::read_wal(journal_path);
  report.journal_records = journal.records.size();
  report.journal_bytes = journal.valid_bytes;
  std::vector<ServerId> replayed(problem.vms.size(), kNoServer);
  report.assignments_match = true;
  for (const serve::WalRecord& rec : journal.records) {
    const auto vm = static_cast<std::size_t>(rec.req.vm.id);
    if (rec.req.op != serve::OpKind::kPlace || vm >= replayed.size()) {
      report.assignments_match = false;
      break;
    }
    replayed[vm] = rec.chosen;
  }
  report.assignments_match =
      report.assignments_match && replayed == stream.assignment;
  report.energy_match = wal_energy == stream.total_energy;
  ::unlink(journal_path.c_str());

  report.overhead = report.timing.median_ratio - 1.0;
  report.overhead_enforced = !quick;
  report.pass = report.assignments_match && report.energy_match &&
                (!report.overhead_enforced || report.overhead <= budget);

  std::printf("measuring WAL durability cost (%d VMs, journal on %s, fsync "
              "every %d)...\n",
              num_vms, report.journal_dir.c_str(), report.sync_every);
  std::printf("  bare stream:     %8.2f ms (median)\n",
              median(report.timing.reference_ms));
  std::printf("  journaled:       %8.2f ms (median)  -> overhead %+.2f%% "
              "(median paired ratio, budget %.0f%%, %s; %s) %s\n",
              median(report.timing.measured_ms), 100.0 * report.overhead,
              100.0 * budget,
              report.overhead_enforced ? "enforced" : "not enforced (--quick)",
              overhead_quartiles(report.timing).c_str(),
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

/// The gates' budgets: the null-sink, telemetry and WAL overhead ceiling and
/// the envelope triage speedup floor (median paired ratios).
constexpr double kOverheadBudget = 0.05;
constexpr double kEnvelopeBudget = 1.3;

int run_perf_report(const std::string& out_path, int num_vms, int reps,
                    bool quick) {
  std::printf("measuring null-sink observability overhead (%d VMs)...\n",
              num_vms);
  const OverheadReport overhead = measure_overhead(num_vms, reps);
  const bool pass = overhead.overhead <= kOverheadBudget;

  std::printf("  no obs context: %8.2f ms (median)\n",
              median(overhead.timing.reference_ms));
  std::printf("  null sink:      %8.2f ms (median)  -> overhead %+.2f%% "
              "(median paired ratio, budget %.0f%%; %s) %s\n",
              median(overhead.timing.measured_ms), 100.0 * overhead.overhead,
              100.0 * kOverheadBudget,
              overhead_quartiles(overhead.timing).c_str(),
              pass ? "OK" : "FAIL");
  std::printf("  live trace:     %8.2f ms (median), %zu decision records\n",
              median(overhead.traced_ms), overhead.trace_records);
  std::printf("  assignments identical: %s\n",
              overhead.assignments_match ? "yes" : "NO (BUG)");

  const EnvelopeReport envelope =
      measure_envelope(num_vms, reps, kEnvelopeBudget, quick);

  // The telemetry gate runs at the fig2@500 acceptance point in full mode
  // (quick keeps the smoke-test scenario size).
  const TelemetryReport telemetry = measure_telemetry(
      quick ? num_vms : 500, reps, kOverheadBudget, quick);

  // The WAL gate shares the fig2@500 acceptance point (and the telemetry
  // guard's budget): the serve daemon's journal must cost <= 5% over the
  // bare stream replay.
  const WalReport wal =
      measure_wal(quick ? num_vms : 500, reps, kOverheadBudget, quick);

  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  out << "{\n  \"host\": {\"hardware_threads\": "
      << std::thread::hardware_concurrency() << "},\n";
  out << "  \"scenario\": {\"family\": \"fig2\", \"num_vms\": " << num_vms
      << ", \"mean_interarrival\": 2.0, \"seed\": 42},\n";
  out << "  \"overhead_guard\": {\n"
      << "    \"no_obs_ms\": " << json_array(overhead.timing.reference_ms)
      << ",\n"
      << "    \"null_sink_ms\": " << json_array(overhead.timing.measured_ms)
      << ",\n"
      << "    \"traced_ms\": " << json_array(overhead.traced_ms) << ",\n"
      << "    \"median_no_obs_ms\": " << median(overhead.timing.reference_ms)
      << ",\n"
      << "    \"median_null_sink_ms\": "
      << median(overhead.timing.measured_ms) << ",\n"
      << "    \"median_traced_ms\": " << median(overhead.traced_ms) << ",\n"
      << "    \"null_sink_overhead\": " << overhead.overhead << ",\n"
      << "    \"ratio_quartiles\": " << json_quartiles(overhead.timing)
      << ",\n"
      << "    \"overhead_budget\": " << kOverheadBudget << ",\n"
      << "    \"trace_records\": " << overhead.trace_records << ",\n"
      << "    \"assignments_match\": "
      << (overhead.assignments_match ? "true" : "false") << ",\n"
      << "    \"pass\": " << (pass ? "true" : "false") << "\n  },\n";
  out << "  \"envelope\": {\n"
      << "    \"num_vms\": " << envelope.num_vms << ",\n"
      << "    \"sweep_ms\": " << json_array(envelope.timing.measured_ms)
      << ",\n"
      << "    \"quickfit_loop_ms\": "
      << json_array(envelope.timing.reference_ms) << ",\n"
      << "    \"median_sweep_ms\": " << median(envelope.timing.measured_ms)
      << ",\n"
      << "    \"median_quickfit_loop_ms\": "
      << median(envelope.timing.reference_ms) << ",\n"
      << "    \"triage_speedup\": " << envelope.triage_speedup << ",\n"
      << "    \"ratio_quartiles\": " << json_quartiles(envelope.timing)
      << ",\n"
      << "    \"triage_budget\": " << envelope.triage_budget << ",\n"
      << "    \"triage_enforced\": "
      << (envelope.triage_enforced ? "true" : "false") << ",\n"
      << "    \"verdicts_match\": "
      << (envelope.verdicts_match ? "true" : "false") << ",\n"
      << "    \"pass\": " << (envelope.pass ? "true" : "false") << "\n  },\n";
  out << "  \"telemetry\": {\n"
      << "    \"allocator\": \"min-incremental\",\n"
      << "    \"num_vms\": " << telemetry.num_vms << ",\n"
      << "    \"plain_ms\": " << json_array(telemetry.timing.reference_ms)
      << ",\n"
      << "    \"telemetry_ms\": " << json_array(telemetry.timing.measured_ms)
      << ",\n"
      << "    \"median_plain_ms\": " << median(telemetry.timing.reference_ms)
      << ",\n"
      << "    \"median_telemetry_ms\": "
      << median(telemetry.timing.measured_ms) << ",\n"
      << "    \"overhead\": " << telemetry.overhead << ",\n"
      << "    \"ratio_quartiles\": " << json_quartiles(telemetry.timing)
      << ",\n"
      << "    \"overhead_budget\": " << kOverheadBudget << ",\n"
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
      << "    \"stream_ms\": " << json_array(wal.timing.reference_ms) << ",\n"
      << "    \"wal_ms\": " << json_array(wal.timing.measured_ms) << ",\n"
      << "    \"median_stream_ms\": " << median(wal.timing.reference_ms)
      << ",\n"
      << "    \"median_wal_ms\": " << median(wal.timing.measured_ms) << ",\n"
      << "    \"overhead\": " << wal.overhead << ",\n"
      << "    \"ratio_quartiles\": " << json_quartiles(wal.timing) << ",\n"
      << "    \"overhead_budget\": " << kOverheadBudget << ",\n"
      << "    \"overhead_enforced\": "
      << (wal.overhead_enforced ? "true" : "false") << ",\n"
      << "    \"journal_records\": " << wal.journal_records << ",\n"
      << "    \"journal_bytes\": " << wal.journal_bytes << ",\n"
      << "    \"assignments_match\": "
      << (wal.assignments_match ? "true" : "false") << ",\n"
      << "    \"energy_match\": " << (wal.energy_match ? "true" : "false")
      << ",\n"
      << "    \"pass\": " << (wal.pass ? "true" : "false") << "\n  }\n";
  out << "}\n";
  std::printf("wrote %s\n", out_path.c_str());

  if (!overhead.assignments_match) {
    std::fprintf(stderr,
                 "FAIL: binding a metrics registry changed the "
                 "min-incremental assignment\n");
    return 1;
  }
  if (!pass) {
    std::fprintf(stderr,
                 "FAIL: null-sink overhead %.2f%% exceeds budget %.0f%%\n",
                 100.0 * overhead.overhead, 100.0 * kOverheadBudget);
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
                 100.0 * telemetry.overhead, 100.0 * kOverheadBudget);
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
                 100.0 * wal.overhead, 100.0 * kOverheadBudget);
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  esva::CliParser parser(
      "bench/perf_allocators — paired overhead, envelope, telemetry and WAL "
      "gates, BENCH_perf.json artifact");
  parser.add_string("out", "BENCH_perf.json", "JSON artifact output path");
  parser.add_int("vms", 1000, "VM count of the overhead-guard scenario");
  parser.add_int("reps", 7,
                 "timed pairs per gate (the null-sink, telemetry and WAL "
                 "gates run at least 11, 7 and 13)");
  parser.add_bool("quick", "300-VM scenario, 5 reps (smoke test)");
  if (!parser.parse(argc, argv)) return parser.parse_error() ? 1 : 0;

  int num_vms = static_cast<int>(parser.get_int("vms"));
  int reps = static_cast<int>(parser.get_int("reps"));
  if (parser.get_bool("quick")) {
    num_vms = 300;
    reps = 5;
  }

  return run_perf_report(parser.get_string("out"), num_vms, reps,
                         parser.get_bool("quick"));
}
