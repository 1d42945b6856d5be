// esva-bench: end-to-end benchmark of `esva serve` (benchmark/README.md).
//
//   esva_bench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//              [--out FILE] [--trace-out FILE] [--run-dir DIR] [--esva PATH]
//              [--git-commit SHA] [--smoke] [--corrupt-reference]
//
// Untraced (--trace 0) it repeats end-to-end rounds against the real daemon
// until --seconds have passed and reports the end-to-end metrics; traced
// (--trace 1) it runs one round plus in-process passes over the same request
// lines and reports the per-layer metrics. Every output is checked against an
// in-process reference. It prints `workload  name  value  unit` per metric and,
// last, one JSON object {"correct","attempted","failed","metrics"}.
//
// Exit codes: 0 ok (also for a run marked invalid: trace checks or generator
// lateness out of range), 1 error, 2 usage, 3 a correctness check failed.

#include <sched.h>
#include <sys/prctl.h>
#include <sys/utsname.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "baselines/registry.h"
#include "e2e.h"
#include "pipeline.h"
#include "serve/daemon.h"
#include "serve/journal.h"
#include "serve/wire.h"
#include "sim/replay.h"
#include "util/json.h"
#include "workload/arrival_stream.h"
#include "workload/trace.h"
#include "workloads.h"

namespace esva::bench {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// --- statistics --------------------------------------------------------------

/// Linear-interpolated quantile (q in [0,1]) of the samples; 0 when empty.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  if (std::isinf(v[hi])) return v[hi];
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double mean(const std::vector<double>& v) {
  return v.empty() ? 0.0
                   : std::accumulate(v.begin(), v.end(), 0.0) /
                         static_cast<double>(v.size());
}

double ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

/// Σa / Σb over paired samples, leaving out the 1% of pairs with the largest
/// a + b: one preempted call would otherwise swing a sum of microsecond
/// calls by tens of percent.
double trimmed_sum_ratio(const std::vector<double>& a,
                         const std::vector<double>& b) {
  std::vector<double> total(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) total[i] = a[i] + b[i];
  const double cut = quantile(total, 0.99);
  double sa = 0, sb = 0;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (total[i] <= cut) {
      sa += a[i];
      sb += b[i];
    }
  return ratio(sa, sb);
}

std::string fmt(double v) {
  if (!std::isfinite(v)) v = v > 0 ? 1e300 : -1e300;  // JSON has no inf
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string json_str(const std::string& s) { return json::escape(s); }

std::string json_list(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i) out += ',';
    out += fmt(v[i]);
  }
  return out + "]";
}

// --- options -----------------------------------------------------------------

struct Options {
  std::string workload;  ///< empty = every workload
  std::uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
  std::string out;
  std::string trace_out;
  std::string run_dir = "esva-bench-run";
  std::string esva = ESVA_BIN_PATH;
  std::string git_commit = "unknown";
  bool smoke = false;
  bool corrupt_reference = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "esva_bench: " << why << "\n"
            << "usage: esva_bench [--workload NAME] [--seed N] [--seconds S] "
               "[--trace 0|1] [--traced] [--out FILE] [--trace-out FILE] "
               "[--run-dir DIR] [--esva PATH] [--git-commit SHA] [--smoke] "
               "[--corrupt-reference]\n";
  std::exit(2);
}

Options parse_options(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + arg);
      return argv[++i];
    };
    try {
      if (arg == "--workload") o.workload = value();
      else if (arg == "--seed") o.seed = std::stoull(value());
      else if (arg == "--seconds") o.seconds = std::stod(value());
      else if (arg == "--trace") {
        const std::string v = value();
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        o.trace = v == "1";
      } else if (arg == "--traced") o.trace = true;
      else if (arg == "--out") o.out = value();
      else if (arg == "--trace-out") o.trace_out = value();
      else if (arg == "--run-dir") o.run_dir = value();
      else if (arg == "--esva") o.esva = value();
      else if (arg == "--git-commit") o.git_commit = value();
      else if (arg == "--smoke") o.smoke = true;
      else if (arg == "--corrupt-reference") o.corrupt_reference = true;
      else usage("unknown argument " + arg);
    } catch (const std::logic_error&) {
      usage("bad value for " + arg);
    }
  }
  if (!(o.seconds > 0)) usage("--seconds must be positive");
  if (o.smoke) o.seconds = std::min(o.seconds, 0.01);  // one round, one pass
  return o;
}

// --- results -----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Report {
  std::string workload;
  bool correct = true;
  bool valid = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> failures;  ///< failed correctness checks
  std::vector<std::string> invalid;   ///< failed validity checks
  std::map<std::string, std::string> meta;  ///< JSON-encoded values

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void check(bool ok, const std::string& what) {
    if (!ok) {
      correct = false;
      failures.push_back(what);
    }
  }
  void validate(bool ok, const std::string& what) {
    if (!ok) {
      valid = false;
      invalid.push_back(what);
    }
  }
};

// --- the reference -----------------------------------------------------------

/// The untraced pipeline's outcome for every op of the stream.
struct Reference {
  std::vector<double> energy;     ///< energy[k] = total after k ops
  std::vector<ServerId> server;   ///< per op; place ops only
  std::vector<std::pair<VmId, ServerId>> assignment;  ///< final, by vm id
};

Reference build_reference(const WorkloadSpec& spec, std::uint64_t seed,
                          const Inputs& in,
                          const std::vector<ServerSpec>& servers,
                          Report& report) {
  Reference ref;
  ref.energy.reserve(in.ops.size() + 1);
  ref.energy.push_back(0.0);
  ref.server.assign(in.ops.size(), kNoServer);
  {
    Pipeline pipeline(servers, daemon_options(spec, seed, "", ""), nullptr);
    for (std::size_t i = 0; i < in.ops.size(); ++i) {
      pipeline.handle(in.ops[i].line, i);
      ref.energy.push_back(pipeline.engine().total_energy());
      if (in.ops[i].request.op == serve::OpKind::kPlace)
        ref.server[i] = pipeline.last_server();
    }
    report.check(pipeline.last_seq() == in.ops.size(),
                 "reference journaled every op");
    ref.assignment.assign(pipeline.assignment().begin(),
                          pipeline.assignment().end());
  }
  if (in.place_only) {
    // The documented daemon == `esva stream` guarantee: replay_stream over
    // the same VMs must reach the same hosting and bit-identical energy.
    AllocatorPtr allocator = make_allocator("min-incremental");
    ScanConfig scan;
    scan.threads = 1;
    allocator->set_scan_config(scan);
    std::unique_ptr<PlacementPolicy> policy = allocator->make_policy();
    Rng rng(seed);
    VectorArrivalStream arrivals(in.vms);
    const ReplayReport replay =
        replay_stream(arrivals, servers, *policy, rng, ReplayOptions{});
    report.check(replay.total_energy == ref.energy.back(),
                 "replay_stream energy equals the reference");
    bool same = ref.assignment.size() == in.vms.size();
    for (const auto& [vm, server] : ref.assignment)
      same = same && static_cast<std::size_t>(vm) < replay.assignment.size() &&
             replay.assignment[static_cast<std::size_t>(vm)] == server;
    report.check(same, "replay_stream assignment equals the reference");
  }
  return ref;
}

/// Extracts an integer field `"key":N` or `"key":"N"`; nullopt for null.
std::optional<long long> field_int(const std::string& line,
                                   const std::string& key) {
  const std::string pat = "\"" + key + "\":";
  const std::size_t at = line.find(pat);
  if (at == std::string::npos) throw std::runtime_error("no " + key);
  std::size_t p = at + pat.size();
  if (line.compare(p, 4, "null") == 0) return std::nullopt;
  if (line[p] == '"') ++p;
  long long v = 0;
  const auto res =
      std::from_chars(line.data() + p, line.data() + line.size(), v);
  if (res.ec != std::errc()) throw std::runtime_error("bad " + key);
  return v;
}

/// Acked ops the restart after SIGKILL did not recover.
std::uint64_t acked_lost(const RoundResult& r) {
  return r.final_seq - std::min(r.final_seq, r.recovered_seq);
}

void check_round(const WorkloadSpec& spec, const Inputs& in,
                 const Reference& ref, const RoundResult& r, Report& report) {
  report.check(r.failed == 0, "every response is ok:true (" +
                                  std::to_string(r.failed) + " failed)");
  bool responses_match = true;
  for (std::size_t i = 0; i < in.ops.size() && responses_match; ++i) {
    try {
      responses_match = field_int(r.responses[i], "seq") ==
                        static_cast<long long>(i + 1);
      if (in.ops[i].request.op == serve::OpKind::kPlace) {
        const std::optional<long long> server =
            field_int(r.responses[i], "server");
        responses_match = responses_match &&
                          server.value_or(kNoServer) == ref.server[i];
      }
    } catch (const std::exception&) {
      responses_match = false;
    }
  }
  report.check(responses_match,
               "every response carries the reference seq and server");
  report.check(r.final_seq == in.ops.size(), "daemon journaled every op");
  report.check(r.final_energy == ref.energy.back(),
               "daemon energy_hex equals the reference");
  report.check(r.assignment == ref.assignment,
               "daemon assignment equals the reference");
  // After SIGKILL only the un-fsynced group-commit batch may be missing, and
  // what survives is a prefix of the acked ops with the reference energy.
  const std::uint64_t lost = acked_lost(r);
  report.check(r.recovered_seq <= r.final_seq &&
                   lost < static_cast<std::uint64_t>(spec.wal_sync_every),
               "recovered wal_seq is a prefix of the acked ops within the "
               "group-commit batch (lost " + std::to_string(lost) + ")");
  report.check(r.recovered_seq < ref.energy.size() &&
                   r.recovered_energy == ref.energy[r.recovered_seq],
               "recovered energy_hex equals the reference at the recovered "
               "wal_seq");
  report.check(r.restarts_agree,
               "every restart recovered the same wal_seq and energy_hex");
}

// --- metadata ----------------------------------------------------------------

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  return "unknown";
}

void add_host_meta(Report& report, const Options& o, const RunPaths& paths) {
  cpu_set_t set;
  CPU_ZERO(&set);
  const int nproc =
      sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set) : 0;
  utsname uts{};
  ::uname(&uts);
  report.meta["nproc"] = std::to_string(nproc);
  report.meta["hardware_threads"] =
      std::to_string(std::thread::hardware_concurrency());
  report.meta["cpu_model"] = json_str(cpu_model());
  report.meta["kernel"] =
      json_str(std::string(uts.sysname) + " " + uts.release);
  report.meta["wal_filesystem"] = json_str(filesystem_type(paths.dir));
  report.meta["build_type"] = json_str(ESVA_BENCH_BUILD_TYPE);
  report.meta["compiler"] = json_str(__VERSION__);
  report.meta["git_commit"] = json_str(o.git_commit);
  report.meta["seed"] = std::to_string(o.seed);
  report.meta["seconds"] = fmt(o.seconds);
  report.meta["trace"] = o.trace ? "true" : "false";
  report.meta["smoke"] = o.smoke ? "true" : "false";
}

// --- untraced: end-to-end rounds ---------------------------------------------

void run_untraced(const WorkloadSpec& spec, const Options& o, const Inputs& in,
                  const Reference& ref, const RunPaths& paths, Report& report) {
  // Interference from the host only ever slows the daemon down, in bursts
  // from microseconds to seconds long, so each timed piece of identical work
  // keeps its fastest sample: each slice of the closed loop across rounds
  // (ops_rps is the closed loop's ops over the sum of those), and the
  // restarts after SIGKILL. Set-up is sampled several times per round and
  // reported as its median.
  std::vector<double> setup, recovery, rps, rss;
  std::vector<double> fastest_slice_s;
  const Clock::time_point t0 = Clock::now();
  int rounds = 0;
  double energy = 0;
  // Rounds repeat identical work until the next one would overrun the
  // budget. Always at least one round.
  do {
    const RoundResult r = run_round(spec, o.seed, in, paths, o.esva, false);
    ++rounds;
    check_round(spec, in, ref, r, report);
    report.attempted += r.attempted;
    report.failed += r.failed;
    setup.insert(setup.end(), r.setup_s.begin(), r.setup_s.end());
    recovery.insert(recovery.end(), r.recovery_s.begin(), r.recovery_s.end());
    fastest_slice_s.resize(r.closed_ends_s.size(),
                           std::numeric_limits<double>::infinity());
    for (std::size_t k = 0; k < r.closed_ends_s.size(); ++k) {
      const double slice_s =
          r.closed_ends_s[k] - (k ? r.closed_ends_s[k - 1] : 0.0);
      fastest_slice_s[k] = std::min(fastest_slice_s[k], slice_s);
    }
    rps.push_back(r.ops_rps);
    rss.push_back(r.rss_mb);
    energy = r.final_energy;
    if (!report.correct) break;
  } while (seconds_since(t0) * (rounds + 1) / rounds <= o.seconds);

  const double closed_ops = static_cast<double>(
      in.ops.size() - static_cast<std::size_t>(spec.warmup_ops));
  report.add("setup_s", median(setup), "s");
  report.add("ops_rps",
             closed_ops / std::accumulate(fastest_slice_s.begin(),
                                          fastest_slice_s.end(), 0.0),
             "ops/s");
  report.add("recovery_s",
             *std::min_element(recovery.begin(), recovery.end()), "s");
  report.add("rss_peak_mb", median(rss), "MiB");
  report.add("energy_total", energy, "W.min");

  report.meta["rounds"] = std::to_string(rounds);
  report.meta["samples"] =
      "{\"setup_s\":" + std::to_string(setup.size()) +
      ",\"closed_loop_slices\":" + std::to_string(fastest_slice_s.size()) +
      ",\"recovery_s\":" + std::to_string(recovery.size()) +
      ",\"rounds\":" + std::to_string(rounds) + "}";
  // Every sample, for readers judging a result; ops_rps is per round.
  report.meta["raw_samples"] = "{\"setup_s\":" + json_list(setup) +
                               ",\"ops_rps\":" + json_list(rps) +
                               ",\"recovery_s\":" + json_list(recovery) +
                               ",\"rss_peak_mb\":" + json_list(rss) + "}";
}

// --- traced: one round plus in-process passes --------------------------------

/// Sums of the traced and untraced in-process passes.
struct PassTotals {
  std::vector<double> handle_us;  ///< untraced Daemon::handle_line, pooled
  std::vector<double> op_handle_us;  ///< per op, summed over untraced passes
  int untraced_passes = 0;
  double handle_ns = 0;
  double layer_ns = 0;      ///< Σ layer self times, shadow excluded
  double traced_op_ns = 0;  ///< Σ traced pipeline per-op time
  std::int64_t self_ns[static_cast<std::size_t>(SpanName::kCount)] = {};
  std::int64_t total_ns[static_cast<std::size_t>(SpanName::kCount)] = {};
  std::int64_t count[static_cast<std::size_t>(SpanName::kCount)] = {};
  ShadowCounters shadow;
  PipelineSamples samples;
  std::int64_t periodic_snapshots = 0;  ///< --snapshot-every snapshots
  int passes = 0;

  void add(const Tracer& t, const Pipeline& p) {
    for (std::size_t k = 0; k < std::size(self_ns); ++k) {
      const auto name = static_cast<SpanName>(k);
      self_ns[k] += t.self_ns(name);
      total_ns[k] += t.total_ns(name);
      count[k] += t.count(name);
    }
    for (std::size_t l = 0; l < static_cast<std::size_t>(Layer::kCount); ++l)
      if (static_cast<Layer>(l) != Layer::kShadow)
        layer_ns += static_cast<double>(t.layer_self_ns(static_cast<Layer>(l)));
    traced_op_ns += static_cast<double>(t.total_ns(SpanName::kOp));
    const auto append = [](std::vector<double>& to,
                           const std::vector<double>& from) {
      to.insert(to.end(), from.begin(), from.end());
    };
    const ShadowCounters& s = p.shadow();
    shadow.calls += s.calls;
    shadow.servers += s.servers;
    shadow.decided += s.decided;
    shadow.tree_probes += s.tree_probes;
    shadow.tree_fits += s.tree_fits;
    shadow.scored += s.scored;
    append(shadow.shadow_us, s.shadow_us);
    append(shadow.place_one_us, s.place_one_us);
    const PipelineSamples& ps = p.samples();
    append(samples.place_one_us, ps.place_one_us);
    append(samples.advance_us, ps.advance_us);
    append(samples.append_us, ps.append_us);
    append(samples.commit_append_us, ps.commit_append_us);
    append(samples.snapshot_ms, ps.snapshot_ms);
    periodic_snapshots += static_cast<std::int64_t>(ps.snapshot_ms.size());
    samples.horizon_growths += ps.horizon_growths;
    samples.horizon_growth_ns += ps.horizon_growth_ns;
    samples.record_bytes += ps.record_bytes;
    samples.records += ps.records;
    samples.snapshot_bytes = ps.snapshot_bytes;
    ++passes;
  }
  double self_us(SpanName n) const {
    return static_cast<double>(self_ns[static_cast<std::size_t>(n)]) * 1e-3;
  }
  double total_us(SpanName n) const {
    return static_cast<double>(total_ns[static_cast<std::size_t>(n)]) * 1e-3;
  }
  double calls(SpanName n) const {
    return static_cast<double>(count[static_cast<std::size_t>(n)]);
  }
};

void run_traced(const WorkloadSpec& spec, const Options& o, const Inputs& in,
                const Reference& ref, const std::vector<ServerSpec>& servers,
                const RunPaths& paths, Report& report) {
  const Clock::time_point t0 = Clock::now();
  const RoundResult round = run_round(spec, o.seed, in, paths, o.esva, true);
  check_round(spec, in, ref, round, report);
  report.attempted += round.attempted;
  report.failed += round.failed;

  const std::string inproc_wal = paths.dir + "/inproc.wal";
  const std::string inproc_snap =
      paths.snapshot.empty() ? "" : paths.dir + "/inproc.snap";
  const std::string final_snap = paths.dir + "/final.snap";
  const auto clear = [&] {
    for (const std::string& f : {inproc_wal, inproc_snap, inproc_snap + ".tmp",
                                 final_snap, final_snap + ".tmp"})
      if (!f.empty()) std::filesystem::remove(f);
  };
  const serve::DaemonOptions options =
      daemon_options(spec, o.seed, inproc_wal, inproc_snap);
  PassTotals totals;
  std::int64_t resident_peak = 0;
  FaultStats faults;
  const auto untraced_pass = [&] {
    clear();
    serve::Daemon daemon(servers, options);
    totals.op_handle_us.resize(in.ops.size());
    for (std::size_t i = 0; i < in.ops.size(); ++i) {
      const Clock::time_point t = Clock::now();
      const std::string response = daemon.handle_line(in.ops[i].line);
      const double us =
          std::chrono::duration<double, std::micro>(Clock::now() - t).count();
      totals.handle_us.push_back(us);
      totals.op_handle_us[i] += us;
      totals.handle_ns += us * 1e3;
      report.check(response.rfind("{\"ok\":true", 0) == 0,
                   "in-process daemon response is ok:true");
    }
    ++totals.untraced_passes;
  };
  const auto traced_pass = [&] {
    clear();
    Tracer tracer;
    tracer.reserve(in.ops.size() * 16);
    Pipeline pipeline(servers, options, &tracer);
    for (std::size_t i = 0; i < in.ops.size(); ++i)
      pipeline.handle(in.ops[i].line, i);
    report.check(pipeline.engine().total_energy() == ref.energy.back(),
                 "traced pipeline energy equals the reference");
    report.check(std::vector<std::pair<VmId, ServerId>>(
                     pipeline.assignment().begin(),
                     pipeline.assignment().end()) == ref.assignment,
                 "traced pipeline assignment equals the reference");
    totals.add(tracer, pipeline);
    // One snapshot of the final state, so the snapshot layer is measured on
    // every workload. It belongs to no op, so it stays out of the layer sums
    // taken above.
    pipeline.snapshot(final_snap);
    totals.samples.snapshot_ms.push_back(
        pipeline.samples().snapshot_ms.back());
    totals.samples.snapshot_bytes = pipeline.samples().snapshot_bytes;
    resident_peak = static_cast<std::int64_t>(
        pipeline.engine().peak_resident_time_units());
    faults = pipeline.engine().fault_stats();
    if (!o.trace_out.empty()) tracer.write_chrome_trace(o.trace_out);
  };
  // Untraced/traced pairs over the same lines until the budget is spent,
  // alternating which side runs first so drift cancels in the sums.
  do {
    if (totals.passes % 2 == 0) {
      untraced_pass();
      traced_pass();
    } else {
      traced_pass();
      untraced_pass();
    }
  } while (report.correct && totals.passes < 16 &&
           seconds_since(t0) * (totals.passes + 1) / totals.passes <=
               o.seconds);
  clear();

  // Recovery of the killed round's files, in process.
  const std::string rec_wal = paths.dir + "/recover.wal";
  const std::string rec_snap =
      paths.snapshot.empty() ? "" : paths.dir + "/recover.snap";
  std::filesystem::copy_file(paths.dir + "/crash.wal", rec_wal,
                             std::filesystem::copy_options::overwrite_existing);
  if (!rec_snap.empty()) {
    std::filesystem::remove(rec_snap);
    if (std::filesystem::exists(paths.dir + "/crash.snap"))
      std::filesystem::copy_file(paths.dir + "/crash.snap", rec_snap);
  }
  Clock::time_point t = Clock::now();
  const serve::WalFile wal = serve::read_wal(rec_wal);
  const double read_wal_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - t).count();
  t = Clock::now();
  double replay_ms = 0;
  {
    serve::Daemon recovered(servers,
                            daemon_options(spec, o.seed, rec_wal, rec_snap));
    replay_ms =
        std::chrono::duration<double, std::milli>(Clock::now() - t).count() -
        read_wal_ms;
    const std::size_t seq = std::min<std::size_t>(recovered.last_seq(),
                                                  ref.energy.size() - 1);
    report.check(recovered.last_seq() == round.recovered_seq &&
                     recovered.engine().total_energy() == ref.energy[seq],
                 "in-process recovery matches the reference");
  }
  for (const std::string& f : {rec_wal, rec_snap, rec_snap + ".tmp"})
    if (!f.empty()) std::filesystem::remove(f);

  // --- per-layer metrics -----------------------------------------------------
  const double ops = static_cast<double>(in.ops.size());
  // The closed-loop phase's per-op wall time against the in-process service
  // time of the same ops (averaged over the untraced passes): what the
  // socket loop adds.
  const auto service_us = [&](std::size_t op) {
    return totals.op_handle_us[op] / totals.untraced_passes;
  };
  const std::size_t closed_begin = static_cast<std::size_t>(spec.warmup_ops);
  const std::size_t open_begin =
      closed_begin + static_cast<std::size_t>(spec.closed_ops);
  double closed_service_us = 0;
  for (std::size_t i = closed_begin; i < open_begin; ++i)
    closed_service_us += service_us(i);
  const double handle_mean_us =
      closed_service_us / static_cast<double>(spec.closed_ops);
  std::vector<double> wait_ms;
  for (std::size_t i = 0; i < round.ack_ms.size(); ++i)
    wait_ms.push_back(round.ack_ms[i] - service_us(open_begin + i) * 1e-3);
  const ShadowCounters& s = totals.shadow;
  const PipelineSamples& ps = totals.samples;
  const auto d = [](auto v) { return static_cast<double>(v); };
  const double passes = totals.passes;
  const auto self_per_call = [&](SpanName n) {
    return ratio(totals.self_us(n), totals.calls(n));
  };

  report.add("client.late_p99_ms", quantile(round.late_ms, 0.99), "ms");
  report.add("socket.ack_p50_ms", quantile(round.ack_ms, 0.50), "ms");
  report.add("socket.ack_p99_ms", quantile(round.ack_ms, 0.99), "ms");
  report.add("socket.stats_p99_ms", quantile(round.stats_ms, 0.99), "ms");
  report.add("socket.self_us_per_op", 1e6 / round.ops_rps - handle_mean_us,
             "us");
  report.add("socket.wait_ms_p99", quantile(wait_ms, 0.99), "ms");
  report.add("socket.req_bytes", d(round.request_bytes) / ops, "B");
  report.add("socket.resp_bytes", d(round.response_bytes) / ops, "B");
  report.add("daemon.handle_us_p50", quantile(totals.handle_us, 0.50), "us");
  report.add("daemon.handle_us_p99", quantile(totals.handle_us, 0.99), "us");
  report.add("wire.decode_us_mean", self_per_call(SpanName::kDecode), "us");
  report.add("engine.advance_us_mean", self_per_call(SpanName::kAdvance), "us");
  report.add("engine.advance_ms_max", quantile(ps.advance_us, 1.0) * 1e-3,
             "ms");
  report.add("engine.commit_us_mean", self_per_call(SpanName::kSubmit), "us");
  report.add("engine.horizon_growths", d(ps.horizon_growths) / passes,
             "count");
  report.add("engine.horizon_growth_ms_total",
             d(ps.horizon_growth_ns) * 1e-6 / passes, "ms");
  report.add("engine.resident_units_peak", d(resident_peak), "units");
  report.add("engine.evacuated", d(faults.evacuated), "count");
  report.add("engine.retries", d(faults.retries), "count");
  report.add("engine.rejected", d(faults.rejected_final), "count");
  report.add("scan.place_one_us_mean", mean(ps.place_one_us), "us");
  report.add("scan.place_one_us_p99", quantile(ps.place_one_us, 0.99), "us");
  report.add("scan.triage_us_mean",
             ratio(totals.total_us(SpanName::kTriage), d(s.calls)), "us");
  report.add("scan.triage_decided_ratio", ratio(d(s.decided), d(s.servers)),
             "ratio");
  report.add("scan.tree_probes_per_op", ratio(d(s.tree_probes), d(s.calls)),
             "count");
  report.add("scan.tree_probe_us_mean",
             ratio(totals.total_us(SpanName::kTreeProbe), d(s.tree_probes)),
             "us");
  report.add("scan.tree_fit_ratio", ratio(d(s.tree_fits), d(s.tree_probes)),
             "ratio");
  report.add("scan.scored_per_op", ratio(d(s.scored), d(s.calls)), "count");
  report.add("scan.score_us_mean",
             ratio(totals.total_us(SpanName::kScore), d(s.scored)), "us");
  const double shadow_sum_ratio =
      trimmed_sum_ratio(s.shadow_us, s.place_one_us);
  report.add("scan.shadow_sum_ratio", shadow_sum_ratio, "ratio");
  report.add("journal.encode_us_mean", self_per_call(SpanName::kEncode), "us");
  report.add("journal.bytes_per_op",
             ratio(d(ps.record_bytes), d(ps.records)), "B");
  report.add("journal.append_us_mean", mean(ps.append_us), "us");
  report.add("journal.commit_us_p50", quantile(ps.commit_append_us, 0.50),
             "us");
  report.add("journal.commit_us_p99", quantile(ps.commit_append_us, 0.99),
             "us");
  report.add("journal.ops_per_fsync",
             ratio(d(ps.append_us.size()), d(ps.commit_append_us.size())),
             "ops");
  report.add("journal.acked_lost", d(acked_lost(round)), "ops");
  report.add("snapshot.count", d(totals.periodic_snapshots) / passes, "count");
  report.add("snapshot.write_ms_mean", mean(ps.snapshot_ms), "ms");
  report.add("snapshot.bytes", d(ps.snapshot_bytes), "B");
  report.add("recovery.read_wal_ms", read_wal_ms, "ms");
  report.add("recovery.replay_ms", replay_ms, "ms");
  report.add("recovery.records", d(wal.records.size()), "count");
  const double layer_sum_ratio = ratio(totals.layer_ns, totals.handle_ns);
  report.add("trace.layer_sum_ratio", layer_sum_ratio, "ratio");
  report.add("trace.overhead", ratio(totals.traced_op_ns, totals.handle_ns),
             "ratio");

  report.meta["traced_passes"] = std::to_string(totals.passes);
  report.meta["samples"] =
      "{\"handle_us\":" + std::to_string(totals.handle_us.size()) +
      ",\"place_one_us\":" + std::to_string(ps.place_one_us.size()) +
      ",\"commit_us\":" + std::to_string(ps.commit_append_us.size()) +
      ",\"open_ack_ms\":" + std::to_string(round.ack_ms.size()) +
      ",\"stats_ms\":" + std::to_string(round.stats_ms.size()) + "}";
  if (!o.smoke) {
    report.validate(layer_sum_ratio >= 0.90 && layer_sum_ratio <= 1.10,
                    "trace.layer_sum_ratio " + fmt(layer_sum_ratio) +
                        " outside [0.90, 1.10]");
    report.validate(shadow_sum_ratio >= 0.85 && shadow_sum_ratio <= 1.15,
                    "scan.shadow_sum_ratio " + fmt(shadow_sum_ratio) +
                        " outside [0.85, 1.15]");
    const double late_p99 = quantile(round.late_ms, 0.99);
    report.validate(late_p99 <= 1.0, "client.late_p99_ms " + fmt(late_p99) +
                                         " > 1 ms: the generator fell behind");
  }
}

Report run_workload(const WorkloadSpec& base, const Options& o) {
  const WorkloadSpec spec = o.smoke ? smoke_variant(base) : base;
  Report report;
  report.workload = spec.name;
  const Inputs in = generate_inputs(spec, o.seed);
  const RunPaths paths = RunPaths::under(o.run_dir + "/" + spec.name, spec);
  add_host_meta(report, o, paths);
  report.meta["ops"] = std::to_string(in.ops.size());
  report.meta["servers"] = std::to_string(in.servers.size());
  // The daemon reads the fleet from this CSV; every in-process reference
  // reads it back too, so all of them see exactly the daemon's fleet.
  save_server_trace(paths.servers_csv, in.servers);
  const std::vector<ServerSpec> servers = load_server_trace(paths.servers_csv);

  Reference ref = build_reference(spec, o.seed, in, servers, report);
  // Shows the checks can fail: the run must now report a mismatch.
  if (o.corrupt_reference)
    ref.energy.back() = std::nextafter(ref.energy.back(), 1e300);
  if (report.correct) {
    if (o.trace)
      run_traced(spec, o, in, ref, servers, paths, report);
    else
      run_untraced(spec, o, in, ref, paths, report);
  }
  return report;
}

void print_report(const Report& r) {
  for (const Metric& m : r.metrics)
    std::printf("%-16s %-30s %-22s %s\n", r.workload.c_str(), m.name.c_str(),
                fmt(m.value).c_str(), m.unit.c_str());
  for (const std::string& f : r.failures)
    std::fprintf(stderr, "%s: CHECK FAILED: %s\n", r.workload.c_str(),
                 f.c_str());
  for (const std::string& f : r.invalid)
    std::fprintf(stderr, "%s: INVALID RUN: %s\n", r.workload.c_str(),
                 f.c_str());
}

/// Appends `"<prefix><name>":{"value":v,"unit":u}` per metric to a JSON
/// object's member list.
void append_metrics(std::string& members, const std::vector<Metric>& metrics,
                    const std::string& prefix) {
  for (const Metric& m : metrics) {
    if (!members.empty()) members += ',';
    members += json_str(prefix + m.name);
    members += ":{\"value\":" + fmt(m.value) + ",\"unit\":" + json_str(m.unit);
    members += '}';
  }
}

std::string json_strings(const std::vector<std::string>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i) out += ',';
    out += json_str(v[i]);
  }
  return out + "]";
}

std::string report_json(const Report& r) {
  std::string out = "{\"workload\":" + json_str(r.workload);
  out += ",\"correct\":" + std::string(r.correct ? "true" : "false");
  out += ",\"valid\":" + std::string(r.valid ? "true" : "false");
  out += ",\"attempted\":" + std::to_string(r.attempted);
  out += ",\"failed\":" + std::to_string(r.failed);
  for (const auto& [key, value] : r.meta)
    out += "," + json_str(key) + ":" + value;
  out += ",\"checks_failed\":" + json_strings(r.failures);
  out += ",\"invalid\":" + json_strings(r.invalid);
  std::string metrics;
  append_metrics(metrics, r.metrics, "");
  return out + ",\"metrics\":{" + metrics + "}}";
}

int run(const Options& o) {
  std::vector<const WorkloadSpec*> specs;
  if (o.workload.empty())
    for (const WorkloadSpec& spec : workload_table()) specs.push_back(&spec);
  else
    specs.push_back(&find_workload(o.workload));

  std::vector<Report> reports;
  for (const WorkloadSpec* spec : specs) {
    reports.push_back(run_workload(*spec, o));
    print_report(reports.back());
    // The smoke test covers the traced path too, on the same inputs.
    if (o.smoke && !o.trace && reports.back().correct) {
      Options traced = o;
      traced.trace = true;
      reports.push_back(run_workload(*spec, traced));
      print_report(reports.back());
    }
  }

  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::string metrics;
  for (const Report& r : reports) {
    correct = correct && r.correct;
    attempted += r.attempted;
    failed += r.failed;
    // One workload: bare names; several: prefixed with the workload.
    append_metrics(metrics, r.metrics,
                   specs.size() == 1 ? "" : r.workload + ".");
  }
  if (!o.out.empty()) {
    std::ofstream file(o.out);
    file << "[";
    for (std::size_t i = 0; i < reports.size(); ++i)
      file << (i ? ",\n" : "") << report_json(reports[i]);
    file << "]\n";
    if (!file) throw std::runtime_error("cannot write " + o.out);
  }
  std::printf(
      "{\"correct\":%s,\"attempted\":%lld,\"failed\":%lld,\"metrics\":{%s}}\n",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed), metrics.c_str());
  std::fflush(stdout);
  // An invalid run (trace checks out of range, generator behind schedule)
  // is marked in the output and on stderr but still exits 0: on a shared
  // host it says the numbers are suspect, not that the program is wrong.
  return correct ? 0 : 3;
}

}  // namespace
}  // namespace esva::bench

int main(int argc, char** argv) {
  const esva::bench::Options options = esva::bench::parse_options(argc, argv);
  // Timed sleeps (the open-loop sender, the reader) wake on time, not up to
  // the default 50 us late; threads created later inherit this.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  try {
    return esva::bench::run(options);
  } catch (const std::exception& e) {
    std::cerr << "esva_bench: " << e.what() << '\n';
    return 1;
  }
}
