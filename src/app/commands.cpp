#include "app/commands.h"

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstddef>
#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <optional>
#include <ostream>
#include <sstream>

#include "baselines/registry.h"
#include "cluster/datacenter.h"
#include "core/fault_plan.h"
#include "ext/timeout_policy.h"
#include "ilp/lp_export.h"
#include "ilp/model.h"
#include "ilp/solution_io.h"
#include "ilp/validate.h"
#include "obs/energy_ledger.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "serve/client.h"
#include "serve/daemon.h"
#include "serve/wire.h"
#include "sim/engine.h"
#include "sim/metrics.h"
#include "sim/replay.h"
#include "util/cli.h"
#include "util/csv.h"
#include "util/logging.h"
#include "util/parse.h"
#include "util/sparkline.h"
#include "util/table.h"
#include "workload/diurnal.h"
#include "workload/generator.h"
#include "workload/trace.h"

namespace esva::app {

namespace {

constexpr std::int64_t kMaxInt = std::numeric_limits<int>::max();
constexpr std::int64_t kMaxTime = std::numeric_limits<Time>::max();

/// Adapts a std::vector<std::string> to CliParser's argv interface.
bool parse_args(CliParser& parser, const std::vector<std::string>& args) {
  std::vector<const char*> argv{"esva"};
  for (const std::string& arg : args) argv.push_back(arg.c_str());
  return parser.parse(static_cast<int>(argv.size()), argv.data());
}

int parser_exit_code(const CliParser& parser) {
  return parser.parse_error() ? 2 : 0;
}

std::vector<VmType> vm_types_by_name(const std::string& which) {
  if (which == "all") return all_vm_types();
  if (which == "standard") return standard_vm_types();
  if (which == "memory-intensive") return memory_intensive_vm_types();
  if (which == "cpu-intensive") return cpu_intensive_vm_types();
  throw std::invalid_argument("unknown VM type set '" + which +
                              "' (all|standard|memory-intensive|cpu-intensive)");
}

std::vector<ServerType> server_types_by_name(const std::string& which) {
  if (which == "all") return all_server_types();
  if (which.rfind("1-", 0) == 0)
    return server_types_1_to(static_cast<int>(checked_flag(
        parse_int_field(which.substr(2), "--server-types"), 1,
        static_cast<std::int64_t>(all_server_types().size()),
        "server-types")));
  throw std::invalid_argument("unknown server type set '" + which +
                              "' (all|1-K)");
}

/// Loads the (vms, servers) pair every evaluation-style command needs.
ProblemInstance load_problem(const CliParser& parser) {
  std::vector<VmSpec> vms = load_vm_trace(parser.get_string("vms"));
  std::vector<ServerSpec> servers =
      load_server_trace(parser.get_string("servers"));
  ProblemInstance problem = make_problem(std::move(vms), std::move(servers));
  if (std::string issue = validate_problem(problem); !issue.empty())
    throw std::runtime_error("invalid instance: " + issue);
  return problem;
}

/// The file an optional output flag names: nothing when --<flag> is empty;
/// otherwise opens it (throwing "cannot open <what> file '<path>'"), lets
/// `write` fill it and reports "<label> written to <path>" on `out`.
template <typename Write>
void write_output(const CliParser& parser, const std::string& flag,
                  const std::string& what, const std::string& label,
                  std::ostream& out, Write write) {
  const std::string& path = parser.get_string(flag);
  if (path.empty()) return;
  std::ofstream file(path);
  if (!file)
    throw std::runtime_error("cannot open " + what + " file '" + path + "'");
  write(file);
  out << label << " written to " << path << '\n';
}

/// The deferred-retry flags shared by stream and serve.
void add_retry_flags(CliParser& parser) {
  parser.add_int("retry-max", 1,
                 "total placement attempts per request (initial included); "
                 "1 disables the retry queue");
  parser.add_int("retry-delay", 8,
                 "base delay before the first retry (time units)");
  parser.add_double("retry-backoff", 2.0,
                    "multiplier applied to the delay after each failed retry "
                    "(finite, > 0)");
  parser.add_int("retry-queue", 64,
                 "retry queue capacity; admissions beyond it are rejected");
}

/// The retry policy from add_retry_flags' flags; out-of-range values throw
/// naming the flag (checked_retry_policy).
RetryPolicy retry_flags(const CliParser& parser) {
  return checked_retry_policy(
      parser.get_int("retry-max"), parser.get_int("retry-delay"),
      parser.get_double("retry-backoff"), parser.get_int("retry-queue"));
}

/// True when an output path asks for JSON Lines rather than CSV.
bool wants_jsonl(const std::string& path) {
  return path.size() >= 6 && path.compare(path.size() - 6, 6, ".jsonl") == 0;
}

/// The requests `generate`, `stream --generate` and `top --generate`
/// synthesize: --<count_flag> of them, drawn lazily from `rng` with the
/// --interarrival, --duration, --vm-types, --diurnal and --amplitude flags,
/// each range-checked before the first draw.
std::unique_ptr<ArrivalStream> generated_requests(const CliParser& parser,
                                                  const std::string& count_flag,
                                                  Rng& rng) {
  const auto count = static_cast<int>(
      checked_flag(parser.get_int(count_flag), 0, kMaxInt, count_flag));
  const double interarrival = parser.get_double("interarrival");
  checked_double_flag(interarrival, interarrival > 0.0, "> 0", "interarrival");
  const double duration = parser.get_double("duration");
  checked_double_flag(duration, duration > 0.0, "> 0", "duration");
  std::vector<VmType> vm_types =
      vm_types_by_name(parser.get_string("vm-types"));
  if (parser.get_bool("diurnal")) {
    DiurnalConfig config;
    config.num_vms = count;
    config.base_rate = 1.0 / interarrival;
    config.amplitude = parser.get_double("amplitude");
    checked_double_flag(config.amplitude,
                        config.amplitude >= 0.0 && config.amplitude < 1.0,
                        "in [0, 1)", "amplitude");
    config.mean_duration = duration;
    config.vm_types = std::move(vm_types);
    return std::make_unique<DiurnalArrivalStream>(config, rng);
  }
  WorkloadConfig config;
  config.num_vms = count;
  config.mean_interarrival = interarrival;
  config.mean_duration = duration;
  config.vm_types = std::move(vm_types);
  return std::make_unique<PoissonArrivalStream>(config, rng);
}

/// The request source, fleet and allocator flags `stream` and `top` share.
void add_replay_flags(CliParser& parser) {
  parser.add_string("vms", "",
                    "VM trace to replay in start-time order (exclusive with "
                    "--generate)");
  parser.add_int("generate", 0,
                 "synthesize N requests lazily instead of reading --vms");
  parser.add_double("interarrival", 2.0,
                    "mean inter-arrival time (min, with --generate)");
  parser.add_double("duration", 50.0, "mean VM duration (min, with --generate)");
  parser.add_string("vm-types", "all",
                    "all|standard|memory-intensive|cpu-intensive "
                    "(with --generate)");
  parser.add_bool("diurnal", "day/night arrival process (with --generate)");
  parser.add_double("amplitude", 0.8, "diurnal swing in [0,1)");
  parser.add_string("servers", "servers.csv", "server trace");
  parser.add_string("allocator", "min-incremental", "policy name");
  parser.add_int("seed", 42, "seed");
}

/// What `stream` and `top` replay, from add_replay_flags' flags: the fleet,
/// the allocator's streaming policy (observed by `metrics` and, when
/// `trace_path` is set, a decision trace written there) and the requests —
/// a lazy generator (--generate, optionally --diurnal) or a trace (--vms).
/// The requests and the policy draw from independent generators, matching
/// the generate-then-allocate two-command pipeline.
struct Replay {
  Replay(const CliParser& parser, MetricsRegistry& metrics,
         const std::string& trace_path);
  Replay(Replay&&) = delete;  // `arrivals` points at `workload_rng`

  bool generated;
  std::unique_ptr<JsonlTraceSink> trace;
  std::vector<ServerSpec> servers;
  AllocatorPtr allocator;
  std::unique_ptr<PlacementPolicy> policy;
  Rng workload_rng;
  Rng policy_rng;
  std::vector<VmSpec> trace_vms;  ///< the --vms trace; empty with --generate
  std::unique_ptr<ArrivalStream> arrivals;
};

Replay::Replay(const CliParser& parser, MetricsRegistry& metrics,
               const std::string& trace_path)
    : generated(parser.get_int("generate") > 0),
      workload_rng(static_cast<std::uint64_t>(parser.get_int("seed"))),
      policy_rng(static_cast<std::uint64_t>(parser.get_int("seed"))) {
  if (generated == !parser.get_string("vms").empty())
    throw std::invalid_argument(
        "pass exactly one of --vms <trace> or --generate <n>");
  if (!trace_path.empty()) trace = std::make_unique<JsonlTraceSink>(trace_path);
  servers = load_server_trace(parser.get_string("servers"));
  allocator = make_allocator(parser.get_string("allocator"));
  ObsContext obs;
  obs.trace = trace.get();
  obs.metrics = &metrics;
  allocator->set_observability(obs);
  policy = allocator->make_policy();
  if (!policy)
    throw std::invalid_argument("allocator '" + allocator->name() +
                                "' is batch-only (no streaming policy)");
  if (generated) {
    arrivals = generated_requests(parser, "generate", workload_rng);
  } else {
    trace_vms = load_vm_trace(parser.get_string("vms"));
    arrivals = std::make_unique<VectorArrivalStream>(trace_vms);
  }
}

void print_metrics(std::ostream& out, const ProblemInstance& problem,
                   const Allocation& alloc) {
  const AllocationMetrics metrics = compute_metrics(problem, alloc);
  TextTable table;
  table.set_header({"metric", "value"});
  table.add_row({"total energy (W*min)", fmt_double(metrics.cost.total(), 1)});
  table.add_row({"  run", fmt_double(metrics.cost.breakdown.run, 1)});
  table.add_row({"  idle", fmt_double(metrics.cost.breakdown.idle, 1)});
  table.add_row(
      {"  transition", fmt_double(metrics.cost.breakdown.transition, 1)});
  table.add_row({"cpu utilization", fmt_percent(metrics.utilization.avg_cpu)});
  table.add_row({"mem utilization", fmt_percent(metrics.utilization.avg_mem)});
  table.add_row({"servers used",
                 std::to_string(metrics.servers_used) + "/" +
                     std::to_string(problem.num_servers())});
  table.add_row({"unallocated VMs", std::to_string(metrics.unallocated)});
  out << table.render();
}

// --- the subcommands --------------------------------------------------------
//
// Each parses its arguments (the words after its name) and returns the exit
// code; on a runtime error it throws, and esva_main reports "<name>: <what>"
// and exits 1.

int cmd_generate(const std::vector<std::string>& args, std::ostream& out) {
  CliParser parser("esva generate — synthesize a workload + fleet");
  parser.add_int("vms", 200, "number of VM requests");
  parser.add_double("interarrival", 2.0, "mean inter-arrival time (min)");
  parser.add_double("duration", 50.0, "mean VM duration (min)");
  parser.add_string("vm-types", "all",
                    "all|standard|memory-intensive|cpu-intensive");
  parser.add_int("servers", 100, "fleet size");
  parser.add_string("server-types", "all", "all|1-K (catalog prefix)");
  parser.add_double("transition", 1.0, "server transition time (min)");
  parser.add_bool("diurnal", "use the day/night arrival process");
  parser.add_double("amplitude", 0.8, "diurnal swing in [0,1)");
  parser.add_int("seed", 42, "seed");
  parser.add_string("out-vms", "vms.csv", "VM trace output path");
  parser.add_string("out-servers", "servers.csv", "server trace output path");
  if (!parse_args(parser, args)) return parser_exit_code(parser);

  Rng rng(static_cast<std::uint64_t>(parser.get_int("seed")));
  const std::unique_ptr<ArrivalStream> requests =
      generated_requests(parser, "vms", rng);
  const auto num_servers = static_cast<int>(
      checked_flag(parser.get_int("servers"), 0, kMaxInt, "servers"));
  const std::vector<ServerType> server_types =
      server_types_by_name(parser.get_string("server-types"));
  const double transition = parser.get_double("transition");
  checked_double_flag(transition, transition >= 0.0, ">= 0", "transition");

  const std::vector<VmSpec> vms = drain(*requests);
  const std::vector<ServerSpec> servers =
      make_random_fleet(num_servers, server_types, transition, rng);
  save_vm_trace(parser.get_string("out-vms"), vms);
  save_server_trace(parser.get_string("out-servers"), servers);
  out << "wrote " << vms.size() << " VMs to " << parser.get_string("out-vms")
      << " and " << servers.size() << " servers to "
      << parser.get_string("out-servers") << " (horizon " << horizon_of(vms)
      << " min)\n";
  return 0;
}

int cmd_allocate(const std::vector<std::string>& args, std::ostream& out) {
  CliParser parser("esva allocate — run an allocator over traces");
  parser.add_string("vms", "vms.csv", "VM trace");
  parser.add_string("servers", "servers.csv", "server trace");
  parser.add_string("allocator", "min-incremental", "policy name");
  parser.add_int("seed", 42, "seed for stochastic allocators");
  parser.add_string("out-assignment", "", "assignment CSV output (optional)");
  parser.add_string("trace", "",
                    "JSONL decision trace output: one record per VM with "
                    "candidates, rejection reasons and cost deltas (optional)");
  parser.add_string("stats", "",
                    "metrics JSON output: timers and counters (optional)");
  if (!parse_args(parser, args)) return parser_exit_code(parser);

  MetricsRegistry metrics;
  std::unique_ptr<JsonlTraceSink> trace_sink;
  if (!parser.get_string("trace").empty())
    trace_sink = std::make_unique<JsonlTraceSink>(parser.get_string("trace"));

  const ProblemInstance problem = [&] {
    ScopedTimer timer(&metrics.timer("cli.load_ms"));
    return load_problem(parser);
  }();
  log_debug() << "loaded " << problem.num_vms() << " VMs / "
              << problem.num_servers() << " servers (horizon "
              << problem.horizon << ")";
  AllocatorPtr allocator = make_allocator(parser.get_string("allocator"));
  ObsContext obs;
  obs.trace = trace_sink.get();
  obs.metrics = &metrics;
  allocator->set_observability(obs);
  Rng rng(static_cast<std::uint64_t>(parser.get_int("seed")));
  const Allocation alloc = allocator->allocate(problem, rng);
  log_info() << allocator->name() << " placed "
             << (problem.num_vms() - alloc.num_unallocated()) << "/"
             << problem.num_vms() << " VMs in "
             << metrics.timer("allocator." + allocator->name() +
                              ".allocate_ms")
                    .stats()
                    .total_ms
             << " ms";
  out << "allocator: " << allocator->name() << '\n';
  {
    ScopedTimer timer(&metrics.timer("cli.evaluate_ms"));
    print_metrics(out, problem, alloc);
  }
  if (!parser.get_string("out-assignment").empty()) {
    save_assignment(parser.get_string("out-assignment"), alloc);
    out << "assignment written to " << parser.get_string("out-assignment")
        << '\n';
  }
  if (trace_sink) {
    trace_sink.reset();  // flush + close before reporting
    out << "decision trace written to " << parser.get_string("trace") << '\n';
  }
  write_output(parser, "stats", "stats", "stats", out, [&](std::ostream& file) {
    metrics.set("instance.vms", static_cast<double>(problem.num_vms()));
    metrics.set("instance.servers",
                static_cast<double>(problem.num_servers()));
    file << metrics.to_json();
  });
  return 0;
}

int cmd_stream(const std::vector<std::string>& args, std::ostream& out) {
  CliParser parser(
      "esva stream — event-driven replay through the streaming engine");
  add_replay_flags(parser);
  parser.add_string("faults", "",
                    "fault-plan CSV (time,event,server with event in "
                    "fail|drain|recover) applied at frontier advances "
                    "(optional)");
  add_retry_flags(parser);
  parser.add_string("out-assignment", "", "assignment CSV output (optional)");
  parser.add_string("latency-json", "",
                    "per-request latency report output: requests/sec plus "
                    "p50/p99 submit latency as JSON (optional)");
  parser.add_string("trace", "", "JSONL decision trace output (optional)");
  parser.add_string("stats", "",
                    "metrics JSON output: engine.submit_ms, engine.requests "
                    "and allocator.* (optional)");
  parser.add_string("prom-out", "",
                    "metrics in Prometheus text exposition format (optional)");
  parser.add_string("timeseries-out", "",
                    "fleet time-series output — CSV, or JSONL when the path "
                    "ends in .jsonl (optional)");
  parser.add_int("timeseries-every", 1,
                 "time units between fleet samples (with --timeseries-out)");
  parser.add_string("ledger-out", "",
                    "energy-attribution ledger output — CSV, or JSONL when "
                    "the path ends in .jsonl (optional)");
  if (!parse_args(parser, args)) return parser_exit_code(parser);

  MetricsRegistry metrics;
  Replay replay(parser, metrics, parser.get_string("trace"));
  const std::vector<ServerSpec>& servers = replay.servers;
  const std::string name = replay.allocator->name();

  FaultPlan fault_plan;
  ReplayOptions options;
  if (!parser.get_string("faults").empty()) {
    fault_plan = load_fault_plan(parser.get_string("faults"));
    fault_plan.validate(servers.size());
    options.faults = &fault_plan;
  }
  options.retry = retry_flags(parser);
  options.obs.metrics = &metrics;
  // Telemetry sinks are bound only when their output was requested; none
  // of them changes a single decision (docs/OBSERVABILITY.md).
  TimeSeriesOptions ts_options;
  ts_options.every = static_cast<Time>(std::clamp<std::int64_t>(
      parser.get_int("timeseries-every"), 1, kMaxTime));
  ts_options.capacity = 0;  // file export wants the complete series
  TimeSeriesSampler sampler(ts_options);
  EnergyLedger ledger;
  if (!parser.get_string("timeseries-out").empty())
    options.timeseries = &sampler;
  if (!parser.get_string("ledger-out").empty()) options.ledger = &ledger;
  const ReplayReport report = replay_stream(
      *replay.arrivals, servers, *replay.policy, replay.policy_rng, options);
  log_info() << name << " streamed " << report.placed << "/"
             << report.requests << " requests at " << report.requests_per_sec
             << " req/s";

  out << "allocator: " << name << '\n';
  TextTable table;
  table.set_header({"metric", "value"});
  table.add_row({"requests", std::to_string(report.requests)});
  table.add_row({"placed", std::to_string(report.placed)});
  table.add_row({"rejected", std::to_string(report.rejected)});
  table.add_row({"requests/sec", fmt_double(report.requests_per_sec, 1)});
  table.add_row(
      {"submit latency p50 (ms)", fmt_double(report.latency.p50_ms, 4)});
  table.add_row(
      {"submit latency p99 (ms)", fmt_double(report.latency.p99_ms, 4)});
  table.add_row(
      {"submit latency max (ms)", fmt_double(report.latency.max_ms, 4)});
  table.add_row({"submit latency p50 hist (ms)",
                 fmt_double(report.latency.hist_p50_ms, 4)});
  table.add_row({"submit latency p99 hist (ms)",
                 fmt_double(report.latency.hist_p99_ms, 4)});
  table.add_row({"total energy (W*min)", fmt_double(report.total_energy, 1)});
  if (options.ledger) {
    table.add_row({"ledger run (W*min)",
                   fmt_double(ledger.total_for(EnergyCause::kRun), 1)});
    table.add_row({"ledger idle (W*min)",
                   fmt_double(ledger.total_for(EnergyCause::kIdle), 1)});
    table.add_row({"ledger transition (W*min)",
                   fmt_double(ledger.total_for(EnergyCause::kTransition), 1)});
    table.add_row({"ledger migration (W*min)",
                   fmt_double(ledger.total_for(EnergyCause::kMigration), 1)});
    table.add_row({"ledger total (W*min)", fmt_double(ledger.total(), 1)});
    table.add_row({"ledger conserves energy",
                   ledger.conserves(report.total_energy) ? "yes" : "NO"});
  }
  table.add_row({"peak resident time units",
                 std::to_string(report.peak_resident_time_units)});
  table.add_row({"final resident time units",
                 std::to_string(report.final_resident_time_units)});
  table.add_row({"peak active VMs", std::to_string(report.peak_active_vms)});
  table.add_row({"final frontier", std::to_string(report.final_frontier)});
  if (options.faults || options.retry.enabled() ||
      report.faults.late_arrivals > 0) {
    const FaultStats& fs = report.faults;
    table.add_row({"fault events", std::to_string(fs.fault_events)});
    table.add_row({"late arrivals", std::to_string(fs.late_arrivals)});
    table.add_row({"displaced", std::to_string(fs.displaced)});
    table.add_row({"evacuated", std::to_string(fs.evacuated)});
    table.add_row({"retries", std::to_string(fs.retries)});
    table.add_row({"retried placed", std::to_string(fs.retried_placed)});
    table.add_row({"rejected final", std::to_string(fs.rejected_final)});
    table.add_row({"downtime (units)", std::to_string(fs.downtime_units)});
  }
  out << table.render();

  if (!parser.get_string("out-assignment").empty()) {
    // Allocation is indexed by the trace's VM position; the replay report
    // by VmId — remap so the CSV lines up with `esva allocate` output.
    Allocation alloc;
    if (replay.generated) {
      alloc.assignment = report.assignment;  // generated ids are positional
      alloc.assignment.resize(report.requests, kNoServer);
    } else {
      const std::vector<VmSpec>& trace_vms = replay.trace_vms;
      alloc.assignment.assign(trace_vms.size(), kNoServer);
      for (std::size_t j = 0; j < trace_vms.size(); ++j) {
        const auto id = static_cast<std::size_t>(trace_vms[j].id);
        if (id < report.assignment.size())
          alloc.assignment[j] = report.assignment[id];
      }
    }
    save_assignment(parser.get_string("out-assignment"), alloc);
    out << "assignment written to " << parser.get_string("out-assignment")
        << '\n';
  }
  write_output(
      parser, "latency-json", "latency", "latency report", out,
      [&](std::ostream& file) {
        file.precision(17);
        file << "{\n"
             << "  \"allocator\": \"" << name << "\",\n"
             << "  \"requests\": " << report.requests << ",\n"
             << "  \"placed\": " << report.placed << ",\n"
             << "  \"rejected\": " << report.rejected << ",\n"
             << "  \"requests_per_sec\": " << report.requests_per_sec << ",\n"
             << "  \"submit_latency_ms\": {\n"
             << "    \"mean\": " << report.latency.mean_ms << ",\n"
             << "    \"p50\": " << report.latency.p50_ms << ",\n"
             << "    \"p99\": " << report.latency.p99_ms << ",\n"
             << "    \"max\": " << report.latency.max_ms << ",\n"
             << "    \"p50_hist\": " << report.latency.hist_p50_ms << ",\n"
             << "    \"p90_hist\": " << report.latency.hist_p90_ms << ",\n"
             << "    \"p99_hist\": " << report.latency.hist_p99_ms << "\n"
             << "  },\n"
             << "  \"total_energy\": " << report.total_energy << ",\n"
             << "  \"peak_resident_time_units\": "
             << report.peak_resident_time_units << ",\n"
             << "  \"final_resident_time_units\": "
             << report.final_resident_time_units << ",\n"
             << "  \"peak_active_vms\": " << report.peak_active_vms << ",\n"
             << "  \"final_frontier\": " << report.final_frontier << ",\n"
             << "  \"faults\": {";
        const char* sep = "\n";
        for (const auto& [key, member] : kFaultStatsFields) {
          file << sep << "    \"" << key << "\": " << report.faults.*member;
          sep = ",\n";
        }
        file << "\n  }\n}\n";
      });
  if (replay.trace) {
    replay.trace.reset();  // flush + close before reporting
    out << "decision trace written to " << parser.get_string("trace") << '\n';
  }
  write_output(parser, "stats", "stats", "stats", out, [&](std::ostream& file) {
    metrics.set("instance.servers", static_cast<double>(servers.size()));
    file << metrics.to_json();
  });
  write_output(parser, "prom-out", "prometheus", "prometheus metrics", out,
               [&](std::ostream& file) { file << metrics.to_prometheus(); });
  write_output(parser, "timeseries-out", "time-series",
               "time series (" + std::to_string(sampler.size()) + " samples)",
               out, [&](std::ostream& file) {
                 if (wants_jsonl(parser.get_string("timeseries-out")))
                   sampler.write_jsonl(file);
                 else
                   sampler.write_csv(file);
               });
  write_output(parser, "ledger-out", "ledger",
               "energy ledger (" + std::to_string(ledger.size()) + " entries)",
               out, [&](std::ostream& file) {
                 if (wants_jsonl(parser.get_string("ledger-out")))
                   ledger.write_jsonl(file);
                 else
                   ledger.write_csv(file);
               });
  return 0;
}

/// serve_loop polls with a short timeout and re-checks this between rounds;
/// the handler itself only flips the flag (async-signal-safe).
std::atomic<bool> g_serve_stop{false};

void serve_stop_handler(int) { g_serve_stop.store(true); }

int cmd_serve(const std::vector<std::string>& args, std::ostream& out) {
  CliParser parser(
      "esva serve — durable scheduler daemon: line-delimited JSON over a unix "
      "socket, write-ahead journal + snapshots (docs/SERVE.md)");
  parser.add_string("servers", "servers.csv", "server trace");
  parser.add_string("socket", "", "unix socket path to listen on (required)");
  parser.add_string("wal", "",
                    "write-ahead journal path (required); an existing journal "
                    "is replayed on startup");
  parser.add_string("snapshot", "",
                    "snapshot path (optional); each snapshot compacts the "
                    "journal, so a restart reads only the records past it");
  parser.add_int("wal-sync-every", 1,
                 "fsync the journal once N >= 1 records have been written "
                 "since the last fsync; 1 = every ack follows the fsync of "
                 "its record, N > 1 = every ack follows the write of its "
                 "record (a power loss can lose N-1)");
  parser.add_int("snapshot-every", 0,
                 "auto-snapshot after N journaled ops (0 = only on explicit "
                 "snapshot/drain ops; needs --snapshot)");
  parser.add_string("allocator", "min-incremental", "policy name");
  parser.add_int("seed", 42, "seed");
  parser.add_int("threads", 1,
                 "candidate-scan threads; must be 1 (the scan is serial)");
  add_retry_flags(parser);
  if (!parse_args(parser, args)) return parser_exit_code(parser);

  if (parser.get_string("socket").empty())
    throw std::invalid_argument("--socket is required");
  if (parser.get_int("threads") != 1)
    throw std::invalid_argument(
        "--threads must be 1: the candidate scan is serial (got " +
        std::to_string(parser.get_int("threads")) + ")");

  serve::DaemonOptions dopts;
  dopts.allocator = parser.get_string("allocator");
  dopts.seed = static_cast<std::uint64_t>(parser.get_int("seed"));
  dopts.wal_path = parser.get_string("wal");
  dopts.snapshot_path = parser.get_string("snapshot");
  dopts.wal_sync_every = static_cast<int>(checked_flag(
      parser.get_int("wal-sync-every"), 1, kMaxInt, "wal-sync-every"));
  dopts.snapshot_every = static_cast<std::uint64_t>(
      checked_flag(parser.get_int("snapshot-every"), 0,
                   std::numeric_limits<std::int64_t>::max(),
                   "snapshot-every"));
  dopts.retry = retry_flags(parser);

  std::vector<ServerSpec> servers =
      load_server_trace(parser.get_string("servers"));
  serve::Daemon daemon(std::move(servers), dopts);
  if (daemon.recovered_from_snapshot() || daemon.replayed_records() > 0) {
    // The restart's phases, which sum to its total.
    const serve::RecoveryTimes& r = daemon.recovery();
    char phases[192];
    std::snprintf(phases, sizeof(phases),
                  " read=%llu total_ms=%.2f (setup %.2f, snapshot %.2f, "
                  "read_wal %.2f, replay %.2f, reopen %.2f)",
                  static_cast<unsigned long long>(r.records_read),
                  r.total_ms(), r.setup_ms, r.snapshot_ms, r.read_ms,
                  r.replay_ms, r.reopen_ms);
    out << "recovered: snapshot="
        << (daemon.recovered_from_snapshot() ? "yes" : "no")
        << " replayed=" << daemon.replayed_records()
        << " torn_tail=" << (daemon.recovered_torn_tail() ? "yes" : "no")
        << " wal_seq=" << daemon.last_seq() << phases << '\n'
        << std::flush;
  }

  g_serve_stop.store(false);
  struct sigaction sa{};
  sa.sa_handler = serve_stop_handler;  // no SA_RESTART: poll returns EINTR
  sigemptyset(&sa.sa_mask);
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);

  const int rc =
      daemon.serve_loop(parser.get_string("socket"), g_serve_stop, [&] {
        out << "listening on " << parser.get_string("socket") << '\n'
            << std::flush;
      });
  // Journal failure: the engine is ahead of the durable journal. Do NOT
  // checkpoint — a snapshot here would capture state the journal never
  // recorded and poison the next recovery.
  if (rc != 0) throw std::runtime_error(daemon.fatal_error());
  // Graceful shutdown checkpoints (journal sync + snapshot) WITHOUT
  // draining, so a restarted daemon continues the stream mid-flight.
  daemon.checkpoint();
  out << "stopped after " << daemon.last_seq() << " journaled ops\n";
  return 0;
}

int cmd_client(const std::vector<std::string>& args, std::ostream& out) {
  CliParser parser(
      "esva client — send requests to a running esva serve daemon; positional "
      "arguments are raw JSON request lines sent verbatim (first)");
  parser.add_string("socket", "", "daemon socket path (required)");
  parser.add_string("place-vms", "",
                    "VM trace CSV; each request is sent as a place op in "
                    "start-time order");
  parser.add_string("faults", "",
                    "fault-plan CSV; events are interleaved with --place-vms "
                    "by time (an event at t <= a VM's start precedes it)");
  parser.add_int("advance", -1, "advance the engine frontier to this time");
  parser.add_int("retire", -1, "retire this VM id (frees its capacity now)");
  parser.add_bool("drain", "end-of-stream drain (finish retries, settle)");
  parser.add_bool("snapshot", "force a durable snapshot");
  parser.add_bool("stats", "request engine counters + energy (sent last)");
  parser.add_bool("assignment",
                  "include the vm->server map in --stats output");
  if (!parse_args(parser, args)) return parser_exit_code(parser);

  if (parser.get_string("socket").empty())
    throw std::invalid_argument("--socket is required");
  // A negative --advance or --retire sends nothing; any other value must
  // fit the wire's 32-bit time or VM id, checked before anything is sent.
  const std::int64_t advance = parser.get_int("advance");
  const std::int64_t retire = parser.get_int("retire");
  if (advance >= 0) checked_flag(advance, 0, kMaxTime, "advance");
  if (retire >= 0)
    checked_flag(retire, 0, std::numeric_limits<VmId>::max(), "retire");
  serve::Client client(parser.get_string("socket"));

  bool failed = false;
  const auto send = [&](const std::string& line) {
    const std::string response = client.call(line);
    out << response << '\n';
    if (response.rfind("{\"ok\":false", 0) == 0) failed = true;
  };

  for (const std::string& raw : parser.positional()) send(raw);

  std::vector<FaultEvent> fault_events;
  if (!parser.get_string("faults").empty())
    fault_events = load_fault_plan(parser.get_string("faults")).events();
  const auto send_fault = [&](const FaultEvent& event) {
    serve::Request req;
    req.op = serve::OpKind::kFault;
    req.fault = event;
    send(serve::encode_request(req));
  };

  std::size_t next_fault = 0;
  if (!parser.get_string("place-vms").empty()) {
    const std::vector<VmSpec> vms =
        load_vm_trace(parser.get_string("place-vms"), /*dense_ids=*/false);
    for (const std::size_t j : order_by_start(vms)) {
      const VmSpec& vm = vms[j];
      // Mirrors the engine's plan-driven ordering: a fault that fires at
      // or before this request's start is applied first.
      while (next_fault < fault_events.size() &&
             fault_events[next_fault].at <= vm.start)
        send_fault(fault_events[next_fault++]);
      serve::Request req;
      req.op = serve::OpKind::kPlace;
      req.vm = vm;
      send(serve::encode_request(req));
    }
  }
  while (next_fault < fault_events.size())
    send_fault(fault_events[next_fault++]);

  if (advance >= 0) {
    serve::Request req;
    req.op = serve::OpKind::kAdvance;
    req.to = static_cast<Time>(advance);
    send(serve::encode_request(req));
  }
  if (retire >= 0) {
    serve::Request req;
    req.op = serve::OpKind::kRetire;
    req.vm_id = static_cast<VmId>(retire);
    send(serve::encode_request(req));
  }
  if (parser.get_bool("drain")) {
    serve::Request req;
    req.op = serve::OpKind::kDrain;
    send(serve::encode_request(req));
  }
  if (parser.get_bool("snapshot")) {
    serve::Request req;
    req.op = serve::OpKind::kSnapshot;
    send(serve::encode_request(req));
  }
  if (parser.get_bool("stats")) {
    serve::Request req;
    req.op = serve::OpKind::kStats;
    req.with_assignment = parser.get_bool("assignment");
    send(serve::encode_request(req));
  }
  return failed ? 1 : 0;
}

int cmd_top(const std::vector<std::string>& args, std::ostream& out) {
  CliParser parser(
      "esva top — replay a workload and render a fleet telemetry dashboard");
  add_replay_flags(parser);
  parser.add_int("every", 1, "time units between fleet samples");
  parser.add_int("width", 60, "sparkline width, characters");
  if (!parse_args(parser, args)) return parser_exit_code(parser);

  MetricsRegistry metrics;
  Replay replay(parser, metrics, "");

  TimeSeriesOptions ts_options;
  ts_options.every = static_cast<Time>(
      std::clamp<std::int64_t>(parser.get_int("every"), 1, kMaxTime));
  ts_options.capacity = 0;
  TimeSeriesSampler sampler(ts_options);
  EnergyLedger ledger;
  ReplayOptions options;
  options.obs.metrics = &metrics;
  options.timeseries = &sampler;
  options.ledger = &ledger;
  const ReplayReport report =
      replay_stream(*replay.arrivals, replay.servers, *replay.policy,
                    replay.policy_rng, options);

  const std::vector<FleetSample> samples = sampler.samples();
  const auto width = static_cast<int>(
      std::clamp<std::int64_t>(parser.get_int("width"), 8, kMaxInt));
  out << "allocator: " << replay.allocator->name() << "   requests: "
      << report.requests << "   placed: " << report.placed
      << "   frontier: " << report.final_frontier << "   samples: "
      << samples.size() << '\n';

  TextTable table;
  table.set_header({"series", "trend", "min", "last", "max"});
  const auto add_series = [&](const std::string& label, auto getter,
                              int precision) {
    std::vector<double> values;
    values.reserve(samples.size());
    for (const FleetSample& s : samples)
      values.push_back(static_cast<double>(getter(s)));
    if (values.empty()) return;
    const auto [lo, hi] = std::minmax_element(values.begin(), values.end());
    table.add_row({label, sparkline(values, width), fmt_double(*lo, precision),
                   fmt_double(values.back(), precision),
                   fmt_double(*hi, precision)});
  };
  add_series("active VMs", [](const FleetSample& s) { return s.active_vms; },
             0);
  add_series("busy servers",
             [](const FleetSample& s) { return s.busy_servers; }, 0);
  add_series("power (W)", [](const FleetSample& s) { return s.total_power_w; },
             1);
  add_series("spare CPU", [](const FleetSample& s) { return s.spare_cpu; }, 1);
  add_series("spare MEM", [](const FleetSample& s) { return s.spare_mem; }, 1);
  add_series("retry depth",
             [](const FleetSample& s) { return s.retry_queue_depth; }, 0);
  add_series("energy (W*min)",
             [](const FleetSample& s) { return s.total_energy; }, 1);
  out << table.render();

  out << "submit latency (ms): p50 "
      << fmt_double(report.latency.hist_p50_ms, 4) << "  p90 "
      << fmt_double(report.latency.hist_p90_ms, 4) << "  p99 "
      << fmt_double(report.latency.hist_p99_ms, 4) << "  max "
      << fmt_double(report.latency.max_ms, 4) << '\n';

  TextTable attribution;
  attribution.set_header({"energy cause", "W*min", "share"});
  const Energy total = ledger.total();
  for (const EnergyCause cause :
       {EnergyCause::kRun, EnergyCause::kIdle, EnergyCause::kTransition,
        EnergyCause::kMigration}) {
    const Energy part = ledger.total_for(cause);
    attribution.add_row({to_string(cause), fmt_double(part, 1),
                         total != 0.0 ? fmt_percent(part / total) : "-"});
  }
  attribution.add_row(
      {"total", fmt_double(total, 1),
       ledger.conserves(report.total_energy) ? "conserved" : "NOT CONSERVED"});
  out << attribution.render();
  return 0;
}

int cmd_evaluate(const std::vector<std::string>& args, std::ostream& out) {
  CliParser parser("esva evaluate — price an existing assignment");
  parser.add_string("vms", "vms.csv", "VM trace");
  parser.add_string("servers", "servers.csv", "server trace");
  parser.add_string("assignment", "assignment.csv", "assignment CSV");
  parser.add_int("timeout", -1,
                 "also price a fixed-timeout power policy (minutes; -1 off)");
  parser.add_string("trace", "",
                    "JSONL placement replay of the assignment: per-VM "
                    "incremental cost in start-time order (optional)");
  parser.add_string("stats", "",
                    "metrics JSON output: timers and gauges (optional)");
  if (!parse_args(parser, args)) return parser_exit_code(parser);

  const std::int64_t timeout = parser.get_int("timeout");
  if (timeout >= 0) checked_flag(timeout, 0, kMaxTime, "timeout");
  MetricsRegistry metrics;
  const ProblemInstance problem = [&] {
    ScopedTimer timer(&metrics.timer("cli.load_ms"));
    return load_problem(parser);
  }();
  const Allocation alloc =
      load_assignment(parser.get_string("assignment"), problem.num_vms());
  if (std::string issue = validate_allocation(problem, alloc, false);
      !issue.empty())
    throw std::runtime_error("infeasible assignment: " + issue);
  {
    ScopedTimer timer(&metrics.timer("cli.evaluate_ms"));
    print_metrics(out, problem, alloc);
  }
  if (!parser.get_string("trace").empty()) {
    JsonlTraceSink sink(parser.get_string("trace"));
    trace_assignment(problem, alloc, sink);
    out << "placement trace written to " << parser.get_string("trace")
        << '\n';
  }
  write_output(parser, "stats", "stats", "stats", out, [&](std::ostream& file) {
    const CostReport cost = evaluate_cost(problem, alloc);
    metrics.set("cost.total", cost.total());
    metrics.set("cost.run", cost.breakdown.run);
    metrics.set("cost.idle", cost.breakdown.idle);
    metrics.set("cost.transition", cost.breakdown.transition);
    metrics.set("instance.vms", static_cast<double>(problem.num_vms()));
    metrics.set("instance.servers",
                static_cast<double>(problem.num_servers()));
    metrics.set("assignment.unallocated",
                static_cast<double>(alloc.num_unallocated()));
    file << metrics.to_json();
  });
  if (timeout >= 0) {
    const TimeoutPolicy policy{static_cast<Time>(timeout)};
    out << "with fixed timeout " << timeout << " min: "
        << fmt_double(evaluate_cost_with_timeout(problem, alloc, policy), 1)
        << " W*min\n";
  }
  return 0;
}

int cmd_simulate(const std::vector<std::string>& args, std::ostream& out) {
  CliParser parser("esva simulate — event-driven replay with power samples");
  parser.add_string("vms", "vms.csv", "VM trace");
  parser.add_string("servers", "servers.csv", "server trace");
  parser.add_string("assignment", "assignment.csv", "assignment CSV");
  parser.add_string("power-csv", "", "per-minute power samples output");
  if (!parse_args(parser, args)) return parser_exit_code(parser);

  const ProblemInstance problem = load_problem(parser);
  const Allocation alloc =
      load_assignment(parser.get_string("assignment"), problem.num_vms());
  const SimulationResult result = SimulationEngine(problem, alloc).run(true);
  out << "simulated energy: " << fmt_double(result.total_energy(), 1)
      << " W*min (run " << fmt_double(result.total.run, 1) << ", idle "
      << fmt_double(result.total.idle, 1) << ", transition "
      << fmt_double(result.total.transition, 1) << ")\n";
  Watts peak = 0.0;
  std::vector<double> profile;
  profile.reserve(result.samples.size());
  for (const PowerSample& sample : result.samples) {
    peak = std::max(peak, sample.total_power);
    profile.push_back(sample.total_power);
  }
  out << "peak power: " << fmt_double(peak, 1) << " W over "
      << result.samples.size() << " sampled minutes\n";
  out << "profile: " << sparkline(profile, 72) << '\n';
  write_output(parser, "power-csv", "power samples", "power samples", out,
               [&](std::ostream& file) {
                 CsvWriter csv(file);
                 csv.row({"t", "total_power_w", "active_servers",
                          "running_vms"});
                 for (const PowerSample& sample : result.samples)
                   csv.typed_row(static_cast<int>(sample.t),
                                 sample.total_power, sample.active_servers,
                                 sample.running_vms);
               });
  return 0;
}

int cmd_export_lp(const std::vector<std::string>& args, std::ostream& out) {
  CliParser parser("esva export-lp — write the boolean ILP in CPLEX-LP form");
  parser.add_string("vms", "vms.csv", "VM trace");
  parser.add_string("servers", "servers.csv", "server trace");
  parser.add_string("out", "instance.lp", "LP output path");
  if (!parse_args(parser, args)) return parser_exit_code(parser);

  const ProblemInstance problem = load_problem(parser);
  const IlpModel model = build_ilp(problem);
  save_lp(parser.get_string("out"), model);
  out << "wrote " << model.num_vars() << " variables / " << model.rows.size()
      << " constraints to " << parser.get_string("out") << '\n';
  out << "solve with e.g.: highs " << parser.get_string("out")
      << "  (then: esva import-solution --solution <file>)\n";
  return 0;
}

int cmd_import_solution(const std::vector<std::string>& args,
                        std::ostream& out) {
  CliParser parser(
      "esva import-solution — validate an external solver's solution");
  parser.add_string("vms", "vms.csv", "VM trace");
  parser.add_string("servers", "servers.csv", "server trace");
  parser.add_string("solution", "instance.sol", "solver solution file");
  parser.add_string("out-assignment", "", "assignment CSV output (optional)");
  if (!parse_args(parser, args)) return parser_exit_code(parser);

  const ProblemInstance problem = load_problem(parser);
  const SolverSolution solution = load_solution(parser.get_string("solution"));
  const Allocation alloc = allocation_from_solution(solution, problem);
  if (std::string issue = validate_allocation(problem, alloc, true);
      !issue.empty())
    throw std::runtime_error("solver solution infeasible: " + issue);
  const Energy cost = evaluate_cost(problem, alloc).total();
  out << "solution is feasible; energy " << fmt_double(cost, 1) << " W*min\n";
  if (solution.has_objective) {
    out << "solver-reported objective: " << fmt_double(solution.objective, 1)
        << (std::abs(solution.objective - cost) <= 1e-3 * (1.0 + cost)
                ? " (matches)"
                : " (MISMATCH vs our accounting)")
        << '\n';
  }
  print_metrics(out, problem, alloc);
  if (!parser.get_string("out-assignment").empty()) {
    save_assignment(parser.get_string("out-assignment"), alloc);
    out << "assignment written to " << parser.get_string("out-assignment")
        << '\n';
  }
  return 0;
}

std::string usage();

int cmd_help(const std::vector<std::string>&, std::ostream& out) {
  out << usage();
  return 0;
}

/// A subcommand: its name, its description in usage() (a '\n' starts an
/// aligned continuation line) and its body.
struct Command {
  const char* name;
  const char* what;
  int (*run)(const std::vector<std::string>& args, std::ostream& out);
};

constexpr Command kCommands[] = {
    {"generate", "synthesize a workload + fleet as CSV traces", cmd_generate},
    {"allocate", "run an allocation policy over traces", cmd_allocate},
    {"stream",
     "feed requests one at a time through the streaming\n"
     "engine; per-request latency + rolling-horizon GC",
     cmd_stream},
    {"serve",
     "long-running scheduler daemon: JSON over a unix\n"
     "socket, write-ahead journal + snapshot recovery",
     cmd_serve},
    {"client",
     "send place/fault/advance/stats requests to a\n"
     "running serve daemon",
     cmd_client},
    {"top",
     "replay a workload and render a terminal fleet\n"
     "dashboard (sparklines, latency, energy ledger)",
     cmd_top},
    {"evaluate", "price an existing assignment (Eq. 17)", cmd_evaluate},
    {"simulate", "event-driven replay; per-minute power samples",
     cmd_simulate},
    {"export-lp", "write the boolean ILP in CPLEX-LP format", cmd_export_lp},
    {"import-solution", "validate/evaluate an external solver's solution",
     cmd_import_solution},
    {"help", "this message", cmd_help},
};

std::string usage() {
  constexpr std::size_t kIndent = 19;  // where every description starts
  std::string text =
      "esva — energy-saving VM allocation toolkit\n"
      "\n"
      "subcommands:\n";
  for (const Command& command : kCommands) {
    std::string line = std::string("  ") + command.name;
    line.resize(kIndent, ' ');
    for (const char* c = command.what; *c != '\0'; ++c) {
      line += *c;
      if (*c == '\n') line.append(kIndent, ' ');
    }
    text += line + '\n';
  }
  text +=
      "\n"
      "global flags (any position):\n"
      "  --log-level {debug,info,warn,error,off}   stderr logging threshold\n"
      "                                            (default: warn)\n"
      "\n"
      "run `esva <subcommand> --help` for per-command flags.\n";
  return text;
}

}  // namespace

int esva_main(int argc, const char* const* argv, std::ostream& out,
              std::ostream& err) {
  // Strip the global --log-level flag (valid in any position) before
  // dispatching; subcommand parsers never see it.
  std::vector<std::string> cli(argv + 1, argv + argc);
  for (std::size_t k = 0; k < cli.size();) {
    std::string value;
    if (cli[k] == "--log-level") {
      if (k + 1 >= cli.size()) {
        err << "--log-level requires a value "
               "(debug|info|warn|error|off)\n";
        return 2;
      }
      value = cli[k + 1];
      cli.erase(cli.begin() + static_cast<std::ptrdiff_t>(k),
                cli.begin() + static_cast<std::ptrdiff_t>(k) + 2);
    } else if (cli[k].rfind("--log-level=", 0) == 0) {
      value = cli[k].substr(std::string("--log-level=").size());
      cli.erase(cli.begin() + static_cast<std::ptrdiff_t>(k));
    } else {
      ++k;
      continue;
    }
    const std::optional<LogLevel> level = parse_log_level(value);
    if (!level) {
      err << "--log-level: unknown level '" << value
          << "' (debug|info|warn|error|off)\n";
      return 2;
    }
    set_log_level(*level);
  }

  if (cli.empty()) {
    err << usage();
    return 2;
  }
  std::string name = cli.front();
  if (name == "--help" || name == "-h") name = "help";
  const std::vector<std::string> args(cli.begin() + 1, cli.end());
  for (const Command& command : kCommands) {
    if (name != command.name) continue;
    try {
      return command.run(args, out);
    } catch (const std::exception& e) {
      err << command.name << ": " << e.what() << '\n';
      return 1;
    }
  }
  err << "unknown subcommand '" << name << "'\n\n" << usage();
  return 2;
}

}  // namespace esva::app
