#include "app/commands.h"

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstddef>
#include <fstream>
#include <memory>
#include <optional>
#include <ostream>
#include <sstream>

#include "baselines/registry.h"
#include "cluster/datacenter.h"
#include "core/fault_plan.h"
#include "ext/register.h"
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
#include "util/sparkline.h"
#include "util/table.h"
#include "workload/diurnal.h"
#include "workload/generator.h"
#include "workload/trace.h"

namespace esva::app {

namespace {

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
    return server_types_1_to(std::stoi(which.substr(2)));
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

/// Writes a metrics-registry snapshot as JSON; throws on I/O failure.
void write_stats(const std::string& path, const MetricsRegistry& metrics) {
  std::ofstream file(path);
  if (!file) throw std::runtime_error("cannot open stats file '" + path + "'");
  file << metrics.to_json();
}

/// The --threads flag shared by allocate, stream and serve.
void add_threads_flag(CliParser& parser) {
  parser.add_int("threads", 1,
                 "candidate-scan threads: 1 = serial (default), 0 = hardware "
                 "concurrency, N = exactly N; identical results at any count");
}

/// The scan configuration from --threads (add_threads_flag).
ScanConfig scan_config(const CliParser& parser) {
  ScanConfig scan;
  const std::int64_t threads = parser.get_int("threads");
  if (threads < 0)
    throw std::invalid_argument("--threads must be >= 0 (0 = hardware "
                                "concurrency), got " +
                                std::to_string(threads));
  scan.threads = static_cast<int>(threads);
  return scan;
}

/// True when an output path asks for JSON Lines rather than CSV.
bool wants_jsonl(const std::string& path) {
  return path.size() >= 6 && path.compare(path.size() - 6, 6, ".jsonl") == 0;
}

/// The request source shared by `stream` and `top`: a lazy generator
/// (--generate, optionally --diurnal) or a trace replay (--vms). The caller's
/// trace_vms vector backs the trace stream and must outlive it.
std::unique_ptr<ArrivalStream> make_arrival_stream(
    const CliParser& parser, Rng& workload_rng,
    std::vector<VmSpec>& trace_vms) {
  if (parser.get_int("generate") > 0) {
    if (parser.get_bool("diurnal")) {
      DiurnalConfig config;
      config.num_vms = static_cast<int>(parser.get_int("generate"));
      config.base_rate = 1.0 / parser.get_double("interarrival");
      config.amplitude = parser.get_double("amplitude");
      config.mean_duration = parser.get_double("duration");
      config.vm_types = vm_types_by_name(parser.get_string("vm-types"));
      return std::make_unique<DiurnalArrivalStream>(config, workload_rng);
    }
    WorkloadConfig config;
    config.num_vms = static_cast<int>(parser.get_int("generate"));
    config.mean_interarrival = parser.get_double("interarrival");
    config.mean_duration = parser.get_double("duration");
    config.vm_types = vm_types_by_name(parser.get_string("vm-types"));
    return std::make_unique<PoissonArrivalStream>(config, workload_rng);
  }
  trace_vms = load_vm_trace(parser.get_string("vms"));
  return std::make_unique<VectorArrivalStream>(trace_vms);
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

}  // namespace

int cmd_generate(const std::vector<std::string>& args, std::ostream& out,
                 std::ostream& err) {
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

  try {
    Rng rng(static_cast<std::uint64_t>(parser.get_int("seed")));
    std::vector<VmSpec> vms;
    if (parser.get_bool("diurnal")) {
      DiurnalConfig config;
      config.num_vms = static_cast<int>(parser.get_int("vms"));
      config.base_rate = 1.0 / parser.get_double("interarrival");
      config.amplitude = parser.get_double("amplitude");
      config.mean_duration = parser.get_double("duration");
      config.vm_types = vm_types_by_name(parser.get_string("vm-types"));
      vms = generate_diurnal_workload(config, rng);
    } else {
      WorkloadConfig config;
      config.num_vms = static_cast<int>(parser.get_int("vms"));
      config.mean_interarrival = parser.get_double("interarrival");
      config.mean_duration = parser.get_double("duration");
      config.vm_types = vm_types_by_name(parser.get_string("vm-types"));
      vms = generate_workload(config, rng);
    }
    const std::vector<ServerSpec> servers = make_random_fleet(
        static_cast<int>(parser.get_int("servers")),
        server_types_by_name(parser.get_string("server-types")),
        parser.get_double("transition"), rng);

    save_vm_trace(parser.get_string("out-vms"), vms);
    save_server_trace(parser.get_string("out-servers"), servers);
    out << "wrote " << vms.size() << " VMs to " << parser.get_string("out-vms")
        << " and " << servers.size() << " servers to "
        << parser.get_string("out-servers") << " (horizon " << horizon_of(vms)
        << " min)\n";
    return 0;
  } catch (const std::exception& e) {
    err << "generate: " << e.what() << '\n';
    return 1;
  }
}

int cmd_allocate(const std::vector<std::string>& args, std::ostream& out,
                 std::ostream& err) {
  CliParser parser("esva allocate — run an allocator over traces");
  parser.add_string("vms", "vms.csv", "VM trace");
  parser.add_string("servers", "servers.csv", "server trace");
  parser.add_string("allocator", "min-incremental", "policy name");
  parser.add_int("seed", 42, "seed for stochastic allocators");
  add_threads_flag(parser);
  parser.add_string("out-assignment", "", "assignment CSV output (optional)");
  parser.add_string("trace", "",
                    "JSONL decision trace output: one record per VM with "
                    "candidates, rejection reasons and cost deltas (optional)");
  parser.add_string("stats", "",
                    "metrics JSON output: timers and counters (optional)");
  if (!parse_args(parser, args)) return parser_exit_code(parser);

  try {
    register_extension_allocators();
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
    allocator->set_scan_config(scan_config(parser));
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
      out << "decision trace written to " << parser.get_string("trace")
          << '\n';
    }
    if (!parser.get_string("stats").empty()) {
      metrics.set("instance.vms", static_cast<double>(problem.num_vms()));
      metrics.set("instance.servers",
                  static_cast<double>(problem.num_servers()));
      write_stats(parser.get_string("stats"), metrics);
      out << "stats written to " << parser.get_string("stats") << '\n';
    }
    return 0;
  } catch (const std::exception& e) {
    err << "allocate: " << e.what() << '\n';
    return 1;
  }
}

int cmd_stream(const std::vector<std::string>& args, std::ostream& out,
               std::ostream& err) {
  CliParser parser(
      "esva stream — event-driven replay through the streaming engine");
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
  add_threads_flag(parser);
  parser.add_int("shards", 1,
                 "slice the fleet into N contiguous server blocks and add a "
                 "per-shard load breakdown to --timeseries-out JSONL "
                 "(identical decisions at any count)");
  parser.add_bool("no-gc",
                  "keep full history instead of garbage-collecting behind the "
                  "frontier (identical decisions; more memory)");
  parser.add_string("faults", "",
                    "fault-plan CSV (time,event,server with event in "
                    "fail|drain|recover) applied at frontier advances "
                    "(optional)");
  parser.add_int("retry-max", 1,
                 "total placement attempts per request (initial included); "
                 "1 disables the retry queue");
  parser.add_int("retry-delay", 8,
                 "base delay before the first retry (time units)");
  parser.add_double("retry-backoff", 2.0,
                    "multiplier applied to the delay after each failed retry");
  parser.add_int("retry-queue", 64,
                 "retry queue capacity; admissions beyond it are rejected");
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

  try {
    register_extension_allocators();
    const bool generate = parser.get_int("generate") > 0;
    if (generate == !parser.get_string("vms").empty())
      throw std::invalid_argument(
          "pass exactly one of --vms <trace> or --generate <n>");

    MetricsRegistry metrics;
    std::unique_ptr<JsonlTraceSink> trace_sink;
    if (!parser.get_string("trace").empty())
      trace_sink = std::make_unique<JsonlTraceSink>(parser.get_string("trace"));

    const std::vector<ServerSpec> servers =
        load_server_trace(parser.get_string("servers"));

    AllocatorPtr allocator = make_allocator(parser.get_string("allocator"));
    ScanConfig scan = scan_config(parser);
    const std::int64_t shards = parser.get_int("shards");
    if (shards < 1)
      throw std::invalid_argument("--shards must be >= 1, got " +
                                  std::to_string(shards));
    scan.shards = static_cast<int>(shards);
    allocator->set_scan_config(scan);
    ObsContext obs;
    obs.trace = trace_sink.get();
    obs.metrics = &metrics;
    allocator->set_observability(obs);
    std::unique_ptr<PlacementPolicy> policy = allocator->make_policy();
    if (!policy)
      throw std::invalid_argument("allocator '" + allocator->name() +
                                  "' is batch-only (no streaming policy)");

    // The request source and the policy draw from independent generators,
    // matching the generate-then-allocate two-command pipeline.
    Rng workload_rng(static_cast<std::uint64_t>(parser.get_int("seed")));
    Rng policy_rng(static_cast<std::uint64_t>(parser.get_int("seed")));
    std::vector<VmSpec> trace_vms;
    std::unique_ptr<ArrivalStream> arrivals =
        make_arrival_stream(parser, workload_rng, trace_vms);

    FaultPlan fault_plan;
    ReplayOptions options;
    options.rolling_gc = !parser.get_bool("no-gc");
    if (!parser.get_string("faults").empty()) {
      fault_plan = load_fault_plan(parser.get_string("faults"));
      fault_plan.validate(servers.size());
      options.faults = &fault_plan;
    }
    options.retry.max_attempts = static_cast<int>(parser.get_int("retry-max"));
    options.retry.base_delay =
        static_cast<Time>(parser.get_int("retry-delay"));
    options.retry.backoff = parser.get_double("retry-backoff");
    options.retry.queue_capacity =
        static_cast<std::size_t>(parser.get_int("retry-queue"));
    options.shard = scan.shard_options();
    options.obs.metrics = &metrics;
    // Telemetry sinks are bound only when their output was requested; none
    // of them changes a single decision (docs/OBSERVABILITY.md).
    TimeSeriesOptions ts_options;
    ts_options.every = static_cast<Time>(
        std::max<std::int64_t>(1, parser.get_int("timeseries-every")));
    ts_options.capacity = 0;  // file export wants the complete series
    TimeSeriesSampler sampler(ts_options);
    EnergyLedger ledger;
    if (!parser.get_string("timeseries-out").empty())
      options.timeseries = &sampler;
    if (!parser.get_string("ledger-out").empty()) options.ledger = &ledger;
    const ReplayReport report =
        replay_stream(*arrivals, servers, *policy, policy_rng, options);
    log_info() << allocator->name() << " streamed " << report.placed << "/"
               << report.requests << " requests at " << report.requests_per_sec
               << " req/s";

    out << "allocator: " << allocator->name() << '\n';
    TextTable table;
    table.set_header({"metric", "value"});
    table.add_row({"requests", std::to_string(report.requests)});
    table.add_row({"placed", std::to_string(report.placed)});
    table.add_row({"rejected", std::to_string(report.rejected)});
    table.add_row(
        {"requests/sec", fmt_double(report.requests_per_sec, 1)});
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
    table.add_row(
        {"total energy (W*min)", fmt_double(report.total_energy, 1)});
    if (options.ledger) {
      table.add_row({"ledger run (W*min)",
                     fmt_double(ledger.total_for(EnergyCause::kRun), 1)});
      table.add_row({"ledger idle (W*min)",
                     fmt_double(ledger.total_for(EnergyCause::kIdle), 1)});
      table.add_row(
          {"ledger transition (W*min)",
           fmt_double(ledger.total_for(EnergyCause::kTransition), 1)});
      table.add_row(
          {"ledger migration (W*min)",
           fmt_double(ledger.total_for(EnergyCause::kMigration), 1)});
      table.add_row({"ledger total (W*min)", fmt_double(ledger.total(), 1)});
      table.add_row({"ledger conserves energy",
                     ledger.conserves(report.total_energy) ? "yes" : "NO"});
    }
    table.add_row({"peak resident time units",
                   std::to_string(report.peak_resident_time_units)});
    table.add_row({"final resident time units",
                   std::to_string(report.final_resident_time_units)});
    table.add_row(
        {"peak active VMs", std::to_string(report.peak_active_vms)});
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
      if (generate) {
        alloc.assignment = report.assignment;  // generated ids are positional
        alloc.assignment.resize(report.requests, kNoServer);
      } else {
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
    if (!parser.get_string("latency-json").empty()) {
      const std::string path = parser.get_string("latency-json");
      std::ofstream file(path);
      if (!file)
        throw std::runtime_error("cannot open latency file '" + path + "'");
      file.precision(17);
      file << "{\n"
           << "  \"allocator\": \"" << allocator->name() << "\",\n"
           << "  \"rolling_gc\": " << (options.rolling_gc ? "true" : "false")
           << ",\n"
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
           << "  \"faults\": {\n"
           << "    \"fault_events\": " << report.faults.fault_events << ",\n"
           << "    \"late_arrivals\": " << report.faults.late_arrivals << ",\n"
           << "    \"displaced\": " << report.faults.displaced << ",\n"
           << "    \"evacuated\": " << report.faults.evacuated << ",\n"
           << "    \"deferred\": " << report.faults.deferred << ",\n"
           << "    \"retries\": " << report.faults.retries << ",\n"
           << "    \"retried_placed\": " << report.faults.retried_placed
           << ",\n"
           << "    \"rejected_final\": " << report.faults.rejected_final
           << ",\n"
           << "    \"queue_full\": " << report.faults.queue_full << ",\n"
           << "    \"downtime_units\": " << report.faults.downtime_units
           << "\n"
           << "  }\n"
           << "}\n";
      out << "latency report written to " << path << '\n';
    }
    if (trace_sink) {
      trace_sink.reset();  // flush + close before reporting
      out << "decision trace written to " << parser.get_string("trace")
          << '\n';
    }
    if (!parser.get_string("stats").empty()) {
      metrics.set("instance.servers", static_cast<double>(servers.size()));
      write_stats(parser.get_string("stats"), metrics);
      out << "stats written to " << parser.get_string("stats") << '\n';
    }
    if (!parser.get_string("prom-out").empty()) {
      const std::string path = parser.get_string("prom-out");
      std::ofstream file(path);
      if (!file)
        throw std::runtime_error("cannot open prometheus file '" + path +
                                 "'");
      file << metrics.to_prometheus();
      out << "prometheus metrics written to " << path << '\n';
    }
    if (!parser.get_string("timeseries-out").empty()) {
      const std::string path = parser.get_string("timeseries-out");
      std::ofstream file(path);
      if (!file)
        throw std::runtime_error("cannot open time-series file '" + path +
                                 "'");
      if (wants_jsonl(path))
        sampler.write_jsonl(file);
      else
        sampler.write_csv(file);
      out << "time series (" << sampler.size() << " samples) written to "
          << path << '\n';
    }
    if (!parser.get_string("ledger-out").empty()) {
      const std::string path = parser.get_string("ledger-out");
      std::ofstream file(path);
      if (!file)
        throw std::runtime_error("cannot open ledger file '" + path + "'");
      if (wants_jsonl(path))
        ledger.write_jsonl(file);
      else
        ledger.write_csv(file);
      out << "energy ledger (" << ledger.size() << " entries) written to "
          << path << '\n';
    }
    return 0;
  } catch (const std::exception& e) {
    err << "stream: " << e.what() << '\n';
    return 1;
  }
}

namespace {

/// serve_loop polls with a short timeout and re-checks this between rounds;
/// the handler itself only flips the flag (async-signal-safe).
std::atomic<bool> g_serve_stop{false};

void serve_stop_handler(int) { g_serve_stop.store(true); }

}  // namespace

int cmd_serve(const std::vector<std::string>& args, std::ostream& out,
              std::ostream& err) {
  CliParser parser(
      "esva serve — durable scheduler daemon: line-delimited JSON over a unix "
      "socket, write-ahead journal + snapshots (docs/SERVE.md)");
  parser.add_string("servers", "servers.csv", "server trace");
  parser.add_string("socket", "", "unix socket path to listen on (required)");
  parser.add_string("wal", "",
                    "write-ahead journal path (required); an existing journal "
                    "is replayed on startup");
  parser.add_string("snapshot", "",
                    "snapshot path (optional); bounds startup replay to the "
                    "journal suffix past the snapshot");
  parser.add_int("wal-sync-every", 1,
                 "fsync the journal every N records; 1 = every op durable "
                 "before its ack, N > 1 = group commit");
  parser.add_int("snapshot-every", 0,
                 "auto-snapshot after N journaled ops (0 = only on explicit "
                 "snapshot/drain ops; needs --snapshot)");
  parser.add_string("allocator", "min-incremental", "policy name");
  parser.add_int("seed", 42, "seed");
  add_threads_flag(parser);
  parser.add_int("retry-max", 1,
                 "total placement attempts per request (initial included); "
                 "1 disables the retry queue");
  parser.add_int("retry-delay", 8,
                 "base delay before the first retry (time units)");
  parser.add_double("retry-backoff", 2.0,
                    "multiplier applied to the delay after each failed retry");
  parser.add_int("retry-queue", 64,
                 "retry queue capacity; admissions beyond it are rejected");
  if (!parse_args(parser, args)) return parser_exit_code(parser);

  try {
    register_extension_allocators();
    if (parser.get_string("socket").empty())
      throw std::invalid_argument("--socket is required");

    std::vector<ServerSpec> servers =
        load_server_trace(parser.get_string("servers"));

    serve::DaemonOptions dopts;
    dopts.allocator = parser.get_string("allocator");
    dopts.seed = static_cast<std::uint64_t>(parser.get_int("seed"));
    dopts.wal_path = parser.get_string("wal");
    dopts.snapshot_path = parser.get_string("snapshot");
    dopts.wal_sync_every = static_cast<int>(parser.get_int("wal-sync-every"));
    dopts.snapshot_every =
        static_cast<std::uint64_t>(parser.get_int("snapshot-every"));
    dopts.retry.max_attempts = static_cast<int>(parser.get_int("retry-max"));
    dopts.retry.base_delay = static_cast<Time>(parser.get_int("retry-delay"));
    dopts.retry.backoff = parser.get_double("retry-backoff");
    dopts.retry.queue_capacity =
        static_cast<std::size_t>(parser.get_int("retry-queue"));
    dopts.scan = scan_config(parser);

    serve::Daemon daemon(std::move(servers), dopts);
    if (daemon.recovered_from_snapshot() || daemon.replayed_records() > 0)
      out << "recovered: snapshot="
          << (daemon.recovered_from_snapshot() ? "yes" : "no")
          << " replayed=" << daemon.replayed_records()
          << " torn_tail=" << (daemon.recovered_torn_tail() ? "yes" : "no")
          << " wal_seq=" << daemon.last_seq() << '\n'
          << std::flush;

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
    if (rc != 0) {
      // Journal failure: the engine is ahead of the durable journal. Do NOT
      // checkpoint — a snapshot here would capture state the journal never
      // recorded and poison the next recovery.
      err << "serve: " << daemon.fatal_error() << '\n';
      return 1;
    }
    // Graceful shutdown checkpoints (journal sync + snapshot) WITHOUT
    // draining, so a restarted daemon continues the stream mid-flight.
    daemon.checkpoint();
    out << "stopped after " << daemon.last_seq() << " journaled ops\n";
    return 0;
  } catch (const std::exception& e) {
    err << "serve: " << e.what() << '\n';
    return 1;
  }
}

int cmd_client(const std::vector<std::string>& args, std::ostream& out,
               std::ostream& err) {
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

  try {
    if (parser.get_string("socket").empty())
      throw std::invalid_argument("--socket is required");
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
      const std::vector<VmSpec> vms = load_vm_trace(
          parser.get_string("place-vms"), /*dense_ids=*/false);
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

    if (parser.get_int("advance") >= 0) {
      serve::Request req;
      req.op = serve::OpKind::kAdvance;
      req.to = static_cast<Time>(parser.get_int("advance"));
      send(serve::encode_request(req));
    }
    if (parser.get_int("retire") >= 0) {
      serve::Request req;
      req.op = serve::OpKind::kRetire;
      req.vm_id = static_cast<VmId>(parser.get_int("retire"));
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
  } catch (const std::exception& e) {
    err << "client: " << e.what() << '\n';
    return 1;
  }
}

int cmd_top(const std::vector<std::string>& args, std::ostream& out,
            std::ostream& err) {
  CliParser parser(
      "esva top — replay a workload and render a fleet telemetry dashboard");
  parser.add_string("vms", "",
                    "VM trace to replay in start-time order (exclusive with "
                    "--generate)");
  parser.add_int("generate", 0,
                 "synthesize N requests lazily instead of reading --vms");
  parser.add_double("interarrival", 2.0,
                    "mean inter-arrival time (min, with --generate)");
  parser.add_double("duration", 50.0,
                    "mean VM duration (min, with --generate)");
  parser.add_string("vm-types", "all",
                    "all|standard|memory-intensive|cpu-intensive "
                    "(with --generate)");
  parser.add_bool("diurnal", "day/night arrival process (with --generate)");
  parser.add_double("amplitude", 0.8, "diurnal swing in [0,1)");
  parser.add_string("servers", "servers.csv", "server trace");
  parser.add_string("allocator", "min-incremental", "policy name");
  parser.add_int("seed", 42, "seed");
  parser.add_int("every", 1, "time units between fleet samples");
  parser.add_int("width", 60, "sparkline width, characters");
  if (!parse_args(parser, args)) return parser_exit_code(parser);

  try {
    register_extension_allocators();
    const bool generate = parser.get_int("generate") > 0;
    if (generate == !parser.get_string("vms").empty())
      throw std::invalid_argument(
          "pass exactly one of --vms <trace> or --generate <n>");

    MetricsRegistry metrics;
    const std::vector<ServerSpec> servers =
        load_server_trace(parser.get_string("servers"));
    AllocatorPtr allocator = make_allocator(parser.get_string("allocator"));
    ObsContext obs;
    obs.metrics = &metrics;
    allocator->set_observability(obs);
    std::unique_ptr<PlacementPolicy> policy = allocator->make_policy();
    if (!policy)
      throw std::invalid_argument("allocator '" + allocator->name() +
                                  "' is batch-only (no streaming policy)");

    Rng workload_rng(static_cast<std::uint64_t>(parser.get_int("seed")));
    Rng policy_rng(static_cast<std::uint64_t>(parser.get_int("seed")));
    std::vector<VmSpec> trace_vms;
    std::unique_ptr<ArrivalStream> arrivals =
        make_arrival_stream(parser, workload_rng, trace_vms);

    TimeSeriesOptions ts_options;
    ts_options.every = static_cast<Time>(
        std::max<std::int64_t>(1, parser.get_int("every")));
    ts_options.capacity = 0;
    TimeSeriesSampler sampler(ts_options);
    EnergyLedger ledger;
    ReplayOptions options;
    options.obs.metrics = &metrics;
    options.timeseries = &sampler;
    options.ledger = &ledger;
    const ReplayReport report =
        replay_stream(*arrivals, servers, *policy, policy_rng, options);

    const std::vector<FleetSample> samples = sampler.samples();
    const int width =
        std::max(8, static_cast<int>(parser.get_int("width")));
    out << "allocator: " << allocator->name() << "   requests: "
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
      table.add_row({label, sparkline(values, width),
                     fmt_double(*lo, precision),
                     fmt_double(values.back(), precision),
                     fmt_double(*hi, precision)});
    };
    add_series("active VMs", [](const FleetSample& s) { return s.active_vms; },
               0);
    add_series("busy servers",
               [](const FleetSample& s) { return s.busy_servers; }, 0);
    add_series("power (W)",
               [](const FleetSample& s) { return s.total_power_w; }, 1);
    add_series("spare CPU", [](const FleetSample& s) { return s.spare_cpu; },
               1);
    add_series("spare MEM", [](const FleetSample& s) { return s.spare_mem; },
               1);
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
      attribution.add_row(
          {to_string(cause), fmt_double(part, 1),
           total != 0.0 ? fmt_percent(part / total) : "-"});
    }
    attribution.add_row({"total", fmt_double(total, 1),
                         ledger.conserves(report.total_energy)
                             ? "conserved"
                             : "NOT CONSERVED"});
    out << attribution.render();
    return 0;
  } catch (const std::exception& e) {
    err << "top: " << e.what() << '\n';
    return 1;
  }
}

int cmd_evaluate(const std::vector<std::string>& args, std::ostream& out,
                 std::ostream& err) {
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

  try {
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
    if (!parser.get_string("stats").empty()) {
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
      write_stats(parser.get_string("stats"), metrics);
      out << "stats written to " << parser.get_string("stats") << '\n';
    }
    if (parser.get_int("timeout") >= 0) {
      const TimeoutPolicy policy{
          static_cast<Time>(parser.get_int("timeout"))};
      out << "with fixed timeout " << parser.get_int("timeout") << " min: "
          << fmt_double(evaluate_cost_with_timeout(problem, alloc, policy), 1)
          << " W*min\n";
    }
    return 0;
  } catch (const std::exception& e) {
    err << "evaluate: " << e.what() << '\n';
    return 1;
  }
}

int cmd_simulate(const std::vector<std::string>& args, std::ostream& out,
                 std::ostream& err) {
  CliParser parser("esva simulate — event-driven replay with power samples");
  parser.add_string("vms", "vms.csv", "VM trace");
  parser.add_string("servers", "servers.csv", "server trace");
  parser.add_string("assignment", "assignment.csv", "assignment CSV");
  parser.add_string("power-csv", "", "per-minute power samples output");
  if (!parse_args(parser, args)) return parser_exit_code(parser);

  try {
    const ProblemInstance problem = load_problem(parser);
    const Allocation alloc =
        load_assignment(parser.get_string("assignment"), problem.num_vms());
    const SimulationResult result =
        SimulationEngine(problem, alloc).run(true);
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
    if (!parser.get_string("power-csv").empty()) {
      std::ofstream file(parser.get_string("power-csv"));
      if (!file)
        throw std::runtime_error("cannot open " +
                                 parser.get_string("power-csv"));
      CsvWriter csv(file);
      csv.row({"t", "total_power_w", "active_servers", "running_vms"});
      for (const PowerSample& sample : result.samples)
        csv.typed_row(static_cast<int>(sample.t), sample.total_power,
                      sample.active_servers, sample.running_vms);
      out << "power samples written to " << parser.get_string("power-csv")
          << '\n';
    }
    return 0;
  } catch (const std::exception& e) {
    err << "simulate: " << e.what() << '\n';
    return 1;
  }
}

int cmd_export_lp(const std::vector<std::string>& args, std::ostream& out,
                  std::ostream& err) {
  CliParser parser("esva export-lp — write the boolean ILP in CPLEX-LP form");
  parser.add_string("vms", "vms.csv", "VM trace");
  parser.add_string("servers", "servers.csv", "server trace");
  parser.add_string("out", "instance.lp", "LP output path");
  if (!parse_args(parser, args)) return parser_exit_code(parser);

  try {
    const ProblemInstance problem = load_problem(parser);
    const IlpModel model = build_ilp(problem);
    save_lp(parser.get_string("out"), model);
    out << "wrote " << model.num_vars() << " variables / "
        << model.rows.size() << " constraints to " << parser.get_string("out")
        << '\n';
    out << "solve with e.g.: highs " << parser.get_string("out")
        << "  (then: esva import-solution --solution <file>)\n";
    return 0;
  } catch (const std::exception& e) {
    err << "export-lp: " << e.what() << '\n';
    return 1;
  }
}

int cmd_import_solution(const std::vector<std::string>& args,
                        std::ostream& out, std::ostream& err) {
  CliParser parser(
      "esva import-solution — validate an external solver's solution");
  parser.add_string("vms", "vms.csv", "VM trace");
  parser.add_string("servers", "servers.csv", "server trace");
  parser.add_string("solution", "instance.sol", "solver solution file");
  parser.add_string("out-assignment", "", "assignment CSV output (optional)");
  if (!parse_args(parser, args)) return parser_exit_code(parser);

  try {
    const ProblemInstance problem = load_problem(parser);
    const SolverSolution solution =
        load_solution(parser.get_string("solution"));
    const Allocation alloc = allocation_from_solution(solution, problem);
    if (std::string issue = validate_allocation(problem, alloc, true);
        !issue.empty())
      throw std::runtime_error("solver solution infeasible: " + issue);
    const Energy cost = evaluate_cost(problem, alloc).total();
    out << "solution is feasible; energy " << fmt_double(cost, 1)
        << " W*min\n";
    if (solution.has_objective) {
      out << "solver-reported objective: "
          << fmt_double(solution.objective, 1)
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
  } catch (const std::exception& e) {
    err << "import-solution: " << e.what() << '\n';
    return 1;
  }
}

std::string usage() {
  return
      "esva — energy-saving VM allocation toolkit\n"
      "\n"
      "subcommands:\n"
      "  generate         synthesize a workload + fleet as CSV traces\n"
      "  allocate         run an allocation policy over traces\n"
      "  stream           feed requests one at a time through the streaming\n"
      "                   engine; per-request latency + rolling-horizon GC\n"
      "  serve            long-running scheduler daemon: JSON over a unix\n"
      "                   socket, write-ahead journal + snapshot recovery\n"
      "  client           send place/fault/advance/stats requests to a\n"
      "                   running serve daemon\n"
      "  top              replay a workload and render a terminal fleet\n"
      "                   dashboard (sparklines, latency, energy ledger)\n"
      "  evaluate         price an existing assignment (Eq. 17)\n"
      "  simulate         event-driven replay; per-minute power samples\n"
      "  export-lp        write the boolean ILP in CPLEX-LP format\n"
      "  import-solution  validate/evaluate an external solver's solution\n"
      "  help             this message\n"
      "\n"
      "global flags (any position):\n"
      "  --log-level {debug,info,warn,error,off}   stderr logging threshold\n"
      "                                            (default: warn)\n"
      "\n"
      "run `esva <subcommand> --help` for per-command flags.\n";
}

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
  const std::string command = cli.front();
  const std::vector<std::string> args(cli.begin() + 1, cli.end());
  if (command == "help" || command == "--help" || command == "-h") {
    out << usage();
    return 0;
  }
  if (command == "generate") return cmd_generate(args, out, err);
  if (command == "allocate") return cmd_allocate(args, out, err);
  if (command == "stream") return cmd_stream(args, out, err);
  if (command == "serve") return cmd_serve(args, out, err);
  if (command == "client") return cmd_client(args, out, err);
  if (command == "top") return cmd_top(args, out, err);
  if (command == "evaluate") return cmd_evaluate(args, out, err);
  if (command == "simulate") return cmd_simulate(args, out, err);
  if (command == "export-lp") return cmd_export_lp(args, out, err);
  if (command == "import-solution") return cmd_import_solution(args, out, err);
  err << "unknown subcommand '" << command << "'\n\n" << usage();
  return 2;
}

}  // namespace esva::app
