// Fig. 8(a,b) — average CPU / memory utilization with 100 standard VMs, on
// (a) all server types and (b) server types 1-3, for both algorithms. The
// paper reports the heuristic lifting both utilizations above ~70% on the
// types-1-3 pool, while FFPS drops to ~30% when big servers are available.

#include <filesystem>

#include "bench_util.h"

namespace {

/// `csv` with "<panel_key>_" before its file name, in the same directory.
std::string panel_csv(const std::string& csv, const std::string& panel_key) {
  std::filesystem::path path(csv);
  path.replace_filename(panel_key + "_" + path.filename().string());
  return path.string();
}

void run_panel(const esva::bench::BenchArgs& args, bool all_server_types,
               const std::string& panel_name, const std::string& panel_key) {
  using namespace esva;
  Series ours_cpu;
  ours_cpu.label = "ours CPU";
  Series ours_mem;
  ours_mem.label = "ours memory";
  Series ffps_cpu;
  ffps_cpu.label = "FFPS CPU";
  Series ffps_mem;
  ffps_mem.label = "FFPS memory";

  for (double interarrival : interarrival_sweep()) {
    const Scenario scenario =
        fig7_scenario(100, interarrival, all_server_types);
    const PointOutcome outcome = run_point(scenario, bench::config_from(args));
    const AllocatorAggregate& ours = outcome.by_name("min-incremental");
    const AllocatorAggregate& ffps = outcome.by_name("ffps");
    for (Series* s : {&ours_cpu, &ours_mem, &ffps_cpu, &ffps_mem})
      s->xs.push_back(interarrival);
    ours_cpu.ys.push_back(ours.cpu_util.mean());
    ours_mem.ys.push_back(ours.mem_util.mean());
    ffps_cpu.ys.push_back(ffps.cpu_util.mean());
    ffps_mem.ys.push_back(ffps.mem_util.mean());
  }

  FigureSpec spec;
  spec.title = "Fig. 8" + panel_name;
  spec.x_label = "mean inter-arrival time (min)";
  spec.y_label = "utilization";
  spec.y_as_percent = true;
  emit_figure(spec, {ours_cpu, ours_mem, ffps_cpu, ffps_mem},
              args.csv.empty() ? "" : panel_csv(args.csv, panel_key));
}

}  // namespace

int main(int argc, char** argv) try {
  using namespace esva;
  const bench::BenchArgs args = bench::parse_bench_args(
      argc, argv,
      "fig8_standard_utilization — reproduce Fig. 8 (standard-VM utilization)",
      /*with_csv=*/true);
  bench::print_banner(
      "Fig. 8 — utilization with 100 standard VMs",
      "(a) all server types: FFPS utilization is dragged down by large "
      "servers; (b) types 1-3: our algorithm pushes both utilizations high "
      "and even");

  run_panel(args, /*all_server_types=*/true, "(a) all server types", "fig8a");
  run_panel(args, /*all_server_types=*/false, "(b) server types 1-3", "fig8b");
  return 0;
} catch (const std::exception& e) {
  return esva::bench::exit_on_error(e);
}
