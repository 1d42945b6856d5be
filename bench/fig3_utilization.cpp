// Fig. 3 — average CPU and memory utilization of servers with 100 VMs, for
// both the heuristic and FFPS, vs mean inter-arrival time. Utilization is
// the nonzero-sample average (paper §IV-C).

#include "bench_util.h"
#include "util/table.h"

int main(int argc, char** argv) try {
  using namespace esva;
  const bench::BenchArgs args = bench::parse_bench_args(
      argc, argv, "fig3_utilization — reproduce Fig. 3 (resource utilization)",
      /*with_csv=*/true);
  bench::print_banner(
      "Fig. 3 — average CPU / memory utilization (100 VMs)",
      "our algorithm lifts CPU utilization well above FFPS and makes "
      "CPU/memory utilization more even; utilization decreases with "
      "inter-arrival time for both");

  Series ours_cpu;
  ours_cpu.label = "ours CPU";
  Series ours_mem;
  ours_mem.label = "ours memory";
  Series ffps_cpu;
  ffps_cpu.label = "FFPS CPU";
  Series ffps_mem;
  ffps_mem.label = "FFPS memory";

  for (double interarrival : interarrival_sweep()) {
    const Scenario scenario = fig2_scenario(100, interarrival);
    const PointOutcome outcome = run_point(scenario, bench::config_from(args));
    const AllocatorAggregate& ours = outcome.by_name("min-incremental");
    const AllocatorAggregate& ffps = outcome.by_name("ffps");
    for (Series* s : {&ours_cpu, &ours_mem, &ffps_cpu, &ffps_mem})
      s->xs.push_back(interarrival);
    ours_cpu.ys.push_back(ours.cpu_util.mean());
    ours_mem.ys.push_back(ours.mem_util.mean());
    ffps_cpu.ys.push_back(ffps.cpu_util.mean());
    ffps_mem.ys.push_back(ffps.mem_util.mean());
    log_info() << "fig3: ia=" << interarrival << " ours cpu "
               << ours.cpu_util.mean() << " ffps cpu " << ffps.cpu_util.mean();
  }

  FigureSpec spec;
  spec.title = "Fig. 3 — average resource utilization, 100 VMs";
  spec.x_label = "mean inter-arrival time (min)";
  spec.y_label = "utilization";
  spec.y_as_percent = true;
  emit_figure(spec, {ours_cpu, ours_mem, ffps_cpu, ffps_mem}, args.csv);

  // The evenness claim, made explicit.
  double ours_gap = 0.0;
  double ffps_gap = 0.0;
  for (std::size_t k = 0; k < ours_cpu.ys.size(); ++k) {
    ours_gap += std::abs(ours_cpu.ys[k] - ours_mem.ys[k]);
    ffps_gap += std::abs(ffps_cpu.ys[k] - ffps_mem.ys[k]);
  }
  std::printf(
      "mean |CPU - memory| utilization gap: ours %s vs FFPS %s "
      "(paper: ours is more even)\n",
      fmt_percent(ours_gap / static_cast<double>(ours_cpu.ys.size())).c_str(),
      fmt_percent(ffps_gap / static_cast<double>(ffps_cpu.ys.size())).c_str());
  return 0;
} catch (const std::exception& e) {
  return esva::bench::exit_on_error(e);
}
