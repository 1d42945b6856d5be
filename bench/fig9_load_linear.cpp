// Fig. 9 — energy reduction ratio vs system load (standard VMs), with four
// series: CPU load and memory load, on both the all-types server pool and the
// types-1-3 pool. Linear fits; the paper finds the reduction decreasing
// close-to-linearly with load and higher when all server types are in play.

#include <algorithm>
#include <iostream>

#include "bench_util.h"
#include "util/table.h"

namespace {

struct LoadSeries {
  esva::Series cpu;
  esva::Series mem;
};

LoadSeries sweep(const esva::bench::BenchArgs& args, bool all_server_types) {
  using namespace esva;
  std::vector<std::pair<double, double>> cpu_points;
  std::vector<std::pair<double, double>> mem_points;
  for (double interarrival : interarrival_sweep()) {
    const Scenario scenario =
        fig7_scenario(100, interarrival, all_server_types);
    const PointOutcome outcome = run_point(scenario, bench::config_from(args));
    cpu_points.emplace_back(outcome.baseline_cpu_load(),
                            outcome.headline_reduction());
    mem_points.emplace_back(outcome.baseline_mem_load(),
                            outcome.headline_reduction());
  }
  std::sort(cpu_points.begin(), cpu_points.end());
  std::sort(mem_points.begin(), mem_points.end());

  LoadSeries result;
  const std::string pool = all_server_types ? "all types" : "types 1-3";
  result.cpu.label = "vs CPU load (" + pool + ")";
  result.mem.label = "vs memory load (" + pool + ")";
  for (const auto& [load, reduction] : cpu_points) {
    result.cpu.xs.push_back(load);
    result.cpu.ys.push_back(reduction);
  }
  for (const auto& [load, reduction] : mem_points) {
    result.mem.xs.push_back(load);
    result.mem.ys.push_back(reduction);
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) try {
  using namespace esva;
  const bench::BenchArgs args = bench::parse_bench_args(
      argc, argv, "fig9_load_linear — reproduce Fig. 9 (reduction vs load)",
      /*with_csv=*/true);
  bench::print_banner(
      "Fig. 9 — energy reduction ratio vs system load (standard VMs)",
      "reduction decreases ~linearly with load; higher when all server "
      "types are used than with types 1-3 only");

  const LoadSeries all = sweep(args, /*all_server_types=*/true);
  const LoadSeries t13 = sweep(args, /*all_server_types=*/false);

  for (const Series& s : {all.cpu, all.mem, t13.cpu, t13.mem}) {
    FigureSpec spec;
    spec.title = "Fig. 9 — " + s.label;
    spec.x_label = "load of the system (FFPS avg util)";
    spec.y_label = "energy reduction ratio";
    spec.fit = FitModel::Linear;
    print_figure(std::cout, spec, {s});
  }

  // Pool comparison at matched sweep points.
  double mean_all = 0.0;
  double mean_t13 = 0.0;
  for (std::size_t k = 0; k < all.cpu.ys.size(); ++k) {
    mean_all += all.cpu.ys[k];
    mean_t13 += t13.cpu.ys[k];
  }
  std::printf("mean reduction: %s (all server types) vs %s (types 1-3) "
              "(paper: former is higher)\n",
              fmt_percent(mean_all / all.cpu.ys.size()).c_str(),
              fmt_percent(mean_t13 / t13.cpu.ys.size()).c_str());

  if (!args.csv.empty())
    export_points_csv(args.csv, {"series", "load", "reduction"},
                      {all.cpu, all.mem, t13.cpu, t13.mem});
  return 0;
} catch (const std::exception& e) {
  return esva::bench::exit_on_error(e);
}
