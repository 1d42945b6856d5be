// Fig. 4 — energy reduction ratio vs the memory load of the system, where
// load is quantified as the average memory utilization of servers under FFPS
// (paper §IV-C). One series per VM count; logarithm fits.

#include <algorithm>
#include <iostream>

#include "bench_util.h"

int main(int argc, char** argv) try {
  using namespace esva;
  const bench::BenchArgs args = bench::parse_bench_args(
      argc, argv, "fig4_memory_load — reproduce Fig. 4 (reduction vs load)",
      /*with_csv=*/true);
  bench::print_banner(
      "Fig. 4 — energy reduction ratio vs memory load",
      "as the load increases the reduction ratio decreases, with a "
      "flattening (logarithmic) decay");

  const std::vector<int> counts =
      args.quick ? std::vector<int>{100, 300} : vm_count_sweep();

  std::vector<Series> series;
  for (int num_vms : counts) {
    // Collect (load, reduction) pairs across the inter-arrival sweep, then
    // sort by load so the series reads like the paper's x-axis.
    std::vector<std::pair<double, double>> points;
    for (double interarrival : interarrival_sweep()) {
      const Scenario scenario = fig2_scenario(num_vms, interarrival);
      const PointOutcome outcome =
          run_point(scenario, bench::config_from(args));
      points.emplace_back(outcome.baseline_mem_load(),
                          outcome.headline_reduction());
    }
    std::sort(points.begin(), points.end());
    Series s;
    s.label = std::to_string(num_vms) + " VMs";
    for (const auto& [load, reduction] : points) {
      s.xs.push_back(load);
      s.ys.push_back(reduction);
    }
    series.push_back(std::move(s));
  }

  // The shared-x-grid table layout does not apply (each series has its own
  // measured loads), so print per-series tables.
  for (const Series& s : series) {
    FigureSpec spec;
    spec.title = "Fig. 4 — reduction vs memory load [" + s.label + "]";
    spec.x_label = "memory load of the system (FFPS avg util)";
    spec.y_label = "energy reduction ratio";
    spec.fit = FitModel::Logarithmic;
    spec.y_as_percent = false;
    print_figure(std::cout, spec, {s});
  }
  if (!args.csv.empty())
    export_points_csv(args.csv, {"vm_count", "memory_load", "reduction"},
                      series);
  return 0;
} catch (const std::exception& e) {
  return esva::bench::exit_on_error(e);
}
