// Fig. 7 — allocation of standard VM types (m1.*) on server types 1-3:
// energy reduction ratio vs mean inter-arrival time, one series per VM count,
// logarithm fits. The paper reports up to ~20% savings here.

#include "bench_util.h"

int main(int argc, char** argv) try {
  using namespace esva;
  const bench::BenchArgs args = bench::parse_bench_args(
      argc, argv,
      "fig7_standard_vms — reproduce Fig. 7 (standard VMs on types 1-3)",
      /*with_csv=*/true);
  bench::print_banner(
      "Fig. 7 — standard VMs on server types 1-3",
      "savings up to ~20%, decreasing as inter-arrival time shrinks (load "
      "grows); logarithmic trend");

  const std::vector<int> counts =
      args.quick ? std::vector<int>{100, 300} : vm_count_sweep();

  std::vector<Series> series;
  for (int num_vms : counts) {
    Series s;
    s.label = std::to_string(num_vms) + " VMs";
    for (double interarrival : interarrival_sweep()) {
      const Scenario scenario =
          fig7_scenario(num_vms, interarrival, /*all_server_types=*/false);
      const PointOutcome outcome =
          run_point(scenario, bench::config_from(args));
      s.xs.push_back(interarrival);
      s.ys.push_back(outcome.headline_reduction());
      s.errs.push_back(outcome.allocators.front()
                           .reduction_vs_baseline.stderr_mean());
      log_info() << "fig7: " << num_vms << " VMs, ia=" << interarrival
                 << " -> " << outcome.headline_reduction();
    }
    series.push_back(std::move(s));
  }

  FigureSpec spec;
  spec.title = "Fig. 7 — reduction ratio, standard VMs on server types 1-3";
  spec.x_label = "mean inter-arrival time (min)";
  spec.y_label = "energy reduction ratio";
  spec.fit = FitModel::Logarithmic;
  spec.y_as_percent = true;
  emit_figure(spec, series, args.csv);
  return 0;
} catch (const std::exception& e) {
  return esva::bench::exit_on_error(e);
}
