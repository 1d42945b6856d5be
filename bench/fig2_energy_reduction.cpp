// Fig. 2 — energy reduction ratio vs mean inter-arrival time, one series per
// VM count (100..500), servers = VMs/2, all VM and server types, mean VM
// length 50 min, transition time 1 min, 5 random runs per point, linear fits.

#include "bench_util.h"

int main(int argc, char** argv) try {
  using namespace esva;
  const bench::BenchArgs args = bench::parse_bench_args(
      argc, argv,
      "fig2_energy_reduction — reproduce Fig. 2 (reduction vs inter-arrival)",
      /*with_csv=*/true);
  bench::print_banner(
      "Fig. 2 — energy reduction ratio vs mean inter-arrival time",
      "ratio grows ~linearly with inter-arrival time, reaching ~10% at "
      "10 min; similar for 100-500 VMs (scalability)");

  const std::vector<int> counts =
      args.quick ? std::vector<int>{100, 300} : vm_count_sweep();

  std::vector<Series> series;
  for (int num_vms : counts) {
    Series s;
    s.label = std::to_string(num_vms) + " VMs";
    for (double interarrival : interarrival_sweep()) {
      const Scenario scenario = fig2_scenario(num_vms, interarrival);
      const PointOutcome outcome =
          run_point(scenario, bench::config_from(args));
      s.xs.push_back(interarrival);
      s.ys.push_back(outcome.headline_reduction());
      s.errs.push_back(outcome.allocators.front()
                           .reduction_vs_baseline.stderr_mean());
      log_info() << "fig2: " << num_vms << " VMs, ia=" << interarrival
                 << " -> " << outcome.headline_reduction();
    }
    series.push_back(std::move(s));
  }

  FigureSpec spec;
  spec.title = "Fig. 2 — energy reduction ratio (min-incremental vs FFPS)";
  spec.x_label = "mean inter-arrival time (min)";
  spec.y_label = "energy reduction ratio";
  spec.fit = FitModel::Linear;
  spec.y_as_percent = true;
  emit_figure(spec, series, args.csv);
  return 0;
} catch (const std::exception& e) {
  return esva::bench::exit_on_error(e);
}
