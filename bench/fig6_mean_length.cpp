// Fig. 6 — impact of the mean VM duration: reduction ratio vs mean
// inter-arrival time for mean lengths 20 / 50 / 100 minutes, 100 VMs on 50
// servers, transition time 1 min.

#include "bench_util.h"
#include "util/table.h"

int main(int argc, char** argv) try {
  using namespace esva;
  const bench::BenchArgs args = bench::parse_bench_args(
      argc, argv,
      "fig6_mean_length — reproduce Fig. 6 (impact of mean VM length)",
      /*with_csv=*/true);
  bench::print_banner(
      "Fig. 6 — energy reduction ratio with varying mean VM length",
      "the shorter the mean length, the lighter/more dynamic the load and "
      "the better our algorithm does vs FFPS");

  const std::vector<double> mean_lengths{20.0, 50.0, 100.0};

  std::vector<Series> series;
  for (double mean_length : mean_lengths) {
    Series s;
    s.label = "mean length " + fmt_double(mean_length, 0) + " min";
    for (double interarrival : interarrival_sweep()) {
      const Scenario scenario = fig6_scenario(interarrival, mean_length);
      const PointOutcome outcome =
          run_point(scenario, bench::config_from(args));
      s.xs.push_back(interarrival);
      s.ys.push_back(outcome.headline_reduction());
      log_info() << "fig6: len=" << mean_length << " ia=" << interarrival
                 << " -> " << outcome.headline_reduction();
    }
    series.push_back(std::move(s));
  }

  FigureSpec spec;
  spec.title = "Fig. 6 — reduction ratio vs mean VM length (100 VMs)";
  spec.x_label = "mean inter-arrival time (min)";
  spec.y_label = "energy reduction ratio";
  spec.fit = FitModel::Linear;
  spec.y_as_percent = true;
  emit_figure(spec, series, args.csv);

  double mean_short = 0.0;
  double mean_long = 0.0;
  for (std::size_t k = 0; k < series.front().ys.size(); ++k) {
    mean_short += series.front().ys[k];
    mean_long += series.back().ys[k];
  }
  std::printf("mean reduction: %s at length 20 vs %s at length 100 "
              "(paper: shorter VMs => larger reduction)\n",
              fmt_percent(mean_short / series.front().ys.size()).c_str(),
              fmt_percent(mean_long / series.back().ys.size()).c_str());
  return 0;
} catch (const std::exception& e) {
  return esva::bench::exit_on_error(e);
}
