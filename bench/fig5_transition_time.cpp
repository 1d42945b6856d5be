// Fig. 5 — impact of the server transition time: reduction ratio vs mean
// inter-arrival time for transition times 0.5 / 1 / 3 minutes, 100 VMs on 50
// servers, mean VM length 50 min. The paper fits the 0.5/1-minute series
// linearly and the 3-minute series exponentially.

#include "bench_util.h"
#include "util/table.h"

int main(int argc, char** argv) try {
  using namespace esva;
  const bench::BenchArgs args = bench::parse_bench_args(
      argc, argv,
      "fig5_transition_time — reproduce Fig. 5 (impact of transition time)",
      /*with_csv=*/true);
  bench::print_banner(
      "Fig. 5 — energy reduction ratio with varying transition time",
      "the shorter the transition time, the more energy the algorithm saves "
      "by switching servers off during idle segments");

  const std::vector<double> transition_times{0.5, 1.0, 3.0};

  std::vector<Series> series;
  for (double transition_time : transition_times) {
    Series s;
    s.label = "transition " + fmt_double(transition_time, 1) + " min";
    for (double interarrival : interarrival_sweep()) {
      const Scenario scenario = fig5_scenario(interarrival, transition_time);
      const PointOutcome outcome =
          run_point(scenario, bench::config_from(args));
      s.xs.push_back(interarrival);
      s.ys.push_back(outcome.headline_reduction());
      log_info() << "fig5: tt=" << transition_time << " ia=" << interarrival
                 << " -> " << outcome.headline_reduction();
    }
    series.push_back(std::move(s));
  }

  FigureSpec spec;
  spec.title = "Fig. 5 — reduction ratio vs transition time (100 VMs)";
  spec.x_label = "mean inter-arrival time (min)";
  spec.y_label = "energy reduction ratio";
  spec.fit = FitModel::Linear;
  spec.y_as_percent = true;
  emit_figure(spec, series, args.csv);

  // Ordering check the figure encodes: shorter transition => more savings.
  double mean_fast = 0.0;
  double mean_slow = 0.0;
  for (std::size_t k = 0; k < series.front().ys.size(); ++k) {
    mean_fast += series.front().ys[k];
    mean_slow += series.back().ys[k];
  }
  std::printf("mean reduction: %s at 0.5 min vs %s at 3 min (paper: former "
              "is larger)\n",
              fmt_percent(mean_fast / series.front().ys.size()).c_str(),
              fmt_percent(mean_slow / series.back().ys.size()).c_str());
  return 0;
} catch (const std::exception& e) {
  return esva::bench::exit_on_error(e);
}
