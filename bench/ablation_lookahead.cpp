// Ablation A5 — what does lookahead buy? Sweeps the regret-insertion window
// (1 = the paper's greedy) on Fig. 2-style workloads. A measurable but small
// gain is the expected outcome: it quantifies the greedy's myopia, which the
// paper does not evaluate.

#include <cstdio>

#include "bench_util.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace esva;
  const bench::BenchArgs args = bench::parse_bench_args(
      argc, argv, "ablation_lookahead — regret-insertion window sweep");
  bench::print_banner(
      "Ablation A5 — lookahead window",
      "window=1 is the paper's greedy; modest further savings from regret "
      "insertion quantify the greedy's myopia");

  TextTable table;
  table.set_header({"inter-arrival (min)", "greedy (w=1)", "w=4", "w=8",
                    "w=16", "best-vs-greedy"});

  for (double interarrival : {1.0, 4.0, 10.0}) {
    const Scenario scenario = fig2_scenario(200, interarrival);
    ExperimentConfig config = bench::config_from(args);
    config.allocator_names = {"lookahead-1", "lookahead-4", "lookahead-8",
                              "lookahead-16", "ffps"};
    const PointOutcome outcome = run_point(scenario, config);

    const double greedy = outcome.by_name("lookahead-1").total_cost.mean();
    double best = greedy;
    std::vector<std::string> row{fmt_double(interarrival, 1),
                                 fmt_double(greedy, 0)};
    for (const char* name : {"lookahead-4", "lookahead-8", "lookahead-16"}) {
      const double cost = outcome.by_name(name).total_cost.mean();
      best = std::min(best, cost);
      row.push_back(fmt_double(cost, 0));
    }
    row.push_back(fmt_percent((greedy - best) / greedy));
    table.add_row(std::move(row));
  }
  std::printf("%s\n", table.render().c_str());
  return 0;
}
