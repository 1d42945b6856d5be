// Ablation A1 — does the paper's "increasing start time" presentation order
// matter? Runs the heuristic and FFPS under four VM orders on the Fig. 2
// workload and compares total energy. (The paper asserts the start-time
// order without ablating it; this bench fills that gap.)

#include <cstdio>

#include "baselines/registry.h"
#include "bench_util.h"
#include "core/streaming.h"
#include "sim/metrics.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace esva;
  const bench::BenchArgs args = bench::parse_bench_args(
      argc, argv, "ablation_ordering — VM presentation-order ablation");
  bench::print_banner(
      "Ablation A1 — VM presentation order",
      "the paper presents VMs in increasing start-time order; offline "
      "orders (duration-desc, cpu-desc) are only available with hindsight");

  const Scenario scenario = fig2_scenario(200, 4.0);
  TextTable table;
  table.set_header({"allocator", "order", "mean total energy (W*min)",
                    "vs start-time order"});

  for (const std::string base : {"min-incremental", "ffps"}) {
    double reference = 0.0;
    for (VmOrder order : all_vm_orders()) {
      Accumulator cost;
      Rng master(args.seed);
      for (int run = 0; run < args.runs; ++run) {
        Rng run_master = master.split();
        Rng instance_rng = run_master.split();
        const ProblemInstance problem = scenario.instantiate(instance_rng);
        Rng alloc_rng = run_master.split();
        const Allocation alloc = run_batch(
            problem, *make_allocator(base)->make_policy(), order, alloc_rng);
        cost.add(evaluate_cost(problem, alloc).total());
      }
      if (order == VmOrder::ByStartTime) reference = cost.mean();
      const double delta = (cost.mean() - reference) / reference;
      table.add_row({base, to_string(order), fmt_double(cost.mean(), 0),
                     (order == VmOrder::ByStartTime ? std::string("—")
                                                    : fmt_percent(delta))});
    }
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("positive percentages mean that order costs more energy than "
              "the paper's start-time order.\n");
  return 0;
}
