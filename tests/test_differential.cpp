// Distribution-coverage differential suite: the core consistency identities
// (closed form == simulator == ILP objective; validator acceptance; policy
// dominance) re-checked on workload families the module tests never touch —
// diurnal arrivals, heterogeneous transition times, overload with delayed
// admission, and migration-modified allocations.

#include <gtest/gtest.h>

#include "baselines/registry.h"
#include "cluster/datacenter.h"
#include "ext/admission.h"
#include "ext/migration.h"
#include "ext/timeout_policy.h"
#include "ilp/validate.h"
#include "sim/engine.h"
#include "sim/experiment.h"
#include "sim/metrics.h"
#include "test_util.h"
#include "workload/diurnal.h"
#include "workload/scenarios.h"

namespace esva {
namespace {

ProblemInstance diurnal_problem(std::uint64_t seed, int num_vms = 60,
                                int num_servers = 30) {
  Rng rng(seed);
  DiurnalConfig config;
  config.num_vms = num_vms;
  config.base_rate = 0.5;
  config.amplitude = 0.9;
  config.period = 240.0;  // short cycle so one instance spans several
  config.mean_duration = 30.0;
  config.vm_types = all_vm_types();
  std::vector<VmSpec> vms = generate_diurnal_workload(config, rng);
  std::vector<ServerSpec> servers =
      make_random_fleet(num_servers, all_server_types(), 0.5, 3.0, rng);
  return make_problem(std::move(vms), std::move(servers));
}

TEST(Differential, CostIdentitiesHoldOnDiurnalHeterogeneousInstances) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const ProblemInstance p = diurnal_problem(seed);
    for (const std::string name :
         {"min-incremental", "ffps", "ffps-reshuffle", "dot-product-fit",
          "lookahead-8"}) {
      Rng rng(seed + 500);
      const Allocation alloc = make_allocator(name)->allocate(p, rng);
      ASSERT_EQ(validate_allocation(p, alloc, false), "")
          << name << " seed " << seed;
      const Energy analytic = evaluate_cost(p, alloc).total();
      const Energy simulated =
          SimulationEngine(p, alloc).run().total_energy();
      ASSERT_NEAR(simulated, analytic, 1e-6 * std::max(1.0, analytic))
          << name << " seed " << seed;
      if (alloc.fully_allocated()) {
        const Energy eq7 =
            objective_eq7(p, alloc, derive_active_sets(p, alloc));
        ASSERT_NEAR(eq7, analytic, 1e-6) << name << " seed " << seed;
      }
    }
  }
}

TEST(Differential, TimeoutPolicyDominatedByOptimalOnDiurnalInstances) {
  for (std::uint64_t seed = 10; seed <= 15; ++seed) {
    const ProblemInstance p = diurnal_problem(seed);
    Rng rng(seed);
    const Allocation alloc =
        make_allocator("min-incremental")->allocate(p, rng);
    const Energy optimal = evaluate_cost(p, alloc).total();
    for (Time timeout : {0, 3, 15, 60})
      ASSERT_GE(evaluate_cost_with_timeout(p, alloc, {.timeout = timeout}),
                optimal - 1e-6)
          << "seed " << seed << " timeout " << timeout;
  }
}

TEST(Differential, MigrationInvariantsHoldAfterDiurnalAllocations) {
  for (std::uint64_t seed = 20; seed <= 25; ++seed) {
    const ProblemInstance p = diurnal_problem(seed);
    Rng rng(seed);
    const Allocation alloc = make_allocator("ffps")->allocate(p, rng);
    if (!alloc.fully_allocated()) continue;
    const MigrationResult result = optimize_with_migration(p, alloc);
    ASSERT_LE(result.net_total(), result.energy_before + 1e-6)
        << "seed " << seed;
    ASSERT_EQ(validate_allocation(p, result.allocation, false), "");
    // The improved allocation's identities still hold.
    const Energy analytic = evaluate_cost(p, result.allocation).total();
    const Energy simulated =
        SimulationEngine(p, result.allocation).run().total_energy();
    ASSERT_NEAR(simulated, analytic, 1e-6 * std::max(1.0, analytic));
  }
}

TEST(Differential, DelayedAdmissionSchedulesStayConsistent) {
  for (std::uint64_t seed = 30; seed <= 35; ++seed) {
    // Overloaded: tiny fleet for the diurnal peak.
    const ProblemInstance p = diurnal_problem(seed, 60, 6);
    DelayedAdmissionAllocator::Options options;
    options.max_delay = 120;
    const AdmissionResult result =
        DelayedAdmissionAllocator(options).schedule(p);

    const ProblemInstance realized =
        make_problem(result.scheduled_vms, p.servers);
    ASSERT_EQ(validate_allocation(realized, result.allocation, false), "")
        << "seed " << seed;
    const Energy analytic =
        evaluate_cost(realized, result.allocation).total();
    const Energy simulated =
        SimulationEngine(realized, result.allocation).run().total_energy();
    ASSERT_NEAR(simulated, analytic, 1e-6 * std::max(1.0, analytic))
        << "seed " << seed;
    // Delays are within bounds and only on admitted VMs.
    for (std::size_t j = 0; j < p.num_vms(); ++j) {
      if (result.delays[j] < 0) {
        ASSERT_EQ(result.allocation.assignment[j], kNoServer);
      } else {
        ASSERT_LE(result.delays[j], options.max_delay);
        ASSERT_EQ(result.scheduled_vms[j].start,
                  p.vms[j].start + result.delays[j]);
        ASSERT_EQ(result.scheduled_vms[j].duration(), p.vms[j].duration());
      }
    }
  }
}

TEST(Differential, MixedTransitionScenarioKeepsHeadlineClaim) {
  ExperimentConfig config;
  config.runs = 5;
  config.seed = 77;
  const PointOutcome outcome =
      run_point(mixed_transition_scenario(100, 4.0), config);
  EXPECT_GT(outcome.headline_reduction(), 0.0);
}

}  // namespace
}  // namespace esva
