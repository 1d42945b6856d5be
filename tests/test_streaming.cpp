// Differential harness for the streaming core (core/streaming.h +
// sim/replay.h): replaying a start-time-sorted request stream through a
// PlacementEngine must be *byte-identical* — assignments compared with ==,
// energies with exact EXPECT_EQ — to the batch Allocator::allocate() path,
// for every registered allocator that exposes a streaming policy, with the
// rolling-horizon garbage collection on or off. Also pins the historical
// serial min-incremental loop verbatim as the absolute anchor, the
// advance_to-never-changes-decisions property, the memory bound GC buys, and
// the lazy arrival streams against the materializing generators.

#include "core/streaming.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "baselines/registry.h"
#include "cluster/catalog.h"
#include "cluster/timeline.h"
#include "core/allocation.h"
#include "core/cost_model.h"
#include "ext/register.h"
#include "sim/replay.h"
#include "test_util.h"
#include "testsupport/historical_min_incremental.h"
#include "util/rng.h"
#include "workload/arrival_stream.h"
#include "workload/diurnal.h"
#include "workload/generator.h"

namespace esva {
namespace {

constexpr int kNumVms = 220;
constexpr int kNumServers = 44;

std::vector<ServerSpec> make_fleet(int num_servers) {
  std::vector<ServerSpec> servers;
  const auto& types = all_server_types();
  for (int i = 0; i < num_servers; ++i) {
    const double transition_time = 0.5 + static_cast<double>(i % 3);
    const std::size_t type_index =
        types.size() - 1 - static_cast<std::size_t>(i) % types.size();
    servers.push_back(make_server(types[type_index], i, transition_time));
  }
  return servers;
}

WorkloadConfig workload_config() {
  WorkloadConfig config;
  config.num_vms = kNumVms;
  config.mean_interarrival = 1.5;
  config.mean_duration = 30.0;
  config.vm_types = all_vm_types();
  return config;
}

/// Stable-demand instance (the paper's workload).
ProblemInstance stable_instance(std::uint64_t seed) {
  Rng rng(seed);
  return make_problem(generate_workload(workload_config(), rng),
                      make_fleet(kNumServers));
}

/// Per-time-unit demand profiles (the general R_jt form).
ProblemInstance profiled_instance(std::uint64_t seed) {
  Rng rng(seed);
  return make_problem(
      generate_bursty_workload(workload_config(), /*phases=*/4,
                               /*valley_factor=*/0.45, rng),
      make_fleet(kNumServers));
}

/// Batch reference: the registered allocator's allocate() at default
/// settings (serial scan).
Allocation batch_run(const std::string& name, const ProblemInstance& problem) {
  AllocatorPtr allocator = make_allocator(name);
  Rng rng(7);
  return allocator->allocate(problem, rng);
}

struct StreamRun {
  Allocation alloc;
  ReplayReport report;
};

/// Streaming replay of the same instance: problem.vms through a
/// VectorArrivalStream (start-time order, the batch presentation order) into
/// the allocator's streaming policy, with matched seed.
StreamRun stream_run(const std::string& name, const ProblemInstance& problem,
                     bool rolling_gc) {
  AllocatorPtr allocator = make_allocator(name);
  std::unique_ptr<PlacementPolicy> policy = allocator->make_policy();
  EXPECT_NE(policy, nullptr) << name;
  Rng rng(7);
  VectorArrivalStream arrivals(problem.vms);
  ReplayOptions options;
  options.rolling_gc = rolling_gc;
  StreamRun run;
  run.report = replay_stream(arrivals, problem.servers, *policy, rng, options);
  // The replay report is indexed by VmId; Allocation by VM position.
  run.alloc.assignment.assign(problem.num_vms(), kNoServer);
  for (std::size_t j = 0; j < problem.num_vms(); ++j) {
    const auto id = static_cast<std::size_t>(problem.vms[j].id);
    if (id < run.report.assignment.size())
      run.alloc.assignment[j] = run.report.assignment[id];
  }
  return run;
}

// --- batch vs stream, every streamable allocator ---------------------------

TEST(StreamingDifferential, ReplayMatchesBatchForEveryStreamableAllocator) {
  register_extension_allocators();
  std::vector<std::string> streamable;
  for (const bool profiled : {false, true}) {
    const ProblemInstance problem =
        profiled ? profiled_instance(11) : stable_instance(11);
    for (const std::string& name : allocator_names()) {
      if (!make_allocator(name)->make_policy()) continue;  // batch-only ext
      if (!profiled) streamable.push_back(name);
      const Allocation batch = batch_run(name, problem);
      const StreamRun stream = stream_run(name, problem, /*rolling_gc=*/true);
      ASSERT_EQ(batch.assignment, stream.alloc.assignment)
          << name << (profiled ? " (profiled)" : " (stable)");
      // Identical assignments must price identically — exact, not near.
      EXPECT_EQ(evaluate_cost(problem, batch).total(),
                evaluate_cost(problem, stream.alloc).total())
          << name;
    }
  }
  // Every place_one-capable allocator must actually expose a policy; a
  // regression to nullptr would silently skip its differential above.
  for (const char* name :
       {"min-incremental", "ffps", "ffps-reshuffle", "ffps-noshuffle",
        "best-fit-cpu", "dot-product-fit", "random-fit",
        "lowest-idle-power"}) {
    EXPECT_NE(std::find(streamable.begin(), streamable.end(), name),
              streamable.end())
        << name << " lost its streaming policy";
  }
}

// --- absolute anchor: the historical serial loop ---------------------------

// testsupport/historical_min_incremental.h: the pre-streaming batch loop,
// verbatim. The refactored allocate() and the streaming replay must both
// reproduce it exactly.
using testsupport::historical_min_incremental;

TEST(StreamingDifferential, MinIncrementalAnchoredToHistoricalSerialLoop) {
  for (std::uint64_t seed : {7u, 19u}) {
    for (const bool profiled : {false, true}) {
      const ProblemInstance problem =
          profiled ? profiled_instance(seed) : stable_instance(seed);
      const Allocation anchor = historical_min_incremental(problem);
      const Allocation batch = batch_run("min-incremental", problem);
      ASSERT_EQ(anchor.assignment, batch.assignment)
          << "batch drifted from the historical loop, seed=" << seed;
      const StreamRun stream =
          stream_run("min-incremental", problem, /*rolling_gc=*/true);
      ASSERT_EQ(anchor.assignment, stream.alloc.assignment)
          << "stream drifted from the historical loop, seed=" << seed;
    }
  }
}

// --- advance_to is decision-invariant --------------------------------------

TEST(StreamingProperty, AdvanceToNeverChangesSubsequentDecisions) {
  register_extension_allocators();
  for (const bool profiled : {false, true}) {
    const ProblemInstance problem =
        profiled ? profiled_instance(29) : stable_instance(29);
    for (const std::string& name : allocator_names()) {
      if (!make_allocator(name)->make_policy()) continue;
      const StreamRun with_gc = stream_run(name, problem, /*rolling_gc=*/true);
      const StreamRun no_gc = stream_run(name, problem, /*rolling_gc=*/false);
      ASSERT_EQ(no_gc.alloc.assignment, with_gc.alloc.assignment)
          << name << (profiled ? " (profiled)" : " (stable)");
      // The sentinel rebuild preserves every structure delta bitwise, so the
      // telescoped energies agree exactly.
      EXPECT_EQ(no_gc.report.total_energy, with_gc.report.total_energy)
          << name;
    }
  }
}

TEST(StreamingProperty, TelescopedEnergyMatchesPostHocEvaluation) {
  const ProblemInstance problem = stable_instance(11);
  const StreamRun stream =
      stream_run("min-incremental", problem, /*rolling_gc=*/true);
  const Energy evaluated = evaluate_cost(problem, stream.alloc).total();
  EXPECT_NEAR(stream.report.total_energy, evaluated,
              1e-9 * std::max(1.0, evaluated));
}

// --- the memory bound GC buys ----------------------------------------------

TEST(StreamingProperty, RollingGcBoundsResidentTimelineMemory) {
  const ProblemInstance problem = stable_instance(11);
  const StreamRun with_gc =
      stream_run("min-incremental", problem, /*rolling_gc=*/true);
  const StreamRun no_gc =
      stream_run("min-incremental", problem, /*rolling_gc=*/false);
  // Without GC the resident window only ever grows; with it, retired history
  // is collected, so both the peak and the final footprint shrink.
  EXPECT_LT(with_gc.report.peak_resident_time_units,
            no_gc.report.peak_resident_time_units);
  EXPECT_LT(with_gc.report.final_resident_time_units,
            no_gc.report.final_resident_time_units);
  EXPECT_GT(with_gc.report.final_frontier, 1);
}

// --- advance_to edge cases -------------------------------------------------

TEST(StreamingProperty, AdvanceBackwardsIsANoOp) {
  ClusterState cluster({testing::basic_server(0)}, /*initial_horizon=*/64);
  cluster.place(0, testing::vm(0, 1, 10));
  cluster.advance_to(20);
  EXPECT_EQ(cluster.frontier(), 20);
  EXPECT_EQ(cluster.active_vms(), 0u);
  const std::size_t resident = cluster.resident_time_units();
  cluster.advance_to(5);   // backwards: must change nothing
  cluster.advance_to(20);  // equal: must change nothing
  EXPECT_EQ(cluster.frontier(), 20);
  EXPECT_EQ(cluster.resident_time_units(), resident);
  EXPECT_EQ(cluster.active_vms(), cluster.active_vms_scan());
}

TEST(StreamingProperty, EqualEndVmsRetireTogether) {
  ClusterState cluster({testing::basic_server(0), testing::basic_server(1)},
                       /*initial_horizon=*/64);
  cluster.place(0, testing::vm(0, 1, 10));
  cluster.place(0, testing::vm(1, 3, 10));
  cluster.place(1, testing::vm(2, 2, 10));
  // A VM is busy through its end unit: at t == end nothing retires yet.
  cluster.advance_to(10);
  EXPECT_EQ(cluster.active_vms(), 3u);
  // One tick later, all equal-end VMs go in the same sweep.
  cluster.advance_to(11);
  EXPECT_EQ(cluster.active_vms(), 0u);
  EXPECT_EQ(cluster.active_vms(), cluster.active_vms_scan());
}

TEST(StreamingProperty, EagerRebuildTinyWindowsPreserveDecisions) {
  // Force a rebuild (and thus the retired-busy sentinel path) on *every*
  // advance_to tick, with single-tick advances: the harshest GC schedule
  // must still leave every decision and the telescoped energy bit-identical
  // to the no-GC run.
  const ProblemInstance problem = stable_instance(17);
  const auto run = [&](bool eager) {
    AllocatorPtr allocator = make_allocator("min-incremental");
    std::unique_ptr<PlacementPolicy> policy = allocator->make_policy();
    EXPECT_NE(policy, nullptr);
    Rng rng(7);
    EngineOptions options;
    options.account_energy = true;
    PlacementEngine engine(problem.servers, *policy, rng, options);
    struct Result {
      std::vector<ServerId> decisions;
      Energy energy = 0.0;
    } result;
    engine.set_eager_rebuild(eager);
    for (const std::size_t j :
         ordered_indices(problem, VmOrder::ByStartTime)) {
      const VmSpec& vm = problem.vms[j];
      if (eager) {
        // Single-tick advances: every step retires at most a sliver and
        // forces a full rebuild with the sentinel.
        for (Time t = engine.cluster().frontier(); t <= vm.start; ++t)
          engine.advance_to(t);
      }
      result.decisions.push_back(engine.submit(vm).server);
    }
    result.energy = engine.total_energy();
    return result;
  };
  const auto baseline = run(false);
  const auto stressed = run(true);
  ASSERT_EQ(baseline.decisions, stressed.decisions);
  EXPECT_EQ(baseline.energy, stressed.energy);
}

// --- engine contract -------------------------------------------------------

TEST(StreamingEngine, SubmitBehindFrontierThrows) {
  AllocatorPtr allocator = make_allocator("min-incremental");
  std::unique_ptr<PlacementPolicy> policy = allocator->make_policy();
  ASSERT_NE(policy, nullptr);
  Rng rng(7);
  PlacementEngine engine({testing::basic_server(0)}, *policy, rng);
  EXPECT_NE(engine.submit(testing::vm(0, 10, 20)).server, kNoServer);
  engine.advance_to(30);
  // Start 25 < frontier 30: its window may already be collected.
  EXPECT_THROW(engine.submit(testing::vm(1, 25, 40)), std::invalid_argument);
  // At the frontier is fine.
  EXPECT_NE(engine.submit(testing::vm(2, 30, 40)).server, kNoServer);
}

// --- lazy arrival streams == materializing generators ----------------------

void expect_same_vms(const std::vector<VmSpec>& a,
                     const std::vector<VmSpec>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t j = 0; j < a.size(); ++j) {
    EXPECT_EQ(a[j].id, b[j].id);
    EXPECT_EQ(a[j].type_name, b[j].type_name);
    EXPECT_EQ(a[j].demand, b[j].demand);
    EXPECT_EQ(a[j].start, b[j].start);
    EXPECT_EQ(a[j].end, b[j].end);
  }
}

TEST(ArrivalStreams, PoissonStreamMatchesBatchGenerator) {
  const WorkloadConfig config = workload_config();
  Rng batch_rng(21);
  const std::vector<VmSpec> batch = generate_workload(config, batch_rng);
  Rng stream_rng(21);
  PoissonArrivalStream stream(config, stream_rng);
  expect_same_vms(batch, drain(stream));
}

TEST(ArrivalStreams, DiurnalStreamMatchesBatchGenerator) {
  DiurnalConfig config;
  config.num_vms = 150;
  config.vm_types = all_vm_types();
  Rng batch_rng(33);
  const std::vector<VmSpec> batch = generate_diurnal_workload(config, batch_rng);
  Rng stream_rng(33);
  DiurnalArrivalStream stream(config, stream_rng);
  expect_same_vms(batch, drain(stream));
}

TEST(ArrivalStreams, VectorStreamPresentsBatchOrder) {
  // Ids deliberately out of start order; the stream must yield the batch
  // presentation order — (start, end, id) — regardless of input order.
  std::vector<VmSpec> vms = {testing::vm(0, 9, 12), testing::vm(1, 3, 5),
                             testing::vm(2, 3, 4), testing::vm(3, 3, 4)};
  VectorArrivalStream stream(vms);
  const std::vector<VmSpec> drained = drain(stream);
  ASSERT_EQ(drained.size(), 4u);
  EXPECT_EQ(drained[0].id, 2);  // (3,4,2) before (3,4,3)
  EXPECT_EQ(drained[1].id, 3);
  EXPECT_EQ(drained[2].id, 1);  // (3,5,1)
  EXPECT_EQ(drained[3].id, 0);
  EXPECT_EQ(stream.next(), std::nullopt);  // stays exhausted
}

}  // namespace
}  // namespace esva
