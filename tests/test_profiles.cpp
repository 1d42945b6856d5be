// Time-varying demand profiles (the paper's general R_jt, Eqs. 3/9/10):
// spec-level API, per-unit packing, cost accounting, simulation, traces,
// and equivalence with stable demands when the profile is constant.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <sstream>

#include "baselines/registry.h"
#include "cluster/timeline.h"
#include "core/power_model.h"
#include "core/streaming.h"
#include "ilp/model.h"
#include "ilp/validate.h"
#include "sim/engine.h"
#include "sim/metrics.h"
#include "test_util.h"
#include "workload/generator.h"
#include "workload/trace.h"

namespace esva {
namespace {

using testing::basic_server;
using testing::vm;

VmSpec profiled_vm(VmId id, Time start,
                   std::initializer_list<Resources> levels) {
  VmSpec spec;
  spec.id = id;
  spec.type_name = "profiled";
  spec.start = start;
  // Parenthesized so a profile that ends at the largest Time cannot
  // overflow on the way.
  spec.end = start + (static_cast<Time>(levels.size()) - 1);
  spec.set_profile(std::vector<Resources>(levels));
  return spec;
}

TEST(VmProfile, SetProfileTracksPeak) {
  const VmSpec p = profiled_vm(0, 5, {{2, 1}, {6, 3}, {1, 8}});
  EXPECT_DOUBLE_EQ(p.demand.cpu, 6.0);
  EXPECT_DOUBLE_EQ(p.demand.mem, 8.0);
  EXPECT_TRUE(p.valid());
  EXPECT_EQ(p.demand_at(5), (Resources{2, 1}));
  EXPECT_EQ(p.demand_at(6), (Resources{6, 3}));
  EXPECT_EQ(p.demand_at(7), (Resources{1, 8}));
  EXPECT_DOUBLE_EQ(p.total_cpu(), 9.0);
}

TEST(VmProfile, ValidityChecks) {
  VmSpec p = profiled_vm(0, 1, {{2, 2}, {3, 3}});
  EXPECT_TRUE(p.valid());
  p.demand.cpu = 99.0;  // breaks the peak invariant
  EXPECT_FALSE(p.valid());

  VmSpec wrong_size = profiled_vm(0, 1, {{1, 1}});
  wrong_size.end = 5;  // duration no longer matches the profile
  EXPECT_FALSE(wrong_size.valid());

  VmSpec negative = profiled_vm(0, 1, {{1, 1}, {1, 1}});
  negative.profile[1].cpu = -1.0;
  EXPECT_FALSE(negative.valid());
}

// --- what set_profile() derives: runs of equal demand and the CPU sum ------

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Checks `p`'s stored runs and CPU sum against a per-unit recount: a run
/// ends where the next unit's cpu or mem differs by value (!=), and the sum
/// is added in index order, so Eq. 3's W_ij keeps its bits.
void expect_derived_matches_recount(const VmSpec& p) {
  SCOPED_TRACE("vm " + std::to_string(p.id));
  ASSERT_TRUE(p.has_profile());
  std::vector<Time> ends;
  double cpu = 0.0;
  for (std::size_t k = 0; k < p.profile.size(); ++k) {
    cpu += p.profile[k].cpu;
    if (k + 1 == p.profile.size() || p.profile[k + 1].cpu != p.profile[k].cpu ||
        p.profile[k + 1].mem != p.profile[k].mem)
      ends.push_back(static_cast<Time>(k));
  }
  EXPECT_EQ(p.run_ends, ends);
  EXPECT_EQ(bits(p.total_cpu()), bits(cpu));
  const ServerSpec host = basic_server();
  EXPECT_EQ(bits(run_cost(host, p)), bits(host.unit_run_power() * cpu));
  EXPECT_TRUE(p.valid());
}

TEST(VmProfileRuns, MatchAPerUnitRecount) {
  constexpr Time kEnd = std::numeric_limits<Time>::max();
  const struct {
    const char* name;
    VmSpec vm;
    std::vector<Time> runs;
  } cases[] = {
      {"one unit", profiled_vm(0, 4, {{3, 2}}), {0}},
      {"all units equal", profiled_vm(1, 1, {{2, 1}, {2, 1}, {2, 1}, {2, 1}}),
       {3}},
      {"every unit distinct",
       profiled_vm(2, 9, {{1, 1}, {2, 1}, {2, 2}, {1, 2}}), {0, 1, 2, 3}},
      // One run by value; the wire encoder, which compares bits, makes two.
      {"+0.0 next to -0.0",
       profiled_vm(3, 1,
                   {{0.0, 2}, {-0.0, 2}, {0.0, 2}, {0.0, -0.0}, {-0.0, 0.0}}),
       {2, 4}},
      {"zero-demand runs",
       profiled_vm(4, 2, {{0, 0}, {0, 0}, {2, 1}, {0, 0}, {0, 0}}), {1, 2, 4}},
      {"a run ending at the largest Time",
       profiled_vm(5, kEnd - 4, {{1, 1}, {1, 1}, {3, 1}, {3, 1}, {3, 1}}),
       {1, 4}},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    EXPECT_EQ(c.vm.run_ends, c.runs);
    expect_derived_matches_recount(c.vm);
  }
}

TEST(VmProfileRuns, MatchAPerUnitRecountOnRandomBurstyProfiles) {
  WorkloadConfig config;
  config.num_vms = 200;
  config.mean_interarrival = 0.25;
  config.mean_duration = 50.0;
  config.vm_types = all_vm_types();
  Rng rng(2027);
  for (const VmSpec& v : generate_bursty_workload(config, 4, 0.3, rng))
    expect_derived_matches_recount(v);
  // Levels drawn from a small set, signed zeros included, so runs of every
  // length and value ties between +0.0 and -0.0 occur.
  const double levels[] = {0.0, -0.0, 1.5, 4.0};
  const auto level = [&] {
    return levels[static_cast<std::size_t>(rng.uniform_int(0, 3))];
  };
  for (VmId id = 0; id < 200; ++id) {
    const Time start = static_cast<Time>(rng.uniform_int(1, 100));
    std::vector<Resources> profile(
        static_cast<std::size_t>(rng.uniform_int(1, 40)));
    for (Resources& r : profile)
      r = {level(), level()};
    VmSpec v;
    v.id = id;
    v.start = start;
    v.end = start + static_cast<Time>(profile.size()) - 1;
    v.set_profile(std::move(profile));
    expect_derived_matches_recount(v);
  }
}

// set_profile() and clip_to() (which re-installs the profile's tail) derive
// the runs and the sum again instead of keeping the old ones.
TEST(VmProfileRuns, SetProfileAndClipToDeriveThemAgain) {
  VmSpec p = profiled_vm(0, 10, {{1, 1}, {1, 1}, {2, 1}, {2, 1}, {3, 3}});
  ASSERT_EQ(p.run_ends, (std::vector<Time>{1, 3, 4}));
  for (Time t = p.start + 1; t <= p.end; ++t) {
    const VmSpec tail = clip_to(p, t);
    ASSERT_EQ(tail.start, t);
    expect_derived_matches_recount(tail);
  }
  EXPECT_EQ(clip_to(p, 12).run_ends, (std::vector<Time>{1, 2}));
  p.set_profile({{5, 5}, {5, 5}, {5, 5}, {5, 5}, {0.5, 5}});
  EXPECT_EQ(p.run_ends, (std::vector<Time>{3, 4}));
  EXPECT_DOUBLE_EQ(p.total_cpu(), 20.5);
  expect_derived_matches_recount(p);
}

// A profile edited in place after set_profile() no longer matches what was
// derived from it, so valid() refuses it even though its peak is unchanged.
TEST(VmProfileRuns, ValidRefusesAProfileEditedInPlaceUnderTheSamePeak) {
  const VmSpec original = profiled_vm(0, 1, {{2, 1}, {2, 1}, {4, 1}, {6, 3}});
  ASSERT_TRUE(original.valid());

  VmSpec sum_and_runs = original;  // a new run and a new sum
  sum_and_runs.profile[0].cpu = 1.0;
  VmSpec runs_only = original;  // the same sum, one run split in two
  runs_only.profile[1].mem = 0.5;
  VmSpec sum_only = original;  // the same runs, another sum
  sum_only.profile[2].cpu = 3.0;
  for (const VmSpec* edited : {&sum_and_runs, &runs_only, &sum_only}) {
    EXPECT_EQ(edited->demand, original.demand);
    EXPECT_FALSE(edited->valid());
    VmSpec rederived = *edited;
    rederived.set_profile(edited->profile);
    EXPECT_TRUE(rederived.valid());
  }
}

TEST(VmProfile, StableVmTotalsUnchanged) {
  const VmSpec s = vm(0, 1, 10, 3.0, 2.0);
  EXPECT_FALSE(s.has_profile());
  EXPECT_DOUBLE_EQ(s.total_cpu(), 30.0);
  EXPECT_EQ(s.demand_at(7), (Resources{3.0, 2.0}));
}

TEST(VmProfile, RunCostUsesTheSum) {
  // Eq. 3: W = P¹ Σ_t R_t = 10 × (2 + 6 + 1).
  const VmSpec p = profiled_vm(0, 1, {{2, 1}, {6, 1}, {1, 1}});
  EXPECT_DOUBLE_EQ(run_cost(basic_server(), p), 90.0);
}

TEST(VmProfile, TimelinePacksValleysUnderPeaks) {
  // Two VMs whose peaks are both 8 CPU but staggered in time: together they
  // exceed the 10-CPU capacity only if reserved at peak; per-unit demand
  // never exceeds 8 + 2 = 10.
  const VmSpec a = profiled_vm(0, 1, {{8, 2}, {2, 2}, {2, 2}, {2, 2}});
  const VmSpec b = profiled_vm(1, 1, {{2, 2}, {8, 2}, {2, 2}, {2, 2}});
  ServerTimeline timeline(basic_server(), 10);
  ASSERT_TRUE(timeline.can_fit(a));
  timeline.place(a);
  EXPECT_TRUE(timeline.can_fit(b)) << "per-unit packing must accept this";
  timeline.place(b);
  EXPECT_DOUBLE_EQ(timeline.cpu_usage_at(1), 10.0);
  EXPECT_DOUBLE_EQ(timeline.cpu_usage_at(2), 10.0);
  EXPECT_DOUBLE_EQ(timeline.cpu_usage_at(3), 4.0);

  // A third VM needing 1 CPU at t=1 must be rejected (10 already used).
  EXPECT_FALSE(timeline.can_fit(vm(2, 1, 1, 1.0, 1.0)));
  // But fits at t=3.
  EXPECT_TRUE(timeline.can_fit(vm(2, 3, 4, 1.0, 1.0)));
}

TEST(VmProfile, PeakReservationWouldHaveRejected) {
  // The same pair, profile information stripped (peak reservation): the
  // second VM no longer fits — quantifying what profiles buy.
  VmSpec a = profiled_vm(0, 1, {{8, 2}, {2, 2}, {2, 2}, {2, 2}});
  VmSpec b = profiled_vm(1, 1, {{2, 2}, {8, 2}, {2, 2}, {2, 2}});
  a.profile.clear();  // demand stays at the peak (8, 2)
  b.profile.clear();
  ServerTimeline timeline(basic_server(), 10);
  timeline.place(a);
  EXPECT_FALSE(timeline.can_fit(b));
}

TEST(VmProfile, PlaceUnplaceRoundTripsPerUnitUsage) {
  ServerTimeline timeline(basic_server(), 20);
  timeline.place(vm(0, 1, 20, 1.0, 1.0));
  const VmSpec p = profiled_vm(1, 3, {{4, 2}, {1, 5}, {3, 3}});
  const IntervalSet busy_before = timeline.busy();
  timeline.place(p);
  EXPECT_DOUBLE_EQ(timeline.cpu_usage_at(3), 5.0);
  EXPECT_DOUBLE_EQ(timeline.mem_usage_at(4), 6.0);
  timeline.unplace(p, busy_before);
  EXPECT_EQ(timeline.busy().intervals(), busy_before.intervals());
  for (Time t = 1; t <= 20; ++t) {
    EXPECT_DOUBLE_EQ(timeline.cpu_usage_at(t), 1.0) << t;
    EXPECT_DOUBLE_EQ(timeline.mem_usage_at(t), 1.0) << t;
  }
}

TEST(VmProfile, ValidatorChecksPerUnitDemands) {
  // Both profiled VMs on one server: feasible interleaved, infeasible if one
  // is shifted to align the peaks.
  const VmSpec a = profiled_vm(0, 1, {{8, 2}, {2, 2}});
  const VmSpec b = profiled_vm(1, 1, {{2, 2}, {8, 2}});
  {
    const ProblemInstance ok = make_problem({a, b}, {basic_server(0)});
    Allocation alloc;
    alloc.assignment = {0, 0};
    EXPECT_EQ(validate_allocation(ok, alloc), "");
  }
  {
    VmSpec clash = b;
    clash.set_profile({{8, 2}, {2, 2}});  // peak now collides with a's
    const ProblemInstance bad = make_problem({a, clash}, {basic_server(0)});
    Allocation alloc;
    alloc.assignment = {0, 0};
    EXPECT_NE(validate_allocation(bad, alloc).find("over capacity"),
              std::string::npos);
  }
}

TEST(VmProfile, EngineTracksDemandSteps) {
  const VmSpec p = profiled_vm(0, 1, {{2, 1}, {6, 1}, {1, 1}});
  const ProblemInstance problem = make_problem({p}, {basic_server(0)});
  Allocation alloc;
  alloc.assignment = {0};
  const SimulationResult result =
      SimulationEngine(problem, alloc).run(true);
  // Samples: 100 idle + 10·cpu_t.
  ASSERT_EQ(result.samples.size(), 3u);
  EXPECT_DOUBLE_EQ(result.samples[0].total_power, 120.0);
  EXPECT_DOUBLE_EQ(result.samples[1].total_power, 160.0);
  EXPECT_DOUBLE_EQ(result.samples[2].total_power, 110.0);
  EXPECT_EQ(result.samples[1].running_vms, 1);
  // Ledger == closed form.
  EXPECT_NEAR(result.total_energy(),
              evaluate_cost(problem, alloc).total(), 1e-9);
}

TEST(VmProfile, UtilizationAveragesPerUnitUsage) {
  const VmSpec p = profiled_vm(0, 1, {{2, 2}, {6, 6}});
  const ProblemInstance problem = make_problem({p}, {basic_server(0)});
  Allocation alloc;
  alloc.assignment = {0};
  const UtilizationStats stats = average_utilization(problem, alloc);
  EXPECT_NEAR(stats.avg_cpu, (0.2 + 0.6) / 2.0, 1e-12);
  EXPECT_NEAR(stats.avg_mem, (0.2 + 0.6) / 2.0, 1e-12);
}

TEST(VmProfile, IlpCapacityRowsUseRjt) {
  const VmSpec p = profiled_vm(0, 1, {{8, 2}, {2, 2}});
  const VmSpec q = profiled_vm(1, 1, {{2, 2}, {8, 2}});
  const ProblemInstance problem = make_problem({p, q}, {basic_server(0)});
  const IlpModel model = build_ilp(problem);
  Allocation alloc;
  alloc.assignment = {0, 0};
  const auto active = derive_active_sets(problem, alloc);
  const auto values = to_variable_assignment(model, problem, alloc, active);
  EXPECT_EQ(model.first_violation(values), "");  // fits with R_jt rows
  EXPECT_NEAR(model.objective_value(values),
              evaluate_cost(problem, alloc).total(), 1e-9);
}

TEST(VmProfile, ConstantProfileEquivalentToStableEverywhere) {
  // A profile of identical levels must behave exactly like a stable VM:
  // same costs, same simulator output, same greedy placement.
  Rng gen(5);
  WorkloadConfig config;
  config.num_vms = 20;
  config.mean_interarrival = 2.0;
  config.mean_duration = 10.0;
  config.vm_types = all_vm_types();
  std::vector<VmSpec> stable = generate_workload(config, gen);
  std::vector<VmSpec> constant = stable;
  for (VmSpec& v : constant)
    v.set_profile(std::vector<Resources>(
        static_cast<std::size_t>(v.duration()), v.demand));

  std::vector<ServerSpec> servers;
  const auto& types = all_server_types();
  for (int i = 0; i < 10; ++i)
    servers.push_back(
        make_server(types[types.size() - 1 - static_cast<std::size_t>(i) % types.size()], i, 1.0));
  const ProblemInstance ps = make_problem(stable, servers);
  const ProblemInstance pc = make_problem(constant, servers);

  Rng r1(1);
  Rng r2(1);
  const Allocation as = make_allocator("min-incremental")->allocate(ps, r1);
  const Allocation ac = make_allocator("min-incremental")->allocate(pc, r2);
  EXPECT_EQ(as.assignment, ac.assignment);
  EXPECT_NEAR(evaluate_cost(ps, as).total(), evaluate_cost(pc, ac).total(),
              1e-6);
  EXPECT_NEAR(SimulationEngine(pc, ac).run().total_energy(),
              SimulationEngine(ps, as).run().total_energy(), 1e-6);
}

TEST(VmProfile, TraceRoundTripsProfiles) {
  std::vector<VmSpec> vms{vm(0, 1, 3, 2.0, 1.0),
                          profiled_vm(1, 2, {{1.5, 2}, {4, 1}, {0.5, 3}})};
  std::stringstream buffer;
  write_vm_trace(buffer, vms);
  const auto loaded = read_vm_trace(buffer);
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_FALSE(loaded[0].has_profile());
  ASSERT_TRUE(loaded[1].has_profile());
  ASSERT_EQ(loaded[1].profile.size(), 3u);
  EXPECT_DOUBLE_EQ(loaded[1].profile[0].cpu, 1.5);
  EXPECT_DOUBLE_EQ(loaded[1].profile[2].mem, 3.0);
  EXPECT_DOUBLE_EQ(loaded[1].demand.cpu, 4.0);  // peak restored
}

TEST(VmProfile, TraceRejectsWrongProfileLength) {
  std::istringstream in(
      "id,type,cpu,mem,start,end,profile\n"
      "0,t,4,2,1,3,1:1|4:2\n");  // 2 entries for a 3-unit VM
  EXPECT_THROW(read_vm_trace(in), std::runtime_error);
}

TEST(VmProfile, TraceRejectsMalformedProfileEntry) {
  std::istringstream in(
      "id,type,cpu,mem,start,end,profile\n"
      "0,t,4,2,1,2,1:1|nope\n");
  EXPECT_THROW(read_vm_trace(in), std::runtime_error);
}

TEST(BurstyGenerator, PeakMatchesCatalogDemand) {
  WorkloadConfig config;
  config.num_vms = 50;
  config.mean_interarrival = 2.0;
  config.mean_duration = 20.0;
  config.vm_types = all_vm_types();
  Rng rng(7);
  const auto vms = generate_bursty_workload(config, 4, 0.3, rng);
  for (const VmSpec& v : vms) {
    ASSERT_TRUE(v.valid());
    ASSERT_TRUE(v.has_profile());
    // The pinned segment guarantees the peak equals a catalog demand.
    bool matches_catalog = false;
    for (const VmType& t : all_vm_types())
      matches_catalog =
          matches_catalog || (std::abs(t.demand.cpu - v.demand.cpu) < 1e-9 &&
                              std::abs(t.demand.mem - v.demand.mem) < 1e-9);
    EXPECT_TRUE(matches_catalog) << v.type_name;
    // All levels within [valley × peak, peak].
    for (const Resources& r : v.profile) {
      EXPECT_GE(r.cpu, 0.3 * v.demand.cpu - 1e-9);
      EXPECT_LE(r.cpu, v.demand.cpu + 1e-9);
    }
  }
}

TEST(BurstyGenerator, EndToEndThroughAllocatorsAndSimulator) {
  WorkloadConfig config;
  config.num_vms = 30;
  config.mean_interarrival = 2.0;
  config.mean_duration = 15.0;
  config.vm_types = all_vm_types();
  Rng rng(9);
  std::vector<VmSpec> vms = generate_bursty_workload(config, 3, 0.25, rng);
  std::vector<ServerSpec> servers;
  const auto& types = all_server_types();
  for (int i = 0; i < 12; ++i)
    servers.push_back(make_server(
        types[types.size() - 1 - static_cast<std::size_t>(i) % types.size()], i, 1.0));
  const ProblemInstance p = make_problem(std::move(vms), std::move(servers));

  for (const std::string name : {"min-incremental", "ffps", "dot-product-fit"}) {
    Rng alloc_rng(3);
    const Allocation alloc = make_allocator(name)->allocate(p, alloc_rng);
    ASSERT_EQ(validate_allocation(p, alloc, false), "") << name;
    const Energy analytic = evaluate_cost(p, alloc).total();
    EXPECT_NEAR(SimulationEngine(p, alloc).run().total_energy(), analytic,
                1e-6 * std::max(1.0, analytic))
        << name;
  }
}

}  // namespace
}  // namespace esva
