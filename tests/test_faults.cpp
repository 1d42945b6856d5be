// Fault-tolerance layer (core/fault_plan.h + the failure paths of
// core/streaming.h): FaultPlan CSV round-trips, the differential guarantee
// that an *empty* plan with retries disabled is byte-identical to the
// fault-free engine for every streamable allocator, seeded-chaos
// reproducibility, and hand-built evacuation / drain / retry-queue /
// downtime scenarios whose every counter is checked against a traced-by-hand
// schedule.

#include "core/fault_plan.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "baselines/registry.h"
#include "cluster/catalog.h"
#include "cluster/timeline.h"
#include "core/allocation.h"
#include "core/cost_model.h"
#include "core/streaming.h"
#include "sim/replay.h"
#include "test_util.h"
#include "util/rng.h"
#include "workload/arrival_stream.h"
#include "workload/generator.h"

namespace esva {
namespace {

using testing::make_fleet;

// --- FaultPlan parsing and validation --------------------------------------

TEST(FaultPlanCsv, RoundTripsAndStableSortsByTime) {
  // Deliberately unsorted; the two events at t=30 must keep input order.
  std::vector<FaultEvent> events;
  events.push_back({30, FaultKind::kRecover, 2});
  events.push_back({10, FaultKind::kFail, 2});
  events.push_back({30, FaultKind::kFail, 0});
  events.push_back({5, FaultKind::kDrain, 1});
  const FaultPlan plan(std::move(events));
  ASSERT_EQ(plan.size(), 4u);
  EXPECT_EQ(plan.events()[0].at, 5);
  EXPECT_EQ(plan.events()[1].at, 10);
  EXPECT_EQ(plan.events()[2].kind, FaultKind::kRecover);  // input order kept
  EXPECT_EQ(plan.events()[3].kind, FaultKind::kFail);

  std::stringstream csv;
  write_fault_plan(csv, plan);
  const FaultPlan reread = read_fault_plan(csv);
  ASSERT_EQ(reread.size(), plan.size());
  for (std::size_t k = 0; k < plan.size(); ++k) {
    EXPECT_EQ(reread.events()[k].at, plan.events()[k].at);
    EXPECT_EQ(reread.events()[k].kind, plan.events()[k].kind);
    EXPECT_EQ(reread.events()[k].server, plan.events()[k].server);
  }
}

TEST(FaultPlanCsv, MalformedInputsThrowWithLineNumbers) {
  const auto parse = [](const std::string& text) {
    std::stringstream in(text);
    return read_fault_plan(in);
  };
  EXPECT_THROW(parse(""), std::runtime_error);
  EXPECT_THROW(parse("time,event,server\n10,explode,0\n"), std::runtime_error);
  EXPECT_THROW(parse("time,event,server\nten,fail,0\n"), std::runtime_error);
  EXPECT_THROW(parse("time,event,server\n10,fail\n"), std::runtime_error);
  EXPECT_THROW(parse("time,event,server\n0,fail,0\n"), std::runtime_error);
  try {
    parse("time,event,server\n10,fail,0\n12,nope,1\n");
    FAIL() << "expected a parse error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos)
        << e.what();
  }
}

// The header is checked by name, so a plan written without one is refused
// instead of losing its first event (a one-event plan used to apply none).
TEST(FaultPlanCsv, HeaderlessPlansAreRefused) {
  for (const std::string text : {"5,fail,0\n40,recover,0\n", "5,fail,0\n"}) {
    std::stringstream in(text);
    try {
      read_fault_plan(in);
      ADD_FAILURE() << "read a headerless plan: " << text;
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()),
                "fault plan line 1: expected the header 'time,event,server', "
                "got '5,fail,0'");
    }
  }
}

// Errors count lines of the file, blank ones included.
TEST(FaultPlanCsv, ErrorsNameTheFileLine) {
  std::stringstream in("time,event,server\n\n\n10,fail,0\n12,nope,1\n");
  try {
    read_fault_plan(in);
    FAIL() << "expected a parse error";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()),
              "fault plan line 5: unknown event 'nope' (fail|drain|recover)");
  }
}

TEST(FaultPlanCsv, ValidateRejectsServersOutsideTheFleet) {
  std::vector<FaultEvent> events;
  events.push_back({10, FaultKind::kFail, 3});
  const FaultPlan plan(std::move(events));
  EXPECT_NO_THROW(plan.validate(4));
  EXPECT_THROW(plan.validate(3), std::invalid_argument);
}

TEST(FaultPlanCsv, RandomPlanIsDeterministicInSeed) {
  ChaosConfig config;
  config.num_servers = 8;
  config.failures = 5;
  Rng a(13), b(13), c(14);
  const FaultPlan pa = random_fault_plan(config, a);
  const FaultPlan pb = random_fault_plan(config, b);
  const FaultPlan pc = random_fault_plan(config, c);
  ASSERT_EQ(pa.size(), 10u);  // each failure paired with a recover
  ASSERT_EQ(pa.size(), pb.size());
  bool same_as_c = pa.size() == pc.size();
  for (std::size_t k = 0; k < pa.size(); ++k) {
    EXPECT_EQ(pa.events()[k].at, pb.events()[k].at);
    EXPECT_EQ(pa.events()[k].kind, pb.events()[k].kind);
    EXPECT_EQ(pa.events()[k].server, pb.events()[k].server);
    if (same_as_c && (pa.events()[k].at != pc.events()[k].at ||
                      pa.events()[k].server != pc.events()[k].server))
      same_as_c = false;
  }
  EXPECT_FALSE(same_as_c) << "different seeds produced the same plan";
  EXPECT_NO_THROW(pa.validate(config.num_servers));
}

// --- the differential guarantee: empty plan == no plan ----------------------

constexpr int kNumVms = 220;
constexpr int kNumServers = 44;

ProblemInstance chaos_instance(std::uint64_t seed, bool profiled) {
  WorkloadConfig config;
  config.num_vms = kNumVms;
  config.mean_interarrival = 1.5;
  config.mean_duration = 30.0;
  config.vm_types = all_vm_types();
  Rng rng(seed);
  std::vector<VmSpec> vms =
      profiled ? generate_bursty_workload(config, /*phases=*/4,
                                          /*valley_factor=*/0.45, rng)
               : generate_workload(config, rng);
  return make_problem(std::move(vms), make_fleet(kNumServers));
}

ReplayReport replay(const std::string& name, const ProblemInstance& problem,
                    const ReplayOptions& options) {
  AllocatorPtr allocator = make_allocator(name);
  std::unique_ptr<PlacementPolicy> policy = allocator->make_policy();
  EXPECT_NE(policy, nullptr) << name;
  Rng rng(7);
  VectorArrivalStream arrivals(problem.vms);
  return replay_stream(arrivals, problem.servers, *policy, rng, options);
}

TEST(FaultDifferential, EmptyPlanBitIdenticalForEveryStreamableAllocator) {
  const FaultPlan empty_plan;
  for (const bool profiled : {false, true}) {
    const ProblemInstance problem = chaos_instance(11, profiled);
    for (const std::string& name : allocator_names()) {
      if (!make_allocator(name)->make_policy()) continue;
      ReplayOptions baseline;
      ReplayOptions with_plan;
      with_plan.faults = &empty_plan;  // non-null but event-free
      const ReplayReport a = replay(name, problem, baseline);
      const ReplayReport b = replay(name, problem, with_plan);
      // Byte-identical: same decisions, same rng stream, same energies.
      ASSERT_EQ(a.assignment, b.assignment)
          << name << (profiled ? " (profiled)" : " (stable)");
      EXPECT_EQ(a.total_energy, b.total_energy) << name;
      EXPECT_EQ(a.placed, b.placed) << name;
      EXPECT_EQ(a.rejected, b.rejected) << name;
      EXPECT_EQ(b.faults.fault_events, 0);
      EXPECT_EQ(b.faults.rejected_final, 0);
      EXPECT_EQ(b.faults.downtime_units, 0);
    }
  }
}

TEST(FaultDifferential, SeededChaosReplayIsReproducible) {
  const ProblemInstance problem = chaos_instance(23, /*profiled=*/false);
  ChaosConfig chaos;
  chaos.num_servers = static_cast<std::size_t>(kNumServers);
  chaos.failures = 6;
  chaos.window_lo = 5;
  chaos.window_hi = 200;
  chaos.mean_repair = 40;
  Rng plan_rng(101);
  const FaultPlan plan = random_fault_plan(chaos, plan_rng);
  for (const std::string& name : {std::string("min-incremental"),
                                  std::string("random-fit")}) {
    ReplayOptions options;
    options.faults = &plan;
    options.retry.max_attempts = 3;
    const ReplayReport a = replay(name, problem, options);
    const ReplayReport b = replay(name, problem, options);
    ASSERT_EQ(a.assignment, b.assignment) << name;
    EXPECT_EQ(a.total_energy, b.total_energy) << name;
    EXPECT_EQ(a.faults.displaced, b.faults.displaced) << name;
    EXPECT_EQ(a.faults.evacuated, b.faults.evacuated) << name;
    EXPECT_EQ(a.faults.retries, b.faults.retries) << name;
    EXPECT_EQ(a.faults.retried_placed, b.faults.retried_placed) << name;
    EXPECT_EQ(a.faults.rejected_final, b.faults.rejected_final) << name;
    EXPECT_EQ(a.faults.downtime_units, b.faults.downtime_units) << name;
    EXPECT_GT(a.faults.fault_events, 0) << name;
  }
}

std::unique_ptr<PlacementPolicy> min_incremental_policy() {
  return make_allocator("min-incremental")->make_policy();
}

// A chaos replay exported mid-stream — while a server is down, so restore
// takes the stub path as well as rebuilds — and imported into a fresh
// engine continues byte-identical to the uninterrupted run.
TEST(FaultDifferential, ChaosStateExportedMidStreamContinuesByteIdentical) {
  const ProblemInstance problem = chaos_instance(23, /*profiled=*/false);
  ChaosConfig chaos;
  chaos.num_servers = static_cast<std::size_t>(kNumServers);
  chaos.failures = 6;
  chaos.window_lo = 5;
  chaos.window_hi = 200;
  chaos.mean_repair = 40;
  Rng plan_rng(101);
  const FaultPlan plan = random_fault_plan(chaos, plan_rng);
  EngineOptions options;
  options.auto_advance = true;
  options.account_energy = true;
  options.tolerate_late_arrivals = true;
  options.faults = &plan;
  options.retry.max_attempts = 3;
  const std::vector<std::size_t> order = order_by_start(problem.vms);

  std::vector<ServerId> reference;
  const std::unique_ptr<PlacementPolicy> ref_policy = min_incremental_policy();
  Rng ref_rng(7);
  PlacementEngine ref_engine(problem.servers, *ref_policy, ref_rng, options);
  for (const std::size_t j : order)
    reference.push_back(ref_engine.submit(problem.vms[j]).server);
  ref_engine.finish_stream();

  const std::unique_ptr<PlacementPolicy> head_policy =
      min_incremental_policy();
  Rng head_rng(7);
  PlacementEngine head(problem.servers, *head_policy, head_rng, options);
  std::size_t cut = 0;
  EngineStateSnapshot state;
  std::size_t resolved_before_cut = 0;
  while (cut < order.size()) {
    EXPECT_EQ(head.submit(problem.vms[order[cut]]).server, reference[cut]);
    if (++cut < order.size() / 4) continue;
    state = head.export_state();
    resolved_before_cut = head.resolutions().size();
    if (std::any_of(state.servers.begin(), state.servers.end(),
                    [](const ServerStateSnapshot& server) {
                      return server.health != ServerHealth::kUp;
                    }))
      break;
  }
  ASSERT_LT(cut, order.size()) << "no server was down mid-stream";

  const std::unique_ptr<PlacementPolicy> tail_policy =
      min_incremental_policy();
  Rng tail_rng(7);
  PlacementEngine tail(problem.servers, *tail_policy, tail_rng, options);
  tail.import_state(state);
  tail_rng.set_state(head_rng.state());
  for (std::size_t k = cut; k < order.size(); ++k)
    ASSERT_EQ(tail.submit(problem.vms[order[k]]).server, reference[k])
        << "request " << k;
  tail.finish_stream();
  EXPECT_EQ(tail.total_energy(), ref_engine.total_energy());
  const FaultStats& a = tail.fault_stats();
  const FaultStats& b = ref_engine.fault_stats();
  EXPECT_GT(b.fault_events, 0);
  EXPECT_EQ(a.fault_events, b.fault_events);
  EXPECT_EQ(a.displaced, b.displaced);
  EXPECT_EQ(a.evacuated, b.evacuated);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.retried_placed, b.retried_placed);
  EXPECT_EQ(a.rejected_final, b.rejected_final);
  EXPECT_EQ(a.downtime_units, b.downtime_units);
  // The log is history, not state: the head's is the reference's up to the
  // cut, and the restored engine's starts empty and holds exactly the
  // reference's after it.
  const std::vector<Resolution>& log = ref_engine.resolutions();
  ASSERT_LT(resolved_before_cut, log.size()) << "nothing resolved later";
  for (std::size_t k = 0; k < resolved_before_cut; ++k) {
    EXPECT_EQ(head.resolutions()[k].vm, log[k].vm) << k;
    EXPECT_EQ(head.resolutions()[k].server, log[k].server) << k;
  }
  ASSERT_EQ(tail.resolutions().size(), log.size() - resolved_before_cut);
  for (std::size_t k = 0; k < tail.resolutions().size(); ++k) {
    EXPECT_EQ(tail.resolutions()[k].vm, log[resolved_before_cut + k].vm) << k;
    EXPECT_EQ(tail.resolutions()[k].server,
              log[resolved_before_cut + k].server)
        << k;
  }
}

// --- hand-built engine scenarios -------------------------------------------

FaultPlan single_event_plan(Time at, FaultKind kind, ServerId server) {
  std::vector<FaultEvent> events;
  events.push_back({at, kind, server});
  return FaultPlan(std::move(events));
}

TEST(FaultEngine, FailureEvacuatesActiveVmToSurvivor) {
  const std::vector<ServerSpec> servers = {testing::basic_server(0),
                                           testing::basic_server(1)};
  const FaultPlan plan = single_event_plan(10, FaultKind::kFail, 0);
  std::unique_ptr<PlacementPolicy> policy = min_incremental_policy();
  Rng rng(7);
  EngineOptions options;
  options.auto_advance = true;
  options.account_energy = true;
  options.faults = &plan;
  PlacementEngine engine(servers, *policy, rng, options);

  const VmSpec vm0 = testing::vm(0, 1, 40);
  ASSERT_EQ(engine.submit(vm0).server, 0);  // tie breaks to the lowest id
  engine.advance_to(20);

  EXPECT_EQ(engine.cluster().health(0), ServerHealth::kFailed);
  EXPECT_EQ(engine.fault_stats().fault_events, 1);
  EXPECT_EQ(engine.fault_stats().displaced, 1);
  EXPECT_EQ(engine.fault_stats().evacuated, 1);
  EXPECT_EQ(engine.fault_stats().downtime_units, 0);  // re-placed instantly
  ASSERT_EQ(engine.resolutions().size(), 1u);
  EXPECT_EQ(engine.resolutions()[0].vm, 0);
  EXPECT_EQ(engine.resolutions()[0].server, 1);
  // The evacuated remainder is active on the survivor.
  EXPECT_EQ(engine.cluster().active_vms(), 1u);

  // Energy: the original placement, plus the clipped remainder's incremental
  // on the (empty) survivor, plus the first-order migration term.
  const VmSpec remainder = clip_to(vm0, 10);
  EXPECT_EQ(remainder.start, 10);
  EXPECT_EQ(remainder.end, 40);
  ServerTimeline s0(servers[0], /*horizon=*/64);
  const Energy base = incremental_cost(s0, vm0, options.cost);
  ServerTimeline s1(servers[1], /*horizon=*/64);
  const Energy evac = incremental_cost(s1, remainder, options.cost);
  const Energy migration =
      migration_energy(remainder, options.migration_cost_per_gib);
  EXPECT_DOUBLE_EQ(engine.total_energy(), base + evac + migration);
}

TEST(FaultEngine, UnEvacuableVmBecomesDowntimeNotACrash) {
  const std::vector<ServerSpec> servers = {testing::basic_server(0)};
  const FaultPlan plan = single_event_plan(5, FaultKind::kFail, 0);
  std::unique_ptr<PlacementPolicy> policy = min_incremental_policy();
  Rng rng(7);
  EngineOptions options;
  options.auto_advance = true;
  options.faults = &plan;
  PlacementEngine engine(servers, *policy, rng, options);

  ASSERT_EQ(engine.submit(testing::vm(0, 1, 20)).server, 0);
  EXPECT_NO_THROW(engine.advance_to(30));  // the failure must not crash
  EXPECT_EQ(engine.fault_stats().displaced, 1);
  EXPECT_EQ(engine.fault_stats().evacuated, 0);
  EXPECT_EQ(engine.fault_stats().rejected_final, 1);
  // Displaced at t=5, never re-placed: unserved for [5, 20] = 16 units.
  EXPECT_EQ(engine.fault_stats().downtime_units, 16);
  ASSERT_EQ(engine.resolutions().size(), 1u);
  EXPECT_EQ(engine.resolutions()[0].server, kNoServer);
  EXPECT_EQ(engine.cluster().active_vms(), 0u);
}

TEST(FaultEngine, DrainKeepsVmsRunningButRefusesNewPlacements) {
  const std::vector<ServerSpec> servers = {testing::basic_server(0)};
  const FaultPlan plan = single_event_plan(5, FaultKind::kDrain, 0);
  std::unique_ptr<PlacementPolicy> policy = min_incremental_policy();
  Rng rng(7);
  EngineOptions options;
  options.auto_advance = true;
  options.faults = &plan;
  PlacementEngine engine(servers, *policy, rng, options);

  ASSERT_EQ(engine.submit(testing::vm(0, 1, 20)).server, 0);
  engine.advance_to(6);
  EXPECT_EQ(engine.cluster().health(0), ServerHealth::kDrained);
  // The hosted VM keeps running (no displacement, no downtime) ...
  EXPECT_EQ(engine.cluster().active_vms(), 1u);
  EXPECT_EQ(engine.fault_stats().displaced, 0);
  // ... but the drained server takes nothing new.
  const PlacementDecision refused = engine.submit(testing::vm(1, 8, 12));
  EXPECT_EQ(refused.server, kNoServer);
  EXPECT_EQ(refused.reject, PlacementReject::kNoCapacity);
  // The resident VM retires through the normal sweep.
  engine.advance_to(25);
  EXPECT_EQ(engine.cluster().active_vms(), 0u);
}

TEST(FaultEngine, RecoverRestoresThePlacementSurface) {
  const std::vector<ServerSpec> servers = {testing::basic_server(0)};
  std::vector<FaultEvent> events;
  events.push_back({5, FaultKind::kFail, 0});
  events.push_back({15, FaultKind::kRecover, 0});
  const FaultPlan plan{std::move(events)};
  std::unique_ptr<PlacementPolicy> policy = min_incremental_policy();
  Rng rng(7);
  EngineOptions options;
  options.auto_advance = true;
  options.faults = &plan;
  PlacementEngine engine(servers, *policy, rng, options);

  engine.advance_to(10);
  EXPECT_EQ(engine.cluster().health(0), ServerHealth::kFailed);
  EXPECT_EQ(engine.submit(testing::vm(0, 10, 12)).server, kNoServer);
  engine.advance_to(16);
  EXPECT_EQ(engine.cluster().health(0), ServerHealth::kUp);
  EXPECT_EQ(engine.submit(testing::vm(1, 16, 30)).server, 0);
}

TEST(FaultEngine, EventsFarPastTheLastArrivalRebuildEmptyWindows) {
  // Regression: the planning horizon extends lazily with submitted VM ends,
  // so a recover (or any frontier jump) far past the last arrival used to
  // rebuild a timeline whose window length went negative and wrapped into a
  // std::length_error. The rebuild must clamp to an empty window instead,
  // and the next ensure_horizon must restore a usable placement surface.
  const std::vector<ServerSpec> servers = {testing::basic_server(0),
                                           testing::basic_server(1)};
  std::vector<FaultEvent> events;
  events.push_back({5, FaultKind::kFail, 0});
  events.push_back({100000, FaultKind::kRecover, 0});
  const FaultPlan plan{std::move(events)};
  std::unique_ptr<PlacementPolicy> policy = min_incremental_policy();
  Rng rng(7);
  EngineOptions options;
  options.auto_advance = true;
  options.faults = &plan;
  PlacementEngine engine(servers, *policy, rng, options);

  ASSERT_EQ(engine.submit(testing::vm(0, 1, 20)).server, 0);
  EXPECT_NO_THROW(engine.finish_stream());  // fires the far-future recover
  EXPECT_EQ(engine.fault_stats().fault_events, 2);
  EXPECT_EQ(engine.cluster().health(0), ServerHealth::kUp);
}

TEST(FaultEngine, ArrivalFarPastTheHorizonRebuildsEmptyWindows) {
  // Fault-free flavour of the same regression: a gap in arrivals wide
  // enough that the frontier overtakes the lazily-extended horizon makes
  // the retire sweep rebuild through the same negative-window path.
  const std::vector<ServerSpec> servers = {testing::basic_server(0)};
  std::unique_ptr<PlacementPolicy> policy = min_incremental_policy();
  Rng rng(7);
  EngineOptions options;
  options.auto_advance = true;
  PlacementEngine engine(servers, *policy, rng, options);

  ASSERT_EQ(engine.submit(testing::vm(0, 1, 4)).server, 0);
  VmSpec late = testing::vm(1, 100000, 100010);
  PlacementDecision decision;
  ASSERT_NO_THROW(decision = engine.submit(late));
  EXPECT_EQ(decision.server, 0);
}

// A fault dated before the frontier is refused: the frontier has passed its
// instant, so the VM it would displace could only be re-placed starting in
// the past. The throw names both times and leaves the engine as it was.
TEST(FaultEngine, ApplyFaultBeforeTheFrontierThrowsAndChangesNothing) {
  const std::vector<ServerSpec> servers = {testing::basic_server(0),
                                           testing::basic_server(1)};
  std::unique_ptr<PlacementPolicy> policy = min_incremental_policy();
  Rng rng(7);
  EngineOptions options;
  options.auto_advance = true;
  options.account_energy = true;
  PlacementEngine engine(servers, *policy, rng, options);
  ASSERT_EQ(engine.submit(testing::vm(0, 100, 2000)).server, 0);
  engine.advance_to(1000);
  const EngineStateSnapshot before = engine.export_state();

  try {
    engine.apply_fault({10, FaultKind::kFail, 0});
    ADD_FAILURE() << "a fault before the frontier must throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "event time 10 precedes the frontier 1000"),
              std::string::npos)
        << e.what();
  }
  const EngineStateSnapshot after = engine.export_state();
  for (const auto& [key, member] : kFaultStatsFields)
    EXPECT_EQ(after.fault_stats.*member, before.fault_stats.*member) << key;
  EXPECT_EQ(after.frontier, before.frontier);
  EXPECT_EQ(after.horizon, before.horizon);
  EXPECT_EQ(after.energy, before.energy);
  EXPECT_TRUE(engine.resolutions().empty());
  ASSERT_EQ(after.servers.size(), before.servers.size());
  for (std::size_t i = 0; i < after.servers.size(); ++i) {
    EXPECT_EQ(after.servers[i].health, before.servers[i].health) << i;
    EXPECT_EQ(after.servers[i].retired_hi, before.servers[i].retired_hi) << i;
    ASSERT_EQ(after.servers[i].active.size(), before.servers[i].active.size());
    for (std::size_t k = 0; k < after.servers[i].active.size(); ++k) {
      EXPECT_EQ(after.servers[i].active[k].id, before.servers[i].active[k].id);
      EXPECT_EQ(after.servers[i].active[k].start,
                before.servers[i].active[k].start);
    }
  }

  engine.apply_fault({1000, FaultKind::kFail, 0});  // at the frontier: applies
  EXPECT_EQ(engine.cluster().health(0), ServerHealth::kFailed);
  EXPECT_EQ(engine.fault_stats().displaced, 1);
}

TEST(RetryQueue, DeferredRequestPlacesOnceCapacityFrees) {
  // One server, fully occupied until t=10; the second request must wait in
  // the queue and land via a retry after the first retires.
  const std::vector<ServerSpec> servers = {testing::basic_server(0)};
  std::unique_ptr<PlacementPolicy> policy = min_incremental_policy();
  Rng rng(7);
  EngineOptions options;
  options.auto_advance = true;
  options.retry.max_attempts = 3;
  options.retry.base_delay = 8;
  PlacementEngine engine(servers, *policy, rng, options);

  ASSERT_EQ(engine.submit(testing::vm(0, 1, 10, /*cpu=*/10.0)).server, 0);
  const PlacementDecision deferred =
      engine.submit(testing::vm(1, 2, 30, /*cpu=*/10.0));
  EXPECT_EQ(deferred.server, kNoServer);
  EXPECT_EQ(deferred.reject, PlacementReject::kDeferred);
  EXPECT_EQ(engine.fault_stats().deferred, 1);

  // not_before = 2 + 8 = 10; at frontier 11 the first VM has retired.
  engine.advance_to(11);
  EXPECT_EQ(engine.fault_stats().retries, 1);
  EXPECT_EQ(engine.fault_stats().retried_placed, 1);
  EXPECT_EQ(engine.placed(), 2);
  ASSERT_EQ(engine.resolutions().size(), 1u);
  EXPECT_EQ(engine.resolutions()[0].vm, 1);
  EXPECT_EQ(engine.resolutions()[0].server, 0);
  EXPECT_EQ(engine.cluster().active_vms(), 1u);
}

TEST(RetryQueue, BoundedAttemptsExhaustIntoFinalRejection) {
  const std::vector<ServerSpec> servers = {testing::basic_server(0)};
  std::unique_ptr<PlacementPolicy> policy = min_incremental_policy();
  Rng rng(7);
  EngineOptions options;
  options.auto_advance = true;
  options.retry.max_attempts = 3;  // initial + 2 retries
  options.retry.base_delay = 8;
  options.retry.backoff = 2.0;
  PlacementEngine engine(servers, *policy, rng, options);

  // Occupies the whole server past every retry.
  ASSERT_EQ(engine.submit(testing::vm(0, 1, 100, /*cpu=*/10.0)).server, 0);
  EXPECT_EQ(engine.submit(testing::vm(1, 2, 50, /*cpu=*/10.0)).reject,
            PlacementReject::kDeferred);
  engine.finish_stream();
  EXPECT_EQ(engine.fault_stats().retries, 2);  // attempts 2 and 3
  EXPECT_EQ(engine.fault_stats().retried_placed, 0);
  EXPECT_EQ(engine.fault_stats().rejected_final, 1);
  EXPECT_EQ(engine.placed(), 1);
  // Idempotent: a second drain must not double-count anything.
  engine.finish_stream();
  EXPECT_EQ(engine.fault_stats().retries, 2);
  EXPECT_EQ(engine.fault_stats().rejected_final, 1);
}

TEST(RetryQueue, BackoffScheduleIsDeterministic) {
  RetryPolicy retry;
  retry.base_delay = 8;
  retry.backoff = 2.0;
  EXPECT_EQ(retry.delay_for(1), 8);
  EXPECT_EQ(retry.delay_for(2), 16);
  EXPECT_EQ(retry.delay_for(3), 32);
  retry.base_delay = 1;
  retry.backoff = 0.1;  // shrinking schedules still wait at least one unit
  EXPECT_EQ(retry.delay_for(2), 1);
  EXPECT_EQ(retry.retry_at(100, 2), 101);
  // Delays and retry instants past the Time range saturate, never wrap.
  constexpr Time kMaxTime = std::numeric_limits<Time>::max();
  retry.base_delay = kMaxTime;
  retry.backoff = std::numeric_limits<double>::max();
  EXPECT_EQ(retry.delay_for(1), kMaxTime);
  EXPECT_EQ(retry.delay_for(3), kMaxTime);
  EXPECT_EQ(retry.retry_at(100, 1), kMaxTime);
  retry.base_delay = 0;  // zero stays zero even when the power overflows
  EXPECT_EQ(retry.delay_for(3), 1);
  EXPECT_FALSE(RetryPolicy{}.enabled());
  retry.max_attempts = 4;
  EXPECT_TRUE(retry.enabled());
}

TEST(RetryQueue, CapacityBoundBouncesAdmissions) {
  const std::vector<ServerSpec> servers = {testing::basic_server(0)};
  std::unique_ptr<PlacementPolicy> policy = min_incremental_policy();
  Rng rng(7);
  EngineOptions options;
  options.auto_advance = true;
  options.retry.max_attempts = 2;
  options.retry.queue_capacity = 1;
  PlacementEngine engine(servers, *policy, rng, options);

  ASSERT_EQ(engine.submit(testing::vm(0, 1, 50, /*cpu=*/10.0)).server, 0);
  EXPECT_EQ(engine.submit(testing::vm(1, 2, 40, /*cpu=*/10.0)).reject,
            PlacementReject::kDeferred);
  const PlacementDecision bounced =
      engine.submit(testing::vm(2, 3, 40, /*cpu=*/10.0));
  EXPECT_EQ(bounced.reject, PlacementReject::kQueueFull);
  EXPECT_EQ(engine.fault_stats().queue_full, 1);
  EXPECT_EQ(engine.fault_stats().rejected_final, 1);
  EXPECT_EQ(engine.fault_stats().deferred, 1);
}

TEST(RetryQueue, DisplacedVmRetriedLaterAccruesDowntime) {
  // Two servers; both full when server 0 fails, so the displaced VM waits in
  // the queue and lands only after capacity frees — the wait is downtime.
  const std::vector<ServerSpec> servers = {testing::basic_server(0),
                                           testing::basic_server(1)};
  const FaultPlan plan = single_event_plan(5, FaultKind::kFail, 0);
  std::unique_ptr<PlacementPolicy> policy = min_incremental_policy();
  Rng rng(7);
  EngineOptions options;
  options.auto_advance = true;
  options.faults = &plan;
  options.retry.max_attempts = 4;
  options.retry.base_delay = 8;
  PlacementEngine engine(servers, *policy, rng, options);

  // vm0 on server 0; vm1 fills server 1 until t=12.
  ASSERT_EQ(engine.submit(testing::vm(0, 1, 30, /*cpu=*/10.0)).server, 0);
  ASSERT_EQ(engine.submit(testing::vm(1, 2, 12, /*cpu=*/10.0)).server, 1);
  engine.advance_to(6);  // the failure displaces vm0; server 1 is still full
  EXPECT_EQ(engine.fault_stats().displaced, 1);
  EXPECT_EQ(engine.fault_stats().evacuated, 0);
  EXPECT_EQ(engine.fault_stats().deferred, 1);
  // not_before = 5 + 8 = 13; by then vm1 (end 12) has retired.
  engine.advance_to(13);
  EXPECT_EQ(engine.fault_stats().retried_placed, 1);
  EXPECT_EQ(engine.fault_stats().evacuated, 1);
  // Down from the displacement at t=5 until the retry landed at t=13.
  EXPECT_EQ(engine.fault_stats().downtime_units, 8);
  ASSERT_EQ(engine.resolutions().size(), 2u);
  EXPECT_EQ(engine.resolutions()[0].server, kNoServer);  // evacuation failed
  EXPECT_EQ(engine.resolutions()[1].server, 1);          // retry landed
}

TEST(RetryQueue, FifoOrderBreaksTiesDeterministically) {
  // Three identical infeasible requests deferred at the same instant: their
  // retries fire in admission order (seq tiebreak), so with exactly one free
  // slot the *first* admitted wins — run twice to pin determinism.
  const auto run = [] {
    const std::vector<ServerSpec> servers = {testing::basic_server(0)};
    std::unique_ptr<PlacementPolicy> policy = min_incremental_policy();
    Rng rng(7);
    EngineOptions options;
    options.auto_advance = true;
    options.retry.max_attempts = 2;
    // not_before = 2 + 6 = 8, one tick past the blocker's retirement at 7.
    options.retry.base_delay = 6;
    PlacementEngine engine(servers, *policy, rng, options);
    EXPECT_EQ(engine.submit(testing::vm(0, 1, 6, /*cpu=*/10.0)).server, 0);
    for (VmId id : {1, 2, 3})
      EXPECT_EQ(engine
                    .submit(testing::vm(id, 2, 30, /*cpu=*/10.0))
                    .reject,
                PlacementReject::kDeferred);
    engine.finish_stream();
    // Hosting changes only: the two losers stay kNoServer from submit time,
    // so exactly one resolution — the winner's retry placement.
    EXPECT_EQ(engine.fault_stats().retried_placed, 1);
    EXPECT_EQ(engine.fault_stats().rejected_final, 2);
    return std::vector<Resolution>(engine.resolutions());
  };
  const std::vector<Resolution> a = run();
  const std::vector<Resolution> b = run();
  ASSERT_EQ(a.size(), 1u);
  EXPECT_EQ(a[0].vm, 1);  // first admitted retries first and wins the slot
  EXPECT_EQ(a[0].server, 0);
  ASSERT_EQ(b.size(), 1u);
  EXPECT_EQ(a[0].vm, b[0].vm);
  EXPECT_EQ(a[0].server, b[0].server);
}

// A retry instant past the Time range saturates at the largest Time: the
// request waits out the whole stream and comes due only in finish_stream's
// drain, past its own end — a final rejection, never a wrapped instant that
// fires as soon as capacity frees.
TEST(RetryQueue, SaturatedRetryInstantComesDueOnlyInTheFinalDrain) {
  const std::vector<ServerSpec> servers = {testing::basic_server(0)};
  std::unique_ptr<PlacementPolicy> policy = min_incremental_policy();
  Rng rng(7);
  EngineOptions options;
  options.auto_advance = true;
  options.retry = checked_retry_policy(
      /*max_attempts=*/3, std::numeric_limits<Time>::max(), /*backoff=*/2.0,
      /*queue_capacity=*/64);
  PlacementEngine engine(servers, *policy, rng, options);

  ASSERT_EQ(engine.submit(testing::vm(0, 1, 10, /*cpu=*/10.0)).server, 0);
  EXPECT_EQ(engine.submit(testing::vm(1, 2, 30, /*cpu=*/10.0)).reject,
            PlacementReject::kDeferred);
  // The blocker retires at t=10, but the retry is not due until the end.
  engine.advance_to(1000);
  EXPECT_EQ(engine.fault_stats().retries, 0);
  EXPECT_EQ(engine.placed(), 1);
  engine.finish_stream();
  EXPECT_EQ(engine.fault_stats().retries, 1);
  EXPECT_EQ(engine.fault_stats().retried_placed, 0);
  EXPECT_EQ(engine.fault_stats().rejected_final, 1);
  EXPECT_TRUE(engine.resolutions().empty());
}

// --- retry option checks (checked_retry_policy) -----------------------------

// Both ends of every accepted range pass through unchanged — the policies
// the serve journal header reads back — and zero attempts, one attempt or an
// empty queue all leave the retry queue off.
TEST(RetryPolicyCheck, AcceptsEachRangeEndUnchanged) {
  constexpr int kMaxInt = std::numeric_limits<int>::max();
  constexpr Time kMaxTime = std::numeric_limits<Time>::max();
  constexpr double kTiny = std::numeric_limits<double>::denorm_min();
  constexpr double kHuge = std::numeric_limits<double>::max();

  const RetryPolicy low = checked_retry_policy(0, 0, kTiny, 0);
  EXPECT_EQ(low.max_attempts, 0);
  EXPECT_EQ(low.base_delay, 0);
  EXPECT_EQ(low.backoff, kTiny);
  EXPECT_EQ(low.queue_capacity, 0u);
  EXPECT_FALSE(low.enabled());

  const RetryPolicy high =
      checked_retry_policy(kMaxInt, kMaxTime, kHuge, kMaxRetryQueue);
  EXPECT_EQ(high.max_attempts, kMaxInt);
  EXPECT_EQ(high.base_delay, kMaxTime);
  EXPECT_EQ(high.backoff, kHuge);
  EXPECT_EQ(high.queue_capacity, static_cast<std::size_t>(kMaxRetryQueue));
  EXPECT_TRUE(high.enabled());

  EXPECT_FALSE(checked_retry_policy(1, 8, 2.0, 64).enabled());
  EXPECT_FALSE(checked_retry_policy(2, 8, 2.0, 0).enabled());
  EXPECT_TRUE(checked_retry_policy(2, 8, 2.0, 1).enabled());
}

// One step outside any range — including values that would wrap in the
// narrower field type — throws std::invalid_argument naming that field's
// --retry-* flag.
TEST(RetryPolicyCheck, RejectsEachOutOfRangeFieldNamingItsFlag) {
  struct Case {
    std::string flag;
    std::int64_t max_attempts = 3;
    std::int64_t base_delay = 8;
    double backoff = 2.0;
    std::int64_t queue_capacity = 64;
  };
  constexpr std::int64_t kPastInt =
      std::int64_t{std::numeric_limits<int>::max()} + 1;
  constexpr std::int64_t kPastTime =
      std::int64_t{std::numeric_limits<Time>::max()} + 1;
  std::vector<Case> cases;
  for (const std::int64_t v : {std::int64_t{-1}, kPastInt,
                               std::int64_t{4294967297}}) {
    cases.push_back({"--retry-max"});
    cases.back().max_attempts = v;
  }
  for (const std::int64_t v : {std::int64_t{-1}, kPastTime}) {
    cases.push_back({"--retry-delay"});
    cases.back().base_delay = v;
  }
  for (const std::int64_t v : {std::int64_t{-1}, kMaxRetryQueue + 1}) {
    cases.push_back({"--retry-queue"});
    cases.back().queue_capacity = v;
  }
  for (const double v : {std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::infinity(),
                         -std::numeric_limits<double>::infinity(), 0.0, -0.0,
                         -2.0}) {
    cases.push_back({"--retry-backoff"});
    cases.back().backoff = v;
  }
  for (const Case& c : cases) {
    try {
      checked_retry_policy(c.max_attempts, c.base_delay, c.backoff,
                           c.queue_capacity);
      ADD_FAILURE() << c.flag << " accepted " << c.max_attempts << " "
                    << c.base_delay << " " << c.backoff << " "
                    << c.queue_capacity;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(c.flag), std::string::npos)
          << e.what();
    }
  }
}

TEST(LateArrival, ToleratedPathRejectsStructurallyInsteadOfThrowing) {
  const std::vector<ServerSpec> servers = {testing::basic_server(0)};
  std::unique_ptr<PlacementPolicy> policy = min_incremental_policy();
  Rng rng(7);
  EngineOptions options;
  options.tolerate_late_arrivals = true;
  PlacementEngine engine(servers, *policy, rng, options);
  EXPECT_NE(engine.submit(testing::vm(0, 10, 20)).server, kNoServer);
  engine.advance_to(30);
  const PlacementDecision late = engine.submit(testing::vm(1, 25, 40));
  EXPECT_EQ(late.server, kNoServer);
  EXPECT_EQ(late.reject, PlacementReject::kLateArrival);
  EXPECT_EQ(engine.fault_stats().late_arrivals, 1);
  EXPECT_EQ(engine.requests(), 2);
}

// --- O(1) active-VM counter -------------------------------------------------

TEST(ClusterStateCounter, ActiveCountMatchesScanThroughFaultsAndRetirement) {
  ClusterState cluster({testing::basic_server(0), testing::basic_server(1)},
                       /*initial_horizon=*/64);
  EXPECT_EQ(cluster.active_vms(), 0u);
  cluster.place(0, testing::vm(0, 1, 10));
  cluster.place(0, testing::vm(1, 5, 20));
  cluster.place(1, testing::vm(2, 1, 30));
  EXPECT_EQ(cluster.active_vms(), 3u);
  EXPECT_EQ(cluster.active_vms(), cluster.active_vms_scan());
  cluster.advance_to(15);  // retires vm0
  EXPECT_EQ(cluster.active_vms(), 2u);
  EXPECT_EQ(cluster.active_vms(), cluster.active_vms_scan());
  const std::vector<VmSpec> displaced = cluster.fail_server(0);
  EXPECT_EQ(displaced.size(), 1u);  // vm1
  EXPECT_EQ(cluster.active_vms(), 1u);
  EXPECT_EQ(cluster.active_vms(), cluster.active_vms_scan());
  cluster.advance_to(40);
  EXPECT_EQ(cluster.active_vms(), 0u);
  EXPECT_EQ(cluster.active_vms(), cluster.active_vms_scan());
}


// --- snapshot restore (ClusterState::export_servers / restore) --------------

std::vector<ServerSpec> restore_fleet() {
  return {testing::basic_server(0), testing::basic_server(1),
          testing::basic_server(2), testing::basic_server(3)};
}

// A cluster taken through placement, retirement, a failure with
// displacement, a drain and a fail/recover cycle, so its export holds every
// health state, retired-busy sentinels and un-collected window prefixes.
ClusterState lived_in_cluster() {
  ClusterState cluster(restore_fleet(), /*initial_horizon=*/0);
  cluster.ensure_horizon(120);
  cluster.place(0, testing::vm(0, 1, 12, 4.0, 3.0));
  cluster.place(0, testing::vm(1, 3, 60, 2.0, 2.0));
  cluster.place(1, testing::vm(2, 2, 80, 5.0, 5.0));
  cluster.place(2, testing::vm(3, 4, 90, 3.0, 1.0));
  cluster.place(3, testing::vm(4, 5, 20, 6.0, 6.0));
  cluster.advance_to(25);  // retires vm0 (server 0) and vm4 (server 3)
  EXPECT_EQ(cluster.fail_server(1).size(), 1u);  // displaces vm2
  cluster.drain_server(2);                       // vm3 keeps running
  cluster.fail_server(3);
  cluster.recover_server(3);
  cluster.place(3, testing::vm(5, 26, 70, 1.0, 4.0));
  return cluster;
}

// Everything a later decision reads agrees between two clusters: health,
// the exported occupancy, and — for probes of several sizes, starts and
// lengths — each server's fit verdict and the exact Eq. 17 price. Each
// cluster's own bookkeeping (active count, resident units, envelope rows)
// is also checked against a recount.
void expect_same_decisions(const ClusterState& a, const ClusterState& b,
                           const std::string& when) {
  ASSERT_EQ(a.num_servers(), b.num_servers()) << when;
  ASSERT_EQ(a.frontier(), b.frontier()) << when;
  EXPECT_EQ(a.active_vms(), b.active_vms()) << when;
  for (const ClusterState* c : {&a, &b}) {
    EXPECT_EQ(c->active_vms(), c->active_vms_scan()) << when;
    EXPECT_TRUE(c->envelopes().debug_validate(c->timelines())) << when;
    std::size_t units = 0;
    for (const ServerTimeline& t : c->timelines())
      units += static_cast<std::size_t>(t.resident_units());
    EXPECT_EQ(c->resident_time_units(), units) << when;
  }
  const std::vector<ServerStateSnapshot> sa = a.export_servers();
  const std::vector<ServerStateSnapshot> sb = b.export_servers();
  const Time t0 = a.frontier();
  for (std::size_t i = 0; i < a.num_servers(); ++i) {
    EXPECT_EQ(a.health(i), b.health(i)) << when << " server " << i;
    EXPECT_EQ(sa[i].retired_hi, sb[i].retired_hi) << when << " server " << i;
    ASSERT_EQ(sa[i].active.size(), sb[i].active.size())
        << when << " server " << i;
    for (std::size_t k = 0; k < sa[i].active.size(); ++k) {
      EXPECT_EQ(sa[i].active[k].id, sb[i].active[k].id) << when;
      EXPECT_EQ(sa[i].active[k].start, sb[i].active[k].start) << when;
      EXPECT_EQ(sa[i].active[k].end, sb[i].active[k].end) << when;
    }
    VmId id = 1000;
    for (const Time start : {t0, t0 + 3, t0 + 40})
      for (const Time length : {1, 10, 50})
        for (const double size : {1.0, 4.5, 9.0}) {
          const VmSpec probe =
              testing::vm(id++, start, start + length - 1, size, size);
          const bool fits = a.timelines()[i].can_fit(probe);
          ASSERT_EQ(fits, b.timelines()[i].can_fit(probe))
              << when << " server " << i << " probe " << probe.id;
          if (!a.placeable(i)) {
            EXPECT_FALSE(fits) << when << " server " << i;
          }
          if (!fits) continue;
          EXPECT_EQ(incremental_cost(a.timelines()[i], probe),
                    incremental_cost(b.timelines()[i], probe))
              << when << " server " << i << " probe " << probe.id;
        }
  }
}

// The first fitting server with the smallest Eq. 17 price (kNoServer when
// none fits), committed — the min-incremental rule over one cluster.
ServerId place_cheapest(ClusterState& cluster, const VmSpec& vm) {
  cluster.ensure_horizon(vm.end);
  ServerId best = kNoServer;
  Energy best_cost = 0.0;
  for (std::size_t i = 0; i < cluster.num_servers(); ++i) {
    if (!cluster.timelines()[i].can_fit(vm)) continue;
    const Energy cost = incremental_cost(cluster.timelines()[i], vm);
    if (best == kNoServer || cost < best_cost) {
      best = static_cast<ServerId>(i);
      best_cost = cost;
    }
  }
  if (best != kNoServer) cluster.place(static_cast<std::size_t>(best), vm);
  return best;
}

// restore() rebuilds from the export through the live cluster's own rebuild
// and stub paths, so the restored cluster prices and places every later VM
// exactly as the cluster it was exported from — through retirements, a
// recovery of the drained server and a horizon extension.
TEST(ClusterStateRestore, RestoredClusterDecidesLikeTheLiveOne) {
  ClusterState live = lived_in_cluster();
  ClusterState restored(restore_fleet(), /*initial_horizon=*/0);
  restored.restore(live.frontier(), live.horizon(), live.export_servers());
  EXPECT_EQ(restored.horizon(), live.horizon());
  EXPECT_EQ(restored.health(1), ServerHealth::kFailed);
  EXPECT_EQ(restored.health(2), ServerHealth::kDrained);
  expect_same_decisions(live, restored, "after restore");
  {
    // Retirement straight after restore, before any placement: both retire
    // vm1 (end 60) on the same tick.
    ClusterState live_next = live;
    ClusterState restored_next = restored;
    live_next.advance_to(61);
    restored_next.advance_to(61);
    EXPECT_EQ(restored_next.active_vms(), 2u);
    expect_same_decisions(live_next, restored_next,
                          "retiring straight after restore");
  }

  const std::vector<VmSpec> later = {
      testing::vm(10, 27, 40, 3.0, 3.0), testing::vm(11, 30, 95, 5.0, 2.0),
      testing::vm(12, 30, 31, 9.0, 9.0), testing::vm(13, 45, 300, 2.0, 6.0)};
  for (const VmSpec& vm : later) {
    live.advance_to(vm.start);
    restored.advance_to(vm.start);
    EXPECT_EQ(place_cheapest(live, vm), place_cheapest(restored, vm))
        << "vm " << vm.id;
  }
  expect_same_decisions(live, restored, "after later placements");
  for (ClusterState* c : {&live, &restored}) {
    c->advance_to(65);  // retires vm1 and others
    c->recover_server(2);
  }
  expect_same_decisions(live, restored, "after recovering the drained server");
  EXPECT_EQ(place_cheapest(live, testing::vm(14, 66, 400, 7.0, 7.0)),
            place_cheapest(restored, testing::vm(14, 66, 400, 7.0, 7.0)));
  expect_same_decisions(live, restored, "after a horizon extension");
}

// Restoring over a cluster with its own history discards all of it: the
// result matches a restore into a fresh cluster, bookkeeping included.
TEST(ClusterStateRestore, RestoreOverwritesEarlierState) {
  const ClusterState live = lived_in_cluster();
  const std::vector<ServerStateSnapshot> state = live.export_servers();
  ClusterState fresh(restore_fleet(), /*initial_horizon=*/0);
  fresh.restore(live.frontier(), live.horizon(), state);

  ClusterState reused(restore_fleet(), /*initial_horizon=*/0);
  reused.ensure_horizon(400);
  reused.place(0, testing::vm(50, 1, 300, 8.0, 8.0));
  reused.place(2, testing::vm(51, 2, 9, 1.0, 1.0));
  reused.place(3, testing::vm(52, 3, 200, 2.0, 2.0));
  reused.advance_to(10);
  reused.fail_server(3);
  reused.drain_server(0);
  reused.restore(live.frontier(), live.horizon(), state);
  EXPECT_EQ(reused.horizon(), fresh.horizon());
  expect_same_decisions(fresh, reused, "restored over earlier state");
  EXPECT_EQ(reused.health(0), ServerHealth::kUp);
  EXPECT_EQ(reused.health(3), ServerHealth::kUp);
}

// A snapshot that no live cluster could have produced is refused: a
// different fleet size, VMs on a failed server, or an active VM that is
// invalid or ends past the restored horizon.
TEST(ClusterStateRestore, RejectsStateALiveClusterCannotHold) {
  const ClusterState live = lived_in_cluster();
  const std::vector<ServerStateSnapshot> good = live.export_servers();
  const auto message = [&](const std::vector<ServerSpec>& fleet,
                           const std::vector<ServerStateSnapshot>& state) {
    ClusterState target(fleet, /*initial_horizon=*/0);
    try {
      target.restore(live.frontier(), live.horizon(), state);
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string("accepted");
  };
  EXPECT_EQ(message(restore_fleet(), good), "accepted");

  std::vector<ServerSpec> smaller = restore_fleet();
  smaller.pop_back();
  EXPECT_NE(message(smaller, good).find("covers 4 servers, fleet has 3"),
            std::string::npos);

  std::vector<ServerStateSnapshot> bad = good;
  ASSERT_EQ(bad[1].health, ServerHealth::kFailed);
  bad[1].active.push_back(testing::vm(60, 26, 40));
  EXPECT_NE(message(restore_fleet(), bad).find("failed server 1"),
            std::string::npos);

  bad = good;
  bad[0].active.push_back(testing::vm(61, 26, live.horizon() + 1));
  EXPECT_NE(message(restore_fleet(), bad).find("ends past the horizon"),
            std::string::npos);

  bad = good;
  bad[3].active.push_back(testing::vm(62, 40, 30));  // end before start
  EXPECT_NE(message(restore_fleet(), bad).find("active VM 62"),
            std::string::npos);
}

}  // namespace
}  // namespace esva
