// Differential harness for the candidate scan (core/candidate_scan.h +
// core/envelope_store.h). The untraced scan is one path: an EnvelopeStore
// sweep triages the fleet, then the strict-< arg-min runs serially or in
// contiguous chunks on a thread pool. The traced scan is the serial check_fit
// loop, which never reads the envelope store — so it is the reference.
//
// Four layers of evidence:
//   1. timeline-level fuzz: random place/undo interleavings on raw
//      ServerTimelines, classify() vs quick_fit() per server per probe, and
//      decided verdicts cross-checked against can_fit(); a ranged classify
//      writes exactly its own rows, and refresh(i) re-reads exactly row i;
//   2. lifecycle property fuzz: EnvelopeStore::debug_validate() after every
//      ClusterState transition (place, advance_to, ensure_horizon, fail,
//      drain, recover), eager-rebuild on and off; stubbed rows reject every
//      probe, and one server's transition leaves every other row and every
//      other shard's time-series slice untouched;
//   3. end-to-end identity: every scan allocator's untraced assignment and
//      energy equal the traced run's (and, for min-incremental, the
//      historical batch loop's) on stable and profiled workloads at 1, 2, 4
//      and 8 threads, on tiny fleets around the fan-out cutoffs and with
//      unplaceable VMs; decision by decision (server and delta bits); and
//      chaos replays with faults and retries match the traced replay in
//      every counter at any thread and shard count;
//   4. the arg-min primitive: ties, empty ranges, exceptions, thread counts,
//      each index evaluated once, random scores against the serial loop.
//
// ESVA_FUZZ_QUICK=1 (set by ctest in Debug CI; see tests/CMakeLists.txt)
// shrinks iteration counts so sanitizer jobs fit their time budget. The
// properties checked are identical in both modes.

#include "core/envelope_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "baselines/registry.h"
#include "cluster/catalog.h"
#include "cluster/timeline.h"
#include "core/allocation.h"
#include "core/candidate_scan.h"
#include "core/fault_plan.h"
#include "core/streaming.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "sim/replay.h"
#include "test_util.h"
#include "testsupport/historical_min_incremental.h"
#include "util/rng.h"
#include "workload/arrival_stream.h"
#include "workload/generator.h"

namespace esva {
namespace {

/// True when ESVA_FUZZ_QUICK is set to anything non-empty except "0" — the
/// Debug-CI and sanitizer budget (tests/CMakeLists.txt wires it through
/// ctest). The properties checked are identical; only iteration counts and
/// sweep widths shrink.
bool fuzz_quick() {
  const char* env = std::getenv("ESVA_FUZZ_QUICK");
  return env != nullptr && *env != '\0' && std::string(env) != "0";
}

/// Iteration budget: `full` normally, `quick` under ESVA_FUZZ_QUICK.
int fuzz_iters(int full, int quick) { return fuzz_quick() ? quick : full; }

constexpr int kNumVms = 220;
constexpr int kNumServers = 44;

const std::vector<std::string>& scan_allocators() {
  static const std::vector<std::string> kNames = {
      "min-incremental", "best-fit-cpu", "lowest-idle-power",
      "dot-product-fit"};
  return kNames;
}

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

ProblemInstance stable_instance(std::uint64_t seed) {
  Rng rng(seed);
  return make_problem(generate_workload(workload_config(), rng),
                      make_fleet(kNumServers));
}

ProblemInstance profiled_instance(std::uint64_t seed) {
  Rng rng(seed);
  return make_problem(
      generate_bursty_workload(workload_config(), /*phases=*/4,
                               /*valley_factor=*/0.45, rng),
      make_fleet(kNumServers));
}

/// A random valid probe VM, possibly reaching outside a timeline's window
/// (below an advanced base or past the horizon — the window comparisons are
/// part of the verdict) and possibly profiled (profiled probes disable the
/// floor-based quick-reject; classify must reproduce that exactly).
VmSpec random_probe(Rng& rng, Time horizon) {
  const Time start =
      static_cast<Time>(rng.uniform_int(1, static_cast<std::int64_t>(horizon)));
  const Time end = start + static_cast<Time>(rng.uniform_int(0, 40));
  VmSpec vm = testing::vm(/*id=*/9000, start, end,
                          rng.uniform_double(0.1, 6.0),
                          rng.uniform_double(0.1, 6.0));
  if (rng.bernoulli(0.3)) {
    std::vector<Resources> profile(static_cast<std::size_t>(vm.duration()));
    for (Resources& r : profile)
      r = {rng.uniform_double(0.1, 6.0), rng.uniform_double(0.1, 6.0)};
    vm.set_profile(std::move(profile));
  }
  return vm;
}

// --- layer 1: classify() is quick_fit(), bit for bit ------------------------

// Random place/undo interleavings on raw timelines with a manually refreshed
// store: every probe's classify() verdict equals quick_fit() per server, and
// every *decided* verdict is consistent with the exact can_fit() answer
// (kFits implies can_fit, kCannotFit implies !can_fit) — so the scan's
// segment-tree fallback only ever runs on genuinely undecided servers.
TEST(EnvelopeFuzz, ClassifyMatchesQuickFitUnderRandomInterleavings) {
  const int rounds = fuzz_iters(80, 10);
  const Time horizon = 160;
  Rng rng(20260807);
  for (int round = 0; round < rounds; ++round) {
    std::vector<ServerTimeline> timelines;
    const std::vector<ServerSpec> fleet = make_fleet(6);
    // Stagger window bases so probes exercise the start-below-base reject
    // (the rolling-GC shape) alongside the end-past-horizon one.
    Time base = 1;
    for (const ServerSpec& spec : fleet) {
      timelines.emplace_back(spec, base, horizon);
      base = (base == 1) ? 25 : 1;
    }
    EnvelopeStore store;
    store.reset(timelines);

    // LIFO undo stacks, one per server (the timeline contract).
    struct Placed {
      ServerTimeline::PlaceRecord record;
      VmSpec vm;
    };
    std::vector<std::vector<Placed>> placed(timelines.size());

    const int ops = fuzz_iters(200, 40);
    std::vector<std::uint8_t> verdicts(timelines.size());
    for (int op = 0; op < ops; ++op) {
      const std::size_t i = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(timelines.size()) - 1));
      if (rng.bernoulli(0.35) && !placed[i].empty()) {
        timelines[i].undo(placed[i].back().record, placed[i].back().vm);
        placed[i].pop_back();
        store.refresh(i, timelines[i]);
      } else {
        VmSpec candidate = random_probe(rng, horizon);
        if (candidate.start >= 1 && candidate.end <= horizon &&
            timelines[i].can_fit(candidate)) {
          placed[i].push_back({timelines[i].place(candidate), candidate});
          store.refresh(i, timelines[i]);
        }
      }
      ASSERT_TRUE(store.debug_validate(timelines)) << "round " << round;

      // Probe the whole fleet with a handful of random VMs.
      for (int probe = 0; probe < 4; ++probe) {
        const VmSpec vm = random_probe(rng, horizon);
        store.classify(EnvelopeStore::probe_of(vm), verdicts.data());
        for (std::size_t s = 0; s < timelines.size(); ++s) {
          const QuickFit expected = timelines[s].quick_fit(vm);
          ASSERT_EQ(static_cast<QuickFit>(verdicts[s]), expected)
              << "round " << round << " op " << op << " server " << s
              << " vm [" << vm.start << "," << vm.end << "] cpu "
              << vm.demand.cpu << " mem " << vm.demand.mem
              << (vm.has_profile() ? " (profiled)" : "");
          if (expected == QuickFit::kFits) {
            ASSERT_TRUE(timelines[s].can_fit(vm)) << "server " << s;
          }
          if (expected == QuickFit::kCannotFit) {
            ASSERT_FALSE(timelines[s].can_fit(vm)) << "server " << s;
          }
        }
      }
    }
  }
}

// probe_of must mirror the quick_fit inputs exactly: peak demand, inclusive
// window, and the has-profile flag that gates the floor-based reject.
TEST(EnvelopeStoreTest, ProbeOfCarriesPeakDemandWindowAndProfileFlag) {
  VmSpec stable = testing::vm(1, 5, 9, 2.5, 1.25);
  const EnvelopeStore::Probe p = EnvelopeStore::probe_of(stable);
  EXPECT_EQ(p.cpu, 2.5);
  EXPECT_EQ(p.mem, 1.25);
  EXPECT_EQ(p.start, 5);
  EXPECT_EQ(p.end, 9);
  EXPECT_FALSE(p.profiled);

  VmSpec profiled = testing::vm(2, 5, 7, 1.0, 1.0);
  profiled.set_profile({{1.0, 0.5}, {3.0, 1.0}, {2.0, 2.0}});
  const EnvelopeStore::Probe q = EnvelopeStore::probe_of(profiled);
  EXPECT_EQ(q.cpu, 3.0);  // set_profile lifts demand to the peak
  EXPECT_EQ(q.mem, 2.0);
  EXPECT_TRUE(q.profiled);
}

// classify(probe, lo, hi) is the full sweep restricted to rows [lo, hi): it
// writes exactly those verdicts and leaves every other byte untouched.
TEST(EnvelopeStoreTest, BlockClassifyMatchesFullSweepAndWritesOnlyItsRange) {
  const std::vector<ServerSpec> fleet = make_fleet(kNumServers);
  std::vector<ServerTimeline> timelines;
  for (const ServerSpec& spec : fleet) timelines.emplace_back(spec, 120);
  Rng rng(42);
  for (int k = 0; k < 40; ++k) {
    const std::size_t i = rng.index(timelines.size());
    const Time start = static_cast<Time>(rng.uniform_int(1, 80));
    const VmSpec vm = testing::vm(
        100 + k, start, start + static_cast<Time>(rng.uniform_int(1, 30)),
        rng.uniform_double(0.1, 4.0), rng.uniform_double(0.1, 4.0));
    if (timelines[i].can_fit(vm)) timelines[i].place(vm);
  }
  EnvelopeStore store;
  store.reset(timelines);

  const EnvelopeStore::Probe probe =
      EnvelopeStore::probe_of(testing::vm(9000, 30, 55, 2.0, 2.0));
  std::vector<std::uint8_t> full(timelines.size());
  store.classify(probe, full.data());

  constexpr std::uint8_t kSentinel = 0xCD;
  const std::vector<std::size_t> cuts = {0, 1, 9, 10, 27, kNumServers};
  std::vector<std::uint8_t> blocked(timelines.size(), kSentinel);
  for (std::size_t c = 0; c + 1 < cuts.size(); ++c) {
    const std::size_t lo = cuts[c];
    const std::size_t hi = cuts[c + 1];
    std::vector<std::uint8_t> scratch(timelines.size(), kSentinel);
    store.classify(probe, lo, hi, scratch.data());
    for (std::size_t r = 0; r < timelines.size(); ++r) {
      if (r >= lo && r < hi) {
        EXPECT_EQ(scratch[r], full[r]) << "block " << c << " row " << r;
        blocked[r] = scratch[r];
      } else {
        EXPECT_EQ(scratch[r], kSentinel) << "block " << c << " row " << r;
      }
    }
  }
  EXPECT_EQ(blocked, full);  // the blocks tile the fleet exactly
}

// reset() mirrors timelines[i] into row i, and refresh(i) re-reads exactly
// row i: after a mutation behind the store's back, refreshing a neighbouring
// row does not restore coherence, refreshing the mutated one does, and every
// row then classifies as its own timeline's quick_fit.
TEST(EnvelopeStoreTest, ResetMirrorsTimelinesPerRow) {
  const std::vector<ServerSpec> fleet = make_fleet(12);
  std::vector<ServerTimeline> timelines;
  for (const ServerSpec& spec : fleet) timelines.emplace_back(spec, 80);
  timelines[3].place(testing::vm(1, 5, 20, 2.0, 2.0));
  timelines[9].place(testing::vm(2, 10, 40, 1.0, 3.0));

  EnvelopeStore store;
  store.reset(timelines);
  ASSERT_EQ(store.size(), timelines.size());
  ASSERT_TRUE(store.debug_validate(timelines));

  const std::vector<VmSpec> probes = {testing::vm(9000, 8, 30, 7.5, 1.0),
                                      testing::vm(9001, 12, 35, 3.0, 22.5),
                                      testing::vm(9002, 1, 80, 0.5, 0.5)};
  const auto expect_rows_match = [&](const char* when) {
    std::vector<std::uint8_t> verdicts(timelines.size());
    for (const VmSpec& probe : probes) {
      store.classify(EnvelopeStore::probe_of(probe), verdicts.data());
      for (std::size_t r = 0; r < timelines.size(); ++r)
        EXPECT_EQ(static_cast<QuickFit>(verdicts[r]),
                  timelines[r].quick_fit(probe))
            << when << " probe " << probe.id << " row " << r;
    }
  };
  expect_rows_match("reset");

  timelines[9].place(testing::vm(3, 15, 25, 0.5, 0.5));  // no refresh
  EXPECT_FALSE(store.debug_validate(timelines));
  store.refresh(8, timelines[8]);
  EXPECT_FALSE(store.debug_validate(timelines));
  store.refresh(9, timelines[9]);
  EXPECT_TRUE(store.debug_validate(timelines));
  expect_rows_match("refresh");
}

// --- layer 2: envelope/timeline coherence across the lifecycle --------------

// debug_validate after *every* ClusterState transition, with the GC
// amortization both default and eager (eager forces a rebuild — and thus a
// refresh — on every advance tick, the worst case for staleness bugs).
TEST(EnvelopeCoherence, DebugValidateSurvivesRandomLifecycle) {
  const int rounds = fuzz_iters(25, 4);
  for (const bool eager : {false, true}) {
    Rng rng(eager ? 404u : 303u);
    for (int round = 0; round < rounds; ++round) {
      ClusterState cluster(make_fleet(8), /*initial_horizon=*/0);
      cluster.set_eager_rebuild(eager);
      const auto validate = [&](const char* when) {
        ASSERT_TRUE(cluster.envelopes().debug_validate(cluster.timelines()))
            << when << " round " << round << (eager ? " (eager)" : "");
      };
      validate("ctor");

      Time frontier = 1;
      const int ops = fuzz_iters(150, 30);
      for (int op = 0; op < ops; ++op) {
        const std::size_t i = static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(cluster.num_servers()) - 1));
        switch (rng.uniform_int(0, 5)) {
          case 0: {  // grow the window
            cluster.ensure_horizon(frontier +
                                   static_cast<Time>(rng.uniform_int(1, 300)));
            validate("ensure_horizon");
            break;
          }
          case 1: {  // place a random feasible VM on server i
            if (!cluster.placeable(i)) break;
            VmSpec vm = random_probe(rng, frontier + 60);
            if (vm.start < frontier || vm.end < vm.start) break;
            cluster.ensure_horizon(vm.end);
            validate("ensure_horizon(place)");
            if (cluster.timelines()[i].can_fit(vm)) {
              cluster.place(i, vm);
              validate("place");
            }
            break;
          }
          case 2: {  // advance the frontier (retire + amortized rebuild)
            frontier += static_cast<Time>(rng.uniform_int(1, 40));
            cluster.ensure_horizon(frontier);
            cluster.advance_to(frontier);
            validate("advance_to");
            break;
          }
          case 3: {
            cluster.fail_server(i);  // displaced VMs dropped: store-level test
            validate("fail_server");
            break;
          }
          case 4: {
            if (cluster.health(i) == ServerHealth::kUp) cluster.drain_server(i);
            validate("drain_server");
            break;
          }
          case 5: {
            cluster.recover_server(i);
            validate("recover_server");
            break;
          }
        }
      }
    }
  }
}

// debug_validate must actually discriminate: a stale row (timeline mutated
// behind the store's back) is detected.
TEST(EnvelopeCoherence, DebugValidateDetectsStaleRows) {
  std::vector<ServerTimeline> timelines;
  timelines.emplace_back(testing::basic_server(0), /*horizon=*/50);
  EnvelopeStore store;
  store.reset(timelines);
  ASSERT_TRUE(store.debug_validate(timelines));
  timelines[0].place(testing::vm(1, 5, 10, 2.0, 2.0));  // no refresh
  EXPECT_FALSE(store.debug_validate(timelines));
  store.refresh(0, timelines[0]);
  EXPECT_TRUE(store.debug_validate(timelines));
  // Fleet-size mismatch is a validation failure, not UB.
  timelines.emplace_back(testing::basic_server(1), /*horizon=*/50);
  EXPECT_FALSE(store.debug_validate(timelines));
}

// A failed or drained server's timeline is an empty-window stub: its row
// rejects every probe — stable or profiled, any size — exactly as quick_fit
// and can_fit do, so the scan never prices it. Recovery makes it accept
// again.
TEST(EnvelopeStoreTest, StubbedRowsRejectEveryProbe) {
  constexpr Time kHorizon = 200;
  ClusterState cluster(make_fleet(6), kHorizon);
  cluster.place(1, testing::vm(1, 1, 50, 1.0, 1.0));
  EXPECT_EQ(cluster.fail_server(1).size(), 1u);
  cluster.drain_server(4);
  const std::vector<std::size_t> stubs = {1, 4};

  Rng rng(77);
  std::vector<std::uint8_t> verdicts(cluster.num_servers());
  for (int k = 0; k < 200; ++k) {
    const VmSpec vm = random_probe(rng, kHorizon);
    cluster.envelopes().classify(EnvelopeStore::probe_of(vm),
                                 verdicts.data());
    for (std::size_t s = 0; s < cluster.num_servers(); ++s)
      ASSERT_EQ(static_cast<QuickFit>(verdicts[s]),
                cluster.timelines()[s].quick_fit(vm))
          << "probe " << k << " server " << s;
    for (const std::size_t s : stubs) {
      ASSERT_EQ(static_cast<QuickFit>(verdicts[s]), QuickFit::kCannotFit)
          << "probe " << k << " server " << s;
      ASSERT_FALSE(cluster.timelines()[s].can_fit(vm)) << "server " << s;
    }
  }

  for (const std::size_t s : stubs) cluster.recover_server(s);
  ASSERT_TRUE(cluster.envelopes().debug_validate(cluster.timelines()));
  const VmSpec small = testing::vm(2, 10, 20, 0.5, 0.5);
  cluster.envelopes().classify(EnvelopeStore::probe_of(small),
                               verdicts.data());
  for (const std::size_t s : stubs) {
    EXPECT_EQ(static_cast<QuickFit>(verdicts[s]), QuickFit::kFits) << s;
    EXPECT_TRUE(cluster.timelines()[s].can_fit(small)) << s;
  }
}

// A place, fault, recovery or drain on one server is local to it: every
// other envelope row keeps classifying exactly as before, and every other
// shard's time-series slice is unchanged. ensure_horizon is the exception
// (it rebuilds every placeable timeline), so the horizon is grown once up
// front.
TEST(ShardIsolation, FaultInOneShardLeavesOtherShardsUntouched) {
  constexpr std::size_t kServers = 16;
  constexpr std::size_t kShards = 4;
  constexpr Time kSampleAt = 10;
  ClusterState cluster(make_fleet(static_cast<int>(kServers)),
                       /*initial_horizon=*/0,
                       ShardOptions{static_cast<int>(kShards)});
  cluster.ensure_horizon(300);  // pre-grow: no horizon growth below
  // Background load on every server, so each slice carries power and the
  // probe battery meets all three verdicts.
  for (std::size_t i = 0; i < kServers; ++i)
    cluster.place(i, testing::vm(static_cast<VmId>(100 + i), 1, 250,
                                 0.5 + 0.25 * static_cast<double>(i % 3),
                                 0.5));
  const std::size_t victim = 5;  // block [4, 8)
  const std::size_t victim_shard = victim * kShards / kServers;
  ASSERT_EQ(victim_shard, 1u);

  Rng rng(8);
  std::vector<VmSpec> probes;
  for (int k = 0; k < 24; ++k) probes.push_back(random_probe(rng, 300));
  using Verdicts = std::vector<std::vector<std::uint8_t>>;
  const auto classify_all = [&] {
    Verdicts out(probes.size(), std::vector<std::uint8_t>(kServers));
    for (std::size_t p = 0; p < probes.size(); ++p)
      cluster.envelopes().classify(EnvelopeStore::probe_of(probes[p]),
                                   out[p].data());
    return out;
  };
  const auto expect_local = [&](const Verdicts& rows_before,
                                const FleetSample& before, const char* when) {
    const Verdicts rows_after = classify_all();
    for (std::size_t p = 0; p < probes.size(); ++p) {
      for (std::size_t r = 0; r < kServers; ++r) {
        if (r == victim) continue;
        EXPECT_EQ(rows_after[p][r], rows_before[p][r])
            << when << " probe " << p << " row " << r;
      }
    }
    const FleetSample after = cluster.sample(kSampleAt);
    ASSERT_EQ(after.shards.size(), kShards) << when;
    for (std::size_t s = 0; s < kShards; ++s) {
      if (s == victim_shard) continue;
      EXPECT_EQ(after.shards[s].active_vms, before.shards[s].active_vms)
          << when << " shard " << s;
      EXPECT_EQ(after.shards[s].busy_servers, before.shards[s].busy_servers)
          << when << " shard " << s;
      EXPECT_EQ(after.shards[s].idle_servers, before.shards[s].idle_servers)
          << when << " shard " << s;
      EXPECT_EQ(after.shards[s].power_w, before.shards[s].power_w)
          << when << " shard " << s;
    }
    ASSERT_TRUE(cluster.envelopes().debug_validate(cluster.timelines()))
        << when;
  };

  // place: the victim's shard gains the VM; nothing else moves.
  Verdicts rows = classify_all();
  FleetSample sample = cluster.sample(kSampleAt);
  const VmSpec vm = testing::vm(1, 5, 30, 1.0, 1.0);
  ASSERT_TRUE(cluster.timelines()[victim].can_fit(vm));
  cluster.place(victim, vm);
  expect_local(rows, sample, "place");
  EXPECT_EQ(cluster.sample(kSampleAt).shards[victim_shard].active_vms,
            sample.shards[victim_shard].active_vms + 1);

  // fail: displaces both VMs and stubs the timeline — still local.
  rows = classify_all();
  sample = cluster.sample(kSampleAt);
  EXPECT_EQ(cluster.fail_server(victim).size(), 2u);
  expect_local(rows, sample, "fail_server");
  const Verdicts failed_rows = classify_all();
  for (std::size_t p = 0; p < probes.size(); ++p)
    EXPECT_EQ(static_cast<QuickFit>(failed_rows[p][victim]),
              QuickFit::kCannotFit)
        << "probe " << p;

  // recover: rebuilds the one timeline — still local.
  rows = classify_all();
  sample = cluster.sample(kSampleAt);
  cluster.recover_server(victim);
  expect_local(rows, sample, "recover_server");

  // drain: stubs without displacement — still local.
  rows = classify_all();
  sample = cluster.sample(kSampleAt);
  cluster.drain_server(victim);
  expect_local(rows, sample, "drain_server");
}

// --- layer 3: end-to-end byte identity, untraced vs traced ----------------

/// One allocate() run. With `trace` bound the scan is the serial check_fit
/// loop (no envelope store, no pool); without it, the envelope-triaged scan
/// at `threads`.
Allocation run_alloc(const std::string& name, const ProblemInstance& problem,
                     int threads, MemoryTraceSink* trace = nullptr,
                     MetricsRegistry* metrics = nullptr) {
  AllocatorPtr allocator = make_allocator(name);
  ScanConfig scan;
  scan.threads = threads;
  allocator->set_scan_config(scan);
  ObsContext obs;
  obs.trace = trace;
  obs.metrics = metrics;
  allocator->set_observability(obs);
  Rng rng(7);
  return allocator->allocate(problem, rng);
}

/// The reference: the traced run, checked to have actually taken the traced
/// path (one decision record per VM, each naming the assigned server).
Allocation traced_alloc(const std::string& name,
                        const ProblemInstance& problem) {
  MemoryTraceSink sink;
  Allocation alloc = run_alloc(name, problem, /*threads=*/1, &sink);
  const std::vector<VmDecisionTrace> decisions = sink.decisions();
  EXPECT_EQ(decisions.size(), problem.num_vms()) << name;
  std::map<VmId, ServerId> chosen;
  for (const VmDecisionTrace& d : decisions) {
    EXPECT_EQ(d.candidates.size(), problem.num_servers()) << name;
    chosen[d.vm] = d.chosen;
  }
  for (std::size_t j = 0; j < problem.num_vms(); ++j)
    EXPECT_EQ(chosen.at(problem.vms[j].id), alloc.assignment[j])
        << name << " vm " << problem.vms[j].id;
  return alloc;
}

TEST(ScanIdentity, UntracedMatchesTracedAcrossThreadsAndWorkloads) {
  const int seeds = fuzz_iters(2, 1);
  for (int s = 0; s < seeds; ++s) {
    const std::uint64_t seed = 11u + 18u * static_cast<std::uint64_t>(s);
    for (const bool profiled : {false, true}) {
      const ProblemInstance problem =
          profiled ? profiled_instance(seed) : stable_instance(seed);
      for (const std::string& name : scan_allocators()) {
        const Allocation reference = traced_alloc(name, problem);
        if (name == "min-incremental") {
          ASSERT_EQ(testsupport::historical_min_incremental(problem).assignment,
                    reference.assignment)
              << "seed=" << seed << (profiled ? " (profiled)" : " (stable)");
        }
        const Energy reference_energy =
            evaluate_cost(problem, reference).total();
        for (const int threads : {1, 2, 4, 8}) {
          const Allocation untraced = run_alloc(name, problem, threads);
          ASSERT_EQ(reference.assignment, untraced.assignment)
              << name << " threads=" << threads << " seed=" << seed
              << (profiled ? " (profiled)" : " (stable)");
          // Same double bits in, same bits out: energies match exactly.
          EXPECT_EQ(reference_energy, evaluate_cost(problem, untraced).total())
              << name << " threads=" << threads;
        }
      }
    }
  }
}

TEST(ScanIdentity, HardwareConcurrencyThreadsMatchTraced) {
  const ProblemInstance problem = stable_instance(3);
  for (const std::string& name : scan_allocators()) {
    EXPECT_EQ(traced_alloc(name, problem).assignment,
              run_alloc(name, problem, /*threads=*/0).assignment)
        << name;
  }
}

// Probe accounting: the envelope verdicts and the chunked reduction count
// exactly the feasible/rejected candidates the traced check_fit loop counts.
TEST(ScanIdentity, ProbeCountersMatchTracedAcrossThreadCounts) {
  const ProblemInstance problem = stable_instance(19);
  const auto counters = [&](int threads, bool traced) {
    MemoryTraceSink sink;
    MetricsRegistry metrics;
    (void)run_alloc("min-incremental", problem, threads,
                    traced ? &sink : nullptr, &metrics);
    std::vector<std::int64_t> out;
    for (const char* counter :
         {"allocator.min-incremental.feasible_candidates",
          "allocator.min-incremental.rejections",
          "allocator.min-incremental.unallocated"})
      out.push_back(metrics.counter(counter).value());
    return out;
  };
  const std::vector<std::int64_t> reference = counters(1, /*traced=*/true);
  EXPECT_GT(reference[0], 0);
  EXPECT_GT(reference[1], 0);
  for (const int threads : {1, 4}) {
    EXPECT_EQ(counters(threads, /*traced=*/false), reference) << threads;
  }
}

// VMs no server can host (oversized in one dimension) leave the untraced
// scan with no candidate at every thread count — every row quick-rejects —
// exactly where the traced loop finds none, and the unallocated counters
// agree.
TEST(ScanIdentity, UnplaceableVmsMatchTraced) {
  ProblemInstance problem = stable_instance(5);
  std::size_t oversized = 0;
  for (std::size_t j = 0; j < problem.num_vms(); j += 9, ++oversized) {
    if (oversized % 2 == 0) {
      problem.vms[j].demand.cpu = 1000.0;
    } else {
      problem.vms[j].demand.mem = 1000.0;
    }
  }
  const auto unallocated = [&](const std::string& name, int threads,
                               MemoryTraceSink* trace, Allocation& alloc) {
    MetricsRegistry metrics;
    alloc = run_alloc(name, problem, threads, trace, &metrics);
    return metrics.counter("allocator." + name + ".unallocated").value();
  };
  for (const std::string& name : scan_allocators()) {
    MemoryTraceSink sink;
    Allocation reference;
    const std::int64_t reference_unallocated =
        unallocated(name, 1, &sink, reference);
    EXPECT_GE(reference_unallocated, static_cast<std::int64_t>(oversized))
        << name;
    for (std::size_t j = 0; j < problem.num_vms(); j += 9)
      EXPECT_EQ(reference.assignment[j], kNoServer) << name << " vm " << j;
    for (const int threads : {1, 2, 4, 8}) {
      Allocation run;
      EXPECT_EQ(unallocated(name, threads, nullptr, run),
                reference_unallocated)
          << name << " threads=" << threads;
      EXPECT_EQ(run.assignment, reference.assignment)
          << name << " threads=" << threads;
    }
  }
}

// Fleets around the fan-out cutoffs — one server (no pool is built) and
// 7/8/9 servers (scan_candidates' serial threshold) — match the traced run
// at every thread count, including more threads than servers.
TEST(ScanIdentity, TinyFleetsMatchTracedAroundTheSerialCutoff) {
  for (const int servers : {1, 2, 7, 8, 9}) {
    WorkloadConfig config = workload_config();
    config.num_vms = 60;
    Rng rng(23u + static_cast<std::uint64_t>(servers));
    const ProblemInstance problem =
        make_problem(generate_workload(config, rng), make_fleet(servers));
    for (const std::string& name : scan_allocators()) {
      const Allocation reference = traced_alloc(name, problem);
      for (const int threads : {1, 2, 4, 8, 16}) {
        EXPECT_EQ(run_alloc(name, problem, threads).assignment,
                  reference.assignment)
            << name << " servers=" << servers << " threads=" << threads;
      }
    }
  }
}

// Decision by decision, not just the final assignment: the untraced
// min-incremental policy and the traced one, driven over the same cluster,
// pick the same server for every request with the same Eq. 17 delta bits.
TEST(ScanPolicyTest, UntracedDecisionsMatchTracedStepByStep) {
  const ProblemInstance problem = profiled_instance(29);
  std::vector<VmSpec> order = problem.vms;
  std::stable_sort(order.begin(), order.end(),
                   [](const VmSpec& a, const VmSpec& b) {
                     return a.start < b.start;
                   });
  for (const int threads : {1, 4}) {
    MemoryTraceSink sink;
    AllocatorPtr traced_allocator = make_allocator("min-incremental");
    ObsContext obs;
    obs.trace = &sink;
    traced_allocator->set_observability(obs);
    AllocatorPtr untraced_allocator = make_allocator("min-incremental");
    ScanConfig scan;
    scan.threads = threads;
    untraced_allocator->set_scan_config(scan);
    const std::unique_ptr<PlacementPolicy> traced =
        traced_allocator->make_policy();
    const std::unique_ptr<PlacementPolicy> untraced =
        untraced_allocator->make_policy();
    ASSERT_NE(traced, nullptr);
    ASSERT_NE(untraced, nullptr);

    ClusterState cluster(problem.servers, /*initial_horizon=*/0);
    Rng rng(7);
    traced->begin(cluster, rng);
    untraced->begin(cluster, rng);
    std::size_t placed = 0;
    for (const VmSpec& vm : order) {
      cluster.ensure_horizon(vm.end);
      const PlacementDecision expected = traced->place_one(cluster, vm, rng);
      const PlacementDecision actual = untraced->place_one(cluster, vm, rng);
      ASSERT_EQ(actual.server, expected.server)
          << "vm " << vm.id << " threads=" << threads;
      ASSERT_EQ(actual.has_delta, expected.has_delta) << "vm " << vm.id;
      EXPECT_EQ(actual.delta, expected.delta) << "vm " << vm.id;
      if (expected.server == kNoServer) continue;
      cluster.place(static_cast<std::size_t>(expected.server), vm);
      ++placed;
    }
    EXPECT_EQ(sink.size(), order.size());
    EXPECT_GT(placed, 0u);
  }
}

/// A fleet small enough that requests queue for retries, and a fault plan
/// with four failures inside the arrival window.
ProblemInstance chaos_problem() {
  Rng rng(31);
  return make_problem(generate_workload(workload_config(), rng),
                      make_fleet(10));
}

FaultPlan chaos_plan(std::size_t num_servers) {
  ChaosConfig chaos;
  chaos.num_servers = num_servers;
  chaos.failures = 4;
  chaos.window_lo = 5;
  chaos.window_hi = 200;
  chaos.mean_repair = 40;
  Rng plan_rng(101);
  return random_fault_plan(chaos, plan_rng);
}

ReplayReport replay_chaos(const std::string& name,
                          const ProblemInstance& problem,
                          const FaultPlan& plan, int threads,
                          MemoryTraceSink* trace, int shards = 1,
                          TimeSeriesSampler* sampler = nullptr) {
  AllocatorPtr allocator = make_allocator(name);
  ScanConfig scan;
  scan.threads = threads;
  allocator->set_scan_config(scan);
  ObsContext obs;
  obs.trace = trace;
  allocator->set_observability(obs);
  std::unique_ptr<PlacementPolicy> policy = allocator->make_policy();
  EXPECT_NE(policy, nullptr) << name;
  Rng rng(7);
  VectorArrivalStream arrivals(problem.vms);
  ReplayOptions options;
  options.faults = &plan;
  options.retry.max_attempts = 3;
  options.shard = ShardOptions{shards};
  options.timeseries = sampler;
  return replay_stream(arrivals, problem.servers, *policy, rng, options);
}

/// Assignments, energy and every fault counter of two replays agree.
void expect_same_replay(const ReplayReport& reference, const ReplayReport& run,
                        const std::string& label) {
  ASSERT_EQ(reference.assignment, run.assignment) << label;
  EXPECT_EQ(reference.total_energy, run.total_energy) << label;
  EXPECT_EQ(reference.placed, run.placed) << label;
  EXPECT_EQ(reference.rejected, run.rejected) << label;
  EXPECT_EQ(reference.faults.displaced, run.faults.displaced) << label;
  EXPECT_EQ(reference.faults.evacuated, run.faults.evacuated) << label;
  EXPECT_EQ(reference.faults.retries, run.faults.retries) << label;
  EXPECT_EQ(reference.faults.rejected_final, run.faults.rejected_final)
      << label;
  EXPECT_EQ(reference.faults.downtime_units, run.faults.downtime_units)
      << label;
}

// Chaos stream: failures stub timelines, recoveries rebuild them, retries and
// evacuations interleave extra scans — the envelope rows must track every
// transition, so the untraced replay matches the traced one in assignments,
// energy and every fault counter.
TEST(ScanIdentity, ChaosReplayMatchesTracedAcrossThreads) {
  const ProblemInstance problem = chaos_problem();
  const FaultPlan plan = chaos_plan(problem.num_servers());
  for (const std::string& name :
       {std::string("min-incremental"), std::string("lowest-idle-power")}) {
    MemoryTraceSink sink;
    const ReplayReport reference = replay_chaos(name, problem, plan, 1, &sink);
    EXPECT_GT(sink.size(), problem.num_vms()) << name << ": retries traced";
    EXPECT_GT(reference.faults.fault_events, 0) << name;
    EXPECT_GT(reference.faults.retries, 0) << name;
    for (const int threads : {1, 2, 4, 8}) {
      expect_same_replay(reference,
                         replay_chaos(name, problem, plan, threads, nullptr),
                         name + " threads=" + std::to_string(threads));
    }
  }
}

// Shards only slice the time series: a chaos replay at any shard count —
// including more shards than servers, which clamps — and any thread count
// matches the unsharded traced replay in assignments, energy and every
// fault counter.
TEST(ShardedDifferential, ChaosReplayByteIdentical) {
  const ProblemInstance problem = chaos_problem();
  const FaultPlan plan = chaos_plan(problem.num_servers());
  for (const std::string& name :
       {std::string("min-incremental"), std::string("best-fit-cpu")}) {
    MemoryTraceSink sink;
    const ReplayReport reference = replay_chaos(name, problem, plan, 1, &sink);
    EXPECT_GT(reference.faults.retries, 0) << name;
    for (const int shards : {2, 3, 7, 64}) {
      for (const int threads : {1, 4}) {
        expect_same_replay(
            reference,
            replay_chaos(name, problem, plan, threads, nullptr, shards),
            name + " shards=" + std::to_string(shards) +
                " threads=" + std::to_string(threads));
      }
    }
  }
}

// Under faults, the sampled fleet-wide fields are the same at any shard
// count, and each multi-shard sample's slices sum back to them.
TEST(ShardedDifferential, ChaosSamplesSliceFleetTotals) {
  const ProblemInstance problem = chaos_problem();
  const FaultPlan plan = chaos_plan(problem.num_servers());
  const auto sampled = [&](int shards) {
    TimeSeriesSampler sampler(TimeSeriesOptions{/*every=*/1, /*capacity=*/0});
    (void)replay_chaos("min-incremental", problem, plan, /*threads=*/1,
                       nullptr, shards, &sampler);
    return sampler.samples();
  };
  const std::vector<FleetSample> flat = sampled(1);
  ASSERT_FALSE(flat.empty());
  bool saw_failed = false;
  for (const FleetSample& s : flat) {
    EXPECT_TRUE(s.shards.empty()) << "t=" << s.t;
    saw_failed = saw_failed || s.failed_servers > 0;
  }
  EXPECT_TRUE(saw_failed);

  for (const int shards : {3, 4}) {
    const std::vector<FleetSample> sliced = sampled(shards);
    ASSERT_EQ(sliced.size(), flat.size()) << shards;
    for (std::size_t k = 0; k < sliced.size(); ++k) {
      const FleetSample& s = sliced[k];
      const FleetSample& f = flat[k];
      EXPECT_EQ(s.t, f.t) << k;
      EXPECT_EQ(s.active_vms, f.active_vms) << k;
      EXPECT_EQ(s.busy_servers, f.busy_servers) << k;
      EXPECT_EQ(s.idle_servers, f.idle_servers) << k;
      EXPECT_EQ(s.drained_servers, f.drained_servers) << k;
      EXPECT_EQ(s.failed_servers, f.failed_servers) << k;
      EXPECT_EQ(s.total_power_w, f.total_power_w) << k;
      EXPECT_EQ(s.requests, f.requests) << k;
      EXPECT_EQ(s.total_energy, f.total_energy) << k;

      ASSERT_EQ(s.shards.size(), static_cast<std::size_t>(shards)) << k;
      std::uint32_t active = 0, busy = 0, idle = 0;
      double power = 0.0;
      for (const ShardLoad& shard : s.shards) {
        active += shard.active_vms;
        busy += shard.busy_servers;
        idle += shard.idle_servers;
        power += shard.power_w;
      }
      EXPECT_EQ(active, s.active_vms) << "shards=" << shards << " k=" << k;
      EXPECT_EQ(busy, s.busy_servers) << "shards=" << shards << " k=" << k;
      EXPECT_EQ(idle, s.idle_servers) << "shards=" << shards << " k=" << k;
      EXPECT_NEAR(power, s.total_power_w, 1e-9 * std::max(1.0, power))
          << "shards=" << shards << " k=" << k;
    }
  }
}

// --- layer 4: the arg-min primitive ------------------------------------------

TEST(ScanCandidates, EmptyAndTinyRangesStaySerial) {
  ThreadPool pool(3);
  const auto nothing = [](std::size_t) -> std::optional<double> {
    return std::nullopt;
  };
  ScanOutcome empty = scan_candidates(0, nothing, &pool);
  EXPECT_EQ(empty.best, kNoCandidate);
  EXPECT_EQ(empty.feasible, 0);
  EXPECT_EQ(empty.rejected, 0);

  const auto identity = [](std::size_t i) -> std::optional<double> {
    return static_cast<double>(i);
  };
  ScanOutcome tiny = scan_candidates(3, identity, &pool);
  EXPECT_EQ(tiny.best, 0u);
  EXPECT_EQ(tiny.feasible, 3);
}

TEST(ScanCandidates, TiesBreakToLowestIndexAtAnyThreadCount) {
  // Scores: all equal except a strict minimum duplicated at 18 and 90 —
  // the serial rule (strict <) keeps index 18 everywhere.
  const auto eval = [](std::size_t i) -> std::optional<double> {
    if (i % 7 == 3) return std::nullopt;  // sprinkle infeasibles
    return (i == 18 || i == 90) ? 1.0 : 2.0;
  };
  const ScanOutcome serial = scan_range(std::size_t{0}, std::size_t{100}, eval);
  EXPECT_EQ(serial.best, 18u);
  for (const std::size_t workers : {1u, 2u, 3u, 7u}) {
    ThreadPool pool(workers);
    const ScanOutcome parallel = scan_candidates(100, eval, &pool);
    EXPECT_EQ(parallel.best, serial.best) << workers;
    EXPECT_EQ(parallel.best_score, serial.best_score);
    EXPECT_EQ(parallel.feasible, serial.feasible);
    EXPECT_EQ(parallel.rejected, serial.rejected);
  }
}

TEST(ScanCandidates, EvalExceptionPropagatesFromWorkerChunk) {
  ThreadPool pool(3);
  const auto eval = [](std::size_t i) -> std::optional<double> {
    if (i == 97) throw std::runtime_error("probe exploded");
    return static_cast<double>(i);
  };
  EXPECT_THROW(scan_candidates(100, eval, &pool), std::runtime_error);
}

TEST(ScanCandidates, AllInfeasibleFindsNoCandidateAtAnyThreadCount) {
  const auto nothing = [](std::size_t) -> std::optional<double> {
    return std::nullopt;
  };
  for (const std::size_t workers : {1u, 2u, 3u, 7u}) {
    ThreadPool pool(workers);
    for (const std::size_t n : {8u, 9u, 100u}) {
      const ScanOutcome out = scan_candidates(n, nothing, &pool);
      EXPECT_EQ(out.best, kNoCandidate) << workers << " " << n;
      EXPECT_EQ(out.best_score, kInf);
      EXPECT_EQ(out.feasible, 0);
      EXPECT_EQ(out.rejected, static_cast<std::int64_t>(n));
    }
  }
}

// A single feasible candidate wins wherever it sits — first, last, or on a
// chunk boundary — even when every chunk before it found nothing.
TEST(ScanCandidates, LoneFeasibleCandidateWinsFromAnyChunk) {
  constexpr std::size_t kN = 29;
  for (const std::size_t workers : {1u, 2u, 3u, 7u}) {
    ThreadPool pool(workers);
    for (std::size_t lone = 0; lone < kN; ++lone) {
      const auto eval = [lone](std::size_t i) -> std::optional<double> {
        if (i != lone) return std::nullopt;
        return 42.0;
      };
      const ScanOutcome out = scan_candidates(kN, eval, &pool);
      EXPECT_EQ(out.best, lone) << workers;
      EXPECT_EQ(out.best_score, 42.0);
      EXPECT_EQ(out.feasible, 1);
      EXPECT_EQ(out.rejected, static_cast<std::int64_t>(kN) - 1);
    }
  }
}

// The chunks tile [0, n): every candidate is evaluated exactly once at any
// worker count, including more workers than candidates.
TEST(ScanCandidates, EveryIndexEvaluatedExactlyOnce) {
  for (const std::size_t workers : {1u, 2u, 3u, 7u, 15u}) {
    ThreadPool pool(workers);
    for (const std::size_t n : {8u, 9u, 31u, 100u, 257u}) {
      std::vector<std::atomic<int>> calls(n);
      const auto eval = [&calls](std::size_t i) -> std::optional<double> {
        calls[i].fetch_add(1);
        if (i % 5 == 0) return std::nullopt;
        return static_cast<double>(i % 13);
      };
      const ScanOutcome out = scan_candidates(n, eval, &pool);
      EXPECT_EQ(out.feasible + out.rejected, static_cast<std::int64_t>(n));
      for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(calls[i].load(), 1)
            << "workers=" << workers << " n=" << n << " i=" << i;
    }
  }
}

// Property: on random score vectors with many ties and infeasibles, the
// chunked reduction returns exactly the serial scan_range outcome.
TEST(ScanCandidates, MatchesSerialOnRandomScores) {
  std::vector<std::unique_ptr<ThreadPool>> pools;
  for (const std::size_t workers : {1u, 2u, 3u, 5u, 7u})
    pools.push_back(std::make_unique<ThreadPool>(workers));
  Rng rng(91);
  const int rounds = fuzz_iters(200, 30);
  for (int round = 0; round < rounds; ++round) {
    const std::size_t n = static_cast<std::size_t>(rng.uniform_int(0, 300));
    std::vector<std::optional<double>> scores(n);
    for (std::optional<double>& score : scores) {
      // Quarter steps over a narrow range: ties are the common case.
      if (!rng.bernoulli(0.3))
        score = 0.25 * static_cast<double>(rng.uniform_int(0, 12));
    }
    const auto eval = [&scores](std::size_t i) { return scores[i]; };
    const ScanOutcome serial = scan_range(std::size_t{0}, n, eval);
    for (const std::unique_ptr<ThreadPool>& pool : pools) {
      const ScanOutcome parallel = scan_candidates(n, eval, pool.get());
      ASSERT_EQ(parallel.best, serial.best)
          << "round " << round << " n=" << n << " workers=" << pool->size();
      ASSERT_EQ(parallel.best_score, serial.best_score);
      ASSERT_EQ(parallel.feasible, serial.feasible);
      ASSERT_EQ(parallel.rejected, serial.rejected);
    }
  }
}

TEST(ScanConfigTest, ResolvedThreadsPassesExplicitCountsThrough) {
  ScanConfig config;
  EXPECT_EQ(config.resolved_threads(), 1);  // serial default
  config.threads = 1;
  EXPECT_EQ(config.resolved_threads(), 1);
  config.threads = 7;
  EXPECT_EQ(config.resolved_threads(), 7);
}

TEST(ScanConfigTest, ResolvedThreadsZeroMeansHardwareConcurrency) {
  ScanConfig config;
  config.threads = 0;
  const int resolved = config.resolved_threads();
  // hardware_concurrency() may return 0 on exotic platforms; the contract is
  // "at least 1", and where the runtime does report a count, exactly that.
  EXPECT_GE(resolved, 1);
  const unsigned reported = std::thread::hardware_concurrency();
  if (reported > 0) {
    EXPECT_EQ(resolved, static_cast<int>(reported));
  }
}

// The shard count travels to the engine (EngineOptions::shard) through
// shard_options(); the thread count does not.
TEST(ScanConfigTest, ShardOptionsCarryTheShardCount) {
  ScanConfig config;
  EXPECT_EQ(config.shard_options().shards, 1);
  config.shards = 5;
  config.threads = 3;
  EXPECT_EQ(config.shard_options().shards, 5);
  config.threads = 0;
  EXPECT_EQ(config.shard_options().shards, 5);
}

}  // namespace
}  // namespace esva
