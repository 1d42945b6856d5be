// Differential harness for the candidate scan (core/candidate_scan.h +
// core/envelope_store.h). The untraced scan is one path: an EnvelopeStore
// sweep triages the fleet, then the serial strict-< arg-min (scan_range)
// picks the winner. The traced scan is the check_fit loop, which never reads
// the envelope store — so it is the reference.
//
// Five layers of evidence:
//   1. timeline-level fuzz: random place/unplace interleavings on raw
//      ServerTimelines, classify() vs quick_fit() per server per probe, the
//      gathered classify() over random row subsets, and decided verdicts
//      cross-checked against can_fit(); refresh(i) re-reads exactly row i;
//   2. lifecycle property fuzz: EnvelopeStore::debug_validate() after every
//      ClusterState transition (place, advance_to, ensure_horizon, fail,
//      drain, recover), eager-rebuild on and off; stubbed rows reject every
//      probe, and one server's transition leaves every other row untouched;
//   3. end-to-end identity: every scan allocator's untraced assignment and
//      energy equal the traced run's (and, for min-incremental, the
//      historical batch loop's) on stable and profiled workloads, on tiny
//      fleets and with unplaceable VMs; decision by decision (the server,
//      and the trace's record of it); and chaos replays with faults and
//      retries match the traced replay in every counter;
//   4. pristine classes: class keys are the five spec doubles bit for bit;
//      a class representative scores like an eager empty timeline under all
//      four scores; and on fleets of thousands of servers with a few dozen
//      touched, every scan allocator matches the traced run through
//      retire-at-frontier-1, fail/drain/recover of pristine and touched
//      servers and a mid-stream restore, with the class bookkeeping
//      recounted after every op;
//   5. the arg-min primitive: ties, empty and all-infeasible ranges, each
//      index evaluated once, counts, random scores against a brute-force
//      arg-min.
//
// ESVA_FUZZ_QUICK=1 (set by ctest in Debug CI; see tests/CMakeLists.txt)
// shrinks iteration counts so sanitizer jobs fit their time budget. The
// properties checked are identical in both modes.

#include "core/envelope_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "baselines/registry.h"
#include "cluster/catalog.h"
#include "cluster/timeline.h"
#include "core/allocation.h"
#include "core/candidate_scan.h"
#include "core/fault_plan.h"
#include "core/scan_scores.h"
#include "core/streaming.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/replay.h"
#include "test_util.h"
#include "testsupport/historical_min_incremental.h"
#include "util/rng.h"
#include "workload/arrival_stream.h"
#include "workload/generator.h"

namespace esva {
namespace {

using testing::fuzz_quick;
using testing::make_fleet;

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

// Random place/unplace interleavings on raw timelines with a manually refreshed
// store: every probe's classify() verdict equals quick_fit() per server, the
// gathered classify() over any subset of rows repeats those verdicts, and
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

    // LIFO stacks, one per server, of each placed VM and the busy set it
    // found (unplace reverts the latest placement first).
    struct Placed {
      VmSpec vm;
      IntervalSet busy_before;
    };
    std::vector<std::vector<Placed>> placed(timelines.size());

    const int ops = fuzz_iters(200, 40);
    std::vector<std::uint8_t> verdicts(timelines.size());
    for (int op = 0; op < ops; ++op) {
      const std::size_t i = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(timelines.size()) - 1));
      if (rng.bernoulli(0.35) && !placed[i].empty()) {
        timelines[i].unplace(placed[i].back().vm, placed[i].back().busy_before);
        placed[i].pop_back();
        store.refresh(i, timelines[i]);
      } else {
        VmSpec candidate = random_probe(rng, horizon);
        if (candidate.start >= 1 && candidate.end <= horizon &&
            timelines[i].can_fit(candidate)) {
          placed[i].push_back({candidate, timelines[i].busy()});
          timelines[i].place(candidate);
          store.refresh(i, timelines[i]);
        }
      }
      ASSERT_TRUE(store.debug_validate(timelines)) << "round " << round;

      // Probe the whole fleet with a handful of random VMs.
      for (int probe = 0; probe < 4; ++probe) {
        const VmSpec vm = random_probe(rng, horizon);
        store.classify(EnvelopeStore::probe_of(vm), verdicts.data());
        // The gathered form over a random ascending subset of rows writes
        // exactly the full sweep's verdicts for those rows, into the first
        // count bytes, and nothing past them.
        std::vector<std::size_t> rows;
        for (std::size_t s = 0; s < timelines.size(); ++s)
          if (rng.bernoulli(0.5)) rows.push_back(s);
        constexpr std::uint8_t kUntouched = 0xCD;
        std::vector<std::uint8_t> gathered(timelines.size() + 1, kUntouched);
        store.classify(EnvelopeStore::probe_of(vm), rows.data(), rows.size(),
                       gathered.data());
        for (std::size_t k = 0; k < gathered.size(); ++k) {
          if (k < rows.size()) {
            ASSERT_EQ(gathered[k], verdicts[rows[k]]) << "row " << rows[k];
          } else {
            ASSERT_EQ(gathered[k], kUntouched) << "byte " << k;
          }
        }
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
// other envelope row keeps classifying exactly as before. ensure_horizon is
// the exception (it rebuilds every touched placeable timeline and moves
// every pristine window), so the horizon is grown once up front.
TEST(EnvelopeIsolation, TransitionOnOneServerLeavesOtherRowsUntouched) {
  constexpr std::size_t kServers = 16;
  ClusterState cluster(make_fleet(static_cast<int>(kServers)),
                       /*initial_horizon=*/0);
  cluster.ensure_horizon(300);  // pre-grow: no horizon growth below
  // Background load on every server, so the probe battery meets all three
  // verdicts.
  for (std::size_t i = 0; i < kServers; ++i)
    cluster.place(i, testing::vm(static_cast<VmId>(100 + i), 1, 250,
                                 0.5 + 0.25 * static_cast<double>(i % 3),
                                 0.5));
  const std::size_t victim = 5;

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
                                const char* when) {
    const Verdicts rows_after = classify_all();
    for (std::size_t p = 0; p < probes.size(); ++p) {
      for (std::size_t r = 0; r < kServers; ++r) {
        if (r == victim) continue;
        EXPECT_EQ(rows_after[p][r], rows_before[p][r])
            << when << " probe " << p << " row " << r;
      }
    }
    ASSERT_TRUE(cluster.envelopes().debug_validate(cluster.timelines()))
        << when;
  };

  // place: nothing else moves.
  Verdicts rows = classify_all();
  const VmSpec vm = testing::vm(1, 5, 30, 1.0, 1.0);
  ASSERT_TRUE(cluster.timelines()[victim].can_fit(vm));
  cluster.place(victim, vm);
  expect_local(rows, "place");

  // fail: displaces both VMs and stubs the timeline — still local.
  rows = classify_all();
  EXPECT_EQ(cluster.fail_server(victim).size(), 2u);
  expect_local(rows, "fail_server");
  const Verdicts failed_rows = classify_all();
  for (std::size_t p = 0; p < probes.size(); ++p)
    EXPECT_EQ(static_cast<QuickFit>(failed_rows[p][victim]),
              QuickFit::kCannotFit)
        << "probe " << p;

  // recover: rebuilds the one timeline — still local.
  rows = classify_all();
  cluster.recover_server(victim);
  expect_local(rows, "recover_server");

  // drain: stubs without displacement — still local.
  rows = classify_all();
  cluster.drain_server(victim);
  expect_local(rows, "drain_server");
}

// --- layer 3: end-to-end byte identity, untraced vs traced ----------------

/// One allocate() run. With `trace` bound the scan is the check_fit loop (no
/// envelope store); without it, the envelope-triaged scan.
Allocation run_alloc(const std::string& name, const ProblemInstance& problem,
                     MemoryTraceSink* trace = nullptr,
                     MetricsRegistry* metrics = nullptr) {
  AllocatorPtr allocator = make_allocator(name);
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
  Allocation alloc = run_alloc(name, problem, &sink);
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

TEST(ScanIdentity, UntracedMatchesTracedAcrossWorkloads) {
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
        const Allocation untraced = run_alloc(name, problem);
        ASSERT_EQ(reference.assignment, untraced.assignment)
            << name << " seed=" << seed
            << (profiled ? " (profiled)" : " (stable)");
        // Same double bits in, same bits out: energies match exactly.
        EXPECT_EQ(evaluate_cost(problem, reference).total(),
                  evaluate_cost(problem, untraced).total())
            << name;
      }
    }
  }
}

// Probe accounting: the envelope verdicts count exactly the
// feasible/rejected candidates the traced check_fit loop counts.
TEST(ScanIdentity, ProbeCountersMatchTraced) {
  const ProblemInstance problem = stable_instance(19);
  const auto counters = [&](bool traced) {
    MemoryTraceSink sink;
    MetricsRegistry metrics;
    (void)run_alloc("min-incremental", problem, traced ? &sink : nullptr,
                    &metrics);
    std::vector<std::int64_t> out;
    for (const char* counter :
         {"allocator.min-incremental.feasible_candidates",
          "allocator.min-incremental.rejections",
          "allocator.min-incremental.unallocated"})
      out.push_back(metrics.counter(counter).value());
    return out;
  };
  const std::vector<std::int64_t> reference = counters(/*traced=*/true);
  EXPECT_GT(reference[0], 0);
  EXPECT_GT(reference[1], 0);
  EXPECT_EQ(counters(/*traced=*/false), reference);
}

// VMs no server can host (oversized in one dimension) leave the untraced
// scan with no candidate — every row quick-rejects — exactly where the
// traced loop finds none, and the unallocated counters agree.
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
  const auto unallocated = [&](const std::string& name,
                               MemoryTraceSink* trace, Allocation& alloc) {
    MetricsRegistry metrics;
    alloc = run_alloc(name, problem, trace, &metrics);
    return metrics.counter("allocator." + name + ".unallocated").value();
  };
  for (const std::string& name : scan_allocators()) {
    MemoryTraceSink sink;
    Allocation reference;
    const std::int64_t reference_unallocated =
        unallocated(name, &sink, reference);
    EXPECT_GE(reference_unallocated, static_cast<std::int64_t>(oversized))
        << name;
    for (std::size_t j = 0; j < problem.num_vms(); j += 9)
      EXPECT_EQ(reference.assignment[j], kNoServer) << name << " vm " << j;
    Allocation run;
    EXPECT_EQ(unallocated(name, nullptr, run), reference_unallocated) << name;
    EXPECT_EQ(run.assignment, reference.assignment) << name;
  }
}

// Tiny fleets, down to a single server, match the traced run.
TEST(ScanIdentity, TinyFleetsMatchTraced) {
  for (const int servers : {1, 2, 7, 8, 9}) {
    WorkloadConfig config = workload_config();
    config.num_vms = 60;
    Rng rng(23u + static_cast<std::uint64_t>(servers));
    const ProblemInstance problem =
        make_problem(generate_workload(config, rng), make_fleet(servers));
    for (const std::string& name : scan_allocators()) {
      EXPECT_EQ(run_alloc(name, problem).assignment,
                traced_alloc(name, problem).assignment)
          << name << " servers=" << servers;
    }
  }
}

// Decision by decision, not just the final assignment: for every scan
// allocator, the untraced policy and the traced one, driven over the same
// cluster, pick the same server for every request, and the trace records
// that server.
TEST(ScanPolicyTest, UntracedDecisionsMatchTracedStepByStep) {
  const ProblemInstance problem = profiled_instance(29);
  std::vector<VmSpec> order = problem.vms;
  std::stable_sort(order.begin(), order.end(),
                   [](const VmSpec& a, const VmSpec& b) {
                     return a.start < b.start;
                   });
  for (const std::string& name : scan_allocators()) {
    MemoryTraceSink sink;
    AllocatorPtr traced_allocator = make_allocator(name);
    ObsContext obs;
    obs.trace = &sink;
    traced_allocator->set_observability(obs);
    const std::unique_ptr<PlacementPolicy> traced =
        traced_allocator->make_policy();
    const std::unique_ptr<PlacementPolicy> untraced =
        make_allocator(name)->make_policy();
    ASSERT_NE(traced, nullptr) << name;
    ASSERT_NE(untraced, nullptr) << name;

    ClusterState cluster(problem.servers, /*initial_horizon=*/0);
    Rng rng(7);
    traced->begin(cluster, rng);
    untraced->begin(cluster, rng);
    std::vector<ServerId> chosen;
    for (const VmSpec& vm : order) {
      cluster.ensure_horizon(vm.end);
      const PlacementDecision expected = traced->place_one(cluster, vm, rng);
      const PlacementDecision actual = untraced->place_one(cluster, vm, rng);
      ASSERT_EQ(actual.server, expected.server) << name << " vm " << vm.id;
      chosen.push_back(expected.server);
      if (expected.server == kNoServer) continue;
      cluster.place(static_cast<std::size_t>(expected.server), vm);
    }
    const std::vector<VmDecisionTrace> records = sink.decisions();
    ASSERT_EQ(records.size(), order.size()) << name;
    for (std::size_t k = 0; k < records.size(); ++k)
      EXPECT_EQ(records[k].chosen, chosen[k]) << name << " vm " << order[k].id;
    EXPECT_NE(std::count(chosen.begin(), chosen.end(), kNoServer),
              static_cast<std::ptrdiff_t>(chosen.size()))
        << name << " placed nothing";
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
                          const FaultPlan& plan, MemoryTraceSink* trace) {
  AllocatorPtr allocator = make_allocator(name);
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
TEST(ScanIdentity, ChaosReplayMatchesTraced) {
  const ProblemInstance problem = chaos_problem();
  const FaultPlan plan = chaos_plan(problem.num_servers());
  for (const std::string& name : scan_allocators()) {
    MemoryTraceSink sink;
    const ReplayReport reference = replay_chaos(name, problem, plan, &sink);
    EXPECT_GT(sink.size(), problem.num_vms()) << name << ": retries traced";
    EXPECT_GT(reference.faults.fault_events, 0) << name;
    EXPECT_GT(reference.faults.retries, 0) << name;
    expect_same_replay(reference, replay_chaos(name, problem, plan, nullptr),
                       name);
  }
}

// --- layer 4: pristine classes ----------------------------------------------

// A class is keyed on the bits of capacity (cpu, mem), p_idle, p_peak and
// transition_time: the id and type name do not matter, and a one-ulp change
// in any one of the five doubles splits the class.
TEST(PristineClasses, KeyedOnTheFiveSpecDoublesBitForBit) {
  const ServerSpec base = testing::server(0, 16.0, 32.0, 105.0, 210.0, 1.5,
                                          "server-type-3");
  std::vector<ServerSpec> fleet{base};
  ServerSpec renamed = base;
  renamed.id = 1;
  renamed.type_name = "another-name";
  fleet.push_back(renamed);
  for (int field = 0; field < 5; ++field) {
    ServerSpec bumped = base;
    bumped.id = 2 + field;
    double* value[] = {&bumped.capacity.cpu, &bumped.capacity.mem,
                       &bumped.p_idle, &bumped.p_peak,
                       &bumped.transition_time};
    *value[field] = std::nextafter(*value[field],
                                   std::numeric_limits<double>::infinity());
    fleet.push_back(bumped);
  }
  const ClusterState cluster(fleet, /*initial_horizon=*/0);
  EXPECT_EQ(cluster.num_classes(), 6u);
  EXPECT_EQ(cluster.class_of(1), cluster.class_of(0));
  for (std::size_t i = 2; i < fleet.size(); ++i) {
    for (std::size_t j = 0; j < i; ++j)
      EXPECT_NE(cluster.class_of(i), cluster.class_of(j)) << i << " vs " << j;
  }
  // The scan visits server 0 for both members of the shared class.
  EXPECT_EQ(cluster.scan_candidates(),
            (std::vector<std::size_t>{0, 2, 3, 4, 5, 6}));
  EXPECT_EQ(cluster.represented(0), 2u);
  EXPECT_EQ(cluster.represented(2), 1u);
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

// Every scan score of a class representative — a pristine timeline with no
// trees — is bit-equal to the same score on an eager empty timeline (trees
// materialized by one placement and its unplace) over the same window.
TEST(PristineClasses, RepresentativeScoresMatchAnEagerEmptyTimeline) {
  ClusterState cluster(make_fleet(30), /*initial_horizon=*/0);
  cluster.ensure_horizon(200);
  cluster.advance_to(37);
  cluster.ensure_horizon(600);  // the pristine window is now [37, 805]
  Rng rng(4242);
  std::size_t representatives = 0;
  for (const std::size_t i : cluster.scan_candidates()) {
    ASSERT_TRUE(cluster.pristine(i));
    ++representatives;
    const ServerTimeline& rep = cluster.timelines()[i];
    ASSERT_TRUE(rep.untouched());
    ServerTimeline eager(rep.spec(), rep.base(), rep.horizon());
    const VmSpec filler = testing::vm(99999, rep.base(), rep.base(), 1.0, 1.0);
    eager.place(filler);
    eager.unplace(filler, IntervalSet{});
    ASSERT_FALSE(eager.untouched());
    for (int k = 0; k < 60; ++k) {
      VmSpec vm = random_probe(rng, 700);
      if (vm.start < cluster.frontier() || vm.end > rep.horizon()) continue;
      ASSERT_EQ(rep.can_fit(vm), eager.can_fit(vm)) << i;
      for (const bool initial : {true, false}) {
        const MinIncrementalScore score{CostOptions{initial}};
        ASSERT_EQ(bits(score(rep, vm)), bits(score(eager, vm))) << i;
      }
      ASSERT_EQ(bits(BestFitCpuScore{}(rep, vm)),
                bits(BestFitCpuScore{}(eager, vm)))
          << i;
      ASSERT_EQ(bits(LowestIdlePowerScore{}(rep, vm)),
                bits(LowestIdlePowerScore{}(eager, vm)))
          << i;
      ASSERT_EQ(bits(DotProductFitScore{}(rep, vm)),
                bits(DotProductFitScore{}(eager, vm)))
          << i;
    }
  }
  EXPECT_EQ(representatives, cluster.num_classes());
}

/// Counts decisions without keeping them: the traced reference on
/// thousands of servers would otherwise buffer every candidate record.
class CountingTraceSink final : public TraceSink {
 public:
  void on_decision(const VmDecisionTrace& /*decision*/) override { ++count_; }
  std::size_t count() const { return count_; }

 private:
  std::atomic<std::size_t> count_{0};
};

/// A cluster's bookkeeping against a recount: envelope rows, resident units
/// (materialized trees only), the pristine flags (recomputed from the
/// exported state), the one untouched window every pristine timeline shares,
/// and the candidate list (non-pristine placeable servers plus each class's
/// lowest-index pristine server).
void expect_pristine_bookkeeping(const ClusterState& c,
                                 const std::string& when) {
  ASSERT_TRUE(c.envelopes().debug_validate(c.timelines())) << when;
  std::size_t units = 0;
  for (const ServerTimeline& t : c.timelines())
    units += static_cast<std::size_t>(t.resident_units());
  ASSERT_EQ(c.resident_time_units(), units) << when;
  ASSERT_EQ(c.active_vms(), c.active_vms_scan()) << when;
  const std::vector<ServerStateSnapshot> state = c.export_servers();
  std::vector<bool> class_seen(c.num_classes(), false);
  std::vector<std::size_t> candidates;
  const ServerTimeline* window = nullptr;
  for (std::size_t i = 0; i < c.num_servers(); ++i) {
    const bool pristine = state[i].health == ServerHealth::kUp &&
                          state[i].active.empty() && state[i].retired_hi == 0;
    ASSERT_EQ(c.pristine(i), pristine) << when << " server " << i;
    if (!c.placeable(i)) continue;
    if (!pristine) {
      candidates.push_back(i);
      continue;
    }
    const ServerTimeline& t = c.timelines()[i];
    ASSERT_TRUE(t.untouched()) << when << " server " << i;
    if (window == nullptr) window = &t;
    ASSERT_EQ(t.base(), window->base()) << when << " server " << i;
    ASSERT_EQ(t.horizon(), window->horizon()) << when << " server " << i;
    ASSERT_LE(t.base(), c.frontier()) << when << " server " << i;
    ASSERT_EQ(t.horizon(), std::max(c.horizon(), t.base() - 1)) << when;
    if (!class_seen[c.class_of(i)]) {
      class_seen[c.class_of(i)] = true;
      candidates.push_back(i);
    }
  }
  ASSERT_EQ(c.scan_candidates(), candidates) << when;
}

struct PristineRun {
  std::vector<ServerId> decisions;
  std::vector<Resolution> resolutions;
  Energy energy = 0.0;
  FaultStats faults;
  std::int64_t feasible = 0;
  std::int64_t rejected = 0;
  std::size_t touched = 0;  ///< non-pristine servers at the end
  std::size_t traced_decisions = 0;
};

/// One scan allocator over a pristine-heavy fleet, through every way into
/// and out of the pristine state: a retire at frontier 1 that returns its
/// host to its class; fail and drain of a touched host and of a class
/// representative, then their recovery; and a mid-stream restore into a
/// fresh engine. The bookkeeping is checked after every op. `traced` runs
/// the check_fit reference path.
PristineRun run_pristine_heavy(const std::string& name,
                               const std::vector<ServerSpec>& fleet,
                               const std::vector<VmSpec>& vms, bool traced) {
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  AllocatorPtr allocator = make_allocator(name);
  CountingTraceSink sink;
  MetricsRegistry metrics;
  ObsContext obs;
  obs.trace = traced ? &sink : nullptr;
  obs.metrics = &metrics;
  allocator->set_observability(obs);
  EngineOptions options;
  options.auto_advance = true;
  options.account_energy = true;
  options.tolerate_late_arrivals = true;
  options.retry.max_attempts = 3;
  Rng rng(7);
  // A restore continues in a fresh engine with a fresh policy, as the serve
  // daemon's recovery does.
  std::vector<std::unique_ptr<PlacementPolicy>> policies;
  policies.push_back(allocator->make_policy());
  auto engine = std::make_unique<PlacementEngine>(fleet, *policies.back(),
                                                  rng, options);
  PristineRun run;
  const auto check = [&](const std::string& when) {
    expect_pristine_bookkeeping(engine->cluster(), name + ": " + when);
  };
  check("ctor");

  // A VM retired at frontier 1 leaves no sentinel: its host turns pristine.
  const PlacementDecision first = engine->submit(vms[0]);
  run.decisions.push_back(first.server);
  check("first place");
  EXPECT_NE(first.server, kNoServer) << name;
  const auto host = static_cast<std::size_t>(first.server);
  EXPECT_FALSE(engine->cluster().pristine(host)) << name;
  EXPECT_EQ(engine->retire_vm(vms[0].id), first.server) << name;
  EXPECT_EQ(engine->cluster().frontier(), 1) << name;
  EXPECT_TRUE(engine->cluster().pristine(host)) << name;
  check("retire at frontier 1");

  std::vector<std::size_t> downed;
  for (std::size_t k = 1; k < vms.size(); ++k) {
    if (k == vms.size() / 4 || k == vms.size() / 3) {
      // One touched host with active VMs and the first class representative.
      // The active lists say which hosts run VMs: a rebuilt timeline's busy
      // set keeps a sentinel after its VMs retire.
      const ClusterState& c = engine->cluster();
      const std::vector<ServerStateSnapshot> states = c.export_servers();
      std::size_t touched = kNone;
      std::size_t pristine = kNone;
      for (const std::size_t i : c.scan_candidates()) {
        if (c.pristine(i)) {
          if (pristine == kNone) pristine = i;
        } else if (touched == kNone && !states[i].active.empty()) {
          touched = i;
        }
      }
      EXPECT_NE(touched, kNone) << name;
      EXPECT_NE(pristine, kNone) << name;
      const FaultKind kind =
          k == vms.size() / 4 ? FaultKind::kFail : FaultKind::kDrain;
      for (const std::size_t s : {touched, pristine}) {
        if (s == kNone) continue;
        engine->apply_fault(
            FaultEvent{c.frontier(), kind, static_cast<ServerId>(s)});
        downed.push_back(s);
        check(to_string(kind) + " " + std::to_string(s));
      }
    }
    if (k == vms.size() / 2) {
      for (const std::size_t s : downed) {
        engine->apply_fault(FaultEvent{engine->cluster().frontier(),
                                       FaultKind::kRecover,
                                       static_cast<ServerId>(s)});
        check("recover " + std::to_string(s));
      }
    }
    if (k == 2 * vms.size() / 3) {
      // A restored engine's log starts empty: keep the one before the cut.
      run.resolutions = engine->resolutions();
      const EngineStateSnapshot snap = engine->export_state();
      const auto words = rng.state();
      policies.push_back(allocator->make_policy());
      engine = std::make_unique<PlacementEngine>(fleet, *policies.back(), rng,
                                                 options);
      engine->import_state(snap);
      rng.set_state(words);
      check("restore");
    }
    run.decisions.push_back(engine->submit(vms[k]).server);
    check("place " + std::to_string(k));
  }
  engine->finish_stream();
  check("finish");
  for (const auto& policy : policies) policy->finish(0, 0);
  run.resolutions.insert(run.resolutions.end(),
                         engine->resolutions().begin(),
                         engine->resolutions().end());
  run.energy = engine->total_energy();
  run.faults = engine->fault_stats();
  run.feasible =
      metrics.counter("allocator." + name + ".feasible_candidates").value();
  run.rejected = metrics.counter("allocator." + name + ".rejections").value();
  for (std::size_t i = 0; i < fleet.size(); ++i)
    run.touched += engine->cluster().pristine(i) ? 0 : 1;
  run.traced_decisions = sink.count();
  return run;
}

// Thousands of servers with a few dozen ever touched: every scan allocator's
// untraced run (one representative per pristine class) matches the traced
// check_fit loop over the whole fleet in decisions, resolutions, energy bits,
// fault counters and the allocator's probe counters.
TEST(ScanIdentity, PristineHeavyFleetsMatchTraced) {
  const std::vector<ServerSpec> fleet =
      make_fleet(fuzz_iters(2500, 2000));
  WorkloadConfig config = workload_config();
  config.num_vms = fuzz_iters(240, 80);
  config.mean_interarrival = 1.0;
  Rng rng(606);
  const std::vector<VmSpec> vms = generate_workload(config, rng);
  for (const std::string& name : scan_allocators()) {
    const PristineRun reference = run_pristine_heavy(name, fleet, vms, true);
    const PristineRun run = run_pristine_heavy(name, fleet, vms, false);
    EXPECT_GE(reference.traced_decisions, vms.size()) << name;
    EXPECT_EQ(run.traced_decisions, 0u) << name;
    EXPECT_GT(reference.faults.displaced, 0) << name;
    EXPECT_GE(reference.touched, 4u) << name;
    EXPECT_LT(reference.touched, fleet.size() / 10) << name;
    ASSERT_EQ(run.decisions, reference.decisions) << name;
    ASSERT_EQ(run.resolutions.size(), reference.resolutions.size()) << name;
    for (std::size_t r = 0; r < run.resolutions.size(); ++r) {
      EXPECT_EQ(run.resolutions[r].vm, reference.resolutions[r].vm) << name;
      EXPECT_EQ(run.resolutions[r].server, reference.resolutions[r].server)
          << name;
    }
    EXPECT_EQ(bits(run.energy), bits(reference.energy)) << name;
    EXPECT_EQ(run.faults.displaced, reference.faults.displaced) << name;
    EXPECT_EQ(run.faults.evacuated, reference.faults.evacuated) << name;
    EXPECT_EQ(run.faults.retries, reference.faults.retries) << name;
    EXPECT_EQ(run.faults.rejected_final, reference.faults.rejected_final)
        << name;
    EXPECT_EQ(run.feasible, reference.feasible) << name;
    EXPECT_EQ(run.rejected, reference.rejected) << name;
    EXPECT_GT(reference.feasible, 0) << name;
    EXPECT_EQ(run.touched, reference.touched) << name;
  }
}

// --- layer 5: the arg-min primitive ------------------------------------------

TEST(ScanRange, EmptyRangeFindsNothing) {
  const ScanOutcome empty = scan_range(
      std::size_t{0}, std::size_t{0},
      [](std::size_t) -> std::optional<double> { return 1.0; });
  EXPECT_EQ(empty.best, kNoCandidate);
  EXPECT_EQ(empty.best_score, kInf);
  EXPECT_EQ(empty.feasible, 0);
  EXPECT_EQ(empty.rejected, 0);
}

TEST(ScanRange, TiesBreakToLowestIndex) {
  // Scores: all equal except a strict minimum duplicated at 18 and 90 —
  // strict < keeps index 18.
  const auto eval = [](std::size_t i) -> std::optional<double> {
    if (i % 7 == 3) return std::nullopt;  // sprinkle infeasibles
    return (i == 18 || i == 90) ? 1.0 : 2.0;
  };
  const ScanOutcome out = scan_range(std::size_t{0}, std::size_t{100}, eval);
  EXPECT_EQ(out.best, 18u);
  EXPECT_EQ(out.best_score, 1.0);
  EXPECT_EQ(out.rejected, 14);
  EXPECT_EQ(out.feasible, 86);
}

TEST(ScanRange, AllInfeasibleFindsNoCandidate) {
  for (const std::size_t n : {1u, 9u, 100u}) {
    const ScanOutcome out = scan_range(
        std::size_t{0}, n,
        [](std::size_t) -> std::optional<double> { return std::nullopt; });
    EXPECT_EQ(out.best, kNoCandidate) << n;
    EXPECT_EQ(out.best_score, kInf);
    EXPECT_EQ(out.feasible, 0);
    EXPECT_EQ(out.rejected, static_cast<std::int64_t>(n));
  }
}

// A single feasible candidate wins wherever it sits, first to last.
TEST(ScanRange, LoneFeasibleCandidateWinsAnywhere) {
  constexpr std::size_t kN = 29;
  for (std::size_t lone = 0; lone < kN; ++lone) {
    const ScanOutcome out = scan_range(
        std::size_t{0}, kN, [lone](std::size_t i) -> std::optional<double> {
          if (i != lone) return std::nullopt;
          return 42.0;
        });
    EXPECT_EQ(out.best, lone);
    EXPECT_EQ(out.best_score, 42.0);
    EXPECT_EQ(out.feasible, 1);
    EXPECT_EQ(out.rejected, static_cast<std::int64_t>(kN) - 1);
  }
}

// Every index of [lo, hi) is evaluated exactly once, in increasing order,
// and nothing outside it is touched.
TEST(ScanRange, EveryIndexEvaluatedExactlyOnceInOrder) {
  for (const auto& [lo, hi] : {std::pair<std::size_t, std::size_t>{0, 31},
                              {5, 6}, {7, 257}}) {
    std::vector<std::size_t> calls;
    const ScanOutcome out =
        scan_range(lo, hi, [&calls](std::size_t i) -> std::optional<double> {
          calls.push_back(i);
          if (i % 5 == 0) return std::nullopt;
          return static_cast<double>(i % 13);
        });
    ASSERT_EQ(calls.size(), hi - lo);
    for (std::size_t k = 0; k < calls.size(); ++k)
      ASSERT_EQ(calls[k], lo + k) << "lo=" << lo << " hi=" << hi;
    EXPECT_EQ(out.feasible + out.rejected,
              static_cast<std::int64_t>(hi - lo));
  }
}

// Property: on random score vectors with many ties and infeasibles, the
// outcome is the brute-force arg-min (first index of the minimum) with the
// right counts.
TEST(ScanRange, MatchesBruteForceOnRandomScores) {
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
    ScanOutcome expected;
    for (std::size_t i = 0; i < n; ++i) {
      if (!scores[i]) {
        ++expected.rejected;
        continue;
      }
      ++expected.feasible;
      if (expected.best == kNoCandidate || *scores[i] < expected.best_score) {
        expected.best = i;
        expected.best_score = *scores[i];
      }
    }
    const ScanOutcome out = scan_range(
        std::size_t{0}, n, [&scores](std::size_t i) { return scores[i]; });
    ASSERT_EQ(out.best, expected.best) << "round " << round << " n=" << n;
    ASSERT_EQ(out.best_score, expected.best_score);
    ASSERT_EQ(out.feasible, expected.feasible);
    ASSERT_EQ(out.rejected, expected.rejected);
  }
}

// The scan is serial: every allocator's set_scan_config accepts exactly one
// thread and rejects any other count instead of ignoring it.
TEST(ScanConfigTest, SetScanConfigAcceptsOnlyOneThread) {
  for (const std::string& name :
       {std::string("min-incremental"), std::string("lowest-idle-power"),
        std::string("ffps")}) {
    AllocatorPtr allocator = make_allocator(name);
    ScanConfig config;
    EXPECT_NO_THROW(allocator->set_scan_config(config)) << name;
    for (const int threads : {0, 2, 4, -3}) {
      config.threads = threads;
      try {
        allocator->set_scan_config(config);
        ADD_FAILURE() << name << " accepted threads=" << threads;
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("serial"), std::string::npos)
            << e.what();
      }
    }
  }
}

// shard_options() hands the count to EngineOptions::shard unchanged, so the
// engine, not the accessor, refuses a count other than 1. The default
// config builds a scan and an engine, set the way the benchmark pipeline
// sets both.
TEST(ScanConfigTest, ShardOptionsCarryTheShardCount) {
  ScanConfig config;
  EXPECT_EQ(config.shard_options().shards, 1);
  AllocatorPtr allocator = make_allocator("min-incremental");
  EXPECT_NO_THROW(allocator->set_scan_config(config));
  std::unique_ptr<PlacementPolicy> policy = allocator->make_policy();
  Rng rng(7);
  EngineOptions options;
  options.shard = config.shard_options();
  EXPECT_NO_THROW(PlacementEngine(make_fleet(4), *policy, rng, options));
  config.shards = 5;
  EXPECT_EQ(config.shard_options().shards, 5);
}

// The fleet is one block: set_scan_config and the PlacementEngine
// constructor reject any other shard count instead of ignoring it.
TEST(ScanConfigTest, ShardCountsOtherThanOneAreRejected) {
  AllocatorPtr allocator = make_allocator("min-incremental");
  for (const int shards : {0, 2, 64}) {
    const std::string got = "got " + std::to_string(shards) + ")";
    ScanConfig config;
    config.shards = shards;
    try {
      allocator->set_scan_config(config);
      ADD_FAILURE() << "set_scan_config accepted shards=" << shards;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(got), std::string::npos)
          << e.what();
    }
    std::unique_ptr<PlacementPolicy> policy = allocator->make_policy();
    Rng rng(7);
    EngineOptions options;
    options.shard = config.shard_options();
    try {
      PlacementEngine engine(make_fleet(4), *policy, rng, options);
      ADD_FAILURE() << "PlacementEngine accepted shards=" << shards;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(got), std::string::npos)
          << e.what();
    }
  }
}

}  // namespace
}  // namespace esva
