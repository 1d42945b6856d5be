#include "obs/trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <sstream>
#include <stdexcept>

#include "baselines/registry.h"
#include "cluster/timeline.h"
#include "core/allocation.h"
#include "core/cost_model.h"
#include "core/min_incremental.h"
#include "ext/migration.h"
#include "obs/metrics.h"
#include "test_util.h"
#include "util/rng.h"

namespace esva {
namespace {

using testing::basic_server;
using testing::random_problem;
using testing::server;
using testing::vm;

VmDecisionTrace sample_decision() {
  VmDecisionTrace d;
  d.allocator = "min-incremental";
  d.vm = 7;
  d.chosen = 2;
  d.has_chosen_delta = true;
  d.chosen_delta = 123.5;
  CandidateTrace rejected;
  rejected.server = 0;
  rejected.feasible = false;
  rejected.reject = FitReject::Cpu;
  rejected.reject_at = 4;
  d.candidates.push_back(rejected);
  CandidateTrace feasible;
  feasible.server = 2;
  feasible.feasible = true;
  feasible.has_delta = true;
  feasible.delta = 123.5;
  d.candidates.push_back(feasible);
  return d;
}

void expect_equal(const VmDecisionTrace& a, const VmDecisionTrace& b) {
  EXPECT_EQ(a.allocator, b.allocator);
  EXPECT_EQ(a.vm, b.vm);
  EXPECT_EQ(a.chosen, b.chosen);
  EXPECT_EQ(a.has_chosen_delta, b.has_chosen_delta);
  if (a.has_chosen_delta) {
    EXPECT_DOUBLE_EQ(a.chosen_delta, b.chosen_delta);
  }
  EXPECT_EQ(a.note, b.note);
  ASSERT_EQ(a.candidates.size(), b.candidates.size());
  for (std::size_t i = 0; i < a.candidates.size(); ++i) {
    EXPECT_EQ(a.candidates[i].server, b.candidates[i].server);
    EXPECT_EQ(a.candidates[i].feasible, b.candidates[i].feasible);
    EXPECT_EQ(a.candidates[i].reject, b.candidates[i].reject);
    EXPECT_EQ(a.candidates[i].reject_at, b.candidates[i].reject_at);
    EXPECT_EQ(a.candidates[i].has_delta, b.candidates[i].has_delta);
    if (a.candidates[i].has_delta) {
      EXPECT_DOUBLE_EQ(a.candidates[i].delta, b.candidates[i].delta);
    }
  }
}

TEST(TraceJsonl, RoundTripsThroughSerialization) {
  const VmDecisionTrace original = sample_decision();
  std::istringstream in(to_jsonl(original) + "\n");
  const std::vector<VmDecisionTrace> parsed = load_trace_jsonl(in);
  ASSERT_EQ(parsed.size(), 1u);
  expect_equal(parsed[0], original);
}

TEST(TraceJsonl, EscapesSpecialCharactersInStrings) {
  VmDecisionTrace d = sample_decision();
  d.allocator = "quote\" backslash\\ newline\n tab\t bell\x07 end";
  d.note = "migration \"phase 2\"";
  const std::string line = to_jsonl(d);
  // A JSONL record must stay on one physical line.
  EXPECT_EQ(line.find('\n'), std::string::npos);
  std::istringstream in(line);
  const std::vector<VmDecisionTrace> parsed = load_trace_jsonl(in);
  ASSERT_EQ(parsed.size(), 1u);
  expect_equal(parsed[0], d);
}

TEST(TraceJsonl, UnallocatedVmSerializesNullChosen) {
  VmDecisionTrace d;
  d.allocator = "ffps";
  d.vm = 3;
  d.chosen = kNoServer;
  const std::string line = to_jsonl(d);
  EXPECT_NE(line.find("\"chosen\":null"), std::string::npos);
  std::istringstream in(line);
  const std::vector<VmDecisionTrace> parsed = load_trace_jsonl(in);
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].chosen, kNoServer);
  EXPECT_FALSE(parsed[0].has_chosen_delta);
}

TEST(TraceJsonl, LoaderSkipsBlankLinesAndRejectsGarbage) {
  std::istringstream ok(to_jsonl(sample_decision()) + "\n\n  \n" +
                        to_jsonl(sample_decision()) + "\n");
  EXPECT_EQ(load_trace_jsonl(ok).size(), 2u);
  std::istringstream bad("{\"allocator\": \"x\", \"vm\": }\n");
  EXPECT_THROW(load_trace_jsonl(bad), std::runtime_error);
}

TEST(TraceJsonl, SinkStreamsOneLinePerDecision) {
  std::ostringstream out;
  {
    JsonlTraceSink sink(out);
    sink.on_decision(sample_decision());
    sink.on_decision(sample_decision());
  }
  std::istringstream in(out.str());
  EXPECT_EQ(load_trace_jsonl(in).size(), 2u);
}

TEST(MemorySink, BuffersAndClears) {
  MemoryTraceSink sink;
  EXPECT_EQ(sink.size(), 0u);
  sink.on_decision(sample_decision());
  EXPECT_EQ(sink.size(), 1u);
  EXPECT_EQ(sink.decisions()[0].vm, 7);
  sink.clear();
  EXPECT_EQ(sink.size(), 0u);
}

TEST(AssignmentFromTrace, LastDecisionWinsAndThrowsOnBadVm) {
  VmDecisionTrace first = sample_decision();
  first.vm = 0;
  first.chosen = 1;
  VmDecisionTrace second = first;
  second.chosen = 4;
  second.note = "migration";
  const std::vector<ServerId> assignment =
      assignment_from_trace({first, second}, 2);
  ASSERT_EQ(assignment.size(), 2u);
  EXPECT_EQ(assignment[0], 4);          // migration overrode the placement
  EXPECT_EQ(assignment[1], kNoServer);  // never mentioned
  VmDecisionTrace rogue = first;
  rogue.vm = 99;
  EXPECT_THROW(assignment_from_trace({rogue}, 2), std::runtime_error);
}

TEST(AssignmentFromTrace, NullChosenOverridesEarlierPlacement) {
  // Pins the retire/rejection half of last-write-wins: a later record with
  // chosen == kNoServer ("chosen":null on the wire) resolves the VM to
  // unhosted — the contract the serve daemon's retire records rely on
  // (serve/journal.h).
  VmDecisionTrace placed = sample_decision();
  placed.vm = 1;
  placed.chosen = 3;
  VmDecisionTrace retired = placed;
  retired.chosen = kNoServer;
  retired.note = "retired";
  const std::vector<ServerId> assignment =
      assignment_from_trace({placed, retired}, 2);
  EXPECT_EQ(assignment[1], kNoServer);
  // And the reverse order re-hosts it: strictly positional, no merging.
  const std::vector<ServerId> rehosted =
      assignment_from_trace({retired, placed}, 2);
  EXPECT_EQ(rehosted[1], 3);
}

TEST(TraceJsonl, RejectedVmRoundTripsAsNullChosen) {
  VmDecisionTrace rejected = sample_decision();
  rejected.vm = 5;
  rejected.chosen = kNoServer;
  const std::string line = to_jsonl(rejected);
  EXPECT_NE(line.find("\"chosen\":null"), std::string::npos) << line;
  std::istringstream in(line + "\n");
  const std::vector<VmDecisionTrace> parsed = load_trace_jsonl(in);
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].chosen, kNoServer);
  EXPECT_EQ(assignment_from_trace(parsed, 6)[5], kNoServer);
}

TEST(TraceJsonl, UnknownKeysAreIgnoredForForwardCompat) {
  // The serve WAL writes trace-schema supersets (extra op/seq/spec/
  // energy_hex keys); the loader must keep accepting them.
  std::istringstream in(
      R"({"op":"place","seq":"9","vm":2,"chosen":1,"energy_hex":"0x1p+3",)"
      R"("spec":{"id":2,"cpu":"0x1p+0"},"future_field":[1,{"x":null}]})"
      "\n");
  const std::vector<VmDecisionTrace> parsed = load_trace_jsonl(in);
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].vm, 2);
  EXPECT_EQ(parsed[0].chosen, 1);
}

TEST(TraceJsonl, OutOfRangeNumbersAreStructuredErrors) {
  for (const std::string line :
       {R"({"vm":1e99,"chosen":0})", R"({"vm":-1,"chosen":0})",
        R"({"vm":0,"chosen":-5})", R"({"vm":0.5,"chosen":0})"}) {
    std::istringstream in(line + "\n");
    EXPECT_THROW(load_trace_jsonl(in), std::runtime_error) << line;
  }
}

// --- check_fit: the diagnostic twin of can_fit -----------------------------

TEST(CheckFit, ReportsCpuViolationWithTimeUnit) {
  ServerTimeline timeline(basic_server(0), /*horizon=*/20);
  timeline.place(vm(0, 5, 10, 8.0, 1.0));  // 8/10 CPU busy on [5,10]
  const FitCheck fit = timeline.check_fit(vm(1, 8, 12, 4.0, 1.0));
  EXPECT_FALSE(fit.ok);
  EXPECT_EQ(fit.reject, FitReject::Cpu);
  EXPECT_GE(fit.at, 8);
  EXPECT_LE(fit.at, 10);  // the clash is inside the overlap [8,10]
}

TEST(CheckFit, ReportsMemViolationWithTimeUnit) {
  ServerTimeline timeline(basic_server(0), /*horizon=*/20);
  timeline.place(vm(0, 5, 10, 1.0, 9.0));
  const FitCheck fit = timeline.check_fit(vm(1, 10, 14, 1.0, 3.0));
  EXPECT_FALSE(fit.ok);
  EXPECT_EQ(fit.reject, FitReject::Mem);
  EXPECT_EQ(fit.at, 10);  // only time unit where both VMs are resident
}

TEST(CheckFit, ReportsHorizonViolation) {
  ServerTimeline timeline(basic_server(0), /*horizon=*/10);
  const FitCheck fit = timeline.check_fit(vm(0, 8, 15, 1.0, 1.0));
  EXPECT_FALSE(fit.ok);
  EXPECT_EQ(fit.reject, FitReject::Horizon);
}

TEST(CheckFit, FeasibleReportsNone) {
  ServerTimeline timeline(basic_server(0), /*horizon=*/20);
  const FitCheck fit = timeline.check_fit(vm(0, 1, 5, 2.0, 2.0));
  EXPECT_TRUE(fit.ok);
  EXPECT_EQ(fit.reject, FitReject::None);
}

// Property: check_fit().ok must agree with can_fit() on every probe an
// allocator would make — randomized over instances and partial placements.
TEST(CheckFitProperty, AgreesWithCanFitOnRandomPlacements) {
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    Rng rng(seed);
    const ProblemInstance p = random_problem(rng, 20, 4);
    std::vector<ServerTimeline> timelines =
        make_timelines(p.servers, p.horizon);
    for (std::size_t j = 0; j < p.num_vms(); ++j) {
      const VmSpec& candidate = p.vms[j];
      for (std::size_t i = 0; i < timelines.size(); ++i) {
        const FitCheck fit = timelines[i].check_fit(candidate);
        ASSERT_EQ(fit.ok, timelines[i].can_fit(candidate))
            << "seed " << seed << " vm " << j << " server " << i;
        if (!fit.ok) {
          ASSERT_NE(fit.reject, FitReject::None);
        }
      }
      // Greedily place on the first feasible server to vary the state.
      for (auto& timeline : timelines) {
        if (timeline.can_fit(candidate)) {
          timeline.place(candidate);
          break;
        }
      }
    }
  }
}

// --- end-to-end: traced allocation runs -----------------------------------

TEST(AllocatorTrace, EmitsOneDecisionPerVmAndReplaysExactly) {
  Rng seed_rng(11);
  const ProblemInstance p = random_problem(seed_rng, 30, 6);
  MemoryTraceSink sink;
  MetricsRegistry registry;
  MinIncrementalAllocator allocator;
  ObsContext obs;
  obs.trace = &sink;
  obs.metrics = &registry;
  allocator.set_observability(obs);
  Rng rng(3);
  const Allocation alloc = allocator.allocate(p, rng);

  const std::vector<VmDecisionTrace> decisions = sink.decisions();
  ASSERT_EQ(decisions.size(), p.num_vms());  // exactly one record per VM
  EXPECT_EQ(assignment_from_trace(decisions, p.num_vms()), alloc.assignment);
  EXPECT_GT(registry.timer("allocator.min-incremental.allocate_ms")
                .stats()
                .count,
            0);
}

/// Checks that each decision's chosen_delta is the delta recorded for its
/// chosen candidate, bit for bit, and absent exactly when that candidate has
/// none (an unallocated VM has no chosen candidate). Returns how many
/// decisions carried one.
std::size_t expect_chosen_delta_is_recorded(
    const std::vector<VmDecisionTrace>& decisions) {
  std::size_t with_delta = 0;
  for (const VmDecisionTrace& d : decisions) {
    const auto chosen = std::find_if(
        d.candidates.begin(), d.candidates.end(),
        [&](const CandidateTrace& c) { return c.server == d.chosen; });
    const bool recorded = chosen != d.candidates.end() && chosen->has_delta;
    EXPECT_EQ(d.has_chosen_delta, recorded) << "vm " << d.vm;
    if (recorded && d.has_chosen_delta) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(d.chosen_delta),
                std::bit_cast<std::uint64_t>(chosen->delta))
          << "vm " << d.vm;
      ++with_delta;
    }
  }
  return with_delta;
}

TEST(AllocatorTrace, ChosenDeltaIsTheMinimumFeasibleDelta) {
  // Every allocator, trace_assignment and the migration pass price the
  // chosen server once, as the candidate they recorded; min-incremental's
  // chosen delta is also the minimum feasible one.
  Rng seed_rng(5);
  const ProblemInstance p = random_problem(seed_rng, 25, 5);
  for (const std::string& name : allocator_names()) {
    SCOPED_TRACE(name);
    MemoryTraceSink sink;
    AllocatorPtr allocator = make_allocator(name);
    ObsContext obs;
    obs.trace = &sink;
    allocator->set_observability(obs);
    Rng rng(3);
    (void)allocator->allocate(p, rng);
    EXPECT_GT(expect_chosen_delta_is_recorded(sink.decisions()), 0u);
    if (name != "min-incremental") continue;

    for (const VmDecisionTrace& d : sink.decisions()) {
      Energy best = kInf;
      for (const CandidateTrace& c : d.candidates) {
        if (c.feasible) {
          ASSERT_TRUE(c.has_delta);
          best = std::min(best, c.delta);
        } else {
          EXPECT_NE(c.reject, FitReject::None);
        }
      }
      if (d.chosen == kNoServer) {
        EXPECT_EQ(best, kInf);  // no feasible candidate existed
      } else {
        ASSERT_TRUE(d.has_chosen_delta);
        EXPECT_DOUBLE_EQ(d.chosen_delta, best);
      }
    }
  }

  Rng rng(3);
  const Allocation random_fit = make_allocator("random-fit")->allocate(p, rng);
  MemoryTraceSink assignment_sink;
  trace_assignment(p, random_fit, assignment_sink);
  EXPECT_GT(expect_chosen_delta_is_recorded(assignment_sink.decisions()), 0u);

  MemoryTraceSink migration_sink;
  MigrationConfig config;
  config.obs.trace = &migration_sink;
  const MigrationResult migrated =
      optimize_with_migration(p, random_fit, config);
  ASSERT_GT(migrated.moves, 0);
  ASSERT_EQ(migration_sink.size(), static_cast<std::size_t>(migrated.moves));
  // A move always lands on a priced feasible target.
  EXPECT_EQ(expect_chosen_delta_is_recorded(migration_sink.decisions()),
            migration_sink.size());
}

TEST(AllocatorTrace, TracedAndUntracedRunsProduceIdenticalAssignments) {
  for (const std::string& name :
       {std::string("min-incremental"), std::string("ffps"),
        std::string("best-fit-cpu"), std::string("lowest-idle-power")}) {
    Rng seed_rng(17);
    const ProblemInstance p = random_problem(seed_rng, 25, 5);

    AllocatorPtr plain = make_allocator(name);
    Rng rng_a(9);
    const Allocation untraced = plain->allocate(p, rng_a);

    MemoryTraceSink sink;
    AllocatorPtr traced = make_allocator(name);
    ObsContext obs;
    obs.trace = &sink;
    traced->set_observability(obs);
    Rng rng_b(9);
    const Allocation with_trace = traced->allocate(p, rng_b);

    EXPECT_EQ(untraced.assignment, with_trace.assignment) << name;
    EXPECT_GE(sink.size(), p.num_vms()) << name;  // >= 1 record per VM
    EXPECT_EQ(assignment_from_trace(sink.decisions(), p.num_vms()),
              with_trace.assignment)
        << name;
  }
}

TEST(AllocatorTrace, RejectionReasonsNameTheViolatedResource) {
  // One tiny server: the second large-CPU VM must be rejected with "cpu".
  const ProblemInstance p = make_problem(
      {vm(0, 1, 10, 8.0, 2.0), vm(1, 2, 9, 8.0, 2.0)}, {basic_server(0)});
  MemoryTraceSink sink;
  MinIncrementalAllocator allocator;
  ObsContext obs;
  obs.trace = &sink;
  allocator.set_observability(obs);
  Rng rng(1);
  const Allocation alloc = allocator.allocate(p, rng);
  EXPECT_EQ(alloc.assignment[1], kNoServer);

  const std::vector<VmDecisionTrace> decisions = sink.decisions();
  ASSERT_EQ(decisions.size(), 2u);
  const VmDecisionTrace& second = decisions[1];
  EXPECT_EQ(second.chosen, kNoServer);
  ASSERT_EQ(second.candidates.size(), 1u);
  EXPECT_FALSE(second.candidates[0].feasible);
  EXPECT_EQ(second.candidates[0].reject, FitReject::Cpu);
  EXPECT_GE(second.candidates[0].reject_at, 2);  // inside the overlap [2,9]
  EXPECT_LE(second.candidates[0].reject_at, 9);
}

TEST(FitRejectToString, CoversVocabulary) {
  EXPECT_EQ(to_string(FitReject::None), "none");
  EXPECT_EQ(to_string(FitReject::Horizon), "horizon");
  EXPECT_EQ(to_string(FitReject::Cpu), "cpu");
  EXPECT_EQ(to_string(FitReject::Mem), "mem");
}

}  // namespace
}  // namespace esva
