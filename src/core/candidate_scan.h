// The candidate-scan engine: every exhaustive allocator in the library spends
// its time in the same loop (paper §III) — for each VM, find the feasible
// servers, price each one, and keep the arg-min, ties going to the lowest
// server index. This header owns that loop once, as one serial path in two
// steps:
//
//   * the SoA envelope pass (core/envelope_store.h) — one gathered sweep
//     over the packed envelope rows of the scan's candidates classifies them
//     quick-accept / quick-reject / needs-tree with ServerTimeline::quick_fit's
//     exact comparisons (the triage does not chase a timeline pointer per
//     server). Only needs-tree servers fall through to segment-tree can_fit.
//     Verdicts are bit-for-bit quick_fit's.
//
//   * scan_range() — the arg-min itself: one strict-< loop over the
//     candidates in increasing server index, so the first index with the
//     smallest score wins.
//
// ScanPolicy<Score> wraps both as the per-request decision loop shared by
// min-incremental and the scan-based baselines, a streaming PlacementPolicy
// (core/streaming.h); the allocators differ only in their Score
// (core/scan_scores.h), so one ScanAllocator<Score> serves them all and
// Allocator::allocate() runs its policy through run_batch. While tracing,
// the policy runs the check_fit loop over every server instead — decision
// records need rejection diagnostics. That traced loop never reads the
// envelope store or the pristine classes, which makes it the reference the
// untraced path is checked against: assignments and energies are
// byte-identical (tests/test_envelope_scan.cpp).
//
// Pristine classes. The untraced scan does not visit the whole fleet, only
// ClusterState::scan_candidates(): every placeable server that is not
// pristine, plus the lowest-index pristine server of each class (servers
// whose specs agree bit for bit in capacity, p_idle, p_peak and
// transition_time; core/streaming.h defines pristine). On a fleet that is
// mostly idle that is a few dozen servers, not thousands. It is exact:
//
//   * A server is pristine iff it is placeable, has no active VMs and has
//     retired_hi == 0. Its timeline is then fresh — zero (unmaterialized)
//     trees and an empty busy set — because every way into the state
//     rebuilds it fresh: construction, retire_active at frontier 1,
//     recover_server and restore. All pristine timelines share one window,
//     [pristine_base, horizon] with pristine_base <= frontier.
//   * So every member of a class passes or fails the same feasibility test:
//     the same window, and demand (per equal-demand run for profiled VMs)
//     compared with capacity + kEps against zero usage. quick_fit, can_fit
//     and check_fit read nothing else.
//   * The four scores (core/scan_scores.h: min-incremental, best-fit-cpu,
//     lowest-idle-power, dot-product-fit) read only the VM, the spec's
//     capacity, power and transition doubles, and the timeline's usage and
//     busy set. None reads the server index, id or type_name, so class
//     members score bit-identically.
//   * The strict-< arg-min runs in ascending index order, so only a class's
//     lowest-index member can win. Candidates are therefore visited in
//     ascending server index — scan_candidates() is kept sorted.
//
// The probe counters stay the traced loop's: a representative's verdict is
// weighed by its class size (ClusterState::represented), and everything
// else counts as rejected (rejected = servers − feasible).

#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cluster/timeline.h"
#include "core/allocator.h"
#include "core/cost_model.h"
#include "core/envelope_store.h"
#include "core/streaming.h"
#include "obs/trace.h"
#include "util/types.h"

namespace esva {

/// "No feasible candidate" marker for ScanOutcome::best.
inline constexpr std::size_t kNoCandidate = static_cast<std::size_t>(-1);

/// Result of one arg-min scan over [0, n) candidates.
struct ScanOutcome {
  std::size_t best = kNoCandidate;
  double best_score = kInf;
  std::int64_t feasible = 0;
  std::int64_t rejected = 0;
};

/// The one arg-min loop every allocator variant funnels through (the
/// untraced and the traced scan are both instantiations).
/// `eval(i)` returns the candidate's score, or nullopt when infeasible;
/// strictly smaller scores win, ties keep the lowest index.
template <typename Eval>
ScanOutcome scan_range(std::size_t lo, std::size_t hi, const Eval& eval) {
  ScanOutcome out;
  for (std::size_t i = lo; i < hi; ++i) {
    const std::optional<double> score = eval(i);
    if (!score) {
      ++out.rejected;
      continue;
    }
    ++out.feasible;
    if (*score < out.best_score) {
      out.best_score = *score;
      out.best = i;
    }
  }
  return out;
}

/// The per-request decision loop shared by every scan-based allocator, as a
/// streaming policy: arg-min-scans the fleet with `Score` (lower is better;
/// ties to the lowest server index). Batch allocate() and the streaming
/// replay both run exactly this code (core/streaming.h run_batch /
/// PlacementEngine), so they cannot diverge.
///
/// Untraced, it scans ClusterState::scan_candidates() (header comment,
/// "Pristine classes"). While tracing, the scan runs the check_fit loop over
/// every server — rejection diagnostics need check_fit — through the same
/// scan_range arg-min, so traced and untraced runs cannot diverge
/// (tests/test_envelope_scan.cpp). The trace reports each feasible
/// candidate's Eq. 17 delta: the score itself when Score::kIsEnergyDelta,
/// otherwise priced separately, as the baselines always did. The engine
/// prices the placement itself (PlacementEngine::commit).
template <typename Score>
class ScanPolicy final : public PlacementPolicy {
 public:
  ScanPolicy(Score score, const ObsContext& obs)
      : score_(std::move(score)), obs_(obs) {}

  std::string name() const override { return Score::kName; }

  PlacementDecision place_one(const ClusterState& cluster, const VmSpec& vm,
                              Rng& /*rng*/) override {
    const std::vector<ServerTimeline>& timelines = cluster.timelines();
    const std::size_t n = timelines.size();
    PlacementDecision result;
    if (obs_.tracing()) {
      DecisionBuilder decision(obs_, Score::kName, vm.id);
      const ScanOutcome out = scan_range(
          std::size_t{0}, n, [&](std::size_t i) -> std::optional<double> {
            const FitCheck fit = timelines[i].check_fit(vm);
            if (!fit.ok) {
              decision.add_rejected(static_cast<ServerId>(i), fit);
              return std::nullopt;
            }
            const double s = score_(timelines[i], vm);
            decision.add_feasible(static_cast<ServerId>(i),
                                  Score::kIsEnergyDelta
                                      ? s
                                      : incremental_cost(timelines[i], vm));
            return s;
          });
      feasible_ += out.feasible;
      rejected_ += out.rejected;
      if (out.best == kNoCandidate) {
        decision.commit(kNoServer);
        return result;  // reported as unallocated
      }
      result.server = static_cast<ServerId>(out.best);
      decision.commit(result.server);
      return result;
    }

    // Only the scan candidates (header comment): the non-pristine placeable
    // servers and one representative per pristine class, ascending by
    // index. The gathered envelope pass classifies them with quick_fit's
    // exact comparisons; only kUnknown verdicts fall through to the segment
    // trees. A representative's verdict holds for its whole class, so the
    // probe counters weigh it by the class size; every server not counted
    // feasible counts as rejected, as in the traced loop.
    const std::vector<std::size_t>& candidates = cluster.scan_candidates();
    verdicts_.resize(candidates.size());
    cluster.envelopes().classify(EnvelopeStore::probe_of(vm),
                                 candidates.data(), candidates.size(),
                                 verdicts_.data());
    std::int64_t feasible = 0;
    const ScanOutcome out = scan_range(
        std::size_t{0}, candidates.size(),
        [&](std::size_t k) -> std::optional<double> {
          const std::size_t i = candidates[k];
          switch (static_cast<QuickFit>(verdicts_[k])) {
            case QuickFit::kFits: break;
            case QuickFit::kCannotFit: return std::nullopt;
            case QuickFit::kUnknown:
              if (!timelines[i].can_fit(vm)) return std::nullopt;
              break;
          }
          feasible += static_cast<std::int64_t>(cluster.represented(i));
          return score_(timelines[i], vm);
        });
    feasible_ += feasible;
    rejected_ += static_cast<std::int64_t>(n) - feasible;
    if (out.best == kNoCandidate) return result;  // reported as unallocated
    result.server = static_cast<ServerId>(candidates[out.best]);
    return result;
  }

  void finish(std::size_t requests, std::size_t unallocated) override {
    record_allocation_metrics(obs_.metrics, Score::kName, requests, feasible_,
                              rejected_, unallocated);
  }

 private:
  Score score_;
  ObsContext obs_;
  std::int64_t feasible_ = 0;
  std::int64_t rejected_ = 0;
  /// Per-scan QuickFit verdict bytes from the envelope pass, indexed by
  /// server.
  std::vector<std::uint8_t> verdicts_;
};

/// The allocator of one scan score (core/scan_scores.h): named after the
/// score, it hands out ScanPolicy<Score>, and Allocator::allocate() runs
/// that policy through run_batch. Deterministic — it ignores the rng.
template <typename Score>
class ScanAllocator final : public Allocator {
 public:
  ScanAllocator() = default;
  explicit ScanAllocator(Score score) : score_(std::move(score)) {}

  std::string name() const override { return Score::kName; }

  std::unique_ptr<PlacementPolicy> make_policy() const override {
    return std::make_unique<ScanPolicy<Score>>(score_, obs_);
  }

 private:
  Score score_;
};

}  // namespace esva
