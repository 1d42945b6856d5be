// The candidate-scan engine: every exhaustive allocator in the library spends
// its time in the same loop (paper §III) — for each VM, find the feasible
// servers, price each one, and keep the arg-min, ties going to the lowest
// server index. This header owns that loop once, as one path in two steps:
//
//   * the SoA envelope pass (core/envelope_store.h) — one contiguous sweep
//     over packed per-server envelope rows classifies the whole fleet
//     quick-accept / quick-reject / needs-tree with ServerTimeline::quick_fit's
//     exact comparisons (autovectorized; the fleet's triage does not chase a
//     timeline pointer per server). Only needs-tree servers fall through to
//     segment-tree can_fit. Verdicts are bit-for-bit quick_fit's.
//
//   * scan_candidates() — the arg-min itself, serial or split across a
//     ThreadPool. Deterministic by construction: each thread takes one
//     contiguous index chunk and runs the *same* strict-< loop the serial
//     scan runs, and the per-chunk minima are reduced in increasing chunk
//     order with the same strict <. Chunks are contiguous and ascending, so
//     "first index with a strictly smaller score" — the serial winner — wins
//     the reduction at any thread count; scores are computed independently
//     per server, so they are bit-identical to the serial run's.
//
// ScanPolicy wraps both as the per-request decision loop shared by
// min-incremental and the scan-based baselines, a streaming PlacementPolicy
// (core/streaming.h). While tracing, it runs the serial check_fit loop
// instead — decision records are inherently ordered and need rejection
// diagnostics. That traced loop never reads the envelope store, which makes
// it the reference the untraced path is checked against: assignments and
// energies are byte-identical at every thread count
// (tests/test_envelope_scan.cpp). Batch allocate() runs the same policy
// through run_batch ("sort by start time, feed the stream").

#pragma once

#include <algorithm>
#include <cstdint>
#include <future>
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
#include "util/thread_pool.h"
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

/// The one arg-min loop every allocator variant funnels through (the serial
/// scan, one parallel chunk, and the traced scan are all instantiations).
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

/// Arg-min over [0, n): serial when `pool` is null (or the fleet is too small
/// for fan-out to pay), otherwise partitioned into pool->size() + 1
/// contiguous chunks — the calling thread scans the first chunk while the
/// workers scan the rest. Bit-identical to scan_range(0, n, eval) at any
/// thread count (header comment); exceptions from `eval` propagate.
template <typename Eval>
ScanOutcome scan_candidates(std::size_t n, const Eval& eval,
                            ThreadPool* pool) {
  // Below this fleet size a scan is microseconds of work; waking workers
  // would cost more than it saves. Purely a latency guard — the result is
  // identical either way.
  constexpr std::size_t kMinParallelCandidates = 8;
  if (pool == nullptr || n < kMinParallelCandidates)
    return scan_range(std::size_t{0}, n, eval);

  const std::size_t chunks = std::min(pool->size() + 1, n);
  std::vector<std::future<ScanOutcome>> pending;
  pending.reserve(chunks - 1);
  const auto chunk_begin = [&](std::size_t c) { return n * c / chunks; };
  for (std::size_t c = 1; c < chunks; ++c) {
    const std::size_t lo = chunk_begin(c);
    const std::size_t hi = chunk_begin(c + 1);
    pending.push_back(
        pool->submit([&eval, lo, hi] { return scan_range(lo, hi, eval); }));
  }
  ScanOutcome total = scan_range(chunk_begin(0), chunk_begin(1), eval);
  for (std::future<ScanOutcome>& future : pending) {
    const ScanOutcome chunk = future.get();
    total.feasible += chunk.feasible;
    total.rejected += chunk.rejected;
    if (chunk.best != kNoCandidate && chunk.best_score < total.best_score) {
      total.best_score = chunk.best_score;
      total.best = chunk.best;
    }
  }
  return total;
}

/// The per-request decision loop shared by every scan-based allocator, as a
/// streaming policy: arg-min-scans the fleet with `score` (lower is better;
/// ties to the lowest server index). Batch allocate() and the streaming
/// replay both run exactly this code (core/streaming.h run_batch /
/// PlacementEngine), so they cannot diverge.
///
/// While tracing, the scan runs the serial check_fit loop — decision records
/// are inherently ordered, and rejection diagnostics need check_fit — through
/// the same scan_range arg-min, so traced and untraced runs cannot diverge
/// (tests/test_envelope_scan.cpp). `score_is_energy_delta` tells the tracer
/// whether `score` already *is* the Eq. 17 incremental energy; otherwise
/// candidates are priced separately for the trace, as the baselines always
/// did.
template <typename ScoreFn>
class ScanPolicy final : public PlacementPolicy {
 public:
  ScanPolicy(std::string name, bool score_is_energy_delta, ScoreFn score,
             const ScanConfig& config, const ObsContext& obs)
      : name_(std::move(name)),
        score_is_energy_delta_(score_is_energy_delta),
        score_(std::move(score)),
        config_(config),
        obs_(obs) {}

  std::string name() const override { return name_; }

  void begin(const ClusterState& cluster, Rng& /*rng*/) override {
    const std::size_t n = cluster.num_servers();
    if (!obs_.tracing() && config_.resolved_threads() > 1 && n > 1)
      pool_ = std::make_unique<ThreadPool>(
          static_cast<std::size_t>(config_.resolved_threads()) - 1);
  }

  PlacementDecision place_one(const ClusterState& cluster, const VmSpec& vm,
                              Rng& /*rng*/) override {
    const std::vector<ServerTimeline>& timelines = cluster.timelines();
    const std::size_t n = timelines.size();
    PlacementDecision result;
    if (obs_.tracing()) {
      DecisionBuilder decision(obs_, name_, vm.id);
      const ScanOutcome out = scan_range(
          std::size_t{0}, n, [&](std::size_t i) -> std::optional<double> {
            const FitCheck fit = timelines[i].check_fit(vm);
            if (!fit.ok) {
              decision.add_rejected(static_cast<ServerId>(i), fit);
              return std::nullopt;
            }
            const double s = score_(timelines[i], vm);
            decision.add_feasible(static_cast<ServerId>(i),
                                  score_is_energy_delta_
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
      result.has_delta = true;
      result.delta = score_is_energy_delta_
                         ? out.best_score
                         : incremental_cost(timelines[out.best], vm);
      decision.commit(result.server, result.delta);
      return result;
    }

    // SoA envelope pass (core/envelope_store.h): one contiguous sweep
    // classifies the whole fleet with quick_fit's exact comparisons before
    // the (possibly parallel) arg-min touches any timeline; only servers the
    // sweep leaves kUnknown fall through to the segment trees. The verdict
    // buffer is written here, serially, before any worker task is submitted
    // (scan_candidates' future machinery orders the reads after), and read
    // by server index — contiguous ascending like the scan itself.
    verdicts_.resize(n);
    cluster.envelopes().classify(EnvelopeStore::probe_of(vm),
                                 verdicts_.data());
    const ScanOutcome out = scan_candidates(
        n,
        [&](std::size_t i) -> std::optional<double> {
          switch (static_cast<QuickFit>(verdicts_[i])) {
            case QuickFit::kFits: return score_(timelines[i], vm);
            case QuickFit::kCannotFit: return std::nullopt;
            case QuickFit::kUnknown: break;
          }
          if (!timelines[i].can_fit(vm)) return std::nullopt;
          return score_(timelines[i], vm);
        },
        pool_.get());
    feasible_ += out.feasible;
    rejected_ += out.rejected;
    if (out.best == kNoCandidate) return result;  // reported as unallocated
    result.server = static_cast<ServerId>(out.best);
    if (score_is_energy_delta_) {
      result.has_delta = true;
      result.delta = out.best_score;
    }
    return result;
  }

  void finish(std::size_t requests, std::size_t unallocated) override {
    record_allocation_metrics(obs_.metrics, name_, requests, feasible_,
                              rejected_, unallocated);
  }

 private:
  std::string name_;
  bool score_is_energy_delta_;
  ScoreFn score_;
  ScanConfig config_;
  ObsContext obs_;
  std::unique_ptr<ThreadPool> pool_;
  std::int64_t feasible_ = 0;
  std::int64_t rejected_ = 0;
  /// Per-scan QuickFit verdict bytes from the envelope pass, indexed by
  /// server. Written serially before each scan fans out; workers only read.
  std::vector<std::uint8_t> verdicts_;
};

/// Deduces the ScoreFn type; the scan-based allocators' make_policy() and
/// allocate() both construct their policy through this.
template <typename ScoreFn>
std::unique_ptr<ScanPolicy<ScoreFn>> make_scan_policy(
    std::string name, bool score_is_energy_delta, ScoreFn score,
    const ScanConfig& config, const ObsContext& obs) {
  return std::make_unique<ScanPolicy<ScoreFn>>(std::move(name),
                                               score_is_energy_delta,
                                               std::move(score), config, obs);
}

}  // namespace esva
