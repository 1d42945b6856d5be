// Observability pillar 2: allocation decision tracing.
//
// Every allocator in the library can explain *why* it picked a server: for
// each VM it emits one VmDecisionTrace naming the candidate servers it
// considered, the feasibility rejections (which resource, which time unit —
// FitReject from cluster/timeline.h), the incremental-cost delta of each
// feasible candidate, and the server finally chosen. Events flow through a
// pluggable TraceSink: JsonlTraceSink streams them as one JSON object per
// line (schema in docs/OBSERVABILITY.md), MemoryTraceSink buffers them for
// tests and in-process analysis.
//
// The hook lives on the Allocator base class (core/allocator.h) as an
// ObsContext {TraceSink*, MetricsRegistry*}; both pointers default to null,
// and a null context must cost nothing — allocators guard every trace branch
// on `obs.tracing()` and fall back to the raw can_fit() fast path.

#pragma once

#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "cluster/timeline.h"
#include "util/types.h"

namespace esva {

class MetricsRegistry;

/// One server examined while deciding a VM's placement.
struct CandidateTrace {
  ServerId server = kNoServer;
  bool feasible = false;
  /// Why the server was rejected (None when feasible) and the earliest
  /// violating time unit (0 for horizon rejections).
  FitReject reject = FitReject::None;
  Time reject_at = 0;
  /// Incremental energy (Eq. 17 delta) of hosting the VM here. Allocators
  /// that do not price candidates (FFPS's first fit) still report it while
  /// tracing so traces are comparable across policies; has_delta=false marks
  /// candidates whose delta was never evaluated.
  bool has_delta = false;
  Energy delta = 0.0;
};

/// The full decision record for one VM.
struct VmDecisionTrace {
  std::string allocator;
  VmId vm = 0;
  ServerId chosen = kNoServer;  ///< kNoServer: the VM stayed unallocated
  bool has_chosen_delta = false;
  Energy chosen_delta = 0.0;
  /// Free-form qualifier for non-greedy events ("migration", "window-reopt");
  /// empty for first-placement decisions.
  std::string note;
  std::vector<CandidateTrace> candidates;
};

/// Consumer of decision events. Implementations must tolerate concurrent
/// on_decision calls (the experiment harness may run allocators in parallel
/// in future PRs).
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void on_decision(const VmDecisionTrace& decision) = 0;
};

/// Buffers decisions in memory (thread-safe); the test sink.
class MemoryTraceSink final : public TraceSink {
 public:
  void on_decision(const VmDecisionTrace& decision) override;

  std::vector<VmDecisionTrace> decisions() const;
  std::size_t size() const;
  void clear();

 private:
  mutable std::mutex mutex_;
  std::vector<VmDecisionTrace> decisions_;
};

/// Streams decisions to an output stream as JSON Lines (one object per
/// decision, flushed per line so partial traces of crashed runs are usable).
class JsonlTraceSink final : public TraceSink {
 public:
  /// Writes to `out` (not owned; must outlive the sink).
  explicit JsonlTraceSink(std::ostream& out);
  /// Opens `path` for writing; throws std::runtime_error on failure.
  explicit JsonlTraceSink(const std::string& path);
  ~JsonlTraceSink() override;

  void on_decision(const VmDecisionTrace& decision) override;

 private:
  std::mutex mutex_;
  std::unique_ptr<std::ostream> owned_;
  std::ostream* out_;
};

/// Serializes one decision as a single-line JSON object (no trailing \n).
std::string to_jsonl(const VmDecisionTrace& decision);

/// Parses JSONL produced by to_jsonl / JsonlTraceSink back into decision
/// records. Throws std::runtime_error on malformed input. Blank lines are
/// skipped.
std::vector<VmDecisionTrace> load_trace_jsonl(std::istream& in);
std::vector<VmDecisionTrace> load_trace_jsonl_file(const std::string& path);

/// Replays a trace into an assignment vector: the last decision for each VM
/// wins (so migration/reopt notes override the initial placement). VMs never
/// mentioned stay kNoServer.
std::vector<ServerId> assignment_from_trace(
    const std::vector<VmDecisionTrace>& decisions, std::size_t num_vms);

/// Shared observability context handed to allocators and extension passes.
/// Null members disable the corresponding pillar at (near) zero cost.
struct ObsContext {
  TraceSink* trace = nullptr;
  MetricsRegistry* metrics = nullptr;

  bool tracing() const { return trace != nullptr; }
};

/// Accumulates one VmDecisionTrace and emits it on commit(). All methods are
/// no-ops when the context has no sink, so allocators can call them
/// unconditionally inside `if (obs.tracing())` blocks or not at all.
class DecisionBuilder {
 public:
  DecisionBuilder(const ObsContext& obs, std::string allocator, VmId vm);

  bool active() const { return sink_ != nullptr; }

  void add_feasible(ServerId server, Energy delta);
  void add_rejected(ServerId server, const FitCheck& fit);
  void set_note(std::string note);

  /// Finalizes and emits the record (chosen may be kNoServer). Its
  /// chosen_delta is the delta add_feasible recorded for `chosen`, and
  /// absent when there is none. Calling commit at most once is the caller's
  /// responsibility.
  void commit(ServerId chosen);

 private:
  TraceSink* sink_ = nullptr;
  VmDecisionTrace decision_;
};

}  // namespace esva
