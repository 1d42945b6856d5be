// The in-process side of the benchmark.
//
// Pipeline re-assembles the daemon's request path from the library's public
// layers — serve::decode_request, PlacementEngine::advance_to/submit,
// PlacementPolicy::place_one, encode_place_record, WalWriter::append,
// write_snapshot_atomic — constructing its engine exactly as
// serve::Daemon's constructor does. Untraced, it is the run's reference: the
// per-op servers and energies every daemon response and recovery is checked
// against. Traced, it records a span around each call into a layer, plus
// const "shadow" calls (EnvelopeStore::classify, ServerTimeline::can_fit,
// incremental_cost) on the exact state place_one sees, which split the scan
// into triage, tree probes and scoring. Spans are kept in memory and can be
// written as Chrome trace-event JSON.

#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/allocator.h"
#include "core/streaming.h"
#include "serve/daemon.h"
#include "serve/journal.h"
#include "util/rng.h"

namespace esva::bench {

/// Span names; each maps to one layer (layer_of).
enum class SpanName : std::uint8_t {
  kOp,         ///< one request, end to end inside the pipeline
  kDecode,     ///< serve::decode_request
  kAdvance,    ///< PlacementEngine::advance_to
  kFault,      ///< PlacementEngine::apply_fault
  kRetire,     ///< PlacementEngine::retire_vm
  kSubmit,     ///< PlacementEngine::submit
  kHorizon,    ///< submit up to place_one: late check + ensure_horizon
  kPlaceOne,   ///< PlacementPolicy::place_one
  kShadow,     ///< the shadow calls below (excluded from the layer sum)
  kTriage,     ///< EnvelopeStore::classify
  kTreeProbe,  ///< ServerTimeline::can_fit over undecided servers
  kScore,      ///< incremental_cost over feasible servers
  kResolve,    ///< resolution fold + assignment map (daemon bookkeeping)
  kEncode,     ///< serve::encode_*_record
  kAppend,     ///< WalWriter::append
  kSnapshot,   ///< WAL sync + export_state + write_snapshot_atomic
  kRespond,    ///< response line
  kCount
};

const char* span_label(SpanName name);

enum class Layer : std::uint8_t {
  kDaemon, kWire, kEngine, kScan, kJournal, kSnapshot, kShadow, kCount
};

Layer layer_of(SpanName name);

/// Stack-based span recorder. Self time (duration minus the time covered by
/// child spans) is accumulated per name as each span ends.
class Tracer {
 public:
  struct Span {
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::uint64_t request = 0;
    std::int32_t parent = -1;
    SpanName name = SpanName::kOp;
  };

  /// Reserves room for `spans` spans, so growth never lands inside one.
  void reserve(std::size_t spans) { spans_.reserve(spans); }
  /// Tags the spans that follow with a request id (kept until the next call).
  void set_request(std::uint64_t request) { request_ = request; }
  void begin(SpanName name);
  /// Ends the innermost open span (which must be `name`); returns its
  /// duration in nanoseconds.
  std::int64_t end(SpanName name);
  /// Ends the innermost span if it is `name` and returns its duration;
  /// returns -1 and does nothing otherwise.
  std::int64_t end_if_open(SpanName name);

  std::int64_t self_ns(SpanName name) const {
    return self_ns_[static_cast<std::size_t>(name)];
  }
  std::int64_t total_ns(SpanName name) const {
    return total_ns_[static_cast<std::size_t>(name)];
  }
  std::int64_t count(SpanName name) const {
    return count_[static_cast<std::size_t>(name)];
  }
  /// Σ self time of every span in `layer`.
  std::int64_t layer_self_ns(Layer layer) const;

  /// Chrome trace-event JSON ("X" events, microseconds; Perfetto loads it).
  void write_chrome_trace(const std::string& path) const;

 private:
  struct Open {
    std::int32_t index;
    std::int64_t child_ns;
  };
  std::vector<Span> spans_;
  std::vector<Open> stack_;
  std::uint64_t request_ = 0;
  std::int64_t self_ns_[static_cast<std::size_t>(SpanName::kCount)] = {};
  std::int64_t total_ns_[static_cast<std::size_t>(SpanName::kCount)] = {};
  std::int64_t count_[static_cast<std::size_t>(SpanName::kCount)] = {};
};

/// Work counters of the shadow scan calls (made on a fixed sample of the
/// place_one calls).
struct ShadowCounters {
  std::int64_t calls = 0;          ///< sampled place_one invocations
  std::int64_t servers = 0;        ///< servers triaged
  std::int64_t decided = 0;        ///< triage verdicts other than kUnknown
  std::int64_t tree_probes = 0;    ///< can_fit calls
  std::int64_t tree_fits = 0;      ///< can_fit calls that returned true
  std::int64_t scored = 0;         ///< incremental_cost calls
  double score_sink = 0.0;         ///< keeps the scoring loop observable
  /// Per sampled call: the three shadow parts summed, and place_one itself.
  std::vector<double> shadow_us;
  std::vector<double> place_one_us;
};

/// Per-call samples the layer percentiles need.
struct PipelineSamples {
  std::vector<double> place_one_us;
  std::vector<double> advance_us;        ///< explicit advance_to, per place op
  std::vector<double> append_us;
  std::vector<double> commit_append_us;  ///< appends that wrote + fsynced
  std::vector<double> snapshot_ms;
  std::int64_t horizon_growths = 0;
  std::int64_t horizon_growth_ns = 0;
  std::int64_t record_bytes = 0;         ///< journal bytes incl. newlines
  std::int64_t records = 0;
  std::int64_t snapshot_bytes = 0;
};

class Pipeline {
 public:
  /// `options` are the daemon's (wal/snapshot paths may be empty: the
  /// untraced reference journals nothing). `tracer` null = untraced.
  Pipeline(std::vector<ServerSpec> servers, const serve::DaemonOptions& options,
           Tracer* tracer);
  ~Pipeline();
  Pipeline(const Pipeline&) = delete;
  Pipeline& operator=(const Pipeline&) = delete;

  /// Applies one state-changing request line the way Daemon::handle_line
  /// does and returns the response line. Throws on a malformed line or a
  /// failed op (the benchmark only sends ops that succeed).
  std::string handle(const std::string& line, std::uint64_t request);

  /// Writes a snapshot of the current state to `path` as the daemon's
  /// periodic snapshot does (journal synced first).
  void snapshot(const std::string& path);

  const PlacementEngine& engine() const { return *engine_; }
  const std::map<VmId, ServerId>& assignment() const { return assignment_; }
  /// The journal sequence number the last op was given.
  std::uint64_t last_seq() const { return next_seq_ - 1; }
  /// Server of the last place op (kNoServer when deferred or rejected).
  ServerId last_server() const { return last_server_; }

  const ShadowCounters& shadow() const;
  const PipelineSamples& samples() const { return samples_; }

 private:
  class TimedPolicy;

  void sync_resolutions();
  void journal(const std::string& record);

  serve::DaemonOptions options_;
  Tracer* tracer_;
  AllocatorPtr allocator_;
  std::unique_ptr<PlacementPolicy> inner_;
  std::unique_ptr<TimedPolicy> policy_;
  Rng rng_;
  std::unique_ptr<PlacementEngine> engine_;
  std::unique_ptr<serve::WalWriter> wal_;
  std::uint64_t next_seq_ = 1;
  std::uint64_t ops_since_snapshot_ = 0;
  std::map<VmId, ServerId> assignment_;
  std::size_t resolutions_applied_ = 0;
  ServerId last_server_ = kNoServer;
  PipelineSamples samples_;
};

}  // namespace esva::bench
