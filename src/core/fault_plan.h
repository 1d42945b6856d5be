// Deterministic fault schedules for the streaming engine (core/streaming.h).
//
// A FaultPlan is an ordered list of server fail / recover / drain events that
// a PlacementEngine applies at advance_to boundaries: the cluster is advanced
// to each event's time (retiring VMs that finished first), then the event
// fires. Plans are plain data — parsed from CSV (`time,event,server`, see
// docs/FORMATS.md), written back out, or synthesized from a seeded Rng — so a
// chaos run is exactly as reproducible as a fault-free one: the same plan and
// seed replay bit-identically (tests/test_faults.cpp).
//
// Semantics of the three event kinds (implemented by ClusterState):
//   * fail    — the server goes dark: its still-active VMs are displaced and
//               handed back to the engine for evacuation, and no policy can
//               place on it until it recovers.
//   * drain   — graceful decommission: hosted VMs run to completion, but the
//               server accepts no new placements.
//   * recover — the server returns to service (from failed or drained).

#pragma once

#include <cstddef>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "util/rng.h"
#include "util/types.h"

namespace esva {

enum class FaultKind {
  kFail,     ///< server loss: displace active VMs, refuse new placements
  kDrain,    ///< graceful decommission: keep active VMs, refuse new ones
  kRecover,  ///< return to service
};

std::string to_string(FaultKind kind);

/// Inverse of to_string: "fail", "drain" or "recover"; nullopt for anything
/// else, which each reader (fault-plan CSV, wire request, WAL record)
/// reports in its own context.
std::optional<FaultKind> parse_fault_kind(const std::string& text);

struct FaultEvent {
  Time at = 1;  ///< fires when the engine's frontier reaches this time
  FaultKind kind = FaultKind::kFail;
  ServerId server = 0;
};

/// An immutable schedule of fault events, ordered by time. Same-time events
/// keep their input order (stable sort), so a plan's effect is a pure
/// function of its contents.
class FaultPlan {
 public:
  FaultPlan() = default;
  explicit FaultPlan(std::vector<FaultEvent> events);

  bool empty() const { return events_.empty(); }
  std::size_t size() const { return events_.size(); }
  const std::vector<FaultEvent>& events() const { return events_; }

  /// Throws std::invalid_argument if any event targets a server outside
  /// [0, num_servers) or fires before time 1.
  void validate(std::size_t num_servers) const;

 private:
  std::vector<FaultEvent> events_;
};

/// CSV persistence: header `time,event,server`, one event per row, event in
/// {fail, drain, recover}. Throws std::runtime_error with a line-numbered
/// message on malformed input (same contract as workload/trace.h), which
/// load_fault_plan prefixes with "<path>: ".
void write_fault_plan(std::ostream& out, const FaultPlan& plan);
FaultPlan read_fault_plan(std::istream& in);
FaultPlan load_fault_plan(const std::string& path);

/// Knobs for synthesizing a random fail/recover plan (the bench chaos
/// section and `tests/test_faults.cpp` reproducibility checks).
struct ChaosConfig {
  std::size_t num_servers = 0;  ///< fleet size events are drawn over
  int failures = 4;             ///< number of fail events
  Time window_lo = 1;           ///< earliest failure time
  Time window_hi = 1000;        ///< latest failure time
  Time mean_repair = 120;       ///< mean fail -> recover delay (exponential)
};

/// A seeded schedule of `failures` fail events uniform over
/// [window_lo, window_hi], each paired with a recover event after an
/// exponential repair delay. Deterministic in (config, seed).
FaultPlan random_fault_plan(const ChaosConfig& config, Rng& rng);

}  // namespace esva
