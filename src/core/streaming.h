// Streaming allocation core: the event-driven counterpart of the batch
// Allocator interface. The paper's heuristic is already online in start-time
// order (§III) — this layer makes that operational: requests are submitted
// one at a time to a stateful PlacementEngine, and advance_to(t) garbage-
// collects occupancy structure strictly before the time frontier so resident
// state is O(active window), not O(horizon).
//
// Three pieces:
//
//   * ClusterState — owns one ServerTimeline per server over a rolling
//     window [base_i, horizon]. advance_to(t) retires VMs that finish before
//     the frontier and, amortized, rebuilds each timeline with an advanced
//     base; ensure_horizon(end) grows the forward window with doubling so
//     per-request growth is O(1) amortized. Servers also carry a health
//     state (up / drained / failed): a non-up server's timeline is replaced
//     by an empty-window stub, so every policy's can_fit probe rejects it —
//     failed capacity vanishes from every scan without per-policy checks.
//
//   * PlacementPolicy — the incremental `place_one` interface every
//     streamable allocator implements (the scan-based ScanPolicy in
//     core/candidate_scan.h, first-fit and random-fit policies in
//     baselines/). A policy only *chooses* a server; the engine commits the
//     placement, so batch and streaming drivers share one decision path.
//
//   * PlacementEngine — submit(VmSpec) -> PlacementDecision per request,
//     plus advance_to(t). run_batch() is the batch driver behind
//     Allocator::allocate(): "sort by start time, feed the stream",
//     bit-identical to the pre-refactor batch loops
//     (tests/test_streaming.cpp). The engine is also the fault-tolerance
//     layer: it steps through an optional FaultPlan at advance_to
//     boundaries, evacuates VMs displaced by server failures through the
//     bound policy (charging ext/migration's first-order energy term), and
//     runs a bounded retry queue with exponential backoff for infeasible and
//     displaced requests. With no plan and retries disabled, every fault
//     path is dormant and the engine is bit-identical to the fault-free one
//     (tests/test_faults.cpp pins this differentially).
//
// Why garbage collection cannot change decisions: a future placement's
// feasibility depends only on usage within its own interval (at or after the
// frontier), and its structure-cost delta (core/cost_model.h) depends only
// on the IntervalSet::preview_insert_view neighborhood — the left neighbor's
// hi, the right neighbor's lo, the absorbed intervals, and whether the busy
// set is empty. Every busy interval dropped by GC ends strictly before the
// frontier, so the only observable trace it could leave on a future delta is
// the hi of the *latest* dropped interval (as left-gap anchor) and busy
// non-emptiness. Rebuilding with a unit sentinel interval at that endpoint
// (ServerTimeline::seed_busy) preserves both exactly, so every subsequent
// delta — and therefore every subsequent decision — is bitwise unchanged.
// tests/test_streaming.cpp pins this property differentially.
//
// Pristine servers. A server is pristine while it is placeable, hosts no
// active VM and has no retired-busy sentinel (retired_hi == 0). Its timeline
// is then untouched: lazy trees that were never materialized
// (util/segment_tree.h), an empty busy set, and the window every pristine
// timeline shares, [pristine_base_, horizon]. Every way into the state
// builds the timeline fresh: construction, retire_active at frontier 1,
// recover_server and restore. Pristine servers whose specs agree bit
// for bit in the five doubles the scan scores read form one class, and the
// candidate scan (core/candidate_scan.h) visits only each class's
// lowest-index member; advance_to and retire_active walk only the
// non-pristine servers, and ensure_horizon moves pristine windows without
// tree work. So per-op cost follows the servers that ever held a VM, not
// the fleet, and resident_time_units() counts materialized trees only.

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cluster/server_spec.h"
#include "cluster/timeline.h"
#include "cluster/vm.h"
#include "core/allocator.h"
#include "core/envelope_store.h"
#include "core/cost_model.h"
#include "core/fault_plan.h"
#include "obs/trace.h"
#include "util/rng.h"
#include "util/types.h"

namespace esva {

class Counter;          // obs/metrics.h
struct FleetSample;     // obs/timeseries.h
class TimeSeriesSampler;  // obs/timeseries.h
class EnergyLedger;     // obs/energy_ledger.h

/// Availability of one server in a ClusterState.
enum class ServerHealth {
  kUp,       ///< accepting placements
  kDrained,  ///< hosted VMs run to completion; no new placements
  kFailed,   ///< dark: active VMs were displaced; no new placements
};

std::string to_string(ServerHealth health);

/// Per-server timelines behind a rolling time frontier.
class ClusterState {
 public:
  /// Timelines over [1, initial_horizon]; pass 0 to grow on demand via
  /// ensure_horizon (the streaming replay default).
  ClusterState(std::vector<ServerSpec> servers, Time initial_horizon);

  std::size_t num_servers() const { return timelines_.size(); }
  const std::vector<ServerTimeline>& timelines() const { return timelines_; }
  const ServerSpec& server(std::size_t i) const { return servers_[i]; }

  /// Packed SoA mirror of every timeline's window envelope
  /// (core/envelope_store.h), refreshed O(1) at each timeline mutation —
  /// place, GC rebuild, fault stub, recovery, and a pristine window's move
  /// at horizon growth — so every row is coherent, pristine ones included.
  /// Row i mirrors timelines()[i]. Coherence is fuzzed via
  /// EnvelopeStore::debug_validate in tests/test_envelope_scan.cpp.
  const EnvelopeStore& envelopes() const { return envelopes_; }

  // --- pristine classes (header comment, "Pristine servers") ---------------

  /// Placeable, no active VMs and no retired-busy sentinel: the timeline is
  /// untouched and shares the one pristine window with every other
  /// pristine server.
  bool pristine(std::size_t i) const { return pristine_[i] != 0; }

  /// Class of server i: servers whose specs agree bit for bit in capacity,
  /// p_idle, p_peak and transition_time share one. Fixed at construction.
  std::size_t class_of(std::size_t i) const { return class_of_[i]; }
  std::size_t num_classes() const { return class_members_.size(); }

  /// The servers the candidate scan visits, ascending by index: every
  /// placeable server that is not pristine, plus each class's
  /// lowest-index pristine server (its representative). O(1); maintained
  /// at every state change.
  const std::vector<std::size_t>& scan_candidates() const {
    return candidates_;
  }

  /// How many servers scan candidate `i` answers for: its class's pristine
  /// count when `i` is pristine, else 1.
  std::size_t represented(std::size_t i) const {
    return pristine(i) ? class_members_[class_of_[i]].size() : 1;
  }

  /// Requests must start at or after the frontier; structure strictly before
  /// it is garbage-collectible.
  Time frontier() const { return frontier_; }
  Time horizon() const { return horizon_; }

  /// Grows the horizon to cover `end` (amortized doubling of the forward
  /// window, saturating at the largest Time). No-op when already covered.
  /// Rebuilds the non-pristine placeable timelines; pristine ones only get
  /// their window bounds moved, which allocates nothing.
  void ensure_horizon(Time end);

  /// Commits a placement chosen by a policy. The VM must fit (asserted by
  /// the timeline), the server must be up, and the VM is tracked as active
  /// until it retires.
  void place(std::size_t server, const VmSpec& vm);

  /// Advances the frontier to `t` (no-op backwards), retires VMs ending
  /// before it, and — amortized — rebuilds timelines over the shrunken
  /// window. Walks only the non-pristine servers: a pristine one hosts
  /// nothing and holds no trees. Never changes any subsequent decision
  /// (header comment).
  void advance_to(Time t);

  /// VMs placed and not yet retired by advance_to. O(1) — place() and the
  /// retire sweep maintain a running count; the sweep asserts it against
  /// its own recount, and the rare fault and retire paths against
  /// active_vms_scan().
  std::size_t active_vms() const { return active_count_; }

  /// The O(num_servers) verification twin of active_vms(): recounts from
  /// the per-server lists. Tests and debug asserts only.
  std::size_t active_vms_scan() const;

  /// Fleet-wide snapshot at instant `t` for the time-series sampler: usage
  /// is recomputed from the active VM lists (not the timelines, whose stubs
  /// hide drained servers' load), power via the Eq. 1 model for servers
  /// hosting load. Engine-level fields (retry depth, counters) are left zero
  /// for PlacementEngine to fill. O(active VMs + servers).
  FleetSample sample(Time t) const;

  /// Materialized tree window, in time units summed over servers
  /// (ServerTimeline::resident_units) — the resource-tree memory footprint
  /// the rolling horizon bounds. Pristine servers contribute nothing. O(1).
  std::size_t resident_time_units() const { return resident_units_; }

  // --- server health (core/fault_plan.h events) ----------------------------

  ServerHealth health(std::size_t i) const { return health_[i]; }
  bool placeable(std::size_t i) const {
    return health_[i] == ServerHealth::kUp;
  }

  /// Marks the server failed and returns its still-active VMs in placement
  /// order (the engine evacuates them). The timeline becomes an empty-window
  /// stub every can_fit probe rejects; occupancy up to the failure instant
  /// stays anchored via the retired-busy sentinel. No-op (empty result) if
  /// already failed.
  std::vector<VmSpec> fail_server(std::size_t i);

  /// Graceful decommission: active VMs keep running (and retire normally),
  /// but the timeline becomes a stub so nothing new lands here. Only
  /// meaningful from the up state.
  void drain_server(std::size_t i);

  /// Returns a failed or drained server to service: its timeline is rebuilt
  /// over the current window with surviving active VMs replayed and the
  /// retired-busy sentinel seeded. No-op if already up.
  void recover_server(std::size_t i);

  /// Test/debug knob: rebuild a timeline whenever any dead prefix exists
  /// (instead of the 2x-amortized threshold). Forces the retired-sentinel
  /// path on every advance_to tick — decisions must not change
  /// (tests/test_streaming.cpp).
  void set_eager_rebuild(bool eager) { eager_rebuild_ = eager; }

  // --- restorable state (serve-daemon snapshots, src/serve/snapshot.h) -----

  /// Per-server restorable occupancy: health, the rebuild sentinel, and the
  /// active VM list in placement order.
  std::vector<struct ServerStateSnapshot> export_servers() const;

  /// Rebuilds this cluster to a previously exported state: every placeable
  /// timeline is freshly rebuilt over [window_base, horizon] with the
  /// retired-busy sentinel seeded and active VMs replayed in order; non-up
  /// servers get the frontier stub. By the GC-invariance argument in the
  /// header comment, every decision taken after restore is byte-identical to
  /// one taken on the cluster the state was exported from. Throws
  /// std::invalid_argument on a fleet-size mismatch or inconsistent state
  /// (active VMs on a failed server, a VM ending past the horizon).
  void restore(Time frontier, Time horizon,
               const std::vector<struct ServerStateSnapshot>& servers);

  /// Early retirement of an active VM (client-requested teardown before
  /// vm.end): removes it from its host's active list, re-anchors the rebuild
  /// sentinel at frontier-1 (the VM occupied its server through the last
  /// completed unit), and rebuilds the host timeline so the freed capacity is
  /// visible to the next scan. Returns the host server, or kNoServer when no
  /// active VM carries this id.
  ServerId retire_active(VmId vm);

 private:
  Time window_base(std::size_t i) const;
  bool should_rebuild(std::size_t i) const;
  /// Rebuilds placeable timeline `i` over [window_base(i), horizon_], or
  /// over the pristine window when it hosts nothing and has no sentinel.
  void rebuild(std::size_t i);
  /// Replaces timeline `i` with an empty-window stub at the frontier.
  void stub_timeline(std::size_t i);
  void recompute_next_retire();
  /// Recomputes every server's pristine flag and the class, non-pristine
  /// and candidate lists from scratch. O(servers).
  void reindex();
  /// Re-derives server i's pristine flag after a change to its health,
  /// active VMs or sentinel, and patches the lists: binary searches plus
  /// sorted-vector inserts and erases.
  void reclassify(std::size_t i);
  /// True when the candidate scan must visit server i.
  bool scanned(std::size_t i) const {
    return placeable(i) &&
           (!pristine(i) || class_members_[class_of_[i]].back() == i);
  }
  /// Lists or unlists `i` in candidates_ to match scanned(i).
  void sync_candidate(std::size_t i);

  std::vector<ServerSpec> servers_;
  std::vector<ServerTimeline> timelines_;
  /// SoA envelope rows mirroring timelines_ (envelopes()).
  EnvelopeStore envelopes_;
  /// Active VMs per server, in placement order (rebuild replays them).
  std::vector<std::vector<VmSpec>> active_;
  /// Latest end among retired VMs per server (0 = none): the sentinel busy
  /// endpoint seeded into rebuilt timelines.
  std::vector<Time> retired_hi_;
  std::vector<ServerHealth> health_;
  /// Pristine-class bookkeeping (reindex / reclassify). pristine_[i] is the
  /// pristine flag; class_members_[c] lists class c's pristine servers in
  /// descending index order, so back() is the representative;
  /// nonpristine_ and candidates_ are ascending.
  std::vector<std::uint8_t> pristine_;
  std::vector<std::size_t> class_of_;
  std::vector<std::vector<std::size_t>> class_members_;
  std::vector<std::size_t> nonpristine_;
  std::vector<std::size_t> candidates_;
  Time frontier_ = 1;
  Time horizon_ = 0;
  /// Base of the pristine window; <= frontier_. Moves to the frontier at
  /// each horizon growth and restore.
  Time pristine_base_ = 1;
  /// Earliest end among all active VMs (0 = none): advance_to's fast path.
  Time next_retire_ = 0;
  std::size_t resident_units_ = 0;
  std::size_t active_count_ = 0;
  bool eager_rebuild_ = false;
};

/// Why a request was not placed (PlacementDecision::reject). Policies leave
/// this kNone; the engine classifies the outcome.
enum class PlacementReject {
  kNone,         ///< placed
  kNoCapacity,   ///< no feasible server (terminal when retries are off)
  kLateArrival,  ///< start behind the frontier on the tolerant path
  kDeferred,     ///< admitted to the retry queue; may still be placed
  kQueueFull,    ///< retry queue at capacity — terminal
};

std::string to_string(PlacementReject reject);

/// One placement decision: the server chosen and, when none was, why not.
/// Policies do not price it; the engine does (EngineOptions::account_energy).
struct PlacementDecision {
  ServerId server = kNoServer;
  PlacementReject reject = PlacementReject::kNone;
};

/// The incremental interface every streamable allocator implements. A policy
/// instance drives one run: begin() binds it to the cluster (FFPS draws its
/// probe order here), place_one() chooses a server per request without
/// mutating the cluster, finish() flushes per-run metrics.
class PlacementPolicy {
 public:
  virtual ~PlacementPolicy() = default;

  /// Short stable name used in metrics ("min-incremental", "ffps", ...).
  virtual std::string name() const = 0;

  /// Called once, before the first request.
  virtual void begin(const ClusterState& cluster, Rng& rng);

  /// Chooses a server for `vm` (kNoServer when infeasible everywhere). Must
  /// not mutate the cluster — the engine commits the placement.
  virtual PlacementDecision place_one(const ClusterState& cluster,
                                      const VmSpec& vm, Rng& rng) = 0;

  /// Called once, after the last request. `requests` is the number
  /// submitted, `unallocated` how many found no server.
  virtual void finish(std::size_t requests, std::size_t unallocated);
};

/// Bounded deferred-retry configuration: infeasible and displaced requests
/// wait in a capacity-limited queue and are re-attempted at advance_to
/// boundaries under exponential backoff. Defaults disable retries, keeping
/// the engine bit-identical to the historical one.
struct RetryPolicy {
  /// Total placement attempts per request, the initial one included;
  /// <= 1 disables the retry queue entirely.
  int max_attempts = 1;
  /// Queue capacity; admissions beyond it are rejected with kQueueFull.
  std::size_t queue_capacity = 64;
  /// Attempt k+1 fires base_delay × backoff^(k-1) time units after attempt
  /// k fails (k >= 1), rounded, floored at one unit and saturated at the
  /// largest Time.
  Time base_delay = 8;
  double backoff = 2.0;

  bool enabled() const { return max_attempts > 1 && queue_capacity > 0; }
  /// Delay before the attempt following `attempts` failed ones.
  Time delay_for(int attempts) const;
  /// now + delay_for(attempts), saturated at the largest Time (such a retry
  /// only comes due in the end-of-stream drain, past every VM's end).
  Time retry_at(Time now, int attempts) const;
};

/// The largest accepted RetryPolicy::queue_capacity: 2^53, the last integer
/// a double-backed JSON number carries exactly (the serve journal header
/// records the policy that way and refuses to restart on a mismatch).
inline constexpr std::int64_t kMaxRetryQueue = std::int64_t{1} << 53;

/// A RetryPolicy from raw option values: max_attempts in [0, INT_MAX],
/// base_delay in [0, max Time], queue_capacity in [0, kMaxRetryQueue] and a
/// finite, positive backoff — exactly the policies the serve journal header
/// reads back unchanged. Anything else throws std::invalid_argument naming
/// the `--retry-*` flag. `esva stream`, `esva serve` and the serve::Daemon
/// constructor all check their policy here.
RetryPolicy checked_retry_policy(std::int64_t max_attempts,
                                 std::int64_t base_delay, double backoff,
                                 std::int64_t queue_capacity);

struct EngineOptions {
  /// Fixed horizon to pre-build timelines for; 0 grows on demand.
  Time initial_horizon = 0;
  /// Advance the frontier to each request's start time on submit — the
  /// streaming replay mode. Off for the batch driver, where ablation orders
  /// present VMs with non-monotone start times.
  bool auto_advance = false;
  /// Accumulate the Eq. 17 incremental energy of every placement (the
  /// telescoped total equals the batch post-hoc evaluation). The engine
  /// prices each placement itself with `cost`, whatever the policy scored
  /// it with and whether or not it is traced, so total_energy() and the
  /// ledger always agree. Off by default: the batch driver does not need
  /// the total and would pay one extra delta per request.
  bool account_energy = false;
  /// Cost options account_energy and the ledger price placements with.
  CostOptions cost;
  /// Tolerate requests that start behind the frontier: return a structured
  /// kLateArrival rejection instead of throwing. Off by default — on the
  /// batch driver a late submit is a programmer error and keeps the throw.
  bool tolerate_late_arrivals = false;
  /// Deterministic fail/recover/drain schedule applied at advance_to
  /// boundaries; null = no faults. Must outlive the engine; validated
  /// against the fleet size at construction.
  const FaultPlan* faults = nullptr;
  /// Deferred-retry configuration (disabled by default).
  RetryPolicy retry;
  /// Live-migration energy per GiB of displaced VM memory, charged when an
  /// evacuated VM is re-placed (ext/migration's first-order model, via
  /// migration_energy()). Only used with account_energy.
  Energy migration_cost_per_gib = 25.0;
  /// Engine-level observability: the "engine.submit_ms" timer (histogram-
  /// backed for percentile extraction) and "engine.requests" counter, plus
  /// the engine.* fault counters (docs/OBSERVABILITY.md). Policies carry
  /// their own ObsContext for tracing and allocator.* metrics.
  ObsContext obs;
  /// Fleet time-series sampler, fed at advance_to boundaries whenever the
  /// frontier has progressed past the sampler's cadence (obs/timeseries.h);
  /// null = no sampling. Must outlive the engine. Like the metrics sink,
  /// binding a sampler never changes any decision.
  TimeSeriesSampler* timeseries = nullptr;
  /// Energy-attribution ledger: every commit posts its cause-tagged deltas
  /// (obs/energy_ledger.h); null = no ledger. Must outlive the engine. The
  /// ledger recomputes attribution through the cost model's breakdown path —
  /// the engine's own energy accumulation is untouched, so assignments and
  /// total_energy() stay byte-identical with or without a ledger bound.
  EnergyLedger* ledger = nullptr;
  /// Must be 1: the fleet is one block. The constructor throws
  /// std::invalid_argument naming any other count.
  ShardOptions shard;
};

/// The engine configuration `esva stream` (sim/replay.cpp) and the serve
/// daemon share, so a daemon-fed stream decides what the replay decides: a
/// horizon grown on demand, auto-advance, energy accounting priced with
/// `cost`, and late arrivals rejected with kLateArrival instead of a throw.
EngineOptions streaming_engine_options(const CostOptions& cost,
                                       const RetryPolicy& retry,
                                       Energy migration_cost_per_gib);

/// Graceful-degradation counters of one engine run (mirrored into the obs
/// registry as engine.* when a MetricsRegistry is bound).
struct FaultStats {
  std::int64_t fault_events = 0;   ///< fail/drain/recover events applied
  std::int64_t late_arrivals = 0;  ///< structured kLateArrival rejections
  std::int64_t displaced = 0;      ///< VMs knocked off failed servers
  std::int64_t evacuated = 0;      ///< displaced VMs successfully re-placed
  std::int64_t deferred = 0;       ///< admissions into the retry queue
  std::int64_t retries = 0;        ///< retry attempts drained from the queue
  std::int64_t retried_placed = 0; ///< requests placed by a retry attempt
  std::int64_t rejected_final = 0; ///< terminal rejections (all causes)
  std::int64_t queue_full = 0;     ///< admissions bounced off a full queue
  std::int64_t downtime_units = 0; ///< Σ time units displaced VMs sat unserved
};

/// Every FaultStats counter with its report key, in declaration order. The
/// snapshot codec, the daemon's stats op and `esva stream --latency-json`
/// all walk this one list.
inline constexpr std::pair<const char*, std::int64_t FaultStats::*>
    kFaultStatsFields[] = {
        {"fault_events", &FaultStats::fault_events},
        {"late_arrivals", &FaultStats::late_arrivals},
        {"displaced", &FaultStats::displaced},
        {"evacuated", &FaultStats::evacuated},
        {"deferred", &FaultStats::deferred},
        {"retries", &FaultStats::retries},
        {"retried_placed", &FaultStats::retried_placed},
        {"rejected_final", &FaultStats::rejected_final},
        {"queue_full", &FaultStats::queue_full},
        {"downtime_units", &FaultStats::downtime_units},
};

/// A late resolution of a request's hosting: evacuation re-placements,
/// retry placements, and displacements that never found a new home
/// (server == kNoServer). Applied in order over a submit-time assignment,
/// they yield the final hosting (sim/replay.cpp does exactly this).
struct Resolution {
  VmId vm = 0;
  ServerId server = kNoServer;
};

/// Restorable per-server occupancy (EngineStateSnapshot::servers).
struct ServerStateSnapshot {
  ServerHealth health = ServerHealth::kUp;
  /// Latest end among retired VMs — the rebuild sentinel endpoint; 0 = none.
  Time retired_hi = 0;
  /// Active VMs in placement order (restore replays them in this order).
  std::vector<VmSpec> active;
};

/// A retry-queue entry, live (PlacementEngine) and restorable
/// (EngineStateSnapshot::retry_queue) alike.
struct PendingRequest {
  VmSpec vm;
  Time not_before = 0;      ///< earliest next attempt
  int attempts = 0;         ///< placement attempts so far
  bool displaced = false;   ///< evacuation (vs. fresh infeasible request)
  Time waiting_since = 0;   ///< displacement instant (downtime accounting)
  std::uint64_t seq = 0;    ///< admission order — the FIFO tiebreak
};

/// The complete restorable state of a PlacementEngine, minus the two pieces
/// a restore supplies out-of-band: the policy (reconstructed by name with the
/// same seed, so begin() redraws its original probe order) and the Rng words
/// (Rng::set_state). Export on a live engine, import into a freshly
/// constructed one over the same fleet: the decision stream continues
/// byte-identically (tests/test_serve.cpp pins this against an
/// uninterrupted run). The resolution log is history, not state, and is not
/// carried. src/serve/snapshot.h is the durable serialization.
struct EngineStateSnapshot {
  Time frontier = 1;
  Time horizon = 0;
  std::vector<ServerStateSnapshot> servers;
  std::int64_t requests = 0;
  std::int64_t placed = 0;
  Energy energy = 0.0;
  std::size_t peak_resident = 0;
  std::size_t fault_cursor = 0;
  std::uint64_t retry_seq = 0;
  /// Sorted by (not_before, seq), exactly the live queue order.
  std::vector<PendingRequest> retry_queue;
  FaultStats fault_stats;
};

/// Stateful streaming allocator: submit requests in non-decreasing
/// start-time order (enforced against the frontier), get a decision each.
class PlacementEngine {
 public:
  /// Binds `policy` (begin() is called here) to a fresh cluster. The policy
  /// and rng must outlive the engine; one policy instance drives one engine.
  PlacementEngine(std::vector<ServerSpec> servers, PlacementPolicy& policy,
                  Rng& rng, EngineOptions options = {});

  /// Places one request. If vm.start is already behind the frontier (its
  /// window may have been collected), throws std::invalid_argument — or,
  /// with EngineOptions::tolerate_late_arrivals, returns a kLateArrival
  /// rejection instead. `vm` must be valid(): the engine asserts it once
  /// before the policy's scan (and once per evacuation or retry attempt),
  /// so no candidate probe re-checks it.
  PlacementDecision submit(const VmSpec& vm);

  /// Advances the frontier to `t`: fault events scheduled at or before `t`
  /// fire in order (each after the cluster is advanced to its instant, with
  /// earlier-due retries drained first), and the retry queue is drained up
  /// to `t`.
  void advance_to(Time t);

  /// End-of-stream drain: fires every remaining plan event in order, then
  /// steps to the front of the retry queue until it is empty, giving every
  /// queued retry its (bounded) remaining attempts, so no request is left in
  /// limbo. That is the order a daemon sees when a client sends a plan's
  /// tail as fault ops and then drains. Idempotent.
  void finish_stream();

  /// Applies one fault event now — the daemon-driven counterpart of a
  /// FaultPlan bound at construction — through the same rule a plan event
  /// fires by (fire(): advance the cluster to event.at, drain retries due
  /// strictly before the instant, then the event), so a client fault op
  /// gives what the same event in a plan gives (tests/test_serve.cpp pins
  /// the equivalence). Throws std::invalid_argument, changing nothing, on an
  /// out-of-fleet server or an event.at before the frontier: the frontier
  /// has passed that instant, so the VMs the event would displace could only
  /// be re-placed in the past.
  void apply_fault(const FaultEvent& event);

  /// Early retirement of VM `vm` (client-requested teardown): if active,
  /// removes it from its host (ClusterState::retire_active) and returns the
  /// host; otherwise cancels any retry-queue entries carrying this id and
  /// returns kNoServer. Deterministic either way, so a journaled retire
  /// replays exactly.
  ServerId retire_vm(VmId vm);

  // --- restorable state (serve-daemon snapshots) ---------------------------

  /// Everything needed to continue this engine's decision stream in a fresh
  /// process (EngineStateSnapshot doc). Export at a quiescent point — not
  /// mid-submit.
  EngineStateSnapshot export_state() const;

  /// Restores an exported state into this engine. Call on a freshly
  /// constructed engine over the same fleet/policy/options, then restore the
  /// Rng via Rng::set_state — construction already re-ran policy.begin()
  /// with the original seed, so the policy's own begin-time draws match.
  /// Throws std::invalid_argument on a fleet-size mismatch.
  void import_state(const EngineStateSnapshot& snap);

  const ClusterState& cluster() const { return cluster_; }
  /// Test/debug passthrough to ClusterState::set_eager_rebuild.
  void set_eager_rebuild(bool eager) { cluster_.set_eager_rebuild(eager); }

  std::int64_t requests() const { return requests_; }
  /// Requests hosted at submit time or via a later retry.
  std::int64_t placed() const { return placed_; }
  /// Telescoped incremental energy of all placements (plus migration energy
  /// of evacuations); 0 unless EngineOptions::account_energy.
  Energy total_energy() const { return energy_; }
  /// High-water mark of ClusterState::resident_time_units().
  std::size_t peak_resident_time_units() const { return peak_resident_; }

  const FaultStats& fault_stats() const { return faults_; }
  /// Post-submit hosting changes since construction, import_state or the
  /// last clear_resolutions.
  const std::vector<Resolution>& resolutions() const { return resolutions_; }
  /// Drops the log (keeping its capacity). A caller that folds each op's
  /// resolutions right after the op (the serve daemon) keeps the log from
  /// growing for the engine's whole life; callers that fold once at the end
  /// (sim/replay.cpp) never call it.
  void clear_resolutions() { resolutions_.clear(); }

  /// Forces a time-series sample at the current frontier, ignoring the
  /// sampler's cadence (end-of-stream final state). No-op without a sampler.
  void sample_now();

 private:
  /// Advances the cluster to `t`: fires every plan event due by `t`, then
  /// drains the retries due by `t`.
  void step_to(Time t);
  /// The one fault-event rule, for plan events and apply_fault alike:
  /// advance the cluster to event.at, drain the retries due strictly before
  /// it against the pre-event cluster (at the instant itself the fault wins),
  /// apply the event, then take the post-event sample.
  void fire(const FaultEvent& event);
  void evacuate(VmSpec vm, Time now);
  /// Commits a policy decision (energy accounting + cluster placement).
  void commit(const PlacementDecision& decision, const VmSpec& vm,
              bool charge_migration);
  /// Queues the request for retry, or terminally rejects it. Returns the
  /// classification for the caller's decision.
  PlacementReject defer_or_reject(VmSpec vm, Time now, bool displaced,
                                  int attempts);
  void final_reject(const PendingRequest& pending);
  void drain_retries(Time now);
  void enqueue(PendingRequest pending);
  /// Samples at the frontier if the sampler's cadence is due.
  void maybe_sample();
  /// Unconditional sample at `t` (cluster state + engine counters).
  void take_sample(Time t);

  ClusterState cluster_;
  PlacementPolicy& policy_;
  Rng& rng_;
  EngineOptions options_;
  Timer* submit_timer_ = nullptr;
  Counter* request_counter_ = nullptr;
  Counter* late_counter_ = nullptr;
  Counter* evacuated_counter_ = nullptr;
  Counter* retry_counter_ = nullptr;
  Counter* rejected_final_counter_ = nullptr;
  Counter* downtime_counter_ = nullptr;
  std::int64_t requests_ = 0;
  std::int64_t placed_ = 0;
  Energy energy_ = 0.0;
  std::size_t peak_resident_ = 0;
  std::size_t fault_cursor_ = 0;
  std::uint64_t retry_seq_ = 0;
  /// Sorted by (not_before, seq); drained from the front.
  std::vector<PendingRequest> retry_queue_;
  FaultStats faults_;
  std::vector<Resolution> resolutions_;
};

/// Truncates a request to begin no earlier than `t` (profile prefix dropped,
/// peak demand recomputed). Returns `vm` unchanged when vm.start >= t.
/// Requires vm.end >= t.
VmSpec clip_to(VmSpec vm, Time t);

/// The historical batch contract as a stream driver: presents problem.vms in
/// `order` to a PlacementEngine over a fixed problem.horizon window and
/// collects the assignment. With the policy an allocator's make_policy()
/// returns and VmOrder::ByStartTime, this *is* that allocator's allocate()
/// — bit-identical to the pre-streaming batch loops
/// (tests/test_streaming.cpp); the ordering ablation passes other orders.
/// `obs` flows into EngineOptions::obs so the engine's submit timer and
/// request counters record under the caller's registry (Allocator::allocate
/// passes the allocator's own ObsContext; default = null sinks).
Allocation run_batch(const ProblemInstance& problem, PlacementPolicy& policy,
                     VmOrder order, Rng& rng, const ObsContext& obs = {});

}  // namespace esva
