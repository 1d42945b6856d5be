#include "core/streaming.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "core/power_model.h"
#include "obs/energy_ledger.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"

namespace esva {

std::string to_string(ServerHealth health) {
  switch (health) {
    case ServerHealth::kUp:
      return "up";
    case ServerHealth::kDrained:
      return "drained";
    case ServerHealth::kFailed:
      return "failed";
  }
  return "?";
}

std::string to_string(PlacementReject reject) {
  switch (reject) {
    case PlacementReject::kNone:
      return "none";
    case PlacementReject::kNoCapacity:
      return "no-capacity";
    case PlacementReject::kLateArrival:
      return "late-arrival";
    case PlacementReject::kDeferred:
      return "deferred";
    case PlacementReject::kQueueFull:
      return "queue-full";
  }
  return "?";
}

ClusterState::ClusterState(std::vector<ServerSpec> servers,
                           Time initial_horizon, ShardOptions shard)
    : servers_(std::move(servers)),
      num_shards_(std::min<std::size_t>(
          static_cast<std::size_t>(std::max(1, shard.shards)),
          std::max<std::size_t>(1, servers_.size()))),
      active_(servers_.size()),
      retired_hi_(servers_.size(), 0),
      health_(servers_.size(), ServerHealth::kUp),
      horizon_(std::max<Time>(initial_horizon, 0)) {
  timelines_.reserve(servers_.size());
  for (const ServerSpec& spec : servers_)
    timelines_.emplace_back(spec, /*base=*/1, horizon_);
  envelopes_.reset(timelines_);
  resident_units_ =
      servers_.size() * static_cast<std::size_t>(horizon_);
}

Time ClusterState::window_base(std::size_t i) const {
  // Every active VM must stay inside the window, and the next request may
  // start exactly at the frontier.
  Time base = frontier_;
  for (const VmSpec& vm : active_[i]) base = std::min(base, vm.start);
  return base;
}

bool ClusterState::should_rebuild(std::size_t i) const {
  const Time dead = window_base(i) - timelines_[i].base();
  if (dead <= 0) return false;
  if (eager_rebuild_) return true;
  // Rebuild once the dead prefix rivals the live window (2x amortization):
  // each unit of rebuild work is paid for by a unit of frontier progress,
  // and resident memory stays within 2x the active window plus slack.
  const Time live = horizon_ - window_base(i) + 1;
  return dead >= std::max<Time>(32, live);
}

void ClusterState::rebuild(std::size_t i, Time base, Time horizon) {
  // The frontier can outrun the lazily-extended planning horizon (a fault
  // event or an arrival far past every previous VM's end). Nothing can be
  // active there — place() ensured end <= horizon_ and the sweep retired the
  // rest — so rebuild an empty window; the next ensure_horizon (every later
  // request has end >= start >= frontier) extends and rebuilds it for real.
  horizon = std::max(horizon, base - 1);
  ServerTimeline fresh(servers_[i], base, horizon);
  if (retired_hi_[i] > 0) fresh.seed_busy(retired_hi_[i], retired_hi_[i]);
  for (const VmSpec& vm : active_[i]) fresh.place(vm);
  resident_units_ += static_cast<std::size_t>(fresh.window_units()) -
                     static_cast<std::size_t>(timelines_[i].window_units());
  timelines_[i] = std::move(fresh);
  envelopes_.refresh(i, timelines_[i]);
}

void ClusterState::stub_timeline(std::size_t i) {
  // Empty window base..base-1 at the frontier: can_fit rejects every VM
  // (Horizon), so the server disappears from every policy scan; the window
  // holds no resource trees, so it costs no resident memory.
  ServerTimeline stub(servers_[i], frontier_, frontier_ - 1);
  resident_units_ -= static_cast<std::size_t>(timelines_[i].window_units());
  timelines_[i] = std::move(stub);
  envelopes_.refresh(i, timelines_[i]);
}

void ClusterState::recompute_next_retire() {
  next_retire_ = 0;
  for (const std::vector<VmSpec>& vms : active_)
    for (const VmSpec& vm : vms)
      next_retire_ = next_retire_ == 0 ? vm.end : std::min(next_retire_, vm.end);
}

void ClusterState::ensure_horizon(Time end) {
  if (end <= horizon_) return;
  // Double the forward window (with a floor) so repeated small extensions
  // cost O(1) rebuild work per time unit, amortized.
  const Time slack = std::max<Time>(256, horizon_ - frontier_ + 1);
  horizon_ = std::max<Time>(end, horizon_ + slack);
  for (std::size_t i = 0; i < timelines_.size(); ++i)
    if (placeable(i)) rebuild(i, window_base(i), horizon_);
}

void ClusterState::place(std::size_t server, const VmSpec& vm) {
  assert(server < timelines_.size());
  assert(placeable(server));
  timelines_[server].place(vm);
  envelopes_.refresh(server, timelines_[server]);
  next_retire_ = next_retire_ == 0 ? vm.end : std::min(next_retire_, vm.end);
  active_[server].push_back(vm);
  ++active_count_;
}

void ClusterState::advance_to(Time t) {
  if (t <= frontier_) return;
  frontier_ = t;
  if (next_retire_ == 0 || next_retire_ >= frontier_) return;

  Time next = 0;
  for (std::size_t i = 0; i < timelines_.size(); ++i) {
    std::vector<VmSpec>& vms = active_[i];
    std::size_t kept = 0;
    for (std::size_t k = 0; k < vms.size(); ++k) {
      VmSpec& vm = vms[k];
      if (vm.end < frontier_) {
        retired_hi_[i] = std::max(retired_hi_[i], vm.end);
        --active_count_;
      } else {
        next = next == 0 ? vm.end : std::min(next, vm.end);
        // Compact in place, keeping placement order; guard against
        // self-move, which would gut the profile vector.
        if (kept != k) vms[kept] = std::move(vm);
        ++kept;
      }
    }
    vms.resize(kept);
    // Stubs stay stubs: rebuilding a non-up server would resurrect its
    // capacity for policy scans.
    if (placeable(i) && should_rebuild(i)) rebuild(i, window_base(i), horizon_);
  }
  next_retire_ = next;
  assert(active_count_ == active_vms_scan());
}

std::size_t ClusterState::active_vms_scan() const {
  std::size_t total = 0;
  for (const std::vector<VmSpec>& vms : active_) total += vms.size();
  return total;
}

FleetSample ClusterState::sample(Time t) const {
  FleetSample s;
  s.t = t;
  s.active_vms = static_cast<std::uint32_t>(active_count_);
  // Multi-shard clusters get the per-shard load breakdown alongside the
  // fleet-wide totals; single-shard clusters leave it empty (the historical
  // sample shape). Shards are contiguous, balanced server-index blocks.
  const std::size_t n = servers_.size();
  const bool per_shard = num_shards_ > 1;
  if (per_shard) s.shards.resize(num_shards_);
  for (std::size_t i = 0; i < n; ++i) {
    ShardLoad* shard = per_shard ? &s.shards[i * num_shards_ / n] : nullptr;
    if (shard)
      shard->active_vms += static_cast<std::uint32_t>(active_[i].size());
    if (health_[i] == ServerHealth::kFailed) {
      ++s.failed_servers;
      continue;
    }
    // Instantaneous usage from the active VM lists — drained servers' VMs
    // keep running on timeline stubs, so the timelines can't be trusted
    // here, but active_ can.
    double cpu = 0.0;
    double mem = 0.0;
    for (const VmSpec& vm : active_[i]) {
      if (vm.start <= t && t <= vm.end) {
        const Resources demand = vm.demand_at(t);
        cpu += demand.cpu;
        mem += demand.mem;
      }
    }
    const bool hosting = cpu > 0.0 || mem > 0.0;
    if (hosting) {
      const double power = power_at_usage(servers_[i], cpu);
      s.total_power_w += power;
      if (shard) shard->power_w += power;
    }
    if (health_[i] == ServerHealth::kDrained) {
      ++s.drained_servers;
      continue;  // not placeable: no spare capacity contribution
    }
    if (hosting) {
      ++s.busy_servers;
      if (shard) ++shard->busy_servers;
    } else {
      ++s.idle_servers;
      if (shard) ++shard->idle_servers;
    }
    s.spare_cpu += servers_[i].capacity.cpu - cpu;
    s.spare_mem += servers_[i].capacity.mem - mem;
  }
  return s;
}

std::vector<VmSpec> ClusterState::fail_server(std::size_t i) {
  assert(i < timelines_.size());
  if (health_[i] == ServerHealth::kFailed) return {};
  health_[i] = ServerHealth::kFailed;
  std::vector<VmSpec> displaced = std::move(active_[i]);
  active_[i].clear();
  active_count_ -= displaced.size();
  assert(active_count_ == active_vms_scan());
  // Occupancy ran right up to the failure instant; anchor future structure
  // deltas (after recovery) at the last completed unit.
  if (!displaced.empty() && frontier_ > 1)
    retired_hi_[i] = std::max(retired_hi_[i], frontier_ - 1);
  stub_timeline(i);
  recompute_next_retire();
  return displaced;
}

void ClusterState::drain_server(std::size_t i) {
  assert(i < timelines_.size());
  if (health_[i] != ServerHealth::kUp) return;
  health_[i] = ServerHealth::kDrained;
  // Active VMs stay in active_[i] and retire through the normal sweep; only
  // the placement surface disappears.
  stub_timeline(i);
}

void ClusterState::recover_server(std::size_t i) {
  assert(i < timelines_.size());
  if (health_[i] == ServerHealth::kUp) return;
  health_[i] = ServerHealth::kUp;
  rebuild(i, window_base(i), horizon_);
}

ServerId ClusterState::retire_active(VmId vm) {
  for (std::size_t i = 0; i < active_.size(); ++i) {
    std::vector<VmSpec>& vms = active_[i];
    for (std::size_t k = 0; k < vms.size(); ++k) {
      if (vms[k].id != vm) continue;
      vms.erase(vms.begin() + static_cast<std::ptrdiff_t>(k));
      --active_count_;
      // The VM occupied its server through the last completed unit; anchor
      // future structure deltas there, exactly like the fail_server path.
      if (frontier_ > 1) retired_hi_[i] = std::max(retired_hi_[i], frontier_ - 1);
      // Placeable hosts must drop the freed occupancy from their timeline;
      // a drained host's timeline is already a stub holding nothing.
      if (placeable(i)) rebuild(i, window_base(i), horizon_);
      recompute_next_retire();
      assert(active_count_ == active_vms_scan());
      return static_cast<ServerId>(i);
    }
  }
  return kNoServer;
}

std::vector<ServerStateSnapshot> ClusterState::export_servers() const {
  std::vector<ServerStateSnapshot> out(servers_.size());
  for (std::size_t i = 0; i < servers_.size(); ++i) {
    out[i].health = health_[i];
    out[i].retired_hi = retired_hi_[i];
    out[i].active = active_[i];
  }
  return out;
}

void ClusterState::restore(Time frontier, Time horizon,
                           const std::vector<ServerStateSnapshot>& servers) {
  if (servers.size() != servers_.size())
    throw std::invalid_argument(
        "ClusterState::restore: snapshot covers " +
        std::to_string(servers.size()) + " servers, fleet has " +
        std::to_string(servers_.size()));
  frontier_ = std::max<Time>(1, frontier);
  horizon_ = std::max<Time>(0, horizon);
  resident_units_ = 0;
  active_count_ = 0;
  for (std::size_t i = 0; i < servers_.size(); ++i) {
    const ServerStateSnapshot& snap = servers[i];
    if (snap.health == ServerHealth::kFailed && !snap.active.empty())
      throw std::invalid_argument(
          "ClusterState::restore: failed server " + std::to_string(i) +
          " has active VMs (fail_server displaces them)");
    for (const VmSpec& vm : snap.active) {
      if (!vm.valid() || vm.end > horizon_)
        throw std::invalid_argument(
            "ClusterState::restore: active VM " + std::to_string(vm.id) +
            " on server " + std::to_string(i) +
            " is invalid or ends past the horizon");
    }
    health_[i] = snap.health;
    retired_hi_[i] = std::max<Time>(0, snap.retired_hi);
    active_[i] = snap.active;
    active_count_ += active_[i].size();
  }
  // Timelines are rebuilt from scratch: placeable servers get the full
  // window with sentinel + actives replayed (byte-identical future deltas,
  // per the GC-invariance argument), non-up servers the frontier stub.
  for (std::size_t i = 0; i < servers_.size(); ++i) {
    if (placeable(i)) {
      const Time base = window_base(i);
      ServerTimeline fresh(servers_[i], base, std::max(horizon_, base - 1));
      if (retired_hi_[i] > 0) fresh.seed_busy(retired_hi_[i], retired_hi_[i]);
      for (const VmSpec& vm : active_[i]) fresh.place(vm);
      resident_units_ += static_cast<std::size_t>(fresh.window_units());
      timelines_[i] = std::move(fresh);
    } else {
      ServerTimeline stub(servers_[i], frontier_, frontier_ - 1);
      timelines_[i] = std::move(stub);
    }
    envelopes_.refresh(i, timelines_[i]);
  }
  recompute_next_retire();
  assert(active_count_ == active_vms_scan());
}

void PlacementPolicy::begin(const ClusterState& /*cluster*/, Rng& /*rng*/) {}

void PlacementPolicy::finish(std::size_t /*requests*/,
                             std::size_t /*unallocated*/) {}

Time RetryPolicy::delay_for(int attempts) const {
  assert(attempts >= 1);
  const double delay = static_cast<double>(base_delay) *
                       std::pow(backoff, static_cast<double>(attempts - 1));
  return std::max<Time>(1, static_cast<Time>(std::llround(delay)));
}

VmSpec clip_to(VmSpec vm, Time t) {
  if (vm.start >= t) return vm;
  assert(vm.end >= t);
  if (vm.has_profile()) {
    std::vector<Resources> tail(
        vm.profile.begin() + static_cast<std::ptrdiff_t>(t - vm.start),
        vm.profile.end());
    vm.start = t;
    vm.set_profile(std::move(tail));
  } else {
    vm.start = t;
  }
  return vm;
}

PlacementEngine::PlacementEngine(std::vector<ServerSpec> servers,
                                 PlacementPolicy& policy, Rng& rng,
                                 EngineOptions options)
    : cluster_(std::move(servers), options.initial_horizon, options.shard),
      policy_(policy),
      rng_(rng),
      options_(options) {
  if (options_.faults) options_.faults->validate(cluster_.num_servers());
  if (options_.obs.metrics) {
    // Histogram-backed: esva stream --latency-json and the Prometheus
    // summary read p50/p90/p99 off this timer.
    submit_timer_ = &options_.obs.metrics->histogram_timer("engine.submit_ms");
    request_counter_ = &options_.obs.metrics->counter("engine.requests");
    late_counter_ = &options_.obs.metrics->counter("engine.late_arrivals");
    evacuated_counter_ = &options_.obs.metrics->counter("engine.evacuated");
    retry_counter_ = &options_.obs.metrics->counter("engine.retries");
    rejected_final_counter_ =
        &options_.obs.metrics->counter("engine.rejected_final");
    downtime_counter_ =
        &options_.obs.metrics->counter("engine.downtime_units");
  }
  policy_.begin(cluster_, rng_);
}

PlacementDecision PlacementEngine::submit(const VmSpec& vm) {
  ScopedTimer timer(submit_timer_);
  if (options_.auto_advance) step_to(vm.start);
  ++requests_;
  if (request_counter_) request_counter_->inc();
  if (vm.start < cluster_.frontier()) {
    if (!options_.tolerate_late_arrivals)
      throw std::invalid_argument(
          "PlacementEngine: request starts before the frontier");
    // Structured rejection: the request's window may already be collected,
    // so one straggler must not abort the whole replay.
    ++faults_.late_arrivals;
    if (late_counter_) late_counter_->inc();
    PlacementDecision late;
    late.reject = PlacementReject::kLateArrival;
    return late;
  }
  cluster_.ensure_horizon(vm.end);
  PlacementDecision decision = policy_.place_one(cluster_, vm, rng_);
  if (decision.server != kNoServer) {
    commit(decision, vm, /*charge_migration=*/false);
    ++placed_;
  } else {
    decision.reject =
        defer_or_reject(vm, cluster_.frontier(), /*displaced=*/false,
                        /*attempts=*/1);
  }
  peak_resident_ = std::max(peak_resident_, cluster_.resident_time_units());
  return decision;
}

void PlacementEngine::advance_to(Time t) { step_to(t); }

void PlacementEngine::step_to(Time t) {
  if (options_.faults) {
    const std::vector<FaultEvent>& events = options_.faults->events();
    while (fault_cursor_ < events.size() && events[fault_cursor_].at <= t) {
      const FaultEvent& event = events[fault_cursor_++];
      cluster_.advance_to(event.at);
      // Retries due strictly before the event fire against the pre-event
      // cluster; at the exact instant the fault wins (a failure at t
      // affects placements made at t).
      drain_retries(event.at - 1);
      apply_event(event);
      // Post-event snapshot, so a failure's displaced load and power drop
      // are visible at the event instant rather than the next cadence tick.
      maybe_sample();
    }
  }
  cluster_.advance_to(t);
  drain_retries(t);
  maybe_sample();
}

void PlacementEngine::finish_stream() {
  const std::vector<FaultEvent>* events =
      options_.faults ? &options_.faults->events() : nullptr;
  while ((events && fault_cursor_ < events->size()) || !retry_queue_.empty()) {
    Time next = std::numeric_limits<Time>::max();
    if (events && fault_cursor_ < events->size())
      next = (*events)[fault_cursor_].at;
    if (!retry_queue_.empty())
      next = std::min(next, retry_queue_.front().not_before);
    step_to(next);
  }
}

void PlacementEngine::apply_fault(const FaultEvent& event) {
  if (event.at < 1)
    throw std::invalid_argument("apply_fault: event time " +
                                std::to_string(event.at) + " precedes time 1");
  if (event.server < 0 ||
      static_cast<std::size_t>(event.server) >= cluster_.num_servers())
    throw std::invalid_argument(
        "apply_fault: server " + std::to_string(event.server) +
        " outside the fleet of " + std::to_string(cluster_.num_servers()));
  // The per-event block of step_to, verbatim: advance to the instant, fire
  // retries due strictly before it against the pre-event cluster, apply,
  // then the post-event sample. A later advance_to(t) completes the pattern
  // exactly as the plan-driven path would.
  cluster_.advance_to(event.at);
  drain_retries(event.at - 1);
  apply_event(event);
  maybe_sample();
}

ServerId PlacementEngine::retire_vm(VmId vm) {
  const ServerId host = cluster_.retire_active(vm);
  if (host != kNoServer) {
    peak_resident_ = std::max(peak_resident_, cluster_.resident_time_units());
    return host;
  }
  // Not active: cancel any queued retry attempts for this id (a client
  // tearing down a VM that is still waiting for capacity).
  retry_queue_.erase(
      std::remove_if(retry_queue_.begin(), retry_queue_.end(),
                     [vm](const PendingRequest& p) { return p.vm.id == vm; }),
      retry_queue_.end());
  return kNoServer;
}

EngineStateSnapshot PlacementEngine::export_state() const {
  EngineStateSnapshot snap;
  snap.frontier = cluster_.frontier();
  snap.horizon = cluster_.horizon();
  snap.servers = cluster_.export_servers();
  snap.requests = requests_;
  snap.placed = placed_;
  snap.energy = energy_;
  snap.peak_resident = peak_resident_;
  snap.fault_cursor = fault_cursor_;
  snap.retry_seq = retry_seq_;
  snap.retry_queue.reserve(retry_queue_.size());
  for (const PendingRequest& p : retry_queue_)
    snap.retry_queue.push_back(
        {p.vm, p.not_before, p.attempts, p.displaced, p.waiting_since, p.seq});
  snap.fault_stats = faults_;
  snap.resolutions = resolutions_;
  return snap;
}

void PlacementEngine::import_state(const EngineStateSnapshot& snap) {
  cluster_.restore(snap.frontier, snap.horizon, snap.servers);
  requests_ = snap.requests;
  placed_ = snap.placed;
  energy_ = snap.energy;
  peak_resident_ = snap.peak_resident;
  fault_cursor_ = snap.fault_cursor;
  retry_seq_ = snap.retry_seq;
  retry_queue_.clear();
  retry_queue_.reserve(snap.retry_queue.size());
  for (const PendingSnapshot& p : snap.retry_queue) {
    PendingRequest pending;
    pending.vm = p.vm;
    pending.not_before = p.not_before;
    pending.attempts = p.attempts;
    pending.displaced = p.displaced;
    pending.waiting_since = p.waiting_since;
    pending.seq = p.seq;
    retry_queue_.push_back(std::move(pending));
  }
  faults_ = snap.fault_stats;
  resolutions_ = snap.resolutions;
}

void PlacementEngine::apply_event(const FaultEvent& event) {
  ++faults_.fault_events;
  const auto i = static_cast<std::size_t>(event.server);
  switch (event.kind) {
    case FaultKind::kFail: {
      std::vector<VmSpec> displaced = cluster_.fail_server(i);
      faults_.displaced += static_cast<std::int64_t>(displaced.size());
      for (VmSpec& vm : displaced) evacuate(std::move(vm), event.at);
      break;
    }
    case FaultKind::kDrain:
      cluster_.drain_server(i);
      break;
    case FaultKind::kRecover:
      cluster_.recover_server(i);
      break;
  }
  peak_resident_ = std::max(peak_resident_, cluster_.resident_time_units());
}

void PlacementEngine::evacuate(VmSpec vm, Time now) {
  // The VM already ran [start, now); only the remainder needs a new home.
  VmSpec remainder = clip_to(std::move(vm), now);
  cluster_.ensure_horizon(remainder.end);
  const PlacementDecision decision =
      policy_.place_one(cluster_, remainder, rng_);
  if (decision.server != kNoServer) {
    commit(decision, remainder, /*charge_migration=*/true);
    ++faults_.evacuated;
    if (evacuated_counter_) evacuated_counter_->inc();
    resolutions_.push_back({remainder.id, decision.server});
    return;
  }
  // Off its old host either way — downtime starts now; the retry queue may
  // still bring it back.
  resolutions_.push_back({remainder.id, kNoServer});
  defer_or_reject(std::move(remainder), now, /*displaced=*/true,
                  /*attempts=*/1);
}

void PlacementEngine::commit(const PlacementDecision& decision,
                             const VmSpec& vm, bool charge_migration) {
  const auto i = static_cast<std::size_t>(decision.server);
  if (options_.account_energy) {
    energy_ += decision.has_delta
                   ? decision.delta
                   : incremental_cost(cluster_.timelines()[i], vm,
                                      options_.cost);
    if (charge_migration)
      energy_ += migration_energy(vm, options_.migration_cost_per_gib);
  }
  if (options_.ledger) {
    // Attribution is recomputed through the breakdown path against the
    // pre-place timeline — the energy_ accumulation above is deliberately
    // untouched, so binding a ledger cannot perturb decisions or totals
    // (the two agree to rounding; EnergyLedger::conserves checks it).
    const Time at = cluster_.frontier();
    const CostBreakdown split =
        incremental_breakdown(cluster_.timelines()[i], vm, options_.cost);
    options_.ledger->post(at, vm.id, decision.server, EnergyCause::kRun,
                          split.run);
    if (split.idle != 0.0)
      options_.ledger->post(at, vm.id, decision.server, EnergyCause::kIdle,
                            split.idle);
    if (split.transition != 0.0)
      options_.ledger->post(at, vm.id, decision.server,
                            EnergyCause::kTransition, split.transition);
    if (charge_migration)
      options_.ledger->post(
          at, vm.id, decision.server, EnergyCause::kMigration,
          migration_energy(vm, options_.migration_cost_per_gib));
  }
  cluster_.place(i, vm);
}

void PlacementEngine::maybe_sample() {
  if (options_.timeseries && options_.timeseries->due(cluster_.frontier()))
    take_sample(cluster_.frontier());
}

void PlacementEngine::sample_now() {
  if (options_.timeseries) take_sample(cluster_.frontier());
}

void PlacementEngine::take_sample(Time t) {
  FleetSample s = cluster_.sample(t);
  s.retry_queue_depth = static_cast<std::uint32_t>(retry_queue_.size());
  s.requests = requests_;
  s.evacuated = faults_.evacuated;
  s.displaced = faults_.displaced;
  s.rejected_final = faults_.rejected_final;
  s.total_energy = energy_;
  options_.timeseries->record(s);
}

PlacementReject PlacementEngine::defer_or_reject(VmSpec vm, Time now,
                                                 bool displaced,
                                                 int attempts) {
  if (options_.retry.enabled() && attempts < options_.retry.max_attempts) {
    if (retry_queue_.size() < options_.retry.queue_capacity) {
      PendingRequest pending;
      pending.not_before = now + options_.retry.delay_for(attempts);
      pending.attempts = attempts;
      pending.displaced = displaced;
      pending.waiting_since = displaced ? now : vm.start;
      pending.vm = std::move(vm);
      enqueue(std::move(pending));
      ++faults_.deferred;
      return PlacementReject::kDeferred;
    }
    ++faults_.queue_full;
    PendingRequest bounced;
    bounced.displaced = displaced;
    bounced.waiting_since = now;
    bounced.vm = std::move(vm);
    final_reject(bounced);
    return PlacementReject::kQueueFull;
  }
  PendingRequest terminal;
  terminal.displaced = displaced;
  terminal.waiting_since = now;
  terminal.vm = std::move(vm);
  final_reject(terminal);
  return PlacementReject::kNoCapacity;
}

void PlacementEngine::final_reject(const PendingRequest& pending) {
  ++faults_.rejected_final;
  if (rejected_final_counter_) rejected_final_counter_->inc();
  if (pending.displaced) {
    // A displaced VM that never finds a new home sits unserved from its
    // displacement instant through its end: downtime, not a crash.
    const Time down =
        std::max<Time>(0, pending.vm.end - pending.waiting_since + 1);
    faults_.downtime_units += down;
    if (downtime_counter_) downtime_counter_->inc(down);
  }
}

void PlacementEngine::enqueue(PendingRequest pending) {
  pending.seq = retry_seq_++;
  const auto pos = std::upper_bound(
      retry_queue_.begin(), retry_queue_.end(), pending,
      [](const PendingRequest& a, const PendingRequest& b) {
        return a.not_before != b.not_before ? a.not_before < b.not_before
                                            : a.seq < b.seq;
      });
  retry_queue_.insert(pos, std::move(pending));
}

void PlacementEngine::drain_retries(Time now) {
  while (!retry_queue_.empty() && retry_queue_.front().not_before <= now) {
    PendingRequest pending = std::move(retry_queue_.front());
    retry_queue_.erase(retry_queue_.begin());
    ++faults_.retries;
    if (retry_counter_) retry_counter_->inc();
    // The cluster has been advanced at least to `now`; attempt at the
    // frontier so the request's collected prefix is clipped away.
    const Time at = cluster_.frontier();
    if (pending.vm.end < at) {
      final_reject(pending);
      continue;
    }
    const VmSpec attempt_vm = clip_to(pending.vm, at);
    cluster_.ensure_horizon(attempt_vm.end);
    const PlacementDecision decision =
        policy_.place_one(cluster_, attempt_vm, rng_);
    if (decision.server != kNoServer) {
      commit(decision, attempt_vm, /*charge_migration=*/pending.displaced);
      ++faults_.retried_placed;
      resolutions_.push_back({attempt_vm.id, decision.server});
      if (pending.displaced) {
        const Time down = at - pending.waiting_since;
        faults_.downtime_units += down;
        if (downtime_counter_) downtime_counter_->inc(down);
        ++faults_.evacuated;
        if (evacuated_counter_) evacuated_counter_->inc();
      } else {
        ++placed_;
      }
      peak_resident_ =
          std::max(peak_resident_, cluster_.resident_time_units());
      continue;
    }
    const int attempts = pending.attempts + 1;
    if (attempts >= options_.retry.max_attempts) {
      final_reject(pending);
    } else if (retry_queue_.size() >= options_.retry.queue_capacity) {
      ++faults_.queue_full;
      final_reject(pending);
    } else {
      pending.attempts = attempts;
      pending.not_before = at + options_.retry.delay_for(attempts);
      enqueue(std::move(pending));
    }
  }
}

Allocation run_batch(const ProblemInstance& problem, PlacementPolicy& policy,
                     VmOrder order, Rng& rng, const ObsContext& obs) {
  EngineOptions options;
  options.initial_horizon = problem.horizon;
  options.obs = obs;
  PlacementEngine engine(problem.servers, policy, rng, options);
  Allocation alloc;
  alloc.assignment.assign(problem.num_vms(), kNoServer);
  for (std::size_t j : ordered_indices(problem, order))
    alloc.assignment[j] = engine.submit(problem.vms[j]).server;
  policy.finish(problem.num_vms(), alloc.num_unallocated());
  return alloc;
}

}  // namespace esva
