#include "workloads.h"

#include <algorithm>
#include <stdexcept>

#include "cluster/catalog.h"
#include "cluster/datacenter.h"
#include "util/rng.h"
#include "workload/generator.h"

namespace esva::bench {

namespace {

std::vector<WorkloadSpec> make_table() {
  std::vector<WorkloadSpec> table;

  // The paper's fig2 shape as a durable service: every ack waits for its own
  // write+fsync, and periodic snapshots land in the open-loop tail.
  WorkloadSpec durable;
  durable.name = "fig2-durable";
  durable.servers = 500;
  durable.warmup_ops = 200;
  durable.closed_ops = 4000;
  durable.open_ops = 2500;
  durable.wal_sync_every = 1;
  durable.snapshot_every = 2048;
  durable.window = 8;
  durable.reader_hz = 1000;
  durable.open_rate = 2000;
  table.push_back(durable);

  // The fig2 generator with fsync amortised by group commit: the socket
  // loop, wire parse and per-op daemon overhead dominate; the longest WAL.
  // Arrivals are 4x denser than fig2's: at fig2's rate every 128 requests
  // cross 256 time units, which rebuilds the trees of all 500 servers, and
  // those memory-bound rebuilds took a third of the time and made this the
  // workload most slowed by the host's memory traffic.
  WorkloadSpec pipelined;
  pipelined.name = "fig2-pipelined";
  pipelined.servers = 500;
  pipelined.interarrival = 0.5;
  pipelined.warmup_ops = 500;
  pipelined.closed_ops = 8000;
  pipelined.open_ops = 6000;
  pipelined.wal_sync_every = 32;
  pipelined.window = 64;
  pipelined.reader_hz = 1000;
  pipelined.open_rate = 5000;
  table.push_back(pipelined);

  // A large, mostly idle fleet: the O(servers) scan, horizon-growth
  // rebuilds and resident trees dominate; the journal is negligible.
  WorkloadSpec fleet;
  fleet.name = "fleet-10k";
  fleet.servers = 10000;
  fleet.scaled_fleet = true;
  fleet.warmup_ops = 100;
  fleet.closed_ops = 1200;
  fleet.open_ops = 1000;
  fleet.interarrival = 1.0;
  fleet.wal_sync_every = 32;
  fleet.window = 16;
  fleet.reader_hz = 600;
  fleet.open_rate = 500;
  table.push_back(fleet);

  // Profiled (bursty) VMs defeat quick-reject, so tree probes dominate the
  // scan; fault ops drive evacuation and retries; retires free capacity.
  WorkloadSpec chaos;
  chaos.name = "chaos-bursty";
  chaos.servers = 200;
  chaos.warmup_ops = 300;
  chaos.closed_ops = 5000;
  chaos.open_ops = 4000;
  chaos.interarrival = 0.25;
  chaos.bursty = true;
  chaos.fault_every = 200;
  chaos.retire_share = 0.05;
  chaos.retry_max = 4;
  chaos.wal_sync_every = 32;
  chaos.window = 8;
  chaos.reader_hz = 1000;
  chaos.open_rate = 3000;
  table.push_back(chaos);
  return table;
}

}  // namespace

const std::vector<WorkloadSpec>& workload_table() {
  static const std::vector<WorkloadSpec> table = make_table();
  return table;
}

const WorkloadSpec& find_workload(const std::string& name) {
  for (const WorkloadSpec& spec : workload_table())
    if (spec.name == name) return spec;
  throw std::invalid_argument("unknown workload '" + name + "'");
}

WorkloadSpec smoke_variant(const WorkloadSpec& spec) {
  WorkloadSpec smoke = spec;
  smoke.warmup_ops = std::max(10, spec.warmup_ops / 20);
  smoke.closed_ops = std::max(100, spec.closed_ops / 20);
  smoke.open_ops = std::max(100, spec.open_ops / 20);
  smoke.servers = std::min(spec.servers, 1000);
  if (smoke.snapshot_every > 0) smoke.snapshot_every = 64;
  return smoke;
}

Inputs generate_inputs(const WorkloadSpec& spec, std::uint64_t seed) {
  // One independent stream per purpose, so changing one generator never
  // shifts another's draws.
  Rng root(seed);
  Rng fleet_rng(root.next_u64());
  Rng vm_rng(root.next_u64());
  Rng fault_rng(root.next_u64());
  Rng retire_rng(root.next_u64());
  Rng schedule_rng(root.next_u64());

  Inputs in;
  in.servers = spec.scaled_fleet
                   ? make_scaled_fleet(spec.servers, all_server_types(), 1.0)
                   : make_random_fleet(spec.servers, all_server_types(), 1.0,
                                       fleet_rng);

  const int total_ops = spec.warmup_ops + spec.closed_ops + spec.open_ops;
  WorkloadConfig config;
  config.num_vms = total_ops;
  config.mean_interarrival = spec.interarrival;
  config.mean_duration = spec.duration;
  config.vm_types = all_vm_types();
  std::vector<VmSpec> vms =
      spec.bursty ? generate_bursty_workload(config, spec.bursty_phases,
                                             spec.bursty_valley, vm_rng)
                  : generate_workload(config, vm_rng);
  // A run's window size, and with it the daemon's memory and its
  // horizon-growth stalls, would otherwise be set by the single longest
  // exponential draw; capping durations at kMaxDurationMeans means keeps
  // those a property of the workload rather than of one VM (about 2% of
  // VMs are shortened).
  constexpr double kMaxDurationMeans = 4.0;
  const auto cap = static_cast<Time>(kMaxDurationMeans * spec.duration);
  for (VmSpec& vm : vms) {
    if (vm.duration() <= cap) continue;
    vm.end = vm.start + cap - 1;
    if (vm.has_profile()) {
      std::vector<Resources> profile = vm.profile;
      profile.resize(static_cast<std::size_t>(cap));
      vm.set_profile(std::move(profile));
    }
  }

  // Merge places, retires and faults into one time-ordered stream. At equal
  // times a fault precedes a retire precedes a place, mirroring `esva
  // client`, where a fault at or before a VM's start is sent first.
  struct Event {
    Time at;
    int rank;  // 0 fault, 1 retire, 2 place
    serve::Request request;
  };
  std::vector<Event> events;
  for (const std::size_t j : order_by_start(vms)) {
    serve::Request req;
    req.op = serve::OpKind::kPlace;
    req.vm = vms[j];
    events.push_back({vms[j].start, 2, std::move(req)});
  }
  if (spec.retire_share > 0) {
    for (const VmSpec& vm : vms) {
      if (!retire_rng.bernoulli(spec.retire_share) || vm.end - vm.start < 2)
        continue;
      serve::Request req;
      req.op = serve::OpKind::kRetire;
      req.vm_id = vm.id;
      events.push_back({vm.start + (vm.end - vm.start) / 2, 1, req});
    }
  }
  if (spec.fault_every > 0) {
    ChaosConfig chaos;
    chaos.num_servers = in.servers.size();
    chaos.failures = std::max(1, total_ops / (2 * spec.fault_every));
    chaos.window_lo = 1;
    chaos.window_hi = std::max<Time>(2, vms.back().start);
    chaos.mean_repair = 60;
    const FaultPlan plan = random_fault_plan(chaos, fault_rng);
    for (const FaultEvent& event : plan.events()) {
      serve::Request req;
      req.op = serve::OpKind::kFault;
      req.fault = event;
      events.push_back({event.at, 0, req});
    }
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const Event& a, const Event& b) {
                     return a.at != b.at ? a.at < b.at : a.rank < b.rank;
                   });

  // The stream is cut at total_ops; a retire always follows its own place,
  // so the prefix never retires a VM it did not place.
  events.resize(std::min<std::size_t>(events.size(),
                                      static_cast<std::size_t>(total_ops)));
  in.ops.reserve(events.size());
  for (Event& event : events) {
    if (event.request.op == serve::OpKind::kPlace)
      in.vms.push_back(event.request.vm);
    else
      in.place_only = false;
    Op op;
    op.line = serve::encode_request(event.request);
    op.request = std::move(event.request);
    in.ops.push_back(std::move(op));
  }

  double clock = 0.0;
  in.open_offsets_s.reserve(static_cast<std::size_t>(spec.open_ops));
  for (int i = 0; i < spec.open_ops; ++i) {
    clock += schedule_rng.exponential(1.0 / spec.open_rate);
    in.open_offsets_s.push_back(clock);
  }
  return in;
}

}  // namespace esva::bench
