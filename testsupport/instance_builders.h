// Shared builders for test and bench instances — the single source both
// tests/test_util.h and bench/test_support.h forward to. Most tests construct
// tiny hand-checked scenarios; the property suites and the solver-certified
// benches draw random instances through random_problem().

#pragma once

#include <string>
#include <vector>

#include "cluster/catalog.h"
#include "cluster/server_spec.h"
#include "cluster/vm.h"
#include "core/problem.h"
#include "util/rng.h"
#include "workload/generator.h"

namespace esva::testsupport {

/// A VM with the given interval and demand (CPU, mem default 1).
inline VmSpec vm(VmId id, Time start, Time end, double cpu = 1.0,
                 double mem = 1.0) {
  VmSpec spec;
  spec.id = id;
  spec.type_name = "test-vm";
  spec.demand = {cpu, mem};
  spec.start = start;
  spec.end = end;
  return spec;
}

/// A server with explicit capacities and power parameters.
inline ServerSpec server(ServerId id, double cpu, double mem, Watts p_idle,
                         Watts p_peak, double transition_time = 1.0,
                         const std::string& type = "test-server") {
  ServerSpec spec;
  spec.id = id;
  spec.type_name = type;
  spec.capacity = {cpu, mem};
  spec.p_idle = p_idle;
  spec.p_peak = p_peak;
  spec.transition_time = transition_time;
  return spec;
}

/// The workhorse test server: 10 CPU / 10 GiB, 100 W idle, 200 W peak,
/// alpha = 200 (1-minute transition). unit_run_power = 10 W per CPU unit.
inline ServerSpec basic_server(ServerId id = 0) {
  return server(id, 10.0, 10.0, 100.0, 200.0, 1.0);
}

/// A mixed fleet: servers cycle Table II from the largest type down, with
/// transition times 0.5, 1.5 and 2.5 in turn.
inline std::vector<ServerSpec> make_fleet(int num_servers) {
  std::vector<ServerSpec> servers;
  const auto& types = all_server_types();
  for (int i = 0; i < num_servers; ++i) {
    const double transition_time = 0.5 + static_cast<double>(i % 3);
    const std::size_t type_index =
        types.size() - 1 - static_cast<std::size_t>(i) % types.size();
    servers.push_back(make_server(types[type_index], i, transition_time));
  }
  return servers;
}

/// A small random instance: VMs drawn from Table I types over a short
/// horizon on make_fleet(num_servers), so every VM fits somewhere. Intended
/// for property tests and solver-certified benches.
inline ProblemInstance random_problem(Rng& rng, int num_vms = 12,
                                      int num_servers = 6,
                                      double mean_interarrival = 2.0,
                                      double mean_duration = 8.0) {
  WorkloadConfig config;
  config.num_vms = num_vms;
  config.mean_interarrival = mean_interarrival;
  config.mean_duration = mean_duration;
  config.vm_types = all_vm_types();
  std::vector<VmSpec> vms = generate_workload(config, rng);
  return make_problem(std::move(vms), make_fleet(num_servers));
}

}  // namespace esva::testsupport
