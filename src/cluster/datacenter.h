// Datacenter construction: a concrete (non-homogeneous) server fleet drawn
// from the Table II catalog.

#pragma once

#include <vector>

#include "cluster/catalog.h"
#include "cluster/server_spec.h"
#include "util/rng.h"

namespace esva {

/// Builds `count` servers sampled uniformly at random from `types`
/// (the paper uses "all types of servers" or "types 1-3 of servers"), all
/// with the same transition time. Ids are 0..count-1.
std::vector<ServerSpec> make_random_fleet(int count,
                                          const std::vector<ServerType>& types,
                                          double transition_time, Rng& rng);

/// Like above, but each server's transition time is drawn uniformly from
/// [transition_lo, transition_hi] — the paper's §IV-B3 says fleet transition
/// times "range from 30 s to 3 min", i.e. are heterogeneous.
std::vector<ServerSpec> make_random_fleet(int count,
                                          const std::vector<ServerType>& types,
                                          double transition_lo,
                                          double transition_hi, Rng& rng);

/// Deterministic synthetic scale-out for large-fleet benchmarks: `count`
/// servers cycling round-robin through `types` (server i gets
/// types[i % types.size()]), all with the same transition time. No RNG and
/// no per-row enumeration — the same count always yields the same fleet, on
/// any host, which is what the fleet bench's identity gate compares against
/// (bench/perf_allocators.cpp). Ids are 0..count-1.
std::vector<ServerSpec> make_scaled_fleet(int count,
                                          const std::vector<ServerType>& types,
                                          double transition_time);

/// Builds a fleet with an explicit per-type count: counts[k] servers of
/// types[k]. Ids are assigned in catalog order.
std::vector<ServerSpec> make_fleet_by_counts(
    const std::vector<ServerType>& types, const std::vector<int>& counts,
    double transition_time);

/// Aggregate capacity of a fleet.
Resources total_capacity(const std::vector<ServerSpec>& servers);

}  // namespace esva
