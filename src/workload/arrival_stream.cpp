#include "workload/arrival_stream.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

namespace esva {

namespace {

/// The request both generators emit once the arrival clock reads `clock`:
/// start at the clock rounded up, then draw the duration, then the type.
/// Throws std::invalid_argument, before any cast to Time, when the request
/// would end past the largest Time.
VmSpec draw_request(double clock, double mean_duration,
                    const std::vector<VmType>& types, int id, Rng& rng) {
  constexpr double kLastTime = std::numeric_limits<Time>::max();
  const double start = std::max(1.0, std::ceil(clock));
  const double end =
      start + std::max(1.0, std::round(rng.exponential(mean_duration))) - 1.0;
  if (!(end <= kLastTime))  // negated, so a NaN clock or draw fails too
    throw std::invalid_argument(
        "request " + std::to_string(id) + " would end past the largest time " +
        std::to_string(std::numeric_limits<Time>::max()));
  const VmType& type = types[rng.index(types.size())];
  VmSpec vm;
  vm.id = id;
  vm.type_name = type.name;
  vm.demand = type.demand;
  vm.start = static_cast<Time>(start);
  vm.end = static_cast<Time>(end);
  assert(vm.valid());
  return vm;
}

}  // namespace

VectorArrivalStream::VectorArrivalStream(std::vector<VmSpec> vms)
    : vms_(std::move(vms)), order_(order_by_start(vms_)) {}

std::optional<VmSpec> VectorArrivalStream::next() {
  if (pos_ >= order_.size()) return std::nullopt;
  return vms_[order_[pos_++]];
}

PoissonArrivalStream::PoissonArrivalStream(const WorkloadConfig& config,
                                           Rng& rng)
    : config_(config), rng_(&rng) {
  assert(config_.num_vms >= 0);
  assert(config_.mean_interarrival > 0 && config_.mean_duration > 0);
  assert(!config_.vm_types.empty());
}

std::optional<VmSpec> PoissonArrivalStream::next() {
  if (produced_ >= config_.num_vms) return std::nullopt;
  arrival_clock_ += rng_->exponential(config_.mean_interarrival);
  return draw_request(arrival_clock_, config_.mean_duration,
                      config_.vm_types, produced_++, *rng_);
}

DiurnalArrivalStream::DiurnalArrivalStream(const DiurnalConfig& config,
                                           Rng& rng)
    : config_(config),
      rng_(&rng),
      // Lewis–Shedler thinning: propose arrivals at the envelope rate
      // lambda_max, accept each with probability lambda(t)/lambda_max.
      lambda_max_(config.base_rate * (1.0 + config.amplitude)) {
  assert(config_.num_vms >= 0);
  assert(config_.mean_duration > 0 && config_.period > 0);
  assert(!config_.vm_types.empty());
}

std::optional<VmSpec> DiurnalArrivalStream::next() {
  if (produced_ >= config_.num_vms) return std::nullopt;
  for (;;) {
    clock_ += rng_->exponential(1.0 / lambda_max_);
    if (rng_->next_double() * lambda_max_ > diurnal_rate(config_, clock_))
      continue;  // thinned out
    return draw_request(clock_, config_.mean_duration, config_.vm_types,
                        produced_++, *rng_);
  }
}

std::vector<VmSpec> drain(ArrivalStream& stream) {
  std::vector<VmSpec> vms;
  while (std::optional<VmSpec> vm = stream.next())
    vms.push_back(std::move(*vm));
  return vms;
}

}  // namespace esva
