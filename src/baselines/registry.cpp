#include "baselines/registry.h"

#include <stdexcept>

#include "baselines/ffps.h"
#include "baselines/random_fit.h"
#include "core/candidate_scan.h"
#include "core/min_incremental.h"
#include "core/scan_scores.h"
#include "ext/lookahead.h"

namespace esva {

namespace {

template <typename A>
AllocatorPtr make() {
  return std::make_unique<A>();
}

AllocatorPtr ffps(bool shuffle_servers, bool reshuffle_per_vm) {
  FfpsAllocator::Options options;
  options.shuffle_servers = shuffle_servers;
  options.reshuffle_per_vm = reshuffle_per_vm;
  return std::make_unique<FfpsAllocator>(options);
}

AllocatorPtr lookahead(int window) {
  LookaheadAllocator::Options options;
  options.window = window;
  return std::make_unique<LookaheadAllocator>(options);
}

struct Entry {
  const char* name;
  AllocatorPtr (*make)();
};

// In allocator_names() order.
constexpr Entry kAllocators[] = {
    {"min-incremental", make<MinIncrementalAllocator>},
    {"ffps", make<FfpsAllocator>},
    {"ffps-reshuffle", [] { return ffps(true, true); }},
    {"ffps-noshuffle", [] { return ffps(false, false); }},
    {"best-fit-cpu", make<ScanAllocator<BestFitCpuScore>>},
    {"dot-product-fit", make<ScanAllocator<DotProductFitScore>>},
    {"random-fit", make<RandomFitAllocator>},
    {"lowest-idle-power", make<ScanAllocator<LowestIdlePowerScore>>},
    {"lookahead-1", [] { return lookahead(1); }},
    {"lookahead-4", [] { return lookahead(4); }},
    {"lookahead-8", [] { return lookahead(8); }},
    {"lookahead-16", [] { return lookahead(16); }},
};

}  // namespace

const std::vector<std::string>& allocator_names() {
  static const std::vector<std::string> kNames = [] {
    std::vector<std::string> names;
    for (const Entry& entry : kAllocators) names.emplace_back(entry.name);
    return names;
  }();
  return kNames;
}

AllocatorPtr make_allocator(const std::string& name) {
  for (const Entry& entry : kAllocators)
    if (name == entry.name) return entry.make();
  throw std::invalid_argument("unknown allocator '" + name + "'");
}

}  // namespace esva
