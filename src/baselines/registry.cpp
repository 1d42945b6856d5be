#include "baselines/registry.h"

#include <map>
#include <stdexcept>

#include "baselines/ffps.h"
#include "baselines/random_fit.h"
#include "core/candidate_scan.h"
#include "core/min_incremental.h"
#include "core/scan_scores.h"

namespace esva {

namespace {

const std::vector<std::string>& builtin_names() {
  static const std::vector<std::string> kNames = {
      "min-incremental", "ffps",         "ffps-reshuffle",
      "ffps-noshuffle",  "best-fit-cpu", "dot-product-fit",
      "random-fit",      "lowest-idle-power"};
  return kNames;
}

std::map<std::string, AllocatorFactory>& extension_registry() {
  static std::map<std::string, AllocatorFactory> registry;
  return registry;
}

// Cached combined name list; rebuilt on registration.
std::vector<std::string>& combined_names() {
  static std::vector<std::string> names;
  return names;
}

void rebuild_combined_names() {
  auto& names = combined_names();
  names = builtin_names();
  for (const auto& [name, factory] : extension_registry())
    names.push_back(name);
}

AllocatorPtr make_builtin(const std::string& name) {
  if (name == "min-incremental")
    return std::make_unique<MinIncrementalAllocator>();
  if (name == "ffps") return std::make_unique<FfpsAllocator>();
  if (name == "ffps-reshuffle") {
    FfpsAllocator::Options options;
    options.reshuffle_per_vm = true;
    return std::make_unique<FfpsAllocator>(options);
  }
  if (name == "ffps-noshuffle") {
    FfpsAllocator::Options options;
    options.shuffle_servers = false;
    return std::make_unique<FfpsAllocator>(options);
  }
  if (name == "best-fit-cpu")
    return std::make_unique<ScanAllocator<BestFitCpuScore>>();
  if (name == "dot-product-fit")
    return std::make_unique<ScanAllocator<DotProductFitScore>>();
  if (name == "random-fit") return std::make_unique<RandomFitAllocator>();
  if (name == "lowest-idle-power")
    return std::make_unique<ScanAllocator<LowestIdlePowerScore>>();
  return nullptr;
}

}  // namespace

const std::vector<std::string>& allocator_names() {
  if (combined_names().empty()) rebuild_combined_names();
  return combined_names();
}

void register_allocator(const std::string& name, AllocatorFactory factory) {
  if (make_builtin(name) != nullptr)
    throw std::invalid_argument("cannot override built-in allocator '" + name +
                                "'");
  if (!factory) throw std::invalid_argument("null factory for '" + name + "'");
  extension_registry()[name] = std::move(factory);
  rebuild_combined_names();
}

AllocatorPtr make_allocator(const std::string& name) {
  if (AllocatorPtr builtin = make_builtin(name)) return builtin;
  const auto& registry = extension_registry();
  if (auto it = registry.find(name); it != registry.end()) return it->second();
  throw std::invalid_argument("unknown allocator '" + name + "'");
}

}  // namespace esva
