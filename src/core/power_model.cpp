#include "core/power_model.h"

#include <cassert>

namespace esva {

Energy run_cost(const ServerSpec& server, const VmSpec& vm) {
  assert(server.valid());
  // W_ij = P¹_i · Σ_t R^CPU_jt (Eq. 3); for stable demand the sum is
  // demand × duration, for a profiled VM the sum set_profile() stored.
  return server.unit_run_power() * vm.total_cpu();
}

Watts power_at_usage(const ServerSpec& server, CpuUnits cpu_usage) {
  assert(server.valid());
  return server.p_idle + server.unit_run_power() * cpu_usage;
}

}  // namespace esva
