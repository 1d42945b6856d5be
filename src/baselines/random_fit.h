// Random Fit — places each VM on a uniformly random feasible server. The
// weakest reasonable baseline: it satisfies all constraints but ignores both
// consolidation and energy. Used as a lower anchor in comparisons.

#pragma once

#include "core/allocator.h"

namespace esva {

class RandomFitAllocator final : public Allocator {
 public:
  std::string name() const override { return "random-fit"; }

  std::unique_ptr<PlacementPolicy> make_policy() const override;
};

}  // namespace esva
