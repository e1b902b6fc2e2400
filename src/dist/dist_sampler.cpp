#include "dist/dist_sampler.hpp"

#include <algorithm>

namespace dms {

std::vector<BulkRound> plan_bulk_rounds(index_t steps_per_rank, index_t bulk_steps) {
  check(steps_per_rank >= 0, "plan_bulk_rounds: negative step count");
  if (steps_per_rank == 0) return {};
  const index_t stride =
      bulk_steps <= 0 ? steps_per_rank : std::min(bulk_steps, steps_per_rank);
  std::vector<BulkRound> rounds;
  for (index_t s = 0; s < steps_per_rank; s += stride) {
    rounds.push_back({s, std::min<index_t>(steps_per_rank, s + stride)});
  }
  return rounds;
}

}  // namespace dms
