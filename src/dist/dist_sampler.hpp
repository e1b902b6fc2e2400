// Bulk-round scheduling for distributed sampling. The Graph Partitioned
// sampler itself is MatrixSampler with a process grid (core/sampler.hpp).
#pragma once

#include <vector>

#include "common/types.hpp"

namespace dms {

/// A bulk sampling round: the contiguous range [step_begin, step_end) of
/// per-rank training-step indices whose minibatches the round materializes.
/// Rounds are the prefetchable unit of the staged training executor — round
/// g+1 can be sampled while the steps of round g train — and the granularity
/// at which bulk sampling amortizes kernel launches (the paper's k, §4).
struct BulkRound {
  index_t step_begin = 0;
  index_t step_end = 0;
  index_t steps() const { return step_end - step_begin; }
};

/// Splits an epoch of `steps_per_rank` training steps into rounds of
/// `bulk_steps` steps each (the last round may be short). bulk_steps <= 0
/// yields one round covering the whole epoch ("k=all").
std::vector<BulkRound> plan_bulk_rounds(index_t steps_per_rank, index_t bulk_steps);

}  // namespace dms
