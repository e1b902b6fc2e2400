// Reference CPU LADIES implementation (loop-based, no matrix abstraction) —
// the comparator of §8.2.2 ("the reference CPU implementation for LADIES
// takes 43.9 seconds ... for Papers and 3.12 seconds for Protein").
#pragma once

#include <cstdint>

#include "core/sample.hpp"
#include "graph/graph.hpp"

namespace dms {

struct LadiesCpuResult {
  std::vector<MinibatchSample> samples;
  double seconds = 0.0;  ///< measured wall time for sampling all batches
};

/// Samples all minibatches sequentially on the CPU: per batch, accumulate
/// e_v = |N(v) ∩ batch| by walking adjacency rows, square-normalize, ITS
/// sample s vertices, then collect the batch→sampled edges by a second
/// adjacency walk.
LadiesCpuResult ladies_cpu_reference(const Graph& graph,
                                     const std::vector<std::vector<index_t>>& batches,
                                     index_t s, std::uint64_t seed);

}  // namespace dms
