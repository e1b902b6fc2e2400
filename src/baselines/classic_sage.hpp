// Loop-based (non-matrix) GraphSAGE neighbor sampler — the classic
// per-vertex implementation used by DGL/PyG/Quiver samplers. Serves as
// (a) the sampling kernel of the Quiver-sim baseline and (b) a semantic
// oracle for the matrix-based sampler's tests (same output *distribution*,
// different RNG path).
#pragma once

#include <cstdint>

#include "core/sample.hpp"
#include "graph/graph.hpp"

namespace dms {

/// Samples one minibatch layer-by-layer, vertex-by-vertex: each frontier
/// vertex draws min(s, deg) distinct neighbors uniformly (Floyd's
/// algorithm). Output uses the same LayerSample/frontier conventions as the
/// matrix samplers so it can drive the same model.
MinibatchSample classic_sage_sample(const Graph& graph,
                                    const std::vector<index_t>& batch,
                                    const std::vector<index_t>& fanouts,
                                    index_t batch_id, std::uint64_t epoch_seed);

}  // namespace dms
