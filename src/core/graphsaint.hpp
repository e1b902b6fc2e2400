// Matrix-based GraphSAINT-RW sampling — a *graph-wise* sampling algorithm
// (the third taxonomy of §2.2, which the paper leaves to future work) —
// compiled to the walk-shaped plan build_saint_plan() (DESIGN.md §9).
//
// GraphSAINT (Zeng et al. 2020) builds each minibatch as the subgraph
// induced by the union of short random walks from the batch roots. In the
// plan IR every step is an existing op:
//   walk round:    kBuildQ → kSpgemm → kNormalize → kItsSample(s=1)
//                  → kWalkAdvance (dead walks drop out, visited grows)
//   epilogue:      kInducedLayers — V_s = ∪ visited, A_s = A[V_s, V_s]
//                  (row extraction + masked column extraction, §4.2.3)
// An L-layer model trains on the same induced adjacency at every layer, so
// the epilogue emits A_s L times with rows == columns == V_s (consistent
// with the frontier convention of core/sample.hpp). The walk length is the
// plan's explicit round count — independent of the model depth.
#pragma once

#include <cstdint>

#include "core/sample.hpp"

namespace dms {

/// The SamplerConfig of the walk plans (GraphSAINT, node2vec): one unit
/// fanout per model layer — the walk length is the plan's explicit round
/// count, not a fanout. batches[i] holds the walk roots of minibatch i, and
/// a sample's batch_vertices are the full induced vertex set V_s
/// (GraphSAINT trains on every labeled vertex of the subgraph). Throws
/// DmsError if model_layers < 1.
SamplerConfig walk_adapter_config(index_t model_layers, std::uint64_t seed);

}  // namespace dms
