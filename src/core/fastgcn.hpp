// Matrix-based FastGCN sampling (Chen et al. 2018) — the simplest layer-wise
// algorithm (§2.2.2), included as the framework-extension the paper's
// conclusion calls for: the plan build_fastgcn_plan() plus its global
// importance weights (DESIGN.md §9).
//
// FastGCN samples s vertices per layer from a *batch-independent*
// distribution q_v ∝ ‖A(:,v)‖² (squared in-degree for a 0/1 adjacency);
// edges between consecutive layers are kept via the same masked extraction
// as LADIES. Because every row of P is the same distribution, the plan
// samples from one shared prefix sum bound as the executor's global
// weights instead of materializing the k×n P matrix (an optimization the
// matrix framework permits; semantics are identical). MatrixSampler binds
// fastgcn_importance_prefix(graph) for every plan with needs_global_weights.
// The plan has no probability kSpgemm; under the dist lowering pass the
// sampling stays row-local and only the masked extraction becomes a 1.5D
// collective — which is why partitioned FastGCN comes for free.
#pragma once

#include <vector>

#include "graph/graph.hpp"

namespace dms {

/// The global FastGCN importance q_v ∝ in_deg(v)² (unnormalized).
std::vector<value_t> fastgcn_importance(const Graph& graph);

/// Prefix sum of an importance vector (size n+1): the ITS input bound by
/// both placements of the sampler.
std::vector<value_t> fastgcn_importance_prefix(const std::vector<value_t>& importance);

/// Convenience: prefix sum of fastgcn_importance(graph).
std::vector<value_t> fastgcn_importance_prefix(const Graph& graph);

}  // namespace dms
