// Matrix-based LADIES sampling (§4.2) — the paper's layer-wise example and,
// distributed, the first fully distributed LADIES implementation (§1): the
// plan build_ladies_plan() and the helpers its executor shares with every
// execution mode (DESIGN.md §9).
//
// Per layer (Algorithm 1 with the LADIES constructions):
//   Q     one row per batch with |S| nonzeros (indicator of the batch /
//         current layer set), §4.2.1
//   P     ← Q·A; NORM squares each entry and row-normalizes, giving
//         p_v = e_v² / Σ_u e_u²  (Zou et al. 2019)
//   Qˡ⁻¹  ← SAMPLE(P, s): s vertices per batch via ITS, §4.2.2
//   Aˡ    ← the fused masked extraction (Q_R·A)[:, S], §4.2.3/§8.2.2
// This sequence IS build_ladies_plan(); a Graph Partitioned MatrixSampler
// runs the dist-lowered copy of the same plan.
#pragma once

#include <vector>

#include "core/sample.hpp"
#include "graph/graph.hpp"

namespace dms {

// Deterministic LADIES building blocks, shared verbatim with the plan
// executor so every execution mode produces bit-identical minibatches (the
// determinism contract of the dist tests).

/// The LADIES Q matrix: one row per batch, indicator of that batch's current
/// vertex set (§4.2.1).
CsrMatrix ladies_indicator_rows(index_t n,
                                const std::vector<std::vector<index_t>>& sets);

/// NORM for LADIES: square every value, then row-normalize (p_v ∝ e_v²).
void ladies_norm(CsrMatrix& p);

/// Column-extraction matrix Q_C ∈ {0,1}^{n×s}: one nonzero per column at the
/// row index of each vertex to extract (§4.2.3).
CsrMatrix ladies_column_extractor(index_t n, const std::vector<index_t>& sampled);

/// Assembles the LayerSample for one batch from the extracted A_S (rows =
/// current set, columns = sampled order). The kFrontierUnion/kSampledSets
/// op of the plan executor (also FastGCN's assembly).
LayerSample ladies_assemble_layer(const std::vector<index_t>& rows,
                                  const std::vector<index_t>& sampled,
                                  const CsrMatrix& a_s);

/// The LADIES probability vector of one batch over all n vertices:
/// p_v = e_v² / Σ e_u² where e_v = |N(v) ∩ batch| — the first layer's
/// distribution (Figure 1's example).
std::vector<value_t> ladies_probability_vector(const Graph& graph,
                                               const std::vector<index_t>& batch);

}  // namespace dms
