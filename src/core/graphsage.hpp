// Matrix-based GraphSAGE sampling (§4.1): the plan build_sage_plan() and
// the helpers its executor shares with every execution mode (DESIGN.md §9).
//
// Per layer (Algorithm 1 with the GraphSAGE constructions):
//   Q     one nonzero per row, column = frontier vertex id        (§4.1.1)
//   P     ← Q·A (SpGEMM), then NORM = row normalization → 1/|N(v)|
//   Qˡ⁻¹  ← SAMPLE(P, s) via ITS, s distinct neighbors per vertex (§4.1.2)
//   Aˡ    ← per-batch extraction (remove empty columns / renumber) (§4.1.3)
// Bulk sampling stacks the per-batch blocks vertically (Eq. 1) and runs the
// identical matrix operations on the stacked matrices (§4.1.4).
//
// The sequence above IS the plan built by build_sage_plan(). A Graph
// Partitioned MatrixSampler runs the dist-lowered copy of the same plan,
// which is what makes both modes bit-identical by construction.
#pragma once

#include <cstdint>

#include "core/frontier.hpp"
#include "core/its.hpp"

namespace dms {

/// Row-seed function for ITS over a stacked P (shared verbatim with the
/// plan executor so every execution mode samples bit-identically):
/// maps a stacked row back to (batch, local row) and derives the (epoch,
/// global batch id, layer, local row) seed. `first_batch` is the global
/// index of the stack's first batch within `batch_ids` (0 single-node; the
/// process row's block start distributed). Inputs are copied into the
/// returned closure, so it may outlive them.
RowSeedFn sage_row_seed_fn(const FrontierStack& stack,
                           const std::vector<index_t>& batch_ids,
                           index_t first_batch, index_t layer,
                           std::uint64_t epoch_seed);

/// EXTRACT for one batch of a stacked SAGE sample (§4.1.3): gathers the
/// sampled columns of stacked rows [offsets[b], offsets[b+1]) of qs and
/// renumbers them into a LayerSample over `frontier_b` (the batch's current
/// frontier). The kFrontierUnion/kNeighborRows op of the plan executor.
LayerSample sage_extract_layer(const CsrMatrix& qs, const FrontierStack& stack,
                               std::size_t b,
                               const std::vector<index_t>& frontier_b);

}  // namespace dms
