// Frontier construction: converts per-row sampled vertex lists into a
// LayerSample whose column space is [row vertices..., new samples...]
// (see core/sample.hpp for the convention).
#pragma once

#include <vector>

#include "core/sample.hpp"

namespace dms {

/// Builds one LayerSample. sampled_per_row[i] lists the global vertex ids
/// sampled for row vertex row_vertices[i] (duplicates across rows are
/// merged into one frontier column).
LayerSample build_layer_sample(const std::vector<index_t>& row_vertices,
                               const std::vector<std::vector<index_t>>& sampled_per_row);

/// The stacked row construction of Eq. 1: per-batch vertex lists
/// concatenated, with offsets[b] = first stacked row of batch b. Shared by
/// the single-node and Graph Partitioned samplers so both execution modes
/// stack identically (part of the bit-identity determinism contract).
struct FrontierStack {
  std::vector<index_t> vertices;  ///< concatenated per-batch vertex ids
  std::vector<index_t> offsets;   ///< batches+1 block offsets
};

FrontierStack stack_frontiers(const std::vector<std::vector<index_t>>& frontiers);

}  // namespace dms
