// Sampler framework types (Algorithm 1): the configuration and the output
// structures of the matrix-based sampler (core/sampler.hpp).
//
// A sampled minibatch is a chain of bipartite sampled adjacency matrices
// A^L ... A^1 (paper notation: layer L holds the batch vertices, layer 1 the
// vertices furthest from the batch). Our layers[] vector stores them in
// sampling order: layers[0] is the layer-L adjacency (batch rows), and
// layers.back() is the furthest layer whose columns index the input-feature
// frontier.
//
// Frontier convention: the column space of each layer's adjacency is
// [row vertices..., newly sampled vertices...] — row vertices are included
// so a GraphSAGE-style model can read its "self" embedding from the same
// frontier (the standard src-includes-dst convention). The pure paper
// extraction (drop empty columns only) is available in sparse/ops and
// exercised by tests; training needs the self-inclusive form.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "sparse/csr.hpp"

namespace dms {

/// One sampled layer of one minibatch.
struct LayerSample {
  /// Bipartite adjacency: rows are this layer's output vertices, columns are
  /// indexed against `col_vertices` (the next frontier). 0/1 values.
  CsrMatrix adj;
  /// Global vertex id of each row.
  std::vector<index_t> row_vertices;
  /// Global vertex id of each column (frontier; row vertices lead).
  std::vector<index_t> col_vertices;
};

/// A fully sampled minibatch: the list of per-layer adjacencies.
struct MinibatchSample {
  std::vector<index_t> batch_vertices;  ///< the layer-L seed vertices
  std::vector<LayerSample> layers;      ///< [0]=layer L ... [L-1]=layer 1

  /// Global vertex ids whose input features are needed (the last frontier).
  /// Throws DmsError if no layers have been sampled yet.
  const std::vector<index_t>& input_vertices() const {
    if (layers.empty()) {
      throw DmsError("MinibatchSample::input_vertices: no sampled layers");
    }
    return layers.back().col_vertices;
  }
  index_t num_layers() const { return static_cast<index_t>(layers.size()); }
};

/// Hyperparameters shared by all samplers.
struct SamplerConfig {
  /// Per-layer sample counts, sampling order (first entry = layer L).
  /// GraphSAGE: fanout per vertex. LADIES/FastGCN: vertices per layer.
  std::vector<index_t> fanouts;
  std::uint64_t seed = 1;

  index_t num_layers() const { return static_cast<index_t>(fanouts.size()); }
};

}  // namespace dms
