// GraphSAGE-mean layer with manual forward/backward (the propagation step of
// §6.2, replacing PyG's SAGEConv).
//
//   Z = ReLU( H_self · W_self  +  mean_agg(A_s, H_in) · W_neigh  +  bias )
//
// H_in holds embeddings for the layer's frontier (column space of the
// sampled adjacency A_s). By the frontier convention (core/sample.hpp) the
// first R frontier entries are the output ("self") vertices, so
// H_self = H_in[0:R). mean_agg row-normalizes A_s and multiplies (SpMM).
#pragma once

#include <cstdint>

#include "sparse/csr.hpp"
#include "sparse/dense.hpp"

namespace dms {

/// Per-call activations retained for the backward pass.
struct SageLayerCache {
  CsrMatrix norm_adj;  ///< row-normalized sampled adjacency
  DenseF h_in;         ///< layer input (frontier × in_dim)
  DenseF h_neigh;      ///< aggregated neighborhood (rows × in_dim)
  DenseF out;          ///< layer output after activation (rows × out_dim)
  bool relu = true;
};

class SageLayer {
 public:
  SageLayer(index_t in_dim, index_t out_dim, std::uint64_t seed);

  /// adj: (rows × frontier) sampled adjacency; h_in: (frontier × in_dim).
  /// Returns (rows × out_dim); fills cache for backward().
  DenseF forward(const CsrMatrix& adj, const DenseF& h_in, bool relu,
                 SageLayerCache* cache) const;

  /// d_out: gradient w.r.t. this layer's output. Accumulates parameter
  /// gradients and returns the gradient w.r.t. h_in (frontier × in_dim).
  DenseF backward(const DenseF& d_out, const SageLayerCache& cache);

  index_t in_dim() const { return w_self_.rows(); }
  index_t out_dim() const { return w_self_.cols(); }

  // Parameters and accumulated gradients (exposed for the optimizer and the
  // data-parallel gradient all-reduce).
  DenseF& w_self() { return w_self_; }
  DenseF& w_neigh() { return w_neigh_; }
  DenseF& bias() { return bias_; }
  DenseF& grad_w_self() { return g_w_self_; }
  DenseF& grad_w_neigh() { return g_w_neigh_; }
  DenseF& grad_bias() { return g_bias_; }

  void zero_grads();

  /// Bytes of all parameters (for the gradient all-reduce cost).
  std::size_t param_bytes() const {
    return (w_self_.size() + w_neigh_.size() + bias_.size()) * sizeof(float);
  }

 private:
  DenseF w_self_, w_neigh_, bias_;
  DenseF g_w_self_, g_w_neigh_, g_bias_;
};

}  // namespace dms
