#include "nn/sage_layer.hpp"

#include <cmath>

#include "common/rng.hpp"
#include "nn/gemm.hpp"
#include "sparse/ops.hpp"
#include "sparse/spmm.hpp"

namespace dms {

namespace {

DenseF glorot(index_t rows, index_t cols, std::uint64_t seed) {
  DenseF w(rows, cols);
  Pcg32 rng(seed, 0x9143);
  const double scale = std::sqrt(6.0 / static_cast<double>(rows + cols));
  for (index_t i = 0; i < rows; ++i) {
    float* row = w.row(i);
    for (index_t j = 0; j < cols; ++j) {
      row[j] = static_cast<float>((2.0 * rng.uniform() - 1.0) * scale);
    }
  }
  return w;
}

}  // namespace

SageLayer::SageLayer(index_t in_dim, index_t out_dim, std::uint64_t seed)
    : w_self_(glorot(in_dim, out_dim, derive_seed(seed, 1))),
      w_neigh_(glorot(in_dim, out_dim, derive_seed(seed, 2))),
      bias_(1, out_dim),
      g_w_self_(in_dim, out_dim),
      g_w_neigh_(in_dim, out_dim),
      g_bias_(1, out_dim) {}

DenseF SageLayer::forward(const CsrMatrix& adj, const DenseF& h_in, bool relu,
                          SageLayerCache* cache) const {
  check(adj.cols() == h_in.rows(), "SageLayer::forward: frontier mismatch");
  check(h_in.cols() == in_dim(), "SageLayer::forward: feature dim mismatch");
  check(adj.rows() <= h_in.rows(),
        "SageLayer::forward: rows must be a prefix of the frontier");

  CsrMatrix norm_adj = adj;
  normalize_rows(norm_adj);  // mean aggregation
  DenseF h_neigh = spmm(norm_adj, h_in);

  // H_self = first R rows of h_in (frontier convention).
  DenseF h_self(adj.rows(), in_dim());
  for (index_t r = 0; r < adj.rows(); ++r) {
    std::copy(h_in.row(r), h_in.row(r) + in_dim(), h_self.row(r));
  }

  DenseF z = matmul(h_self, w_self_);
  axpy(z, matmul(h_neigh, w_neigh_), 1.0f);
  add_bias_inplace(z, bias_);
  if (relu) relu_inplace(z);

  if (cache != nullptr) {
    cache->norm_adj = std::move(norm_adj);
    cache->h_in = h_in;
    cache->h_neigh = std::move(h_neigh);
    cache->out = z;
    cache->relu = relu;
  }
  return z;
}

DenseF SageLayer::backward(const DenseF& d_out, const SageLayerCache& cache,
                           bool need_dh_in) {
  DenseF dz = d_out;
  if (cache.relu) relu_backward_inplace(dz, cache.out);

  const index_t rows = dz.rows();

  // Parameter gradients.
  DenseF h_self(rows, in_dim());
  for (index_t r = 0; r < rows; ++r) {
    std::copy(cache.h_in.row(r), cache.h_in.row(r) + in_dim(), h_self.row(r));
  }
  axpy(g_w_self_, matmul_tn(h_self, dz), 1.0f);
  axpy(g_w_neigh_, matmul_tn(cache.h_neigh, dz), 1.0f);
  axpy(g_bias_, column_sums(dz), 1.0f);
  if (!need_dh_in) return DenseF();

  // Input gradient: self path into the leading rows, neighbor path through
  // the transposed aggregation.
  DenseF dh_in(cache.h_in.rows(), in_dim());
  const DenseF d_self = matmul_nt(dz, w_self_);
  for (index_t r = 0; r < rows; ++r) {
    float* dst = dh_in.row(r);
    const float* src = d_self.row(r);
    for (index_t j = 0; j < in_dim(); ++j) dst[j] += src[j];
  }
  const DenseF d_neigh = matmul_nt(dz, w_neigh_);
  axpy(dh_in, spmm_transposed(cache.norm_adj, d_neigh), 1.0f);
  return dh_in;
}

void SageLayer::zero_grads() {
  g_w_self_.zero();
  g_w_neigh_.zero();
  g_bias_.zero();
}

}  // namespace dms
