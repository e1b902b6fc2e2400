#include "nn/gemm.hpp"

#include <algorithm>

#include "common/threadpool.hpp"

// Blocked panel kernels (DESIGN.md §7). Determinism contract: every output
// element accumulates its k contributions strictly in ascending k order, in
// every kernel variant, tile shape, and remainder path below. IEEE float
// add/mul are exact operations, so fixing the order fixes the bits: the
// blocked kernels are bit-identical to the scalar references and to each
// other. The build sets -ffp-contract=off so no compiler may fuse a*b+c
// into an FMA (which rounds once instead of twice and would change bits
// between ISAs). matmul_nt packs Bᵀ once and runs the nn tile kernel: the
// vector lanes span output columns, never k, so each element's dot product
// still ascends in k exactly as the serial nt reference does.
//
// The nn/tn references skip a==0.0f contributions (cheap for ReLU-sparse
// activations); the vector tiles and the nt reference add them. For finite
// operands this cannot change bits: accumulators start at +0.0f, and
// x + (±0) == x for every x reachable here except x == -0.0f, which no
// accumulation chain can produce (the first nonzero contribution makes x
// nonzero, and (+0) + (−0) == +0). With a non-finite B entry, 0·inf is NaN,
// so the paths may differ there (the non-finite contract in gemm.hpp).

namespace dms {

namespace {

/// Rows per parallel panel. Fixed — the decomposition (and therefore the
/// work split, though not the results, which are split-independent) does not
/// depend on the thread count.
constexpr index_t kPanelRows = 64;

// ---------------------------------------------------------------------------
// Scalar kernels (the pre-blocking implementations), restricted to a column
// range so the blocked kernels can reuse them for tile remainders.
// ---------------------------------------------------------------------------

/// c[0..m)[j0..j1) += a·b, k ascending. c must be zero-initialized.
void nn_scalar(const float* a, index_t lda, const float* b, index_t ldb,
               float* c, index_t ldc, index_t m, index_t k, index_t j0,
               index_t j1) {
  for (index_t i = 0; i < m; ++i) {
    float* crow = c + i * ldc;
    const float* arow = a + i * lda;
    for (index_t kk = 0; kk < k; ++kk) {
      const float av = arow[kk];
      if (av == 0.0f) continue;
      const float* brow = b + kk * ldb;
      for (index_t j = j0; j < j1; ++j) crow[j] += av * brow[j];
    }
  }
}

/// c[0..m)[j0..j1) += aᵀ·b: a is (k × m-panel), av = a[kk][i].
void tn_scalar(const float* a, index_t lda, const float* b, index_t ldb,
               float* c, index_t ldc, index_t m, index_t k, index_t j0,
               index_t j1) {
  for (index_t i = 0; i < m; ++i) {
    float* crow = c + i * ldc;
    for (index_t kk = 0; kk < k; ++kk) {
      const float av = a[kk * lda + i];
      if (av == 0.0f) continue;
      const float* brow = b + kk * ldb;
      for (index_t j = j0; j < j1; ++j) crow[j] += av * brow[j];
    }
  }
}

/// c = a·bᵀ: serial dot products, k ascending (matmul_nt_reference only;
/// the blocked matmul_nt runs the nn tiles on a packed bᵀ).
void nt_scalar(const float* a, index_t lda, const float* b, index_t ldb,
               float* c, index_t ldc, index_t m, index_t k, index_t n) {
  for (index_t i = 0; i < m; ++i) {
    float* crow = c + i * ldc;
    const float* arow = a + i * lda;
    for (index_t j = 0; j < n; ++j) {
      const float* brow = b + j * ldb;
      float s = 0.0f;
      for (index_t kk = 0; kk < k; ++kk) s += arow[kk] * brow[kk];
      crow[j] = s;
    }
  }
}

// ---------------------------------------------------------------------------
// Vector-register tile microkernels (x86-64 GCC/Clang). One shared body,
// stamped per ISA through target attributes; runtime dispatch picks the
// widest supported variant, falling back to the scalar kernels.
// ---------------------------------------------------------------------------

#if (defined(__GNUC__) || defined(__clang__)) && defined(__x86_64__)
#define DMS_GEMM_TILE_DISPATCH 1

// 8-lane float vector with element alignment only: dereferencing through
// this type emits unaligned moves (vmovups), which row strides require.
// Wider (64-byte) vector types are deliberately not used — GCC does not
// reliably honor the reduced-alignment typedef for them and can emit
// aligned zmm moves that fault on odd strides.
typedef float v8sf __attribute__((vector_size(32), aligned(4)));

/// MR × (NV·8) register tile over a row panel: the C tile lives in vector
/// registers across the whole k loop (the naive kernel's per-k C row
/// store/load traffic is what caps it at ~half of machine peak). TA selects
/// the Aᵀ·B addressing. Remainders (m % MR rows, n % NR columns) run the
/// scalar kernels over their sub-range — same k order, so same bits.
template <int MR, int NV, bool TA>
__attribute__((always_inline)) inline void mm_tile_body(
    const float* a, index_t lda, const float* b, index_t ldb, float* c,
    index_t ldc, index_t m, index_t k, index_t n) {
  constexpr index_t NR = NV * 8;
  // Column panel outer, row tile inner: the k×NR panel of B stays
  // cache-resident while every row tile of this (≤ kPanelRows-row) panel
  // sweeps it, so B's memory traffic shrinks by the row-tile count — the
  // difference between ~L1 streaming and DRAM once B outgrows L2. Loop
  // interchange cannot change bits: each C element still accumulates its
  // own k chain in ascending order.
  const index_t m_tiled = m - m % MR;
  index_t j0 = 0;
  for (; j0 + NR <= n; j0 += NR) {
    for (index_t i0 = 0; i0 < m_tiled; i0 += MR) {
      v8sf acc[MR][NV];
      for (int mi = 0; mi < MR; ++mi)
        for (int nv = 0; nv < NV; ++nv) acc[mi][nv] = (v8sf){};
      const float* bp = b + j0;
      for (index_t kk = 0; kk < k; ++kk, bp += ldb) {
        v8sf bv[NV];
        for (int nv = 0; nv < NV; ++nv)
          bv[nv] = *reinterpret_cast<const v8sf*>(bp + 8 * nv);
        for (int mi = 0; mi < MR; ++mi) {
          const float s =
              TA ? a[kk * lda + (i0 + mi)] : a[(i0 + mi) * lda + kk];
          const v8sf av = {s, s, s, s, s, s, s, s};
          for (int nv = 0; nv < NV; ++nv) acc[mi][nv] += av * bv[nv];
        }
      }
      for (int mi = 0; mi < MR; ++mi)
        for (int nv = 0; nv < NV; ++nv)
          *reinterpret_cast<v8sf*>(c + (i0 + mi) * ldc + j0 + 8 * nv) =
              acc[mi][nv];
    }
  }
  if (j0 < n && m_tiled > 0) {  // column remainder of the tiled rows
    if (TA) {
      tn_scalar(a, lda, b, ldb, c, ldc, m_tiled, k, j0, n);
    } else {
      nn_scalar(a, lda, b, ldb, c, ldc, m_tiled, k, j0, n);
    }
  }
  if (m_tiled < m) {  // row remainder
    if (TA) {
      tn_scalar(a + m_tiled, lda, b, ldb, c + m_tiled * ldc, ldc, m - m_tiled,
                k, 0, n);
    } else {
      nn_scalar(a + m_tiled * lda, lda, b, ldb, c + m_tiled * ldc, ldc,
                m - m_tiled, k, 0, n);
    }
  }
}

#define DMS_GEMM_ARGS                                                    \
  const float *a, index_t lda, const float *b, index_t ldb, float *c,    \
      index_t ldc, index_t m, index_t k, index_t n
#define DMS_GEMM_PASS a, lda, b, ldb, c, ldc, m, k, n

__attribute__((target("avx2"))) void nn_avx2(DMS_GEMM_ARGS) {
  mm_tile_body<4, 2, false>(DMS_GEMM_PASS);
}
__attribute__((target("avx512f"))) void nn_avx512(DMS_GEMM_ARGS) {
  // MR = 8 divides kPanelRows, so full panels never hit the scalar row
  // remainder (AVX-512 doubles the register file; the 16 ymm accumulators
  // still fit).
  mm_tile_body<8, 2, false>(DMS_GEMM_PASS);
}
__attribute__((target("avx2"))) void tn_avx2(DMS_GEMM_ARGS) {
  mm_tile_body<4, 2, true>(DMS_GEMM_PASS);
}
__attribute__((target("avx512f"))) void tn_avx512(DMS_GEMM_ARGS) {
  mm_tile_body<8, 2, true>(DMS_GEMM_PASS);
}
#endif  // DMS_GEMM_TILE_DISPATCH

void nn_panel_scalar(const float* a, index_t lda, const float* b, index_t ldb,
                     float* c, index_t ldc, index_t m, index_t k, index_t n) {
  nn_scalar(a, lda, b, ldb, c, ldc, m, k, 0, n);
}
void tn_panel_scalar(const float* a, index_t lda, const float* b, index_t ldb,
                     float* c, index_t ldc, index_t m, index_t k, index_t n) {
  tn_scalar(a, lda, b, ldb, c, ldc, m, k, 0, n);
}

using PanelFn = void (*)(const float*, index_t, const float*, index_t, float*,
                         index_t, index_t, index_t, index_t);

struct TileKernels {
  PanelFn nn;
  PanelFn tn;
  const char* name;
};

const TileKernels& tile_kernels() {
  static const TileKernels k = [] {
#ifdef DMS_GEMM_TILE_DISPATCH
    if (__builtin_cpu_supports("avx512f")) {
      return TileKernels{nn_avx512, tn_avx512, "avx512"};
    }
    if (__builtin_cpu_supports("avx2")) {
      return TileKernels{nn_avx2, tn_avx2, "avx2"};
    }
#endif
    return TileKernels{nn_panel_scalar, tn_panel_scalar, "scalar"};
  }();
  return k;
}

/// Runs panel_fn over fixed kPanelRows row panels of the m output rows,
/// in parallel when there is more than one panel.
template <typename Fn>
void for_panels(index_t m, Fn&& panel_fn) {
  const index_t panels = m > 0 ? ceil_div(m, kPanelRows) : 0;
  if (panels <= 1) {
    if (panels == 1) panel_fn(0, m);
    return;
  }
  ThreadPool::global().parallel_for(panels, [&](index_t p) {
    const index_t r0 = p * kPanelRows;
    panel_fn(r0, std::min<index_t>(m, r0 + kPanelRows));
  });
}

/// Fixed-size element-range parallelization for the epilogues. Elementwise
/// updates are order-free, so any split is bit-identical; small tensors stay
/// serial to skip the fork-join overhead.
constexpr std::size_t kEpilogueBlock = std::size_t{1} << 15;

template <typename Fn>
void for_ranges(std::size_t total, Fn&& body) {
  if (total == 0) return;
  if (total <= kEpilogueBlock) {
    body(std::size_t{0}, total);
    return;
  }
  const auto nblocks =
      static_cast<index_t>((total + kEpilogueBlock - 1) / kEpilogueBlock);
  ThreadPool::global().parallel_for(nblocks, [&](index_t blk) {
    const std::size_t lo = static_cast<std::size_t>(blk) * kEpilogueBlock;
    body(lo, std::min(total, lo + kEpilogueBlock));
  });
}

}  // namespace

DenseF matmul(const DenseF& a, const DenseF& b) {
  check(a.cols() == b.rows(), "matmul: inner dimension mismatch");
  DenseF c(a.rows(), b.cols());
  const index_t k = a.cols();
  const index_t n = b.cols();
  const PanelFn fn = tile_kernels().nn;
  for_panels(a.rows(), [&](index_t r0, index_t r1) {
    fn(a.row(r0), k, b.data(), n, c.row(r0), n, r1 - r0, k, n);
  });
  return c;
}

DenseF matmul_tn(const DenseF& a, const DenseF& b) {
  check(a.rows() == b.rows(), "matmul_tn: inner dimension mismatch");
  DenseF c(a.cols(), b.cols());
  const index_t k = a.rows();
  const index_t n = b.cols();
  const PanelFn fn = tile_kernels().tn;
  for_panels(a.cols(), [&](index_t r0, index_t r1) {
    // Panel rows are columns of A: offset the base pointer, keep the stride.
    fn(a.data() + r0, a.cols(), b.data(), n, c.row(r0), n, r1 - r0, k, n);
  });
  return c;
}

DenseF matmul_nt(const DenseF& a, const DenseF& b) {
  check(a.cols() == b.cols(), "matmul_nt: inner dimension mismatch");
  // Pack Bᵀ (O(k·n), against the product's O(m·k·n)) and reuse the nn tile
  // kernel: c[i][j] = Σ_kk a[i][kk]·bᵀ[kk][j], k ascending — the nt order.
  // The pack runs in square blocks: a plain column walk strides by a power
  // of two at the usual widths and thrashes a handful of L1 sets.
  constexpr index_t kPackBlock = 16;
  const index_t k = a.cols();
  const index_t n = b.rows();
  DenseF bt(k, n);
  for (index_t j0 = 0; j0 < n; j0 += kPackBlock) {
    const index_t j1 = std::min(n, j0 + kPackBlock);
    for (index_t k0 = 0; k0 < k; k0 += kPackBlock) {
      const index_t k1 = std::min(k, k0 + kPackBlock);
      for (index_t j = j0; j < j1; ++j) {
        const float* brow = b.row(j);
        for (index_t kk = k0; kk < k1; ++kk) bt.row(kk)[j] = brow[kk];
      }
    }
  }
  return matmul(a, bt);
}

DenseF matmul_reference(const DenseF& a, const DenseF& b) {
  check(a.cols() == b.rows(), "matmul_reference: inner dimension mismatch");
  DenseF c(a.rows(), b.cols());
  nn_scalar(a.data(), a.cols(), b.data(), b.cols(), c.data(), b.cols(),
            a.rows(), a.cols(), 0, b.cols());
  return c;
}

DenseF matmul_tn_reference(const DenseF& a, const DenseF& b) {
  check(a.rows() == b.rows(), "matmul_tn_reference: inner dimension mismatch");
  DenseF c(a.cols(), b.cols());
  tn_scalar(a.data(), a.cols(), b.data(), b.cols(), c.data(), b.cols(),
            a.cols(), a.rows(), 0, b.cols());
  return c;
}

DenseF matmul_nt_reference(const DenseF& a, const DenseF& b) {
  check(a.cols() == b.cols(), "matmul_nt_reference: inner dimension mismatch");
  DenseF c(a.rows(), b.rows());
  nt_scalar(a.data(), a.cols(), b.data(), b.cols(), c.data(), b.rows(),
            a.rows(), a.cols(), b.rows());
  return c;
}

const char* matmul_kernel_name() { return tile_kernels().name; }

void axpy(DenseF& c, const DenseF& a, float alpha) {
  check(c.rows() == a.rows() && c.cols() == a.cols(), "axpy: shape mismatch");
  float* cd = c.data();
  const float* ad = a.data();
  for_ranges(c.size(), [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) cd[i] += alpha * ad[i];
  });
}

void relu_inplace(DenseF& a) {
  float* d = a.data();
  for_ranges(a.size(), [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) d[i] = d[i] > 0.0f ? d[i] : 0.0f;
  });
}

void relu_backward_inplace(DenseF& dy, const DenseF& y) {
  check(dy.rows() == y.rows() && dy.cols() == y.cols(), "relu_backward: shape mismatch");
  float* dd = dy.data();
  const float* yd = y.data();
  for_ranges(dy.size(), [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      if (yd[i] <= 0.0f) dd[i] = 0.0f;
    }
  });
}

void add_bias_inplace(DenseF& a, const DenseF& bias) {
  check(bias.rows() == 1 && bias.cols() == a.cols(), "add_bias: shape mismatch");
  const float* b = bias.row(0);
  const index_t cols = a.cols();
  for_panels(a.rows(), [&](index_t r0, index_t r1) {
    for (index_t i = r0; i < r1; ++i) {
      float* row = a.row(i);
      for (index_t j = 0; j < cols; ++j) row[j] += b[j];
    }
  });
}

DenseF column_sums(const DenseF& a) {
  // Fixed 128-row reduction blocks, partials combined in ascending block
  // order: the result is defined by this fixed order, not by the thread
  // count. A single block reduces serially (identical to the pre-blocking
  // row-ascending sum); above one block the summation order — and hence
  // the bias-gradient bits — is deliberately redefined (DESIGN.md §7).
  constexpr index_t kBlockRows = 128;
  const index_t cols = a.cols();
  DenseF s(1, cols);
  float* sd = s.row(0);
  if (a.rows() <= kBlockRows) {
    for (index_t i = 0; i < a.rows(); ++i) {
      const float* row = a.row(i);
      for (index_t j = 0; j < cols; ++j) sd[j] += row[j];
    }
    return s;
  }
  const index_t nblocks = ceil_div(a.rows(), kBlockRows);
  DenseF partial(nblocks, cols);
  ThreadPool::global().parallel_for(nblocks, [&](index_t blk) {
    float* pd = partial.row(blk);
    const index_t r1 = std::min<index_t>(a.rows(), (blk + 1) * kBlockRows);
    for (index_t i = blk * kBlockRows; i < r1; ++i) {
      const float* row = a.row(i);
      for (index_t j = 0; j < cols; ++j) pd[j] += row[j];
    }
  });
  for (index_t blk = 0; blk < nblocks; ++blk) {
    const float* pd = partial.row(blk);
    for (index_t j = 0; j < cols; ++j) sd[j] += pd[j];
  }
  return s;
}

double matmul_flops(index_t m, index_t k, index_t n) {
  return 2.0 * static_cast<double>(m) * static_cast<double>(k) * static_cast<double>(n);
}

}  // namespace dms
