// Dense float GEMM kernels for the propagation step (§6.2) — the CPU
// stand-in for cuBLAS.
//
// The product kernels are register-/cache-blocked panel kernels (DESIGN.md
// §7): the output is cut into fixed-size row panels (parallelized over the
// global thread pool) and each panel into MR×NR register tiles whose
// accumulators live in vector registers across the whole k loop. The k loop
// is strictly serial and ascending for every output element, so the blocked
// kernels are bit-identical to the scalar reference kernels below and to
// each other across tile shapes, instruction sets, and thread counts, for
// finite operands (the non-finite contract is stated below the kernels).
// matmul_nt packs Bᵀ once and runs the same nn tile kernel as matmul.
// On x86-64 the tile microkernel is dispatched at runtime (AVX-512 → AVX2 →
// scalar reference); elsewhere the reference kernels run as-is.
//
// The elementwise epilogues (axpy / relu / bias) parallelize over fixed
// element ranges — trivially bit-identical at any thread count. column_sums
// reduces fixed 128-row blocks serially combined in ascending block order:
// deterministic and thread-count-independent (see DESIGN.md §7 for why this
// fixed order, not the thread decomposition, defines the result).
#pragma once

#include "sparse/dense.hpp"

namespace dms {

/// C = A·B, A (m×k), B (k×n).
DenseF matmul(const DenseF& a, const DenseF& b);

/// C = Aᵀ·B, A (k×m), B (k×n) → (m×n). Used for weight gradients.
DenseF matmul_tn(const DenseF& a, const DenseF& b);

/// C = A·Bᵀ, A (m×k), B (n×k) → (m×n). Used for input gradients. Packs Bᵀ
/// (k×n) and runs matmul's vector tile kernel; k still ascends for every
/// output element, so the bits are those of matmul_nt_reference.
DenseF matmul_nt(const DenseF& a, const DenseF& b);

/// Scalar serial reference kernels (the pre-blocking implementations).
/// The blocked kernels above are bit-identical to these by construction
/// when every operand is finite; tests and bench/micro_gemm pin that
/// contract down and measure the gap.
///
/// Non-finite contract. With NaN or inf operands the paths may differ bit
/// for bit: the vector tiles add 0·x, while the scalar remainders and the
/// nn/tn references skip a == 0 (and the nt reference adds every term), so
/// a zero A entry facing an inf B entry gives NaN in some paths and nothing
/// in others. What every path (blocked or reference) guarantees, stated on
/// the logical product C = X·Y (X = A, or Aᵀ for tn; Y = B, or Bᵀ for nt):
///  - a NaN or inf anywhere in row i of X makes every output in row i
///    non-finite;
///  - a NaN or inf at Y[k][j] makes C[i][j] non-finite for every row i
///    with X[i][k] != 0.
/// Training treats a non-finite loss as fatal: StagedPipeline::train_step
/// throws before that step's optimizer update.
DenseF matmul_reference(const DenseF& a, const DenseF& b);
DenseF matmul_tn_reference(const DenseF& a, const DenseF& b);
DenseF matmul_nt_reference(const DenseF& a, const DenseF& b);

/// Name of the tile microkernel the runtime dispatcher selected
/// ("avx512" / "avx2" / "scalar") — bench/test observability.
const char* matmul_kernel_name();

/// C += alpha * A (same shape).
void axpy(DenseF& c, const DenseF& a, float alpha);

/// In-place ReLU; returns nothing. Backward masks via the *output*.
void relu_inplace(DenseF& a);

/// dX = dY ∘ [Y > 0] in place on dy, given the forward output y.
void relu_backward_inplace(DenseF& dy, const DenseF& y);

/// Adds a row vector bias (1×n) to every row of a (m×n).
void add_bias_inplace(DenseF& a, const DenseF& bias);

/// Column sums of a (m×n) → (1×n). Bias gradient. Deterministic fixed-order
/// block reduction: rows are summed in 128-row blocks and the block partials
/// combined in ascending block order, independent of the thread count.
DenseF column_sums(const DenseF& a);

/// Approximate FLOP count of matmul (2·m·k·n) — simulator accounting.
double matmul_flops(index_t m, index_t k, index_t n);

}  // namespace dms
