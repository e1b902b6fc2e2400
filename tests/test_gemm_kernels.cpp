// Cross-kernel bit-identity of the hot-path kernels (DESIGN.md §7): the
// blocked GEMM panel kernels against their scalar references across tile
// boundaries, the parallel epilogues, the fixed-order column_sums
// reduction, and the parallel two-pass ITS against a serial reference.
// CI reruns this binary at DMS_THREADS 1 and 4: every assertion here is an
// exact-bits comparison, so passing at both pins thread-count independence.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/workspace.hpp"
#include "core/its.hpp"
#include "nn/gemm.hpp"
#include "test_util.hpp"

namespace dms {
namespace {

/// Random matrix in [-0.5, 0.5); zero_frac entries forced to exactly 0.0f
/// (the ReLU-sparse pattern whose skip path the references special-case).
DenseF random_dense(index_t rows, index_t cols, std::uint64_t seed,
                    double zero_frac = 0.0) {
  DenseF m(rows, cols);
  Pcg32 rng(seed);
  float* d = m.data();
  for (std::size_t i = 0; i < m.size(); ++i) {
    d[i] = static_cast<float>(rng.uniform() - 0.5);
    if (zero_frac > 0.0 && rng.uniform() < zero_frac) d[i] = 0.0f;
  }
  return m;
}

// Dimensions straddling every blocking boundary: the MR=4/8 row tiles, the
// 16-column vector tiles, and the 64-row parallel panels.
const index_t kSizes[] = {1, 2, 3, 5, 8, 15, 16, 17, 33, 63, 64, 65, 130};

TEST(GemmKernels, MatmulBitIdenticalToReferenceAcrossBlockSizes) {
  for (const index_t m : kSizes) {
    for (const index_t n : kSizes) {
      const index_t k = (m + n) % 37 + 1;
      const DenseF a = random_dense(m, k, 1000 + m * 7 + n, 0.3);
      const DenseF b = random_dense(k, n, 2000 + m + n * 5);
      EXPECT_TRUE(matmul(a, b) == matmul_reference(a, b))
          << "m=" << m << " k=" << k << " n=" << n;
    }
  }
}

TEST(GemmKernels, MatmulTnBitIdenticalToReference) {
  for (const index_t m : kSizes) {
    for (const index_t n : kSizes) {
      const index_t k = (2 * m + n) % 41 + 1;
      const DenseF a = random_dense(k, m, 3000 + m * 3 + n, 0.3);
      const DenseF b = random_dense(k, n, 4000 + m + n * 11);
      EXPECT_TRUE(matmul_tn(a, b) == matmul_tn_reference(a, b))
          << "m=" << m << " k=" << k << " n=" << n;
    }
  }
}

TEST(GemmKernels, MatmulNtBitIdenticalToReference) {
  for (const index_t m : kSizes) {
    for (const index_t n : kSizes) {
      const index_t k = (m + 3 * n) % 29 + 1;
      const DenseF a = random_dense(m, k, 5000 + m * 13 + n, 0.3);
      const DenseF b = random_dense(n, k, 6000 + m + n * 17);
      EXPECT_TRUE(matmul_nt(a, b) == matmul_nt_reference(a, b))
          << "m=" << m << " k=" << k << " n=" << n;
    }
  }
}

TEST(GemmKernels, DegenerateShapes) {
  // Zero-dimension products must produce empty (all-zero) outputs.
  const DenseF a0 = random_dense(0, 5, 1);
  const DenseF b = random_dense(5, 7, 2);
  EXPECT_EQ(matmul(a0, b).rows(), 0);
  const DenseF a = random_dense(4, 0, 3);
  const DenseF b0 = random_dense(0, 7, 4);
  const DenseF c = matmul(a, b0);
  EXPECT_EQ(c.rows(), 4);
  EXPECT_EQ(c.cols(), 7);
  for (std::size_t i = 0; i < c.size(); ++i) EXPECT_EQ(c.data()[i], 0.0f);
  EXPECT_THROW(matmul(random_dense(2, 3, 5), random_dense(4, 2, 6)), DmsError);
}

DenseF transposed(const DenseF& a) {
  DenseF t(a.cols(), a.rows());
  for (index_t i = 0; i < a.rows(); ++i) {
    for (index_t j = 0; j < a.cols(); ++j) t(j, i) = a(i, j);
  }
  return t;
}

// The non-finite contract (nn/gemm.hpp). With NaN/inf operands the paths
// may disagree bit for bit, but each must poison row i of the logical
// product C = X·Y when row i of X holds a non-finite value, and C[i][j]
// when Y[k][j] is non-finite and X[i][k] != 0; outputs that meet no
// non-finite operand stay finite. The shapes straddle the MR=4/8 row tiles
// and the 16-column vector tiles, so the planted values reach both the
// tiles and the scalar remainders.
TEST(GemmKernels, NonFiniteOperandsPoisonTheirRowsAndColumns) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  struct Op {
    const char* name;
    DenseF (*fn)(const DenseF&, const DenseF&);
    bool ta, tb;  ///< operand passed as Xᵀ / Yᵀ
  };
  const Op ops[] = {
      {"matmul", matmul, false, false},
      {"matmul_reference", matmul_reference, false, false},
      {"matmul_tn", matmul_tn, true, false},
      {"matmul_tn_reference", matmul_tn_reference, true, false},
      {"matmul_nt", matmul_nt, false, true},
      {"matmul_nt_reference", matmul_nt_reference, false, true},
  };
  for (const index_t m : {3, 8, 13, 70}) {
    for (const index_t n : {5, 16, 21, 40}) {
      const index_t k = (m + n) % 11 + 3;
      DenseF x = random_dense(m, k, 7000 + m * 5 + n, 0.3);
      DenseF y = random_dense(k, n, 8000 + m + n * 3);
      x(m / 2, k / 2) = nan;
      x(m - 1, 0) = -inf;
      y(1, n - 1) = inf;  // the column remainder unless 16 divides n
      y(k - 1, 0) = nan;  // inside the first column tile
      x(0, 1) = 0.0f;     // a zero facing a non-finite Y entry: unspecified
      x(1, k - 1) = 0.5f;
      const DenseF xt = transposed(x);
      const DenseF yt = transposed(y);
      for (const Op& op : ops) {
        const DenseF c = op.fn(op.ta ? xt : x, op.tb ? yt : y);
        ASSERT_EQ(c.rows(), m);
        ASSERT_EQ(c.cols(), n);
        for (index_t i = 0; i < m; ++i) {
          bool row_bad = false;
          for (index_t kk = 0; kk < k; ++kk) row_bad |= !std::isfinite(x(i, kk));
          for (index_t j = 0; j < n; ++j) {
            bool col_bad = false;  // some non-finite Y[kk][j]
            bool poisoned = row_bad;
            for (index_t kk = 0; kk < k; ++kk) {
              if (std::isfinite(y(kk, j))) continue;
              col_bad = true;
              poisoned |= x(i, kk) != 0.0f;
            }
            const std::string ctx = std::string(op.name) + " m=" + std::to_string(m) +
                                    " n=" + std::to_string(n) + " at (" +
                                    std::to_string(i) + "," + std::to_string(j) + ")";
            if (poisoned) {
              EXPECT_FALSE(std::isfinite(c(i, j))) << ctx;
            } else if (!row_bad && !col_bad) {
              EXPECT_TRUE(std::isfinite(c(i, j))) << ctx;
            }
          }
        }
      }
    }
  }
}

TEST(GemmKernels, EpiloguesBitIdenticalToSerial) {
  // Spans the parallel cutoff (1<<15 elements) in both directions.
  for (const index_t rows : {7, 130, 700}) {
    const index_t cols = 65;
    const DenseF x = random_dense(rows, cols, 70 + rows, 0.3);
    const DenseF y = random_dense(rows, cols, 80 + rows, 0.4);
    const DenseF bias = random_dense(1, cols, 90 + rows);

    DenseF c1 = x, c2 = x;
    {  // axpy
      float* cd = c1.data();
      const float* ad = y.data();
      for (std::size_t i = 0; i < c1.size(); ++i) cd[i] += 0.37f * ad[i];
      axpy(c2, y, 0.37f);
      EXPECT_TRUE(c1 == c2) << "axpy rows=" << rows;
    }
    {  // relu
      c1 = x;
      c2 = x;
      float* d = c1.data();
      for (std::size_t i = 0; i < c1.size(); ++i) d[i] = d[i] > 0.0f ? d[i] : 0.0f;
      relu_inplace(c2);
      EXPECT_TRUE(c1 == c2) << "relu rows=" << rows;
    }
    {  // relu backward
      DenseF d1 = y, d2 = y;
      float* dd = d1.data();
      const float* yd = x.data();
      for (std::size_t i = 0; i < d1.size(); ++i) {
        if (yd[i] <= 0.0f) dd[i] = 0.0f;
      }
      relu_backward_inplace(d2, x);
      EXPECT_TRUE(d1 == d2) << "relu_backward rows=" << rows;
    }
    {  // add_bias
      c1 = x;
      c2 = x;
      for (index_t i = 0; i < rows; ++i) {
        float* row = c1.row(i);
        for (index_t j = 0; j < cols; ++j) row[j] += bias.row(0)[j];
      }
      add_bias_inplace(c2, bias);
      EXPECT_TRUE(c1 == c2) << "add_bias rows=" << rows;
    }
  }
}

/// The documented column_sums order: 128-row blocks summed row-ascending,
/// block partials combined in ascending block order.
DenseF column_sums_fixed_order_reference(const DenseF& a) {
  constexpr index_t kBlockRows = 128;
  DenseF s(1, a.cols());
  float* sd = s.row(0);
  const index_t nblocks = std::max<index_t>(1, ceil_div(a.rows(), kBlockRows));
  for (index_t blk = 0; blk < nblocks; ++blk) {
    DenseF partial(1, a.cols());
    float* pd = partial.row(0);
    const index_t r1 = std::min<index_t>(a.rows(), (blk + 1) * kBlockRows);
    for (index_t i = blk * kBlockRows; i < r1; ++i) {
      const float* row = a.row(i);
      for (index_t j = 0; j < a.cols(); ++j) pd[j] += row[j];
    }
    for (index_t j = 0; j < a.cols(); ++j) sd[j] += pd[j];
  }
  return s;
}

TEST(GemmKernels, ColumnSumsMatchesFixedBlockOrderAtAnyThreadCount) {
  for (const index_t rows : {1, 64, 128, 129, 500, 1111}) {
    const DenseF a = random_dense(rows, 33, 300 + rows, 0.2);
    EXPECT_TRUE(column_sums(a) == column_sums_fixed_order_reference(a))
        << "rows=" << rows;
  }
}

TEST(GemmKernels, ColumnSumsSingleBlockEqualsPlainSerialSum) {
  // Below one block the fixed order degenerates to the pre-blocking
  // row-ascending serial sum — the shapes every training config uses.
  const DenseF a = random_dense(128, 19, 77);
  DenseF s(1, a.cols());
  for (index_t i = 0; i < a.rows(); ++i) {
    for (index_t j = 0; j < a.cols(); ++j) s.row(0)[j] += a(i, j);
  }
  EXPECT_TRUE(column_sums(a) == s);
}

// ---------------------------------------------------------------------------
// ITS: the parallel two-pass sampler must bit-equal the serial reference.
// ---------------------------------------------------------------------------

/// The pre-parallelization serial path: its_sample_one per row, appended in
/// row order.
CsrMatrix its_sample_rows_serial_reference(const CsrMatrix& p, index_t s,
                                           const RowSeedFn& row_seed) {
  std::vector<nnz_t> rowptr(static_cast<std::size_t>(p.rows()) + 1, 0);
  std::vector<index_t> colidx;
  std::vector<value_t> vals;
  std::vector<value_t> prefix;
  std::vector<index_t> picked;
  std::vector<char> chosen;
  for (index_t r = 0; r < p.rows(); ++r) {
    const auto rvals = p.row_vals(r);
    const auto rcols = p.row_cols(r);
    prefix.assign(1, 0.0);
    for (const value_t v : rvals) prefix.push_back(prefix.back() + std::max(v, 0.0));
    its_sample_one(prefix, s, row_seed(r), &picked, chosen);
    for (const index_t local : picked) {
      colidx.push_back(rcols[static_cast<std::size_t>(local)]);
      vals.push_back(1.0);
    }
    rowptr[static_cast<std::size_t>(r) + 1] = static_cast<nnz_t>(colidx.size());
  }
  return CsrMatrix(p.rows(), p.cols(), std::move(rowptr), std::move(colidx),
                   std::move(vals));
}

TEST(ItsParallel, BitEqualsSerialReference) {
  // Shapes spanning skewed row sizes, zero-mass rows, and s regimes; the
  // property must hold for any thread count (CI pins 1 and 4).
  for (const auto& [rows, cols, density, s] :
       std::vector<std::tuple<index_t, index_t, double, index_t>>{
           {1, 10, 0.5, 3},
           {17, 40, 0.3, 2},
           {64, 200, 0.1, 5},
           {257, 300, 0.05, 4},
           {100, 1000, 0.02, 100}}) {
    const CsrMatrix p =
        testutil::random_csr(rows, cols, density, 7000 + rows + s);
    const auto seed_fn = [rows = rows](index_t r) {
      return derive_seed(991, static_cast<std::uint64_t>(r) * 3 + static_cast<std::uint64_t>(rows));
    };
    const CsrMatrix serial = its_sample_rows_serial_reference(p, s, seed_fn);
    const CsrMatrix parallel = its_sample_rows(p, s, seed_fn);
    EXPECT_TRUE(serial == parallel) << "rows=" << rows << " s=" << s;
  }
}

TEST(ItsParallel, ZeroAndNegativeMassRowsSampleNothingFromThem) {
  // Rows whose values are all zero/negative must come out empty, exactly as
  // the serial path produced them.
  CsrMatrix p = CsrMatrix::from_triplets(
      3, 5, {0, 0, 1, 1, 2, 2}, {0, 3, 1, 4, 0, 2},
      {1.0, 2.0, 0.0, -1.0, 0.5, 0.5});
  const CsrMatrix q = its_sample_rows(p, 2, std::uint64_t{5});
  EXPECT_EQ(q.row_nnz(0), 2);
  EXPECT_EQ(q.row_nnz(1), 0);  // no positive mass
  EXPECT_EQ(q.row_nnz(2), 2);
  EXPECT_TRUE(q == its_sample_rows_serial_reference(
                       p, 2, [](index_t r) {
                         return derive_seed(5, static_cast<std::uint64_t>(r));
                       }));
}

TEST(ItsParallel, SharedWorkspaceReuseDoesNotChangeResults) {
  Workspace ws;
  const CsrMatrix p1 = testutil::random_csr(80, 120, 0.2, 901);
  const CsrMatrix p2 = testutil::random_csr(33, 500, 0.1, 902);
  const CsrMatrix fresh1 = its_sample_rows(p1, 4, std::uint64_t{31});
  const CsrMatrix fresh2 = its_sample_rows(p2, 9, std::uint64_t{32});
  for (int round = 0; round < 3; ++round) {
    EXPECT_TRUE(its_sample_rows(p1, 4, std::uint64_t{31}, &ws) == fresh1);
    EXPECT_TRUE(its_sample_rows(p2, 9, std::uint64_t{32}, &ws) == fresh2);
  }
}

TEST(ItsSampleOne, ScratchReuseAcrossSeedsIsStable) {
  std::vector<value_t> prefix{0.0};
  Pcg32 rng(55);
  for (int i = 0; i < 200; ++i) prefix.push_back(prefix.back() + rng.uniform());
  std::vector<char> reused;
  for (std::uint64_t seed = 0; seed < 30; ++seed) {
    std::vector<index_t> with_reused, with_fresh;
    std::vector<char> fresh;
    its_sample_one(prefix, 7, seed, &with_reused, reused);
    its_sample_one(prefix, 7, seed, &with_fresh, fresh);
    EXPECT_EQ(with_reused, with_fresh);
  }
}

}  // namespace
}  // namespace dms
