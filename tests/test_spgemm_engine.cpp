// The unified SpGEMM engine: property tests asserting every kernel (dense,
// hash, auto-dispatched) produces bit-identical results on random CSR
// inputs across shapes — including empty rows/columns — and that the masked
// row gather equals the extraction product it replaces under random
// duplicate-free masks, plus dispatch and mask-contract checks.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.hpp"
#include "sparse/ops.hpp"
#include "sparse/spgemm_engine.hpp"
#include "test_util.hpp"

namespace dms {
namespace {

using testutil::dense_matmul;
using testutil::random_csr;

CsrMatrix run(const CsrMatrix& a, const CsrMatrix& b, SpgemmKernel kernel,
              bool parallel = true) {
  SpgemmOptions opts;
  opts.kernel = kernel;
  opts.parallel = parallel;
  return spgemm(a, b, opts);
}

/// Random sorted duplicate-free subset of [0, cols).
std::vector<index_t> random_mask(index_t cols, double keep, std::uint64_t seed) {
  Pcg32 rng(seed, 0x3a5c);
  std::vector<index_t> mask;
  for (index_t c = 0; c < cols; ++c) {
    if (rng.uniform() < keep) mask.push_back(c);
  }
  return mask;
}

/// A[rows, mask] through append_masked_row, one row at a time.
CsrMatrix gather(const CsrMatrix& a, const std::vector<index_t>& rows,
                 const std::vector<index_t>& mask) {
  std::vector<nnz_t> rowptr{0};
  std::vector<index_t> cols;
  std::vector<value_t> vals;
  for (const index_t r : rows) {
    rowptr.push_back(rowptr.back() + append_masked_row(a, r, mask, cols, vals));
  }
  return CsrMatrix(static_cast<index_t>(rows.size()),
                   static_cast<index_t>(mask.size()), std::move(rowptr),
                   std::move(cols), std::move(vals));
}

/// Q_C: the (cols × |mask|) selection matrix with a 1 at (mask[j], j).
CsrMatrix column_selector(index_t cols, const std::vector<index_t>& mask) {
  CooMatrix coo(cols, static_cast<index_t>(mask.size()));
  for (std::size_t j = 0; j < mask.size(); ++j) {
    coo.push(mask[j], static_cast<index_t>(j), 1.0);
  }
  return CsrMatrix::from_coo(coo);
}

struct EngineSweep {
  index_t m, k, n;
  double da, db;
};

class SpgemmEngineSweep : public ::testing::TestWithParam<EngineSweep> {};

TEST_P(SpgemmEngineSweep, AllKernelsBitIdentical) {
  const auto p = GetParam();
  const CsrMatrix a = random_csr(p.m, p.k, p.da, 311 + p.m);
  const CsrMatrix b = random_csr(p.k, p.n, p.db, 313 + p.n);

  const CsrMatrix dense = run(a, b, SpgemmKernel::kDense);
  dense.validate();
  const CsrMatrix hash = run(a, b, SpgemmKernel::kHash);
  hash.validate();
  const CsrMatrix autok = run(a, b, SpgemmKernel::kAuto);
  const CsrMatrix serial = run(a, b, SpgemmKernel::kAuto, /*parallel=*/false);

  // Bit-identity across kernels, dispatch, and block decompositions.
  EXPECT_TRUE(dense == hash);
  EXPECT_TRUE(dense == autok);
  EXPECT_TRUE(dense == serial);

  // And the numbers are actually right.
  const DenseD ref = dense_matmul(to_dense(a), to_dense(b));
  EXPECT_LT(DenseD::max_abs_diff(to_dense(dense), ref), 1e-12);
}

TEST_P(SpgemmEngineSweep, MaskedVariantMatchesProductThenSlice) {
  // The extraction A_S = Q_R·B·Q_C (§4.1.3) with Q_R one 1.0 per row: the
  // masked row gather must reproduce both products bit for bit.
  const auto p = GetParam();
  const CsrMatrix b = random_csr(p.k, p.n, p.db, 313 + p.n);
  std::vector<index_t> rows = random_mask(p.k, 0.6, 319 + p.k);
  std::reverse(rows.begin(), rows.end());  // frontier order is arbitrary
  const CsrMatrix q_r = CsrMatrix::one_nonzero_per_row(p.k, rows);

  for (const double keep : {0.0, 0.25, 1.0}) {
    const std::vector<index_t> mask =
        random_mask(p.n, keep, 317 + p.m + static_cast<std::uint64_t>(keep * 8));
    const CsrMatrix masked = gather(b, rows, mask);
    masked.validate();
    EXPECT_EQ(masked.rows(), static_cast<index_t>(rows.size()));
    EXPECT_EQ(masked.cols(), static_cast<index_t>(mask.size()));
    if (mask.empty()) {
      EXPECT_EQ(masked.nnz(), 0);
      continue;
    }
    const CsrMatrix product =
        run(run(q_r, b, SpgemmKernel::kDense), column_selector(p.n, mask),
            SpgemmKernel::kDense);
    EXPECT_TRUE(masked == product);
  }
}

INSTANTIATE_TEST_SUITE_P(
    ShapesAndDensities, SpgemmEngineSweep,
    ::testing::Values(EngineSweep{1, 1, 1, 1.0, 1.0},
                      EngineSweep{5, 7, 3, 0.5, 0.5},
                      // density 0 operands: every row/column empty
                      EngineSweep{12, 9, 14, 0.0, 0.4},
                      EngineSweep{12, 9, 14, 0.4, 0.0},
                      // sparse operands with many structurally empty rows/cols
                      EngineSweep{40, 30, 50, 0.03, 0.03},
                      EngineSweep{16, 16, 16, 0.1, 0.9},
                      EngineSweep{16, 16, 16, 0.9, 0.1},
                      EngineSweep{1, 40, 40, 0.3, 0.3},
                      EngineSweep{40, 1, 40, 1.0, 1.0},
                      EngineSweep{40, 40, 1, 0.3, 0.3},
                      // tall-thin vs short-wide (hash vs dense territory)
                      EngineSweep{4, 64, 512, 0.2, 0.05},
                      EngineSweep{128, 16, 8, 0.4, 0.6},
                      EngineSweep{100, 100, 100, 0.02, 0.02},
                      // folded from the retired hash-kernel suite
                      EngineSweep{16, 128, 16, 0.3, 0.02},
                      EngineSweep{33, 77, 55, 0.02, 0.5}));

// --- folded from tests/test_spgemm_hash.cpp (the suite that tested the
// pre-engine hash kernel; it has exercised the engine API since PR 2) -----

TEST(SpgemmEngine, HashKernelSurvivesCollisionHeavyColumns) {
  // Many A rows hitting the same few B columns stresses probing/merging.
  CooMatrix acoo(32, 8);
  CooMatrix bcoo(8, 4);
  Pcg32 rng(7);
  for (index_t r = 0; r < 32; ++r) {
    for (index_t k = 0; k < 8; ++k) acoo.push(r, k, rng.uniform() + 0.1);
  }
  for (index_t k = 0; k < 8; ++k) {
    for (index_t c = 0; c < 4; ++c) bcoo.push(k, c, rng.uniform() + 0.1);
  }
  const CsrMatrix a = CsrMatrix::from_coo(acoo);
  const CsrMatrix b = CsrMatrix::from_coo(bcoo);
  EXPECT_TRUE(run(a, b, SpgemmKernel::kHash) == run(a, b, SpgemmKernel::kDense));
}

TEST(SpgemmEngine, EstimatorPrefersHashForSparseRowsOverWideOutput) {
  // Tiny flop volume into a huge column space → the dense accumulator's
  // O(cols) workspace cannot amortize.
  EXPECT_EQ(spgemm_pick_kernel(16, 1 << 20), SpgemmKernel::kHash);
  // Dense row blocks over a modest column space → dense wins.
  EXPECT_EQ(spgemm_pick_kernel(1 << 20, 1024), SpgemmKernel::kDense);
}

TEST(SpgemmEngine, MaskedExtractionMatchesExtractColumns) {
  const CsrMatrix a = random_csr(30, 80, 0.15, 401);
  for (const double keep : {0.1, 0.5, 1.0}) {
    const std::vector<index_t> mask =
        random_mask(80, keep, 403 + static_cast<std::uint64_t>(keep * 16));
    if (mask.empty()) continue;
    EXPECT_TRUE(spgemm_masked(a, mask) == extract_columns(a, mask));
  }
}

TEST(SpgemmEngine, MaskedExtractionEmptyMask) {
  const CsrMatrix a = random_csr(6, 10, 0.5, 405);
  const std::vector<index_t> empty;
  const CsrMatrix e = spgemm_masked(a, empty);
  EXPECT_EQ(e.rows(), 6);
  EXPECT_EQ(e.cols(), 0);
  EXPECT_EQ(e.nnz(), 0);
}

TEST(SpgemmEngine, MaskContractViolationsThrow) {
  const CsrMatrix a = random_csr(4, 6, 0.5, 407);
  const std::vector<index_t> unsorted{3, 1};
  const std::vector<index_t> duplicated{2, 2};
  const std::vector<index_t> out_of_range{7, 8};
  EXPECT_THROW(spgemm_masked(a, unsorted), DmsError);
  EXPECT_THROW(spgemm_masked(a, duplicated), DmsError);
  EXPECT_THROW(spgemm_masked(a, out_of_range), DmsError);
}

TEST(SpgemmEngine, DimensionMismatchThrows) {
  EXPECT_THROW(spgemm(CsrMatrix(2, 3), CsrMatrix(4, 2)), DmsError);
}

TEST(SpgemmEngine, FlopBalancedBlocksHandleFewRows) {
  // m far below the thread count: the old ceil_div decomposition produced
  // trailing empty blocks; the flop-balanced bounds never do, and results
  // stay bit-identical between serial and parallel runs.
  const CsrMatrix a = random_csr(2, 300, 0.3, 411);
  const CsrMatrix b = random_csr(300, 200, 0.05, 412);
  EXPECT_TRUE(run(a, b, SpgemmKernel::kAuto, true) ==
              run(a, b, SpgemmKernel::kAuto, false));
}

TEST(SpgemmEngine, SkewedRowsStayBitIdenticalAcrossDecompositions) {
  // One massive row among many empty ones stresses the flop-balanced
  // boundary placement (most blocks end up owning only empty rows).
  CooMatrix acoo(64, 128);
  Pcg32 rng(9);
  for (index_t k = 0; k < 128; ++k) acoo.push(17, k, rng.uniform() + 0.1);
  acoo.push(63, 5, 1.0);
  const CsrMatrix a = CsrMatrix::from_coo(acoo);
  const CsrMatrix b = random_csr(128, 256, 0.1, 413);
  const CsrMatrix par = run(a, b, SpgemmKernel::kAuto, true);
  par.validate();
  EXPECT_TRUE(par == run(a, b, SpgemmKernel::kAuto, false));
}

TEST(SpgemmEngine, SharedWorkspaceReuseAcrossKernelsAndShapes) {
  // One arena serving interleaved dense/hash/auto products and masked
  // extractions of different shapes must never change any result: every
  // accumulator re-establishes its own state from whatever a previous call
  // left behind (the stale-mark / stale-hash-fill regression this pins
  // down).
  const CsrMatrix a1 = random_csr(40, 90, 0.2, 421);
  const CsrMatrix b1 = random_csr(90, 120, 0.1, 422);
  const CsrMatrix a2 = random_csr(7, 300, 0.3, 423);
  const CsrMatrix b2 = random_csr(300, 50, 0.05, 424);

  Workspace ws;
  for (int round = 0; round < 3; ++round) {
    for (const SpgemmKernel kernel :
         {SpgemmKernel::kDense, SpgemmKernel::kHash, SpgemmKernel::kAuto}) {
      SpgemmOptions fresh;
      fresh.kernel = kernel;
      SpgemmOptions reused = fresh;
      reused.workspace = &ws;
      EXPECT_TRUE(spgemm(a1, b1, reused) == spgemm(a1, b1, fresh));
      EXPECT_TRUE(spgemm(a2, b2, reused) == spgemm(a2, b2, fresh));
    }
    std::vector<index_t> col_mask;  // indexes a1's own 90 columns
    for (index_t c = 2; c < 90; c += 5) col_mask.push_back(c);
    SpgemmOptions mfresh;
    SpgemmOptions mreused;
    mreused.workspace = &ws;
    EXPECT_TRUE(spgemm_masked(a1, col_mask, mreused) ==
                spgemm_masked(a1, col_mask, mfresh));
  }
  EXPECT_GT(ws.bytes_held(), 0u);
}

TEST(SpgemmEngine, WorkspaceSerialAndParallelAgree) {
  const CsrMatrix a = random_csr(100, 150, 0.15, 431);
  const CsrMatrix b = random_csr(150, 80, 0.1, 432);
  Workspace ws;
  SpgemmOptions par;
  par.workspace = &ws;
  SpgemmOptions ser = par;
  ser.parallel = false;
  EXPECT_TRUE(spgemm(a, b, par) == spgemm(a, b, ser));
}

}  // namespace
}  // namespace dms
