// 1.5D distributed collectives (Algorithm 2): exact agreement of the SpGEMM
// and the masked row gather with their single-node forms across grid
// shapes, plus sparsity-aware vs oblivious volume comparisons.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "dist/spgemm_15d.hpp"
#include "sparse/ops.hpp"
#include "sparse/spgemm_engine.hpp"
#include "test_util.hpp"

namespace dms {
namespace {

using testutil::random_csr;

Cluster make_cluster(int p, int c) {
  return Cluster(ProcessGrid(p, c), CostModel(LinkParams{}));
}

/// Splits a global Q into per-process-row blocks.
std::vector<CsrMatrix> split_rows(const CsrMatrix& q, int parts) {
  BlockPartition part(q.rows(), parts);
  std::vector<CsrMatrix> blocks;
  for (index_t i = 0; i < parts; ++i) {
    blocks.push_back(row_slice(q, part.begin(i), part.end(i)));
  }
  return blocks;
}

struct GridParam {
  int p, c;
};

class Spgemm15dGridSweep : public ::testing::TestWithParam<GridParam> {};

TEST_P(Spgemm15dGridSweep, MatchesSingleNodeProduct) {
  const auto [p, c] = GetParam();
  Cluster cluster = make_cluster(p, c);
  const CsrMatrix a_global = random_csr(96, 96, 0.08, 101);
  const CsrMatrix q_global = random_csr(40, 96, 0.05, 102);
  const DistBlockRowMatrix a(cluster.grid(), a_global);
  const auto q_blocks = split_rows(q_global, cluster.grid().rows());

  const auto p_blocks = spgemm_15d(cluster, q_blocks, a);
  const CsrMatrix p_dist = vstack(p_blocks);
  const CsrMatrix p_ref = spgemm(q_global, a_global);
  EXPECT_LT(max_abs_diff(p_dist, p_ref), 1e-12)
      << "grid p=" << p << " c=" << c;
}

INSTANTIATE_TEST_SUITE_P(Grids, Spgemm15dGridSweep,
                         ::testing::Values(GridParam{1, 1}, GridParam{2, 1},
                                           GridParam{4, 1}, GridParam{4, 2},
                                           GridParam{8, 2}, GridParam{16, 4},
                                           GridParam{16, 2}, GridParam{8, 1}));

TEST(Spgemm15d, ObliviousVariantGivesSameProduct) {
  Cluster cluster = make_cluster(8, 2);
  const CsrMatrix a_global = random_csr(64, 64, 0.1, 103);
  const CsrMatrix q_global = random_csr(24, 64, 0.06, 104);
  const DistBlockRowMatrix a(cluster.grid(), a_global);
  const auto q_blocks = split_rows(q_global, cluster.grid().rows());

  Spgemm15dOptions aware;
  aware.sparsity_aware = true;
  Spgemm15dOptions oblivious;
  oblivious.sparsity_aware = false;
  const CsrMatrix pa = vstack(spgemm_15d(cluster, q_blocks, a, aware));
  const CsrMatrix po = vstack(spgemm_15d(cluster, q_blocks, a, oblivious));
  EXPECT_TRUE(pa == po);
}

TEST(Spgemm15d, SparsityAwareSendsFewerRowBytes) {
  // With a very sparse Q, the sparsity-aware variant (Ballard et al.) must
  // ship far less A-row data than broadcasting whole block rows.
  Cluster c1 = make_cluster(8, 2);
  Cluster c2 = make_cluster(8, 2);
  const CsrMatrix a_global = random_csr(128, 128, 0.1, 105);
  const CsrMatrix q_global = random_csr(16, 128, 0.01, 106);
  const DistBlockRowMatrix a1(c1.grid(), a_global);
  const auto q_blocks = split_rows(q_global, 4);

  Spgemm15dStats aware_stats, obl_stats;
  Spgemm15dOptions aware;
  aware.sparsity_aware = true;
  Spgemm15dOptions oblivious;
  oblivious.sparsity_aware = false;
  spgemm_15d(c1, q_blocks, a1, aware, &aware_stats);
  spgemm_15d(c2, q_blocks, a1, oblivious, &obl_stats);
  EXPECT_LT(aware_stats.row_data_bytes, obl_stats.row_data_bytes / 2);
  EXPECT_GT(aware_stats.id_bytes, 0u);
  EXPECT_EQ(obl_stats.id_bytes, 0u);
}

TEST(Spgemm15d, RecordsComputeAndCommPhases) {
  Cluster cluster = make_cluster(4, 2);
  const CsrMatrix a_global = random_csr(40, 40, 0.2, 107);
  const DistBlockRowMatrix a(cluster.grid(), a_global);
  const auto q_blocks = split_rows(random_csr(12, 40, 0.1, 108), 2);
  Spgemm15dOptions opts;
  opts.phase = "probability";
  spgemm_15d(cluster, q_blocks, a, opts);
  EXPECT_GT(cluster.compute_time().at("probability"), 0.0);
  EXPECT_GT(cluster.comm_stats().at("probability").seconds, 0.0);
  EXPECT_GT(cluster.comm_stats().at("probability").bytes, 0u);
}

TEST(Spgemm15d, SingleRankNeedsNoCommunication) {
  Cluster cluster = make_cluster(1, 1);
  const CsrMatrix a_global = random_csr(30, 30, 0.2, 109);
  const DistBlockRowMatrix a(cluster.grid(), a_global);
  const auto q_blocks = split_rows(random_csr(10, 30, 0.2, 110), 1);
  spgemm_15d(cluster, q_blocks, a);
  EXPECT_DOUBLE_EQ(cluster.total_comm(), 0.0);
}

TEST(Spgemm15d, RejectsMismatchedBlocks) {
  Cluster cluster = make_cluster(4, 2);
  const DistBlockRowMatrix a(cluster.grid(), random_csr(20, 20, 0.3, 111));
  std::vector<CsrMatrix> wrong_count = {CsrMatrix(2, 20)};
  EXPECT_THROW(spgemm_15d(cluster, wrong_count, a), DmsError);
  std::vector<CsrMatrix> wrong_dims = {CsrMatrix(2, 19), CsrMatrix(2, 19)};
  EXPECT_THROW(spgemm_15d(cluster, wrong_dims, a), DmsError);
}

TEST(Spgemm15d, FoldIsBitIdenticalToThePairwiseChain) {
  // The per-row fold sums each column's partials in ascending block order:
  // bit-for-bit the chain csr_add(csr_add(P_0, P_1), P_2)… over the
  // per-block products, in both data-movement variants.
  Cluster cluster = make_cluster(16, 4);  // 4 block rows
  const CsrMatrix a_global = random_csr(80, 80, 0.15, 113);
  const CsrMatrix q_global = random_csr(24, 80, 0.3, 114);
  const DistBlockRowMatrix a(cluster.grid(), a_global);
  const auto q_blocks = split_rows(q_global, cluster.grid().rows());
  for (const bool aware : {true, false}) {
    Spgemm15dOptions opts;
    opts.sparsity_aware = aware;
    const auto got = spgemm_15d(cluster, q_blocks, a, opts);
    for (std::size_t i = 0; i < q_blocks.size(); ++i) {
      const BlockPartition& part = a.partition();
      CsrMatrix chain = spgemm(column_window(q_blocks[i], part.begin(0), part.end(0)),
                               a.block(0));
      for (index_t k = 1; k < a.num_blocks(); ++k) {
        chain = csr_add(chain, spgemm(column_window(q_blocks[i], part.begin(k),
                                                    part.end(k)),
                                      a.block(k)));
      }
      EXPECT_TRUE(got[i] == chain) << "row " << i << (aware ? " aware" : " oblivious");
    }
  }
}

/// Per process row: `batches` batches of 5 random rows each, with a random
/// sorted mask of about a quarter of the columns per batch.
std::vector<MaskedRowRequest> random_requests(index_t prow, index_t n,
                                              index_t batches, std::uint64_t seed) {
  Pcg32 rng(seed, 3);
  std::vector<MaskedRowRequest> reqs(static_cast<std::size_t>(prow));
  for (auto& req : reqs) {
    std::vector<std::vector<index_t>> frontiers(static_cast<std::size_t>(batches));
    for (auto& f : frontiers) {
      for (int t = 0; t < 5; ++t) {
        f.push_back(static_cast<index_t>(rng.bounded(static_cast<std::uint32_t>(n))));
      }
      std::vector<index_t> mask;
      for (index_t c = 0; c < n; ++c) {
        if (rng.bounded(4) == 0) mask.push_back(c);
      }
      req.masks.push_back(std::move(mask));
    }
    req.rows = stack_frontiers(frontiers);
  }
  return reqs;
}

/// The replicated form of one gathered batch: A[rows_b, S_b].
CsrMatrix masked_reference(const CsrMatrix& a, const MaskedRowRequest& req,
                           std::size_t b) {
  const auto& vs = req.rows.vertices;
  const std::vector<index_t> rows(vs.begin() + req.rows.offsets[b],
                                  vs.begin() + req.rows.offsets[b + 1]);
  return spgemm_masked(extract_rows(a, rows), req.masks[b]);
}

class MaskedRowGatherGridSweep : public ::testing::TestWithParam<GridParam> {};

TEST_P(MaskedRowGatherGridSweep, MatchesReplicatedMaskedExtraction) {
  const auto [p, c] = GetParam();
  Cluster cluster = make_cluster(p, c);
  const CsrMatrix a_global = random_csr(96, 96, 0.1, 115);
  const DistBlockRowMatrix a(cluster.grid(), a_global);
  const auto reqs = random_requests(cluster.grid().rows(), 96, 3, 116);
  for (const bool aware : {true, false}) {
    Spgemm15dOptions opts;
    opts.sparsity_aware = aware;
    const auto got = masked_row_gather_15d(cluster, reqs, a, opts);
    ASSERT_EQ(got.size(), reqs.size());
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      ASSERT_EQ(got[i].size(), reqs[i].masks.size());
      for (std::size_t b = 0; b < got[i].size(); ++b) {
        EXPECT_TRUE(got[i][b] == masked_reference(a_global, reqs[i], b))
            << "grid p=" << p << " c=" << c << " row " << i << " batch " << b
            << (aware ? " aware" : " oblivious");
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Grids, MaskedRowGatherGridSweep,
                         ::testing::Values(GridParam{1, 1}, GridParam{2, 1},
                                           GridParam{4, 2}, GridParam{8, 2},
                                           GridParam{16, 4}, GridParam{8, 1}));

TEST(MaskedRowGather, PinsRequestAndReplyVolumes) {
  // 8 vertices on a 4×2 grid: block row 0 = rows 0-3, block row 1 = rows
  // 4-7, one round, and each process row's remote unit is its other block.
  const CsrMatrix a_global = CsrMatrix::from_triplets(
      8, 8,
      {0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 6, 6, 7, 7, 7, 7},
      {1, 2, 5, 0, 3, 4, 6, 1, 5, 7, 0, 1, 2, 3, 0, 5, 6, 7, 1, 2, 4, 3, 6, 0, 2, 4, 6},
      std::vector<value_t>(27, 0.5));
  std::vector<MaskedRowRequest> reqs(2);
  reqs[0].rows = stack_frontiers({{1, 5}, {6, 2}});
  reqs[0].masks = {{0, 4, 6}, {1, 3, 5}};
  reqs[1].rows = stack_frontiers({{4, 0, 7}});
  reqs[1].masks = {{2, 6}};

  Spgemm15dStats aware, oblivious;
  std::size_t aware_bytes = 0, oblivious_bytes = 0;
  for (const bool sparsity_aware : {true, false}) {
    Cluster cluster = make_cluster(4, 2);
    const DistBlockRowMatrix a(cluster.grid(), a_global);
    Spgemm15dOptions opts;
    opts.sparsity_aware = sparsity_aware;
    opts.phase = "extraction";
    Spgemm15dStats& stats = sparsity_aware ? aware : oblivious;
    const auto got = masked_row_gather_15d(cluster, reqs, a, opts, &stats);
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      for (std::size_t b = 0; b < reqs[i].masks.size(); ++b) {
        EXPECT_TRUE(got[i][b] == masked_reference(a_global, reqs[i], b));
      }
    }
    const CommStats& comm = cluster.comm_stats().at("extraction");
    EXPECT_EQ(comm.bytes,
              stats.id_bytes + stats.row_data_bytes + stats.allreduce_bytes);
    (sparsity_aware ? aware_bytes : oblivious_bytes) = comm.bytes;
  }

  // Requests: process row 0 asks block 1 for rows {5} (batch 0) and {6}
  // (batch 1) with both masks (3 + 3 ids); process row 1 asks block 0 for
  // row {0} with its mask (2 ids).
  EXPECT_EQ(aware.id_bytes, ((2 + 3 + 3) + (1 + 2)) * sizeof(index_t));
  // Replies: row 5 ∩ {0,4,6} = {4}, row 6 ∩ {1,3,5} = {3}, row 0 ∩ {2,6} =
  // {2} — three entries, plus 2+1 and 1+1 row pointers.
  EXPECT_EQ(aware.row_data_bytes,
            3 * (sizeof(index_t) + sizeof(value_t)) + (3 + 2) * sizeof(nnz_t));
  // Oblivious: each block row is broadcast once down its process column
  // (one receiver each): 14 + 13 entries and 5 + 5 row pointers.
  EXPECT_EQ(oblivious.id_bytes, 0u);
  EXPECT_EQ(oblivious.row_data_bytes,
            27 * (sizeof(index_t) + sizeof(value_t)) + 10 * sizeof(nnz_t));
  // Results — and so the all-reduce — are identical; only the fetch shrinks.
  EXPECT_EQ(aware.allreduce_bytes, oblivious.allreduce_bytes);
  EXPECT_LT(aware_bytes, oblivious_bytes);
}

TEST(MaskedRowGather, RejectsMalformedRequests) {
  Cluster cluster = make_cluster(4, 2);
  const DistBlockRowMatrix a(cluster.grid(), random_csr(20, 20, 0.3, 117));
  const auto run = [&](std::vector<index_t> rows, std::vector<index_t> mask) {
    std::vector<MaskedRowRequest> reqs(2);
    reqs[0].rows = stack_frontiers({std::move(rows)});
    reqs[0].masks = {std::move(mask)};
    return masked_row_gather_15d(cluster, reqs, a);
  };
  EXPECT_NO_THROW(run({0, 19}, {0, 5, 19}));
  EXPECT_THROW(run({0}, {5, 3}), DmsError);    // unsorted mask
  EXPECT_THROW(run({0}, {3, 3}), DmsError);    // duplicate mask id
  EXPECT_THROW(run({0}, {3, 20}), DmsError);   // mask id out of range
  EXPECT_THROW(run({20}, {3}), DmsError);      // row id out of range
  std::vector<MaskedRowRequest> missing_mask(2);
  missing_mask[0].rows = stack_frontiers({{1}, {2}});
  missing_mask[0].masks = {{1}};
  EXPECT_THROW(masked_row_gather_15d(cluster, missing_mask, a), DmsError);
  std::vector<MaskedRowRequest> bad_offsets(2);
  bad_offsets[0].rows = {{1, 2}, {0, 2, 1, 2}};  // batch 1 runs backwards
  bad_offsets[0].masks = {{1}, {1}, {1}};
  EXPECT_THROW(masked_row_gather_15d(cluster, bad_offsets, a), DmsError);
  EXPECT_THROW(masked_row_gather_15d(cluster, std::vector<MaskedRowRequest>(1), a),
               DmsError);
}

TEST(DistBlockRowMatrix, GatherReassembles) {
  Cluster cluster = make_cluster(4, 1);
  const CsrMatrix a_global = random_csr(21, 17, 0.3, 112);  // non-divisible rows
  const DistBlockRowMatrix a(cluster.grid(), a_global);
  EXPECT_TRUE(a.gather() == a_global);
  EXPECT_EQ(a.num_blocks(), 4);
  EXPECT_EQ(a.partition().size(0), 6);  // 21 = 6+5+5+5
}

}  // namespace
}  // namespace dms
