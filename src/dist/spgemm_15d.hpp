// 1.5D distributed collectives over a block-row partitioned A (Algorithm 2,
// §5.2). A is split into p/c block rows and block row i is replicated on the
// c ranks of process row P(i, :), so each process column holds all of A.
//
// Both collectives run on one round skeleton. The p/c block rows of A are
// processed in chunked rounds: the c ranks of a process row split the block
// rows among themselves (each rank handles ⌈(p/c)/c⌉ rounds), work against
// the block assigned to the current round, and finally all-reduce their
// partial results across the process row — the T_prob = α(p/c² + log c) +
// β(kbd/c + ckbd/p) structure of §5.2.1. The skeleton also owns crash
// recovery (survivor routing, redistribution accounting) and the per-rank
// compute and comm charging, so both collectives fail and recover alike.
//
//  - spgemm_15d: P ← Q·A, Q block-row partitioned like A. Each rank
//    multiplies the received A block against the matching column panel of
//    its local Q block.
//  - masked_row_gather_15d: A_S = A[rows_b, S_b] for every batch b of every
//    process row — the LADIES/FastGCN extraction. The owner of a block
//    intersects each requested row with its batch's sorted sampled-column
//    set S_b and returns only those entries, so no whole adjacency row is
//    built or shipped.
//
// Two data-movement variants are provided (§5.2.1):
//  - sparsity-oblivious (Koanantakool et al.): whole A block rows are
//    broadcast down each process column;
//  - sparsity-aware (Ballard et al.): each rank first sends the ids of the
//    A-rows it actually needs (for the gather: the rows plus the masks S_b
//    of their batches), and the owner replies with exactly those rows (for
//    the gather: only their masked entries).
// Both variants produce bit-identical results (the per-entry accumulation
// order is unchanged); only the communication volume differs.
#pragma once

#include <string>
#include <vector>

#include "comm/cluster.hpp"
#include "core/frontier.hpp"
#include "graph/partition.hpp"
#include "sparse/csr.hpp"
#include "sparse/spgemm_engine.hpp"

namespace dms {

/// Block-row distributed sparse matrix: rows split into grid.rows() balanced
/// contiguous blocks; block i lives on (is replicated over) process row
/// P(i, :), so each process column holds the entire matrix.
class DistBlockRowMatrix {
 public:
  /// Partitions `global` into grid.rows() block rows.
  DistBlockRowMatrix(const ProcessGrid& grid, const CsrMatrix& global);

  index_t rows() const { return part_.total(); }
  index_t cols() const { return cols_; }
  index_t num_blocks() const { return part_.parts(); }
  const BlockPartition& partition() const { return part_; }

  /// Local block of process row i (rows partition().begin(i)..end(i)).
  const CsrMatrix& block(index_t i) const {
    return blocks_[static_cast<std::size_t>(i)];
  }

  /// Bytes a rank in process row i stores for this matrix.
  std::size_t block_bytes(index_t i) const {
    return blocks_[static_cast<std::size_t>(i)].bytes();
  }

  /// Reassembles the global matrix (tests / debugging).
  CsrMatrix gather() const;

 private:
  BlockPartition part_;
  index_t cols_ = 0;
  std::vector<CsrMatrix> blocks_;
};

struct Spgemm15dOptions {
  /// Ship only the A-rows that nonzero columns of each Q panel touch
  /// (Algorithm 2 line 4) instead of broadcasting whole block rows.
  bool sparsity_aware = true;
  /// Phase name under which compute/comm time is recorded on the Cluster.
  std::string phase = "spgemm_15d";
  /// Engine options for the per-panel local multiplies Qˡ_ik·A_k. The
  /// default kAuto dispatch picks a kernel per panel from the symbolic
  /// phase's flop estimate (the sparsity-aware panels are exactly the
  /// sparse-rows-over-wide-matrix shape the hash kernel targets); every
  /// kernel choice yields bit-identical partial products, so the grid-shape
  /// equivalence contract is unaffected.
  SpgemmOptions local;
};

/// Exact communication volumes of one 1.5D collective call (Figure 7
/// analysis and the sparsity-aware ablation); volumes accumulate across
/// calls.
struct Spgemm15dStats {
  std::size_t row_data_bytes = 0;   ///< A-row payload shipped between ranks
  std::size_t id_bytes = 0;         ///< row-id request lists (aware only)
  std::size_t allreduce_bytes = 0;  ///< partial-product reduction volume
  std::size_t messages = 0;
  std::size_t rounds = 0;           ///< chunked broadcast rounds executed
  /// Bytes moved only because a crashed rank's block/work was re-fetched
  /// from a surviving replica (degrade-and-continue, DESIGN.md §13). Always
  /// 0 on a healthy cluster.
  std::size_t redistribution_bytes = 0;
  /// Per rank (sized to the grid on first use): units of round work the
  /// rank computed, as receiver or as answering owner, and the bytes it
  /// sent or received. A crashed rank is never charged either.
  std::vector<std::size_t> rank_units;
  std::vector<std::size_t> rank_bytes;
};

/// Computes P = Q·A on the cluster. q_blocks[i] is process row i's block of
/// Q (any row count, cols == a.rows()); the result is returned in the same
/// block-row layout (result[i] replicated on process row i). Compute and
/// communication time/volume are recorded on `cluster` under opts.phase.
std::vector<CsrMatrix> spgemm_15d(Cluster& cluster,
                                  const std::vector<CsrMatrix>& q_blocks,
                                  const DistBlockRowMatrix& a,
                                  const Spgemm15dOptions& opts = {},
                                  Spgemm15dStats* stats = nullptr);

/// Process row i's part of a masked row gather: its batches' stacked rows
/// (global A-row ids; batch b owns rows[offsets[b], offsets[b+1])) and, per
/// batch, the column set S_b to keep (sorted, duplicate-free, < A.cols()).
struct MaskedRowRequest {
  FrontierStack rows;
  std::vector<std::vector<index_t>> masks;
};

/// Computes A_S = A[rows_b, S_b] for every batch of every process row, with
/// the kept columns renumbered 0..|S_b|-1 and values passed through:
/// result[i][b] is bit-identical to spgemm_masked(extract_rows(A, rows_b),
/// S_b). In sparsity-aware mode a remote unit's request is its row ids plus
/// the masks of their batches; the reply is the masked entries plus row
/// pointers. Only opts.sparsity_aware and opts.phase are read.
std::vector<std::vector<CsrMatrix>> masked_row_gather_15d(
    Cluster& cluster, const std::vector<MaskedRowRequest>& requests,
    const DistBlockRowMatrix& a, const Spgemm15dOptions& opts = {},
    Spgemm15dStats* stats = nullptr);

}  // namespace dms
