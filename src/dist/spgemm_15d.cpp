#include "dist/spgemm_15d.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>

#include "common/timer.hpp"
#include "sparse/ops.hpp"
#include "sparse/spgemm_engine.hpp"

namespace dms {

DistBlockRowMatrix::DistBlockRowMatrix(const ProcessGrid& grid, const CsrMatrix& global)
    : part_(global.rows(), grid.rows()), cols_(global.cols()) {
  blocks_.reserve(static_cast<std::size_t>(part_.parts()));
  for (index_t i = 0; i < part_.parts(); ++i) {
    blocks_.push_back(row_slice(global, part_.begin(i), part_.end(i)));
  }
}

CsrMatrix DistBlockRowMatrix::gather() const { return vstack(blocks_); }

namespace {

/// Measured cost of one (process row i, block row k) unit of a round.
struct UnitCost {
  double dst_sec = 0.0;           ///< compute on process row i's rank
  double src_sec = 0.0;           ///< compute on block k's owner (remote units)
  std::size_t request_bytes = 0;  ///< ids row i → owner; 0 = no exchange
  std::size_t reply_bytes = 0;    ///< payload owner → row i
};

/// What a collective plugs into the round skeleton.
struct RoundHooks {
  /// Process row i has work (a row with no surviving replica must not).
  std::function<bool(index_t i)> row_has_work;
  /// Row i's work reads block row k (a lost block row must not be read).
  std::function<bool(index_t i, index_t k)> reads_block;
  /// Runs unit (i, k). `remote`: sparsity-aware and block k is not
  /// row-local, so the owner does its share on request and the unit reports
  /// the exchange; otherwise all of it runs on row i's rank.
  std::function<UnitCost(index_t i, index_t k, bool remote)> unit;
  /// Reduces row i's units into its result; returns the result's bytes.
  std::function<std::size_t(index_t i)> fold;
};

/// The 1.5D round skeleton shared by every collective in this file:
/// chunked rounds, survivor routing for crashed ranks, per-rank compute max,
/// comm and redistribution accounting, the local fold and the row
/// all-reduce.
void run_rounds_15d(Cluster& cluster, const DistBlockRowMatrix& a,
                    bool sparsity_aware, const std::string& phase,
                    const RoundHooks& hooks, Spgemm15dStats* stats) {
  const ProcessGrid& grid = cluster.grid();
  const CostModel& cm = cluster.cost_model();
  const index_t rows = grid.rows();
  const int c = grid.replication();
  const auto nranks = static_cast<std::size_t>(grid.size());
  if (stats != nullptr) {
    stats->rank_units.resize(std::max(stats->rank_units.size(), nranks), 0);
    stats->rank_bytes.resize(std::max(stats->rank_bytes.size(), nranks), 0);
  }
  const auto charge_bytes = [&](int rank, std::size_t bytes) {
    if (stats != nullptr) stats->rank_bytes[static_cast<std::size_t>(rank)] += bytes;
  };

  // Block rows of A are split among the c ranks of every process row: rank
  // (i, j) works against the A blocks of chunk j, one per round.
  const BlockPartition chunks(rows, c);
  index_t num_rounds = 0;
  for (index_t j = 0; j < c; ++j) num_rounds = std::max(num_rounds, chunks.size(j));

  // Crash recovery (DESIGN.md §13): a dead rank's per-chunk work degrades
  // onto a surviving replica of its process row (block rows are replicated
  // across the row's c ranks), and a dead owner's A block is fetched from a
  // survivor in another column. The arithmetic — units and fold order — is
  // untouched, so results stay bit-identical to the healthy run; only
  // attribution and the extra survivor-fetch communication change. A block
  // row with *no* surviving replica is unrecoverable if anyone still needs
  // it.
  const auto first_alive_in_row = [&](index_t row) -> int {
    for (int j2 = 0; j2 < c; ++j2) {
      const int r = grid.rank_of(static_cast<int>(row), j2);
      if (cluster.alive(r)) return r;
    }
    return -1;
  };

  for (index_t round = 0; round < num_rounds; ++round) {
    std::vector<double> rank_sec(nranks, 0.0);
    double comm_sec = 0.0;
    std::size_t comm_bytes = 0, comm_msgs = 0;
    double redist_sec = 0.0;
    std::size_t redist_bytes = 0;

    for (int j = 0; j < c; ++j) {
      if (round >= chunks.size(j)) continue;
      const index_t k = chunks.begin(j) + round;
      const std::size_t block_bytes = a.block_bytes(k);
      double col_comm = 0.0;
      const int owner = grid.rank_of(static_cast<int>(k), j);
      const int src = cluster.alive(owner) ? owner : first_alive_in_row(k);
      const bool src_degraded = src != owner;

      if (!sparsity_aware && rows > 1 && src != -1) {
        // Oblivious round: the owner broadcasts its whole block row down the
        // process column (Koanantakool et al.). Each alive receiver gets the
        // payload once, so the link volume is payload * receivers — the
        // same per-destination accounting as the sparsity-aware path.
        std::vector<int> group;
        std::size_t receivers = 0;
        for (const int r : grid.col_ranks(j)) {
          if (!cluster.alive(r)) continue;
          group.push_back(r);
          if (r != src) ++receivers;
        }
        if (receivers > 0) {
          const std::size_t payload = block_bytes * receivers;
          double t_bcast = cm.broadcast(group, block_bytes);
          for (const int r : group) charge_bytes(r, block_bytes);
          if (src_degraded) {
            // The survivor first ships the block into the column before the
            // broadcast can run — the degrade-and-continue re-fetch.
            t_bcast += cm.p2p(src, group.front(), block_bytes);
            charge_bytes(src, block_bytes);
            redist_sec += t_bcast;
            redist_bytes += payload + block_bytes;
          }
          col_comm += t_bcast;
          comm_bytes += payload;
          comm_msgs += receivers;
          if (stats != nullptr) stats->row_data_bytes += payload;
        }
      }

      for (index_t i = 0; i < rows; ++i) {
        const int dst_pref = grid.rank_of(static_cast<int>(i), j);
        const int dst =
            cluster.alive(dst_pref) ? dst_pref : first_alive_in_row(i);
        if (dst == -1) {
          // Process row i lost every replica; it must own no work (the
          // training layer assigns batches to alive rows only).
          check(!hooks.row_has_work(i),
                "1.5D collective '" + phase + "': process row " +
                    std::to_string(i) +
                    " crashed entirely but still owns work — unrecoverable");
          continue;
        }
        if (src == -1) {
          // Block row k is gone from the cluster: survivable only for rows
          // whose work never touches it.
          check(!hooks.reads_block(i, k),
                "1.5D collective '" + phase + "': block row " +
                    std::to_string(k) +
                    " lost (all replicas crashed) but is still referenced — "
                    "unrecoverable");
          continue;
        }
        const bool remote = sparsity_aware && i != k;
        const UnitCost u = hooks.unit(i, k, remote);
        rank_sec[static_cast<std::size_t>(dst)] += u.dst_sec;
        rank_sec[static_cast<std::size_t>(src)] += u.src_sec;
        if (stats != nullptr) ++stats->rank_units[static_cast<std::size_t>(dst)];

        if (!sparsity_aware && i != k && rows > 1 && dst != dst_pref) {
          // A survivor standing in for a dead receiver sits in another
          // process column, outside this round's broadcast: it fetches the
          // block from the owner directly.
          const double t_fetch = cm.p2p(src, dst, block_bytes);
          col_comm += t_fetch;
          comm_bytes += block_bytes;
          ++comm_msgs;
          redist_sec += t_fetch;
          redist_bytes += block_bytes;
          charge_bytes(src, block_bytes);
          charge_bytes(dst, block_bytes);
          if (stats != nullptr) stats->row_data_bytes += block_bytes;
        }
        if (!remote || u.request_bytes == 0) continue;
        // Sparsity-aware exchange (Algorithm 2 lines 4-9): ids up, the
        // requested payload back.
        const std::size_t xfer = u.request_bytes + u.reply_bytes;
        const double t_xfer = cm.p2p(dst, src, u.request_bytes) +
                              cm.p2p(src, dst, u.reply_bytes);
        col_comm += t_xfer;
        comm_bytes += xfer;
        comm_msgs += 2;
        if (src_degraded || dst != dst_pref) {
          redist_sec += t_xfer;
          redist_bytes += xfer;
        }
        charge_bytes(dst, xfer);
        charge_bytes(src, xfer);
        if (stats != nullptr) {
          ++stats->rank_units[static_cast<std::size_t>(src)];
          stats->id_bytes += u.request_bytes;
          stats->row_data_bytes += u.reply_bytes;
        }
      }
      // Columns communicate concurrently; the round is gated by the slowest.
      comm_sec = std::max(comm_sec, col_comm);
    }

    cluster.add_compute(phase,
                        *std::max_element(rank_sec.begin(), rank_sec.end()));
    if (comm_msgs > 0) cluster.record_comm(phase, comm_sec, comm_bytes, comm_msgs);
    if (redist_sec > 0.0 || redist_bytes > 0) {
      cluster.add_fault_redistribution(redist_sec, redist_bytes);
    }
    if (stats != nullptr) {
      stats->messages += comm_msgs;
      ++stats->rounds;
      stats->redistribution_bytes += redist_bytes;
    }
  }

  // Local reduction of each row's units; a row with no surviving replica
  // has nothing to reduce on any rank.
  std::vector<std::size_t> result_bytes(static_cast<std::size_t>(rows), 0);
  double reduce_max = 0.0;
  for (index_t i = 0; i < rows; ++i) {
    Timer t;
    result_bytes[static_cast<std::size_t>(i)] = hooks.fold(i);
    if (first_alive_in_row(i) != -1) reduce_max = std::max(reduce_max, t.seconds());
  }
  cluster.add_compute(phase, reduce_max);

  // All-reduce of the partials across each process row (Algorithm 2 line
  // 14); every row reduces concurrently, so the clock advances by the max.
  // Only surviving replicas participate — a row reduced to one rank (or
  // zero) has nothing to exchange.
  if (c > 1) {
    double allreduce_max = 0.0;
    std::size_t allreduce_bytes = 0;
    std::size_t allreduce_msgs = 0;
    for (index_t i = 0; i < rows; ++i) {
      std::vector<int> group;
      for (const int r : grid.row_ranks(static_cast<int>(i))) {
        if (cluster.alive(r)) group.push_back(r);
      }
      if (group.size() < 2) continue;
      const std::size_t bytes = result_bytes[static_cast<std::size_t>(i)];
      allreduce_max = std::max(allreduce_max, cm.allreduce(group, bytes));
      allreduce_bytes += bytes * (group.size() - 1);
      allreduce_msgs += 2 * (group.size() - 1);
      for (const int r : group) charge_bytes(r, bytes);
    }
    if (allreduce_msgs > 0) {
      cluster.record_comm(phase, allreduce_max, allreduce_bytes, allreduce_msgs);
    }
    if (stats != nullptr) {
      stats->allreduce_bytes += allreduce_bytes;
      stats->messages += allreduce_msgs;
    }
  }
}

/// Sums one process row's partial products in a single pass: each output
/// column adds its present values in ascending k — the bits of the pairwise
/// chain csr_add(csr_add(p_0, p_1), p_2)…, which skips absent entries and
/// adds in ascending k, without re-copying the growing sum per k. Per row,
/// values accumulate in a dense array with a presence bitmap; the bitmap
/// words the row touched, kept in ascending order, emit it in column order.
/// Empty slots (work never ran or touched nothing) are skipped.
CsrMatrix fold_partials(index_t rows, index_t cols, std::vector<CsrMatrix>& parts,
                        Workspace* workspace) {
  std::vector<CsrMatrix*> live;
  nnz_t cap = 0;
  for (CsrMatrix& p : parts) {
    if (p.nnz() == 0) continue;
    live.push_back(&p);
    cap += p.nnz();
  }
  if (live.empty()) return CsrMatrix(rows, cols);
  if (live.size() == 1) return std::move(*live[0]);

  Workspace local_ws;
  Workspace& ws = workspace != nullptr ? *workspace : local_ws;
  ws.ensure_slots(1);
  WorkspaceSlot& slot = ws.slot(0);
  std::vector<std::uint64_t>& bits = slot.bits;
  std::vector<value_t>& acc = slot.acc;
  std::vector<index_t>& words = slot.touched;
  bits.assign(static_cast<std::size_t>(cols + 63) / 64, 0);
  acc.resize(static_cast<std::size_t>(cols));

  std::vector<nnz_t> rowptr(static_cast<std::size_t>(rows) + 1, 0);
  std::vector<index_t> colidx(static_cast<std::size_t>(cap));
  std::vector<value_t> vals(static_cast<std::size_t>(cap));
  std::size_t out = 0;
  for (index_t r = 0; r < rows; ++r) {
    words.clear();
    for (const CsrMatrix* p : live) {
      const auto run = static_cast<std::ptrdiff_t>(words.size());
      const auto pc = p->row_cols(r);
      const auto pv = p->row_vals(r);
      for (std::size_t e = 0; e < pc.size(); ++e) {
        const auto col = static_cast<std::size_t>(pc[e]);
        const std::uint64_t word = bits[col >> 6];
        const std::uint64_t bit = std::uint64_t{1} << (col & 63);
        if (word == 0) words.push_back(static_cast<index_t>(col >> 6));
        acc[col] = (word & bit) != 0 ? acc[col] + pv[e] : pv[e];
        bits[col >> 6] = word | bit;
      }
      // Each part's row is sorted, so the words it touched first form an
      // ascending run; merging the runs sorts the touched words.
      std::inplace_merge(words.begin(), words.begin() + run, words.end());
    }
    for (const index_t w : words) {
      std::uint64_t word = bits[static_cast<std::size_t>(w)];
      bits[static_cast<std::size_t>(w)] = 0;
      do {
        const auto col = static_cast<std::size_t>(w) * 64 +
                         static_cast<std::size_t>(std::countr_zero(word));
        word &= word - 1;
        colidx[out] = static_cast<index_t>(col);
        vals[out] = acc[col];
        ++out;
      } while (word != 0);
    }
    rowptr[static_cast<std::size_t>(r) + 1] = static_cast<nnz_t>(out);
  }
  colidx.resize(out);
  vals.resize(out);
  return CsrMatrix(rows, cols, std::move(rowptr), std::move(colidx), std::move(vals));
}

}  // namespace

std::vector<CsrMatrix> spgemm_15d(Cluster& cluster,
                                  const std::vector<CsrMatrix>& q_blocks,
                                  const DistBlockRowMatrix& a,
                                  const Spgemm15dOptions& opts, Spgemm15dStats* stats) {
  const index_t rows = cluster.grid().rows();
  check(a.num_blocks() == rows, "spgemm_15d: A distributed over a different grid shape");
  check(static_cast<index_t>(q_blocks.size()) == rows,
        "spgemm_15d: need one Q block per process row");
  for (const CsrMatrix& q : q_blocks) {
    check(q.cols() == a.rows(), "spgemm_15d: Q block columns must equal A rows");
  }

  const BlockPartition& apart = a.partition();
  const auto panel = [&](index_t i, index_t k) {
    return column_window(q_blocks[static_cast<std::size_t>(i)], apart.begin(k),
                         apart.end(k));
  };
  // contrib[i][k] = Qˡ_ik · A_k, computed on rank (i, owner column of k).
  std::vector<std::vector<CsrMatrix>> contrib(
      static_cast<std::size_t>(rows), std::vector<CsrMatrix>(static_cast<std::size_t>(rows)));
  std::vector<CsrMatrix> result(static_cast<std::size_t>(rows));

  RoundHooks hooks;
  hooks.row_has_work = [&](index_t i) {
    return q_blocks[static_cast<std::size_t>(i)].nnz() != 0;
  };
  hooks.reads_block = [&](index_t i, index_t k) { return panel(i, k).nnz() != 0; };
  hooks.unit = [&](index_t i, index_t k, bool remote) {
    UnitCost u;
    CsrMatrix& slot = contrib[static_cast<std::size_t>(i)][static_cast<std::size_t>(k)];
    const CsrMatrix& ak = a.block(k);
    if (!remote) {
      // Full-block multiply (the block is row-local, or was broadcast).
      Timer t;
      slot = spgemm(panel(i, k), ak, opts.local);
      u.dst_sec = t.seconds();
      return u;
    }
    // Sparsity-aware: request only the A-rows NnzCols(Qˡ_ik) touches.
    Timer t_dst;
    const CsrMatrix p = panel(i, k);
    const std::vector<index_t> needed = nonzero_columns(p);
    u.dst_sec = t_dst.seconds();
    if (needed.empty()) return u;
    Timer t_src;  // row extraction happens on the owner (or survivor) rank
    const CsrMatrix a_sub = extract_rows(ak, needed);
    u.src_sec = t_src.seconds();
    Timer t_mul;
    slot = spgemm(extract_columns(p, needed), a_sub, opts.local);
    u.dst_sec += t_mul.seconds();
    u.request_bytes = needed.size() * sizeof(index_t);
    u.reply_bytes = a_sub.bytes();
    return u;
  };
  hooks.fold = [&](index_t i) {
    auto& out = result[static_cast<std::size_t>(i)];
    out = fold_partials(q_blocks[static_cast<std::size_t>(i)].rows(), a.cols(),
                        contrib[static_cast<std::size_t>(i)], opts.local.workspace);
    return out.bytes();
  };
  run_rounds_15d(cluster, a, opts.sparsity_aware, opts.phase, hooks, stats);
  return result;
}

std::vector<std::vector<CsrMatrix>> masked_row_gather_15d(
    Cluster& cluster, const std::vector<MaskedRowRequest>& requests,
    const DistBlockRowMatrix& a, const Spgemm15dOptions& opts,
    Spgemm15dStats* stats) {
  const index_t rows = cluster.grid().rows();
  check(a.num_blocks() == rows,
        "masked_row_gather_15d: A distributed over a different grid shape");
  check(static_cast<index_t>(requests.size()) == rows,
        "masked_row_gather_15d: need one request per process row");
  for (const MaskedRowRequest& req : requests) {
    const auto& off = req.rows.offsets;
    check(off.empty() ? req.rows.vertices.empty() && req.masks.empty()
                      : off.front() == 0 && std::is_sorted(off.begin(), off.end()) &&
                            off.back() == static_cast<index_t>(req.rows.vertices.size()) &&
                            req.masks.size() + 1 == off.size(),
          "masked_row_gather_15d: need one mask per batch and offsets "
          "covering the stacked rows");
    for (const index_t v : req.rows.vertices) {
      check(v >= 0 && v < a.rows(), "masked_row_gather_15d: row id out of range");
    }
    for (const auto& mask : req.masks) {
      check_mask(mask, a.cols(), "masked_row_gather_15d");
    }
  }

  const BlockPartition& apart = a.partition();
  // part[i][k]: the masked rows of process row i's stack that block k owns,
  // in stacked order (one CSR row each; columns are mask positions of the
  // row's own batch).
  struct Partial {
    std::vector<nnz_t> rowptr{0};
    std::vector<index_t> cols;
    std::vector<value_t> vals;
  };
  std::vector<std::vector<Partial>> part(
      static_cast<std::size_t>(rows), std::vector<Partial>(static_cast<std::size_t>(rows)));
  std::vector<std::vector<CsrMatrix>> result(static_cast<std::size_t>(rows));

  RoundHooks hooks;
  hooks.row_has_work = [&](index_t i) {
    return !requests[static_cast<std::size_t>(i)].rows.vertices.empty();
  };
  hooks.reads_block = [&](index_t i, index_t k) {
    const auto& vs = requests[static_cast<std::size_t>(i)].rows.vertices;
    return std::any_of(vs.begin(), vs.end(), [&](index_t v) {
      return v >= apart.begin(k) && v < apart.end(k);
    });
  };
  hooks.unit = [&](index_t i, index_t k, bool remote) {
    UnitCost u;
    const MaskedRowRequest& req = requests[static_cast<std::size_t>(i)];
    Partial& out = part[static_cast<std::size_t>(i)][static_cast<std::size_t>(k)];
    const index_t r0 = apart.begin(k), r1 = apart.end(k);
    // Row i's side: the stacked rows block k owns, each with its batch.
    Timer t_dst;
    std::vector<index_t> local_rows, batch_of;
    std::size_t mask_ids = 0;
    for (std::size_t b = 0; b < req.masks.size(); ++b) {
      const std::size_t before = local_rows.size();
      for (index_t s = req.rows.offsets[b]; s < req.rows.offsets[b + 1]; ++s) {
        const index_t v = req.rows.vertices[static_cast<std::size_t>(s)];
        if (v < r0 || v >= r1) continue;
        local_rows.push_back(v - r0);
        batch_of.push_back(static_cast<index_t>(b));
      }
      if (local_rows.size() > before) mask_ids += req.masks[b].size();
    }
    u.dst_sec = t_dst.seconds();
    if (local_rows.empty()) return u;
    // The owner's side: intersect each requested row with its batch's mask.
    Timer t_own;
    const CsrMatrix& ak = a.block(k);
    for (std::size_t q = 0; q < local_rows.size(); ++q) {
      append_masked_row(ak, local_rows[q],
                        req.masks[static_cast<std::size_t>(batch_of[q])],
                        out.cols, out.vals);
      out.rowptr.push_back(static_cast<nnz_t>(out.cols.size()));
    }
    const double own_sec = t_own.seconds();
    if (!remote) {
      u.dst_sec += own_sec;
      return u;
    }
    u.src_sec = own_sec;
    u.request_bytes = (local_rows.size() + mask_ids) * sizeof(index_t);
    u.reply_bytes = out.rowptr.size() * sizeof(nnz_t) +
                    out.cols.size() * sizeof(index_t) +
                    out.vals.size() * sizeof(value_t);
    return u;
  };
  hooks.fold = [&](index_t i) {
    // Every stacked row has exactly one owner block, so the fold places
    // rows: each block's partial yields its rows in stacked order.
    const MaskedRowRequest& req = requests[static_cast<std::size_t>(i)];
    const auto& parts = part[static_cast<std::size_t>(i)];
    auto& out = result[static_cast<std::size_t>(i)];
    out.resize(req.masks.size());
    std::vector<std::size_t> next(static_cast<std::size_t>(rows), 0);
    std::size_t bytes = 0;
    for (std::size_t b = 0; b < req.masks.size(); ++b) {
      const index_t s0 = req.rows.offsets[b], s1 = req.rows.offsets[b + 1];
      std::vector<nnz_t> rowptr{0};
      std::vector<index_t> cols;
      std::vector<value_t> vals;
      for (index_t s = s0; s < s1; ++s) {
        const auto k = static_cast<std::size_t>(
            apart.owner(req.rows.vertices[static_cast<std::size_t>(s)]));
        const Partial& p = parts[k];
        const auto lo = static_cast<std::ptrdiff_t>(p.rowptr[next[k]]);
        const auto hi = static_cast<std::ptrdiff_t>(p.rowptr[++next[k]]);
        cols.insert(cols.end(), p.cols.begin() + lo, p.cols.begin() + hi);
        vals.insert(vals.end(), p.vals.begin() + lo, p.vals.begin() + hi);
        rowptr.push_back(static_cast<nnz_t>(cols.size()));
      }
      out[b] = CsrMatrix(s1 - s0, static_cast<index_t>(req.masks[b].size()),
                         std::move(rowptr), std::move(cols), std::move(vals));
      bytes += out[b].bytes();
    }
    return bytes;
  };
  run_rounds_15d(cluster, a, opts.sparsity_aware, opts.phase, hooks, stats);
  return result;
}

}  // namespace dms
