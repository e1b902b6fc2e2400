// Rank roles of the training pipeline (DESIGN.md §6, §14): which ranks
// sample, which train, and where each batch is placed. The Pipeline builds
// one RankRoles value from its DistMode, its cluster grid and DisaggOptions;
// the staged executor reads the roles and never the mode.
//
//   mode            placement  samplers          trainers           sampling cluster
//   kReplicated     (p, 1)     all p (whole A)   cluster grid       none (host-timed)
//   kPartitioned    cluster    cluster grid      cluster grid       the main cluster
//   kDisaggregated  (p, 1)     (s, c_s) on [0,s) (t, c_t) on [s,p)  an owned sub-cluster
//
// The colocated modes are the degenerate case: every rank both samples and
// trains, the trainer grid is the cluster grid, and trainer_of_slot is the
// identity.
//
// Placement: batches are block-assigned to the placement grid's process
// rows, and each row's replicas round-robin its block. On the (p, 1) grid
// of logical slots (rank_of(i, 0) == i) that is the classic
// BlockPartition(k, p); on the partitioned cluster grid it is rank (i, m%c),
// step m/c of row i's block.
//
// kDisaggregated divides the p ranks: global ranks [0, s) sample over their
// own 1.5D sub-grid, and [s, p) train over another. Trainers hold no
// adjacency, which frees the memory that funds a higher feature replication
// factor or a larger feature cache than a colocated run of the same per-rank
// budget could afford. Its placement is kReplicated's unchanged (same slots,
// same grouping of batches into optimizer steps, same accumulation order),
// and each trainer executes the p/t slots that map to it per step — which is
// what makes its losses bit-identical to kReplicated for every SamplerKind.
// Completed bulk rounds stream sampler → trainer through Cluster::record_comm
// (the "handoff" phase), so transient-loss fault plans retry the handoff
// like any other modeled message.
#pragma once

#include "comm/grid.hpp"
#include "common/types.hpp"

namespace dms {

/// kDisaggregated: sampler/trainer rank roles (DESIGN.md §14). The factory
/// partitions the algorithm's sampler over the sampler grid of
/// make_rank_roles — the dist lowering pass thereby places every plan op on
/// the sampler ranks; the training pipeline runs the trainer role on the
/// remaining ranks.
enum class DistMode { kReplicated, kPartitioned, kDisaggregated };

struct DisaggOptions {
  /// Sampler ranks s. 0 = auto: max(1, p/4) — one sampler per four ranks,
  /// matching FGNN's typical 1:3 provisioning.
  int sampler_ranks = 0;
  /// Sampler-grid replication c_s. 0 = auto: 1 (every sampler rank is its
  /// own block row, maximizing parallel bulk rounds — replication would
  /// idle samplers, since bulk batches are assigned per process *row*).
  int sampler_c = 0;
  /// Trainer-grid replication c_t. 0 = auto: the largest divisor of t that
  /// is <= the full grid's replication factor. Higher c_t = fewer block
  /// rows = more feature rows local to each trainer and a smaller
  /// all-to-allv column — the fetch-side win the freed adjacency memory
  /// pays for.
  int trainer_c = 0;
};

/// Where a bulk round's sampling phases are recorded.
enum class SamplingCluster {
  kNone,   ///< replicated sampler: host-timed, no modeled communication
  kMain,   ///< the pipeline's own cluster: each process row samples the
           ///< batches it trains
  kOwned,  ///< a sub-cluster over the sampler grid, drained into the main
           ///< clock every round; the samples then hand off to trainers
};

struct RankRoles {
  ProcessGrid placement;     ///< batch placement over all p ranks
  ProcessGrid sampler_grid;  ///< sampling ranks: global [0, samplers())
  SamplingCluster sampling = SamplingCluster::kNone;
  ProcessGrid trainer_grid;  ///< training ranks: global [first_trainer(), p)

  int samplers() const { return sampler_grid.size(); }
  int trainers() const { return trainer_grid.size(); }
  int first_trainer() const { return placement.size() - trainers(); }
  /// Global rank of trainer-grid rank j.
  int trainer_rank(int j) const { return first_trainer() + j; }
  bool samples(int rank) const { return rank < samplers(); }
  bool trains(int rank) const { return rank >= first_trainer(); }

  /// Which trainer executes placement slot `slot`. Slots are dealt in waves
  /// of t: wave w covers slots [w*t, w*t + t), one per trainer, so per-step
  /// load stays balanced whenever t divides p.
  int trainer_of_slot(index_t slot) const {
    return static_cast<int>(slot % trainers());
  }
};

/// The roles of `mode` on the cluster grid `full`. kDisaggregated throws
/// DmsError unless 1 <= s < p, c_s divides s, and c_t divides t; `opts` is
/// ignored by the colocated modes.
RankRoles make_rank_roles(DistMode mode, const ProcessGrid& full,
                          const DisaggOptions& opts = {});

}  // namespace dms
