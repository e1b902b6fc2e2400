// The staged, overlapped training executor (DESIGN.md §6, fault recovery
// §13).
//
// One epoch is executed as a sequence of discrete stage units over the
// pipeline's components:
//
//   sample_round(g)  — materialize the minibatches of bulk round g
//                      (the prefetchable unit of src/dist's BulkRound);
//   fetch_step(t)    — the all-to-allv feature fetch for training step t;
//   train_step(t)    — forward/backward + gradient all-reduce for step t.
//
// With PipelineConfig::overlap the executor double-buffers: round g+1 is
// sampled while round g trains, and the fetch for step t+1 is issued while
// step t propagates. The host still runs the stages sequentially — overlap
// lives in the *simulated clock*, which composes concurrent stages as
// max(compute, comm) by crediting the hidden seconds through
// Cluster::credit_overlap. Because only the accounting changes, an
// overlapped epoch performs bit-identical arithmetic to a synchronous one:
// same samples, same gathered features, same optimizer updates, same loss.
//
// Batch placement is an explicit table (batch id → (rank, step)) rather
// than implicit block arithmetic. On a healthy cluster the table reproduces
// the classic block assignment exactly (replicated: contiguous blocks per
// rank; partitioned: contiguous blocks per process row, replicas
// round-robining the block). The table is what makes crash recovery a local
// operation: each bulk-round boundary is a Cluster superstep, and when a
// rank dies there the not-yet-sampled remainder of the epoch is
// re-partitioned onto the survivors and the remaining rounds re-planned
// through plan_bulk_rounds — the degrade-and-continue path. Sample content
// never depends on placement (randomness derives from global batch ids), so
// re-partitioning shifts work, not results.
//
// Accounting invariant (tested): for an overlapped epoch,
//   overlap_saved + stall == sampling + fetch
// (every prefetchable second is either hidden or exposed), and
//   total == sum of phase times − overlap_saved.
#pragma once

#include "dist/dist_sampler.hpp"
#include "train/pipeline.hpp"

namespace dms {

class StagedPipeline {
 public:
  /// Borrows the pipeline's components for one run() call.
  explicit StagedPipeline(Pipeline& pipe) : p_(pipe) {}

  /// Executes one epoch through the staged schedule; returns the stats.
  EpochStats run(int epoch);

  /// Executes bulk rounds [cursor->next_round, end_round) of `epoch`
  /// (end_round < 0 = to the end). `cursor` carries the loss/accuracy
  /// accumulators across segments and is updated to the first unexecuted
  /// round on return — the checkpoint/restore entry point.
  EpochStats run_range(int epoch, index_t end_round, TrainCursor* cursor);

 private:
  /// Where a batch trains: queues_[rank][step].
  struct Placement {
    int rank = -1;
    index_t step = -1;
  };

  /// (Re)builds the placement table: batches with ids in `remaining` are
  /// block-assigned to the currently-alive ranks/rows with steps starting
  /// at `boundary`. Initial call: boundary 0, all ids.
  void assign_batches(const std::vector<index_t>& remaining, index_t boundary);

  /// At a bulk-round boundary, advances the fault superstep and — if ranks
  /// died — re-partitions every batch of rounds >= g onto the survivors and
  /// re-plans the remaining rounds. Returns true if the schedule changed.
  bool recover_at_boundary(std::size_t g);

  /// Samples the minibatches covering `round`'s training steps into the
  /// per-rank queues; returns the simulated seconds the round cost.
  double sample_round(const BulkRound& round, std::uint64_t epoch_seed);
  double replicated_round(const BulkRound& round, std::uint64_t epoch_seed);
  double partitioned_round(const BulkRound& round, std::uint64_t epoch_seed);
  /// kDisaggregated: samples on the sampler-role sub-cluster, drains its
  /// clock into the main one, and streams the materialized samples to their
  /// trainers as the modeled "handoff" comm phase.
  double disaggregated_round(const BulkRound& round, std::uint64_t epoch_seed);

  /// Issues the feature fetch for step t; returns the simulated seconds.
  double fetch_step(index_t t, std::vector<DenseF>& gathered);

  /// Propagation + optimizer for step t of bulk round g (accumulates
  /// loss/accuracy and releases the trained samples); returns the simulated
  /// seconds. Throws DmsError, naming epoch, round, step and rank, when a
  /// rank's loss is not finite.
  double train_step(int epoch, std::size_t g, index_t t,
                    const std::vector<DenseF>& gathered);

  /// Uncredited simulated clock (compute + comm), for per-stage deltas.
  double clock() const;

  Pipeline& p_;
  const std::vector<std::vector<index_t>>* batches_ = nullptr;
  std::vector<Placement> placement_;  ///< global batch id → (rank, step)
  /// step_batches_[r][t]: the global batch id rank r trains at step t, or
  /// -1. The inverse of placement_, rebuilt on every (re)assignment.
  std::vector<std::vector<index_t>> step_batches_;
  std::vector<BulkRound> rounds_;  ///< epoch schedule; re-planned on crash
  index_t steps_ = 0;              ///< per-rank training steps in the epoch
  index_t bulk_steps_ = 0;         ///< round stride for (re)planning
  std::vector<char> alive_;        ///< alive flags at the last boundary
  /// queues_[r][t]: the sample rank r trains at step t (empty batch_vertices
  /// = no work for r at t). Rounds fill step ranges; train_step drains them.
  std::vector<std::vector<MinibatchSample>> queues_;
  double loss_sum_ = 0.0;
  index_t correct_ = 0;
  index_t seen_ = 0;
};

}  // namespace dms
