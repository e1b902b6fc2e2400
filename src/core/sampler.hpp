// The matrix-based bulk sampler (the paper's §4 framework).
//
// Every sampling algorithm is a SamplePlan (plan/builders.hpp) over one op
// vocabulary, so one concrete class runs them all: MatrixSampler binds a
// plan to a graph and a PlanExecutor, in one of two placements.
//
//   Replicated (no grid): the whole adjacency is local and the plan runs
//   as built.
//   Graph Partitioned (§5.2, a grid): the adjacency is block-row
//   partitioned over a 1.5D process grid and the constructor runs the
//   lower_to_dist pass — every kSpgemm/kMaskedExtract op becomes its 1.5D
//   collective form (Algorithm 2's block-row fetch/exchange + all-reduce),
//   while row-local ops (NORM, ITS, thinning, assembly) run per process row.
//   There is no per-algorithm distributed logic: one lowering pass and one
//   executor serve every plan.
//
// Determinism contract: randomness is derived per (epoch, global batch id,
// layer, local row), never from the rank layout, so a partitioned run
// produces bit-identical minibatches to the replicated one for every grid
// shape, chunk size, and sparsity mode. (All probability values are exact
// small-integer arithmetic before normalization, so the distributed
// reduction order cannot perturb them.) The dist tests sweep grids to
// enforce this.
//
// Phase accounting matches Figure 7: in partitioned mode every plan op
// records its kPhaseProbability / kPhaseSampling / kPhaseExtraction compute
// and the collectives their communication on the Cluster.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "comm/cluster.hpp"
#include "common/workspace.hpp"
#include "core/sample.hpp"
#include "dist/spgemm_15d.hpp"
#include "graph/graph.hpp"
#include "plan/executor.hpp"

namespace dms {

/// Throws DmsError unless `fanouts` is non-empty with every entry >= 1. The
/// one fanout rule of every sampler kind and placement; `what` prefixes the
/// message.
void validate_fanouts(const std::vector<index_t>& fanouts, const std::string& what);

struct PartitionedSamplerOptions {
  /// Use the sparsity-aware 1.5D SpGEMM variant (§5.2.1; Ballard et al.)
  /// instead of broadcasting whole A block rows.
  bool sparsity_aware = true;
  /// Engine options threaded into the 1.5D SpGEMM's local panel multiplies
  /// (Spgemm15dOptions::local). kAuto picks kernels per panel; all choices
  /// are bit-identical, preserving the grid-shape equivalence contract.
  SpgemmOptions local_spgemm;
};

/// A SamplePlan bound to a graph and executed by a PlanExecutor.
///
/// sample_bulk() samples k minibatches at once using stacked matrices
/// (Eq. 1), i.e. Algorithm 1 on the stacked Q/P/A matrices. Randomness is
/// derived per (batch id, layer, row), so results are independent of k and
/// of the process count.
class MatrixSampler {
 public:
  /// Borrows `graph`, which must outlive the sampler. `plan` is the
  /// unlowered single-node plan. A null `grid` places the sampler
  /// replicated; a grid partitions the adjacency over it and dist-lowers
  /// the plan (`opts` applies only then). Plans with needs_global_weights
  /// (FastGCN) get the squared-in-degree prefix bound in either placement.
  MatrixSampler(const Graph& graph, SamplePlan plan, SamplerConfig config,
                const ProcessGrid* grid = nullptr,
                PartitionedSamplerOptions opts = {});
  /// Owns `graph` — the result of a construction-time graph transform such
  /// as PinSAGE's importance graph.
  MatrixSampler(Graph&& graph, SamplePlan plan, SamplerConfig config,
                const ProcessGrid* grid = nullptr,
                PartitionedSamplerOptions opts = {});

  /// Samples the given minibatches (each a list of batch vertex ids) in one
  /// bulk pass. epoch_seed distinguishes epochs; batch ids are the global
  /// minibatch indices (for stream derivation). A partitioned sampler runs
  /// on the bound cluster (see bind_cluster) or an ephemeral one and
  /// flattens the per-row results back to global batch order; by the
  /// determinism contract the output equals the replicated sampler's.
  std::vector<MinibatchSample> sample_bulk(
      const std::vector<std::vector<index_t>>& batches,
      const std::vector<index_t>& batch_ids, std::uint64_t epoch_seed) const;

  /// Single-minibatch convenience wrapper (bulk of size 1).
  MinibatchSample sample_one(const std::vector<index_t>& batch, index_t batch_id,
                             std::uint64_t epoch_seed) const {
    return sample_bulk({batch}, {batch_id}, epoch_seed).front();
  }

  /// Distributed bulk sampling (partitioned samplers only; throws DmsError
  /// on a replicated one). Minibatches are assigned to the alive process
  /// rows in contiguous blocks; the return value holds each process row's
  /// samples, so concatenating the rows restores global batch order. Phase
  /// times and communication volumes are recorded on `cluster`, whose grid
  /// must match the sampler's.
  std::vector<std::vector<MinibatchSample>> sample_bulk(
      Cluster& cluster, const std::vector<std::vector<index_t>>& batches,
      const std::vector<index_t>& batch_ids, std::uint64_t epoch_seed) const;

  /// Binds a long-lived cluster that the cluster-less sample_bulk records
  /// phases on (partitioned samplers only). nullptr unbinds; an ephemeral
  /// cluster of the sampler's grid is then used instead.
  void bind_cluster(Cluster* cluster);

  bool partitioned() const { return grid_.has_value(); }
  /// The process grid (partitioned samplers only).
  const ProcessGrid& grid() const;
  /// The block-row distributed adjacency, for per-rank memory accounting
  /// (partitioned samplers only).
  const DistBlockRowMatrix& dist_adjacency() const;

  const SamplerConfig& config() const { return exec_.config(); }
  /// The plan this sampler executes (optimized, and dist-lowered when
  /// partitioned).
  const SamplePlan& plan() const { return exec_.plan(); }
  /// The executor, e.g. for set_walk_options: takes effect on the next
  /// sample_bulk; {.fused = false} forces a walk plan's op-by-op matrix path.
  PlanExecutor& executor() { return exec_; }
  const PlanExecutor& executor() const { return exec_; }
  /// The graph the plan samples from (PinSAGE: the importance graph).
  const Graph& graph() const { return *graph_; }

  /// Cumulative per-op wall-clock breakdown of the plan, keyed
  /// "<plan>/<op label>" (DESIGN.md §9 accounting contract). The staged
  /// pipeline diffs this across an epoch into EpochStats::sampler_ops.
  std::map<std::string, double> op_time_breakdown() const {
    return exec_.op_seconds();
  }

  /// The sampler's private scratch arena, shared by every kernel it drives
  /// and reused across layers, rounds and epochs. The serve engine
  /// (DESIGN.md §10) warms it on representative requests and then freezes
  /// it, making steady-state request handling allocation-free. Serializes
  /// sample_bulk per sampler instance (the pipeline is sequential).
  Workspace* scratch_workspace() const { return &ws_; }

 private:
  MatrixSampler(std::unique_ptr<const Graph> owned, const Graph* borrowed,
                SamplePlan plan, SamplerConfig config, const ProcessGrid* grid,
                PartitionedSamplerOptions opts);

  std::unique_ptr<const Graph> owned_graph_;  ///< set when the graph is owned
  const Graph* graph_;                        ///< owned_graph_ or borrowed
  std::optional<ProcessGrid> grid_;
  PartitionedSamplerOptions opts_;
  std::optional<DistBlockRowMatrix> dist_adj_;
  PlanExecutor exec_;
  /// Bound ITS weights for needs_global_weights plans (empty otherwise).
  std::vector<value_t> global_weights_;
  Cluster* bound_cluster_ = nullptr;
  mutable Workspace ws_;
};

}  // namespace dms
