// The accounted plan executor (DESIGN.md §9): binds a SamplePlan's symbolic
// slots to concrete CSR/frontier buffers and runs its ops through the
// existing kernel machinery — the adaptive SpGEMM engine, its_sample_rows,
// and the Workspace arena in replicated mode; the 1.5D collectives plus
// per-process-row local kernels in partitioned mode.
//
// Accounting: every op is wall-clock timed into a per-op table (keyed
// "<plan>/<label>"; surfaced through MatrixSampler::op_time_breakdown and
// EpochStats::sampler_ops), and in partitioned mode its time additionally
// reaches the Cluster under the op's canonical phase tag — max over process
// rows for row-local ops, via the 1.5D collective's own compute/comm
// recording for kSpgemm15d/kMaskedExtract15d. The canonical phases keep
// EpochStats and the Figure 7 breakdowns identical to the pre-IR samplers.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "comm/cluster.hpp"
#include "common/workspace.hpp"
#include "core/sample.hpp"
#include "dist/spgemm_15d.hpp"
#include "graph/graph.hpp"
#include "graph/partition.hpp"
#include "plan/plan.hpp"
#include "walk/walk_engine.hpp"

namespace dms {

/// Cumulative per-op execution statistics (host wall-clock).
struct PlanOpStats {
  double seconds = 0.0;
  std::uint64_t calls = 0;
};

/// Construction-time knobs. By default the plan is run through the optimizer
/// pass pipeline (plan/optimize.hpp) via the process-wide PlanCache, so
/// executors over the same plan shape + fanouts share one optimized plan.
struct PlanExecOptions {
  bool optimize = true;
};

class PlanExecutor {
 public:
  /// Validates the plan, then (unless opts.optimize is off) swaps it for the
  /// cached optimized form. `config` supplies the per-round fanouts (and
  /// must outlast nothing — it is copied).
  PlanExecutor(SamplePlan plan, SamplerConfig config, PlanExecOptions opts = {});

  /// The plan actually executed (the optimized form by default — possibly
  /// shared with other executors through PlanCache).
  const SamplePlan& plan() const { return *plan_; }
  const SamplerConfig& config() const { return config_; }

  /// Replicated / single-node execution: runs the (unlowered) plan against
  /// `graph`'s adjacency. `ws` is the caller's scratch arena (required);
  /// `global_weights` binds the prefix-sum distribution of
  /// kItsSample/kGlobalWeights plans (FastGCN). One run at a time per
  /// executor (the Workspace contract).
  std::vector<MinibatchSample> run(
      const Graph& graph, const std::vector<std::vector<index_t>>& batches,
      const std::vector<index_t>& batch_ids, std::uint64_t epoch_seed,
      Workspace* ws, const std::vector<value_t>* global_weights = nullptr) const;

  /// Partitioned execution of a lowered plan: batches are pre-assigned to
  /// process rows by `assign`; ops run per process row with row-local time
  /// recorded max-over-rows on `cluster`, and the lowered collectives run
  /// through spgemm_15d with `local_spgemm` threading the per-panel engine
  /// options. Returns per-process-row samples (concatenation restores
  /// global batch order).
  std::vector<std::vector<MinibatchSample>> run_partitioned(
      Cluster& cluster, const DistBlockRowMatrix& adj, const BlockPartition& assign,
      const std::vector<std::vector<index_t>>& batches,
      const std::vector<index_t>& batch_ids, std::uint64_t epoch_seed,
      Workspace* ws, const SpgemmOptions& local_spgemm, bool sparsity_aware,
      const std::vector<value_t>* global_weights = nullptr) const;

  /// Cumulative per-op stats since construction / reset, keyed
  /// "<plan>/<label>".
  const std::map<std::string, PlanOpStats>& op_stats() const { return stats_; }
  /// op_stats() projected to seconds (the MatrixSampler breakdown surface).
  std::map<std::string, double> op_seconds() const;
  void reset_stats() const {
    stats_.clear();
    walk_steps_ = 0;
  }

  /// Fused walk-engine controls (DESIGN.md §11). Takes effect on the next
  /// run: the cached engine is dropped and rebuilt under the new options.
  /// Only replicated runs of a walk-shaped plan (match_walk_plan) fuse;
  /// everything else ignores these options.
  void set_walk_options(const WalkEngineOptions& opts) {
    walk_opts_ = opts;
    engine_.reset();
    engine_adj_ = nullptr;
  }
  const WalkEngineOptions& walk_options() const { return walk_opts_; }
  /// Whether replicated runs of this plan take the fused walk path.
  bool walk_fusable() const { return walk_shape_.matched && walk_opts_.fused; }
  /// Walk steps (surviving walker × round) advanced since construction /
  /// reset_stats, on both the fused and the matrix path — the edges/s
  /// numerator of bench/micro_walk.
  std::uint64_t walk_steps() const { return walk_steps_; }

 private:
  std::shared_ptr<const SamplePlan> plan_;
  SamplerConfig config_;
  /// Per-op accounting. Samplers drive their executor sequentially (the
  /// Workspace ownership contract), so mutation from const runs is safe.
  mutable std::map<std::string, PlanOpStats> stats_;
  // Fused walk engine (replicated walk-shaped plans). The engine holds a
  // relabeled adjacency copy, so it is cached keyed on the bound adjacency
  // and rebuilt only when the caller switches graphs.
  WalkEngineOptions walk_opts_;
  WalkPlanShape walk_shape_;
  mutable std::unique_ptr<WalkEngine> engine_;
  mutable const CsrMatrix* engine_adj_ = nullptr;
  mutable std::uint64_t walk_steps_ = 0;
};

}  // namespace dms
