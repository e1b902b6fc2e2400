#include "train/staged_pipeline.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>

#include "common/rng.hpp"
#include "common/timer.hpp"
#include "core/minibatch.hpp"
#include "graph/partition.hpp"

namespace dms {

namespace {

/// Kernel launches per layer of the bulk sampling pass (SpGEMM, prefix sum,
/// sample, extract) — the per-call overhead that bulk sampling amortizes.
constexpr double kKernelsPerLayer = 4.0;

bool has_sample(const MinibatchSample& s) { return !s.batch_vertices.empty(); }

/// Payload of one materialized minibatch crossing the sampler → trainer
/// boundary: batch ids plus every layer's sampled adjacency and its
/// row/column vertex maps — exactly what train_step consumes.
std::size_t sample_bytes(const MinibatchSample& s) {
  std::size_t b = s.batch_vertices.size() * sizeof(index_t);
  for (const LayerSample& l : s.layers) {
    b += l.adj.bytes();
    b += l.row_vertices.size() * sizeof(index_t);
    b += l.col_vertices.size() * sizeof(index_t);
  }
  return b;
}

}  // namespace

double StagedPipeline::clock() const {
  return p_.cluster_.total_compute() + p_.cluster_.total_comm();
}

void StagedPipeline::assign_batches(const std::vector<index_t>& remaining,
                                    index_t boundary) {
  Cluster& cluster = p_.cluster_;
  const ProcessGrid& grid = cluster.grid();
  const int p = cluster.size();
  const auto n = static_cast<index_t>(remaining.size());
  index_t max_steps = boundary;

  if (p_.cfg_.mode != DistMode::kPartitioned) {
    // §5.1/§6.1: minibatches block-assigned to the alive ranks; each rank
    // trains its block in order. With every rank alive this is exactly the
    // classic BlockPartition(k, p) assignment. kDisaggregated inherits this
    // branch unchanged: its p *logical slots* carry the replicated
    // placement (same step grouping, same accumulation order — the source
    // of its loss bit-identity to kReplicated), and only the physical
    // execution maps slots onto trainer ranks (DESIGN.md §14).
    const std::vector<int> alive = cluster.alive_ranks();
    check(!alive.empty() || n == 0,
          "StagedPipeline: every rank has crashed — cannot continue the epoch");
    const BlockPartition bp(n, static_cast<index_t>(std::max<std::size_t>(
                                   1, alive.size())));
    for (std::size_t a = 0; a < alive.size(); ++a) {
      const index_t lo = bp.begin(static_cast<index_t>(a));
      const index_t hi = bp.end(static_cast<index_t>(a));
      for (index_t m = lo; m < hi; ++m) {
        placement_[static_cast<std::size_t>(remaining[static_cast<std::size_t>(m)])] =
            Placement{alive[a], boundary + (m - lo)};
      }
      max_steps = std::max(max_steps, boundary + (hi - lo));
    }
  } else {
    // §5.2: minibatches block-assigned to the alive process rows; each
    // row's surviving replicas round-robin its block. All rows/columns
    // alive reproduces rank (i, m%c), step m/c exactly.
    const index_t rows = grid.rows();
    const int c = grid.replication();
    std::vector<std::vector<int>> row_ranks;  // alive ranks per alive row
    std::vector<index_t> alive_rows;
    for (index_t i = 0; i < rows; ++i) {
      std::vector<int> ranks;
      for (int j = 0; j < c; ++j) {
        const int r = grid.rank_of(static_cast<int>(i), j);
        if (cluster.alive(r)) ranks.push_back(r);
      }
      if (!ranks.empty()) {
        alive_rows.push_back(i);
        row_ranks.push_back(std::move(ranks));
      }
    }
    check(!alive_rows.empty() || n == 0,
          "StagedPipeline: every process row has crashed — cannot continue "
          "the epoch");
    const BlockPartition bp(
        n, static_cast<index_t>(std::max<std::size_t>(1, alive_rows.size())));
    for (std::size_t a = 0; a < alive_rows.size(); ++a) {
      const std::vector<int>& ranks = row_ranks[a];
      const auto nc = static_cast<index_t>(ranks.size());
      const index_t lo = bp.begin(static_cast<index_t>(a));
      const index_t hi = bp.end(static_cast<index_t>(a));
      for (index_t m = lo; m < hi; ++m) {
        const index_t local = m - lo;
        placement_[static_cast<std::size_t>(remaining[static_cast<std::size_t>(m)])] =
            Placement{ranks[static_cast<std::size_t>(local % nc)],
                      boundary + local / nc};
      }
      if (hi > lo) {
        max_steps = std::max(max_steps, boundary + ceil_div(hi - lo, nc));
      }
    }
  }

  steps_ = max_steps;
  step_batches_.assign(static_cast<std::size_t>(p),
                       std::vector<index_t>(static_cast<std::size_t>(steps_), -1));
  for (std::size_t b = 0; b < placement_.size(); ++b) {
    const Placement& pl = placement_[b];
    if (pl.rank >= 0 && pl.step < steps_) {
      step_batches_[static_cast<std::size_t>(pl.rank)]
                   [static_cast<std::size_t>(pl.step)] =
          static_cast<index_t>(b);
    }
  }
  queues_.resize(static_cast<std::size_t>(p));
  for (auto& q : queues_) q.resize(static_cast<std::size_t>(steps_));
}

bool StagedPipeline::recover_at_boundary(std::size_t g) {
  Cluster& cluster = p_.cluster_;
  cluster.begin_superstep();
  if (!cluster.has_faults()) return false;
  const int p = cluster.size();
  bool changed = false;
  for (int r = 0; r < p; ++r) {
    if (alive_[static_cast<std::size_t>(r)] != (cluster.alive(r) ? 1 : 0)) {
      changed = true;
      break;
    }
  }
  if (!changed) return false;
  // Crash recovery is not supported across disaggregated roles: a dead
  // sampler row loses adjacency blocks and a dead trainer its feature
  // block, and neither re-partitioning is implemented. Transient loss and
  // stragglers still apply (they never reach this path).
  check(p_.cfg_.mode != DistMode::kDisaggregated,
        "StagedPipeline: rank crash in disaggregated mode — crash recovery "
        "requires a colocated (replicated/partitioned) pipeline");
  for (int r = 0; r < p; ++r) {
    alive_[static_cast<std::size_t>(r)] = cluster.alive(r) ? 1 : 0;
  }

  // Degrade-and-continue: everything at or past this boundary is not yet
  // sampled (rounds train to completion before the next boundary), so the
  // whole remainder re-partitions onto the survivors and the remaining
  // rounds are re-planned — the sub-epoch re-partitioning of
  // plan_bulk_rounds. Sample content is placement-independent, so only the
  // schedule changes.
  const index_t boundary =
      g < rounds_.size() ? rounds_[g].step_begin : steps_;
  std::vector<index_t> remaining;
  for (std::size_t b = 0; b < placement_.size(); ++b) {
    if (placement_[b].step >= boundary) {
      remaining.push_back(static_cast<index_t>(b));
    }
  }
  assign_batches(remaining, boundary);
  rounds_.resize(g);
  for (const BulkRound& r : plan_bulk_rounds(steps_ - boundary, bulk_steps_)) {
    rounds_.push_back({boundary + r.step_begin, boundary + r.step_end});
  }
  return true;
}

EpochStats StagedPipeline::run(int epoch) {
  TrainCursor cursor;
  cursor.epoch = epoch;
  return run_range(epoch, -1, &cursor);
}

EpochStats StagedPipeline::run_range(int epoch, index_t end_round,
                                     TrainCursor* cursor) {
  Cluster& cluster = p_.cluster_;
  const PipelineConfig& cfg = p_.cfg_;
  check(cursor != nullptr, "StagedPipeline::run_range: cursor required");
  check(cursor->epoch == epoch,
        "StagedPipeline::run_range: cursor belongs to a different epoch");
  cluster.reset_clock();
  if (p_.disagg_cluster_) p_.disagg_cluster_->reset_clock();
  if (p_.pending_warmup_) {
    // The kPreSample warmup bills its one-time cost to the first trained
    // epoch as its own overhead phase: it reaches total_time() and the
    // breakdown, but stays outside `sampling`, so the overlap invariant
    // (overlap_saved + stall == sampling + fetch) is untouched.
    cluster.add_overhead("warmup", p_.warmup_cost_);
    p_.pending_warmup_ = false;
  }
  const std::uint64_t epoch_seed =
      derive_seed(cfg.seed, 0xe90c, static_cast<std::uint64_t>(epoch));
  const auto batches = make_epoch_batches(p_.ds_.train_idx, cfg.batch_size, epoch_seed);
  batches_ = &batches;

  const int p = cluster.size();
  const auto k_total = static_cast<index_t>(batches.size());
  placement_.assign(static_cast<std::size_t>(k_total), Placement{});
  alive_.resize(static_cast<std::size_t>(p));
  for (int r = 0; r < p; ++r) {
    alive_[static_cast<std::size_t>(r)] = cluster.alive(r) ? 1 : 0;
  }
  std::vector<index_t> all_ids(static_cast<std::size_t>(k_total));
  std::iota(all_ids.begin(), all_ids.end(), index_t{0});
  assign_batches(all_ids, 0);

  // Bulk rounds: cfg.bulk_k minibatches across all ranks per round. With
  // k=all, the overlapped executor still slices the epoch into
  // prefetch_rounds rounds — a monolithic bulk would leave nothing to
  // double-buffer (the sync path keeps the single bulk of §6.1).
  check(cfg.prefetch_rounds >= 1, "Pipeline: prefetch_rounds must be >= 1");
  bulk_steps_ = 0;
  const int active = std::max(1, cluster.num_alive());
  if (cfg.bulk_k > 0) {
    bulk_steps_ = std::max<index_t>(1, ceil_div(cfg.bulk_k, active));
  } else if (cfg.overlap && cfg.prefetch_rounds > 1 && steps_ > 0) {
    bulk_steps_ = std::max<index_t>(1, ceil_div(steps_, cfg.prefetch_rounds));
  }
  rounds_ = plan_bulk_rounds(steps_, bulk_steps_);
  const auto begin_round = static_cast<std::size_t>(cursor->next_round);
  check(begin_round <= rounds_.size(),
        "StagedPipeline::run_range: cursor round past the epoch schedule");

  const FeatureCacheStats cache_before = p_.features_.cache_stats();
  const FaultStats fault_before = cluster.fault_stats();
  // Plan-op breakdown: the executor's table is cumulative, so diff the
  // epoch's delta below.
  const std::map<std::string, double> ops_before =
      p_.sampler_->op_time_breakdown();
  loss_sum_ = cursor->loss_sum;
  correct_ = cursor->correct;
  seen_ = cursor->seen;
  double stall = 0.0;
  double prev_round_unhidden = 0.0;
  // Hoisted per-step fetch buffer: move-assigned by fetch_step each step, so
  // the container itself is reused across the epoch (the samplers' Workspace
  // arenas cover the sampling-side scratch the same way).
  std::vector<DenseF> gathered;

  std::size_t g = begin_round;
  for (; g < rounds_.size(); ++g) {
    if (end_round >= 0 && static_cast<index_t>(g) >= end_round) break;
    // Every bulk-round boundary is a fault superstep: crashes land here,
    // and the remainder of the epoch re-partitions onto the survivors.
    recover_at_boundary(g);
    if (g >= rounds_.size()) break;  // re-plan can only shrink past the end

    const double s_cost = sample_round(rounds_[g], epoch_seed);
    if (cfg.overlap) {
      // Round g is sampled while round g-1 trains; round 0 is pipeline fill.
      const double hid =
          g == begin_round ? 0.0 : std::min(s_cost, prev_round_unhidden);
      cluster.credit_overlap(hid);
      stall += s_cost - hid;
    }

    double round_unhidden = 0.0;
    double prev_prop = -1.0;  // <0: no propagation yet in this round
    for (index_t t = rounds_[g].step_begin; t < rounds_[g].step_end; ++t) {
      const double f_cost = fetch_step(t, gathered);
      const double p_cost = train_step(epoch, g, t, gathered);
      if (cfg.overlap) {
        // The fetch for step t is issued during the propagation of step
        // t-1; the round's first fetch has no propagation to hide under.
        const double hid = prev_prop < 0.0 ? 0.0 : std::min(f_cost, prev_prop);
        cluster.credit_overlap(hid);
        stall += f_cost - hid;
        round_unhidden += (f_cost - hid) + p_cost;
      }
      prev_prop = p_cost;
    }
    prev_round_unhidden = round_unhidden;
  }

  cursor->next_round = static_cast<index_t>(g);
  cursor->total_rounds = static_cast<index_t>(rounds_.size());
  cursor->loss_sum = loss_sum_;
  cursor->correct = correct_;
  cursor->seen = seen_;

  EpochStats stats;
  // The sampler → trainer handoff is part of every disaggregated round's
  // cost (inside s_cost), so it belongs to the prefetchable `sampling` side
  // of the overlap invariant.
  stats.sampling = cluster.phase_time(kPhaseSampling) +
                   cluster.phase_time(kPhaseProbability) +
                   cluster.phase_time(kPhaseExtraction) +
                   cluster.phase_time("handoff");
  stats.warmup = cluster.phase_time("warmup");
  stats.fetch = cluster.phase_time("fetch");
  stats.propagation = cluster.phase_time("propagation");
  stats.total = cluster.total_time();
  stats.loss = seen_ > 0 ? loss_sum_ / static_cast<double>(seen_) : 0.0;
  stats.train_acc =
      seen_ > 0 ? static_cast<double>(correct_) / static_cast<double>(seen_) : 0.0;
  stats.overlap_saved = cluster.overlap_credit();
  stats.stall = cfg.overlap ? stall : 0.0;
  const FeatureCacheStats d = p_.features_.cache_stats() - cache_before;
  stats.cache_hits = d.hits;
  stats.cache_misses = d.misses;
  stats.cache_local = d.local;
  stats.cache_pinned_hits = d.pinned_hits;
  stats.fetch_bytes = d.bytes_moved;
  stats.fetch_bytes_saved = d.bytes_saved;
  stats.compute_phases = cluster.compute_time();
  for (const auto& [phase, s] : cluster.comm_stats()) {
    stats.comm_phases[phase] = s.seconds;
  }
  for (const auto& [op, seconds] : p_.sampler_->op_time_breakdown()) {
    const auto it = ops_before.find(op);
    stats.sampler_ops[op] =
        seconds - (it == ops_before.end() ? 0.0 : it->second);
  }
  const FaultStats fd = cluster.fault_stats() - fault_before;
  stats.fault_straggler = fd.straggler_seconds;
  stats.fault_retry = fd.retry_seconds;
  stats.fault_redistribution = fd.redistribution_seconds;
  stats.retry_bytes = fd.retry_bytes;
  stats.retry_messages = fd.retry_messages;
  stats.crashed_ranks = fd.crashed_ranks;
  batches_ = nullptr;
  return stats;
}

double StagedPipeline::sample_round(const BulkRound& round,
                                    std::uint64_t epoch_seed) {
  switch (p_.cfg_.mode) {
    case DistMode::kReplicated:
      return replicated_round(round, epoch_seed);
    case DistMode::kPartitioned:
      return partitioned_round(round, epoch_seed);
    case DistMode::kDisaggregated:
      return disaggregated_round(round, epoch_seed);
  }
  return 0.0;
}

double StagedPipeline::replicated_round(const BulkRound& round,
                                        std::uint64_t epoch_seed) {
  Cluster& cluster = p_.cluster_;
  const double before = clock();
  const int p = cluster.size();
  const double launch = cluster.cost_model().link().launch_overhead;
  const auto num_layers = static_cast<double>(p_.cfg_.fanouts.size());

  // Each rank samples this round's slice of its assigned batches with zero
  // communication; the round costs the max over ranks.
  double max_t = 0.0;
  for (int r = 0; r < p; ++r) {
    std::vector<std::vector<index_t>> chunk;
    std::vector<index_t> ids;
    for (index_t t = round.step_begin; t < round.step_end; ++t) {
      const index_t b =
          step_batches_[static_cast<std::size_t>(r)][static_cast<std::size_t>(t)];
      if (b < 0) continue;
      chunk.push_back((*batches_)[static_cast<std::size_t>(b)]);
      ids.push_back(b);
    }
    if (ids.empty()) continue;
    Timer t;
    auto samples = p_.sampler_->sample_bulk(chunk, ids, epoch_seed);
    for (std::size_t i = 0; i < samples.size(); ++i) {
      const Placement& pl = placement_[static_cast<std::size_t>(ids[i])];
      queues_[static_cast<std::size_t>(pl.rank)][static_cast<std::size_t>(pl.step)] =
          std::move(samples[i]);
    }
    max_t = std::max(max_t, t.seconds());
  }
  cluster.add_compute(kPhaseSampling, max_t);
  // Bulk sampling launches O(L) kernels per *round*, not per minibatch —
  // the amortization of §4.
  cluster.add_overhead(kPhaseSampling, launch * kKernelsPerLayer * num_layers);
  return clock() - before;
}

double StagedPipeline::partitioned_round(const BulkRound& round,
                                         std::uint64_t epoch_seed) {
  Cluster& cluster = p_.cluster_;
  const double before = clock();
  const ProcessGrid& grid = cluster.grid();
  const index_t rows = grid.rows();
  const int c = grid.replication();
  const double launch = cluster.cost_model().link().launch_overhead;
  const auto num_layers = static_cast<double>(p_.cfg_.fanouts.size());

  // The round needs, for every process row, the batches placed at steps
  // [step_begin, step_end) on the row's ranks. Sample content is
  // independent of which row materializes a batch (the determinism contract
  // derives randomness from global batch ids), so the sub-epoch can be
  // re-partitioned freely.
  std::vector<std::vector<index_t>> sub_batches;
  std::vector<index_t> sub_ids;
  for (index_t i = 0; i < rows; ++i) {
    for (index_t t = round.step_begin; t < round.step_end; ++t) {
      for (int j = 0; j < c; ++j) {
        const int r = grid.rank_of(static_cast<int>(i), j);
        const index_t b = step_batches_[static_cast<std::size_t>(r)]
                                       [static_cast<std::size_t>(t)];
        if (b < 0) continue;
        sub_batches.push_back((*batches_)[static_cast<std::size_t>(b)]);
        sub_ids.push_back(b);
      }
    }
  }
  if (sub_batches.empty()) return 0.0;

  auto per_row = p_.sampler_->sample_bulk(cluster, sub_batches, sub_ids, epoch_seed);
  cluster.add_overhead(kPhaseSampling, launch * kKernelsPerLayer * num_layers);

  // Concatenating the per-row results restores sub-batch order; place each
  // sample at its queue position from the placement table.
  std::size_t q = 0;
  for (auto& row_samples : per_row) {
    for (auto& ms : row_samples) {
      const Placement& pl = placement_[static_cast<std::size_t>(sub_ids[q++])];
      queues_[static_cast<std::size_t>(pl.rank)][static_cast<std::size_t>(pl.step)] =
          std::move(ms);
    }
  }
  return clock() - before;
}

double StagedPipeline::disaggregated_round(const BulkRound& round,
                                           std::uint64_t epoch_seed) {
  Cluster& cluster = p_.cluster_;
  Cluster& sub = *p_.disagg_cluster_;
  const DisaggLayout& layout = p_.disagg_;
  const double before = clock();
  const int p = cluster.size();
  const double launch = cluster.cost_model().link().launch_overhead;
  const auto num_layers = static_cast<double>(p_.cfg_.fanouts.size());

  // The round's batches in (step, slot) order — the same logical schedule
  // the replicated path trains; which sampler row materializes a batch is
  // irrelevant to its content (the determinism contract).
  std::vector<std::vector<index_t>> sub_batches;
  std::vector<index_t> sub_ids;
  for (index_t t = round.step_begin; t < round.step_end; ++t) {
    for (int r = 0; r < p; ++r) {
      const index_t b = step_batches_[static_cast<std::size_t>(r)]
                                     [static_cast<std::size_t>(t)];
      if (b < 0) continue;
      sub_batches.push_back((*batches_)[static_cast<std::size_t>(b)]);
      sub_ids.push_back(b);
    }
  }
  if (sub_batches.empty()) return 0.0;

  // Sampler role: the partitioned algorithm runs over the sampler sub-grid
  // and records on the sub-cluster, whose tables then drain raw into the
  // main clock — one clock covers both roles.
  auto per_row = p_.sampler_->sample_bulk(sub, sub_batches, sub_ids, epoch_seed);
  sub.drain_into(cluster);
  cluster.add_overhead(kPhaseSampling, launch * kKernelsPerLayer * num_layers);

  // Handoff: each materialized sample streams from the sampler row that
  // produced it to the trainer executing its slot. A trainer receives its
  // samples serially (sum of p2p times); trainers receive concurrently
  // (max). record_comm on the main cluster means transient-loss fault
  // plans retry the handoff like any other modeled message.
  const CostModel& model = cluster.cost_model();
  std::vector<double> per_trainer(static_cast<std::size_t>(layout.trainers),
                                  0.0);
  std::size_t total_bytes = 0;
  std::size_t total_msgs = 0;
  std::size_t q = 0;
  int row_i = 0;
  for (auto& row_samples : per_row) {
    const int src = layout.sampler_rank(layout.sampler_grid.rank_of(row_i, 0));
    for (auto& ms : row_samples) {
      const Placement& pl = placement_[static_cast<std::size_t>(sub_ids[q++])];
      const int tj = layout.trainer_of_slot(pl.rank);  // pl.rank is the slot
      const std::size_t bytes = sample_bytes(ms);
      per_trainer[static_cast<std::size_t>(tj)] +=
          model.p2p(src, layout.trainer_rank(tj), bytes);
      total_bytes += bytes;
      ++total_msgs;
      queues_[static_cast<std::size_t>(pl.rank)][static_cast<std::size_t>(pl.step)] =
          std::move(ms);
    }
    ++row_i;
  }
  const double worst =
      *std::max_element(per_trainer.begin(), per_trainer.end());
  cluster.record_comm("handoff", worst, total_bytes, total_msgs);
  return clock() - before;
}

double StagedPipeline::fetch_step(index_t t, std::vector<DenseF>& gathered) {
  Cluster& cluster = p_.cluster_;
  const double before = clock();
  const int p = cluster.size();
  if (p_.cfg_.mode != DistMode::kDisaggregated) {
    // Feature fetching: all-to-allv across process columns (§6.2).
    std::vector<std::vector<index_t>> wanted(static_cast<std::size_t>(p));
    for (int r = 0; r < p; ++r) {
      const MinibatchSample& s =
          queues_[static_cast<std::size_t>(r)][static_cast<std::size_t>(t)];
      if (has_sample(s)) wanted[static_cast<std::size_t>(r)] = s.input_vertices();
    }
    gathered = p_.features_.fetch_all(cluster, wanted, "fetch");
    return clock() - before;
  }

  // Disaggregated: the store spans only the t trainer ranks, and each
  // trainer executes the p/t slots mapped to it sequentially — so step t's
  // fetch runs as ceil(p/t) waves of the trainer-grid all-to-allv, wave w
  // covering slots [w*t, w*t + t), one per trainer. Gathered matrices stay
  // slot-indexed for train_step.
  const DisaggLayout& layout = p_.disagg_;
  const int trainers = layout.trainers;
  std::vector<DenseF> slot_gathered(static_cast<std::size_t>(p));
  for (int w = 0; w * trainers < p; ++w) {
    std::vector<std::vector<index_t>> wanted(
        static_cast<std::size_t>(trainers));
    bool any = false;
    for (int j = 0; j < trainers; ++j) {
      const int slot = w * trainers + j;
      if (slot >= p) break;
      const MinibatchSample& s =
          queues_[static_cast<std::size_t>(slot)][static_cast<std::size_t>(t)];
      if (has_sample(s)) {
        wanted[static_cast<std::size_t>(j)] = s.input_vertices();
        any = true;
      }
    }
    if (!any) continue;
    auto wave = p_.features_.fetch_all(cluster, wanted, "fetch");
    for (int j = 0; j < trainers; ++j) {
      const int slot = w * trainers + j;
      if (slot >= p) break;
      slot_gathered[static_cast<std::size_t>(slot)] =
          std::move(wave[static_cast<std::size_t>(j)]);
    }
  }
  gathered = std::move(slot_gathered);
  return clock() - before;
}

double StagedPipeline::train_step(int epoch, std::size_t g, index_t t,
                                  const std::vector<DenseF>& gathered) {
  Cluster& cluster = p_.cluster_;
  const double before = clock();
  const int p = cluster.size();
  const std::size_t param_bytes = p_.model_.param_bytes();
  const bool disagg = p_.cfg_.mode == DistMode::kDisaggregated;

  // Propagation: fwd/bwd per rank, then gradient all-reduce. The slot loop
  // (order, accumulation, averaging) is identical in every mode — that is
  // the disaggregated loss bit-identity. Only the *timing* differs under
  // disaggregation: a trainer executes its slots serially (sum), trainers
  // run concurrently (max over trainers instead of max over slots).
  std::vector<double> trainer_prop(
      disagg ? static_cast<std::size_t>(p_.disagg_.trainers) : 0, 0.0);
  double max_prop = 0.0;
  int active = 0;
  for (int r = 0; r < p; ++r) {
    MinibatchSample& sample =
        queues_[static_cast<std::size_t>(r)][static_cast<std::size_t>(t)];
    if (!has_sample(sample)) continue;
    std::vector<int> labels(sample.batch_vertices.size());
    for (std::size_t i = 0; i < labels.size(); ++i) {
      labels[i] = p_.ds_.labels[static_cast<std::size_t>(sample.batch_vertices[i])];
    }
    Timer timer;
    const LossResult res =
        p_.model_.train_step(sample, gathered[static_cast<std::size_t>(r)], labels);
    if (disagg) {
      trainer_prop[static_cast<std::size_t>(p_.disagg_.trainer_of_slot(r))] +=
          timer.seconds();
    } else {
      max_prop = std::max(max_prop, timer.seconds());
    }
    if (!std::isfinite(res.loss)) {
      // Fatal: the GEMM paths agree bit for bit only on finite operands
      // (nn/gemm.hpp), and the optimizer would spread it into every weight.
      throw DmsError("StagedPipeline: non-finite loss " +
                     std::to_string(res.loss) + " at epoch " +
                     std::to_string(epoch) + ", bulk round " +
                     std::to_string(g) + ", step " + std::to_string(t) +
                     ", rank " + std::to_string(r));
    }
    loss_sum_ += res.loss * static_cast<double>(labels.size());
    correct_ += res.correct;
    seen_ += static_cast<index_t>(labels.size());
    ++active;
    sample = MinibatchSample{};  // trained — release the round's memory
  }
  if (active > 0) {
    if (disagg) {
      max_prop = *std::max_element(trainer_prop.begin(), trainer_prop.end());
    }
    // Shared-model gradient accumulation across ranks == all-reduce sum;
    // average and step once (identical to synchronous DDP). Only surviving
    // ranks participate in the all-reduce — under disaggregation that is
    // the trainer ranks [s, p): samplers hold no model replica.
    Timer timer;
    p_.model_.scale_grads(1.0f / static_cast<float>(active));
    p_.optimizer_->step(p_.model_.params());
    p_.model_.zero_grads();
    cluster.add_compute("propagation", max_prop + timer.seconds());
    std::vector<int> group;
    if (disagg) {
      group.reserve(static_cast<std::size_t>(p_.disagg_.trainers));
      for (int j = 0; j < p_.disagg_.trainers; ++j) {
        group.push_back(p_.disagg_.trainer_rank(j));
      }
    } else {
      group = cluster.alive_ranks();
    }
    if (group.size() > 1) {
      cluster.record_comm(
          "propagation",
          cluster.cost_model().allreduce(group, param_bytes),
          param_bytes * group.size(),
          2 * (group.size() - 1));
    }
  }
  return clock() - before;
}

}  // namespace dms
