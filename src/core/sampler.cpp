#include "core/sampler.hpp"

#include "core/fastgcn.hpp"  // fastgcn_importance_prefix (bound global weights)

namespace dms {

void validate_fanouts(const std::vector<index_t>& fanouts, const std::string& what) {
  check(!fanouts.empty(), what + ": fanouts must be non-empty");
  for (const index_t f : fanouts) {
    check(f >= 1, what + ": every fanout must be >= 1");
  }
}

namespace {

SamplerConfig validated(SamplerConfig config, const SamplePlan& plan) {
  validate_fanouts(config.fanouts, "MatrixSampler(" + plan.name + ")");
  return config;
}

}  // namespace

MatrixSampler::MatrixSampler(const Graph& graph, SamplePlan plan,
                             SamplerConfig config, const ProcessGrid* grid,
                             PartitionedSamplerOptions opts)
    : MatrixSampler(nullptr, &graph, std::move(plan), std::move(config), grid, opts) {}

MatrixSampler::MatrixSampler(Graph&& graph, SamplePlan plan, SamplerConfig config,
                             const ProcessGrid* grid, PartitionedSamplerOptions opts)
    : MatrixSampler(std::make_unique<const Graph>(std::move(graph)), nullptr,
                    std::move(plan), std::move(config), grid, opts) {}

MatrixSampler::MatrixSampler(std::unique_ptr<const Graph> owned,
                             const Graph* borrowed, SamplePlan plan,
                             SamplerConfig config, const ProcessGrid* grid,
                             PartitionedSamplerOptions opts)
    : owned_graph_(std::move(owned)),
      graph_(owned_graph_ ? owned_graph_.get() : borrowed),
      grid_(grid != nullptr ? std::optional<ProcessGrid>(*grid) : std::nullopt),
      opts_(opts),
      exec_(grid != nullptr ? lower_to_dist(plan) : plan,
            validated(std::move(config), plan)) {
  if (grid_) dist_adj_.emplace(*grid_, graph_->adjacency());
  if (exec_.plan().needs_global_weights) {
    global_weights_ = fastgcn_importance_prefix(*graph_);
  }
}

const ProcessGrid& MatrixSampler::grid() const {
  check(partitioned(), "MatrixSampler::grid: sampler is replicated");
  return *grid_;
}

const DistBlockRowMatrix& MatrixSampler::dist_adjacency() const {
  check(partitioned(), "MatrixSampler::dist_adjacency: sampler is replicated");
  return *dist_adj_;
}

void MatrixSampler::bind_cluster(Cluster* cluster) {
  check(partitioned(), "MatrixSampler::bind_cluster: sampler is replicated");
  bound_cluster_ = cluster;
}

std::vector<std::vector<MinibatchSample>> MatrixSampler::sample_bulk(
    Cluster& cluster, const std::vector<std::vector<index_t>>& batches,
    const std::vector<index_t>& batch_ids, std::uint64_t epoch_seed) const {
  check(partitioned(), "sample_bulk(Cluster&): sampler is replicated");
  check(batches.size() == batch_ids.size(), "sample_bulk: ids/batches mismatch");
  check(cluster.grid().rows() == grid_->rows() &&
            cluster.grid().replication() == grid_->replication(),
        "sample_bulk: cluster grid does not match the sampler's grid");
  // Batches are block-assigned to *alive* process rows (a row is alive while
  // any of its c replicas is). With no crashes this reproduces the balanced
  // BlockPartition exactly; after a crash the dead rows get zero-width
  // blocks and the survivors split the batches — sample content is
  // unchanged either way, because randomness derives from global batch ids,
  // never from the row assignment (the determinism contract).
  const auto n = static_cast<index_t>(batches.size());
  const index_t rows = grid_->rows();
  std::vector<char> alive_row(static_cast<std::size_t>(rows), 1);
  index_t num_alive_rows = rows;
  if (cluster.has_faults()) {
    num_alive_rows = 0;
    for (index_t i = 0; i < rows; ++i) {
      alive_row[static_cast<std::size_t>(i)] =
          cluster.row_alive(static_cast<int>(i)) ? 1 : 0;
      num_alive_rows += alive_row[static_cast<std::size_t>(i)];
    }
    check(num_alive_rows > 0 || n == 0,
          "sample_bulk: every process row has crashed — nothing can sample");
  }
  std::vector<index_t> offsets(static_cast<std::size_t>(rows) + 1, 0);
  index_t placed = 0, alive_seen = 0;
  for (index_t i = 0; i < rows; ++i) {
    index_t width = 0;
    if (alive_row[static_cast<std::size_t>(i)] != 0 && num_alive_rows > 0) {
      width = n / num_alive_rows + (alive_seen < n % num_alive_rows ? 1 : 0);
      ++alive_seen;
    }
    placed += width;
    offsets[static_cast<std::size_t>(i) + 1] = placed;
  }
  const BlockPartition assign = BlockPartition::from_offsets(std::move(offsets));
  return exec_.run_partitioned(
      cluster, *dist_adj_, assign, batches, batch_ids, epoch_seed, &ws_,
      opts_.local_spgemm, opts_.sparsity_aware,
      global_weights_.empty() ? nullptr : &global_weights_);
}

std::vector<MinibatchSample> MatrixSampler::sample_bulk(
    const std::vector<std::vector<index_t>>& batches,
    const std::vector<index_t>& batch_ids, std::uint64_t epoch_seed) const {
  if (!partitioned()) {
    check(batches.size() == batch_ids.size(), "sample_bulk: ids/batches mismatch");
    return exec_.run(*graph_, batches, batch_ids, epoch_seed, &ws_,
                     global_weights_.empty() ? nullptr : &global_weights_);
  }
  std::vector<std::vector<MinibatchSample>> per_row;
  if (bound_cluster_ != nullptr) {
    per_row = sample_bulk(*bound_cluster_, batches, batch_ids, epoch_seed);
  } else {
    Cluster ephemeral(*grid_, CostModel(LinkParams{}));
    per_row = sample_bulk(ephemeral, batches, batch_ids, epoch_seed);
  }
  std::vector<MinibatchSample> flat;
  flat.reserve(batches.size());
  for (auto& row : per_row) {
    for (auto& ms : row) flat.push_back(std::move(ms));
  }
  return flat;
}

}  // namespace dms
