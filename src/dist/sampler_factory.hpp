// Unified sampler construction: one factory surface over every sampling
// algorithm (SamplerKind) × execution mode (DistMode) combination.
//
// Every combination is the one MatrixSampler class. make_sampler maps the
// kind onto {plan builder, graph transform, walk-config mapping} in one
// switch, applies the one fanout rule (validate_fanouts), and places the
// sampler on the sampler grid of make_rank_roles (none for kReplicated).
// Call sites — the training pipeline, benches, and examples — drive the
// distributed API directly through MatrixSampler::sample_bulk(Cluster&, …).
#pragma once

#include <memory>
#include <string>

#include "core/sampler.hpp"
#include "dist/rank_roles.hpp"

namespace dms {

enum class SamplerKind {
  kGraphSage,
  kLadies,
  kFastGcn,
  kLabor,
  kGraphSaint,
  kNode2Vec,
  kPinSage,
};
std::string to_string(SamplerKind kind);
std::string to_string(DistMode mode);

/// Walk-sampler parameters threaded through the factory. Only the walk
/// kinds (kGraphSaint / kNode2Vec / kPinSage) read them. GraphSAINT and
/// node2vec take their model depth from SamplerConfig::num_layers() and
/// their seed from SamplerConfig::seed; the fanout values themselves are
/// validated like every kind's but otherwise unused.
struct WalkParams {
  index_t walk_length = 2;     ///< rounds per random walk
  value_t p = 1.0;             ///< node2vec return parameter
  value_t q = 1.0;             ///< node2vec in-out parameter
  index_t pinsage_walks = 16;  ///< simulated walks per vertex (kPinSage)
  index_t pinsage_top = 8;     ///< importance neighbors kept per vertex
};

/// Everything make_sampler may need beyond the graph.
struct SamplerContext {
  SamplerConfig config;
  /// Partitioned modes: the process grid to partition over (required). For
  /// kDisaggregated this is the *full* cluster grid; make_sampler derives
  /// the sampler sub-grid from it via make_rank_roles(mode, grid, disagg).
  const ProcessGrid* grid = nullptr;
  PartitionedSamplerOptions part_opts;
  /// Optional long-lived cluster bound to kPartitioned samplers so their
  /// cluster-less sample_bulk records phases on it. Ignored in the other
  /// modes (under kDisaggregated the bound cluster's grid must match the
  /// sampler's sub-grid — the pipeline binds its sampler-role sub-cluster
  /// after construction instead).
  Cluster* cluster = nullptr;
  /// Walk-sampler parameters (walk kinds only).
  WalkParams walk;
  /// Sampler/trainer split (kDisaggregated only; defaults auto-split).
  DisaggOptions disagg;
};

/// The single construction surface for every sampler in the system. Throws
/// DmsError for invalid fanouts (validate_fanouts) or a missing grid in the
/// distributed modes.
std::unique_ptr<MatrixSampler> make_sampler(SamplerKind kind, DistMode mode,
                                            const Graph& graph,
                                            const SamplerContext& ctx);

/// Replicated (single-device) convenience overload.
std::unique_ptr<MatrixSampler> make_sampler(SamplerKind kind, const Graph& graph,
                                            const SamplerConfig& config);

}  // namespace dms
