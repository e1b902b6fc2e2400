#include "dist/sampler_factory.hpp"

#include <optional>
#include <utility>

#include "core/graphsaint.hpp"  // walk_adapter_config
#include "core/pinsage.hpp"     // pinsage_importance_graph
#include "plan/builders.hpp"

namespace dms {

std::string to_string(SamplerKind kind) {
  switch (kind) {
    case SamplerKind::kGraphSage:
      return "graphsage";
    case SamplerKind::kLadies:
      return "ladies";
    case SamplerKind::kFastGcn:
      return "fastgcn";
    case SamplerKind::kLabor:
      return "labor";
    case SamplerKind::kGraphSaint:
      return "graphsaint";
    case SamplerKind::kNode2Vec:
      return "node2vec";
    case SamplerKind::kPinSage:
      return "pinsage";
  }
  return "unknown";
}

std::string to_string(DistMode mode) {
  switch (mode) {
    case DistMode::kReplicated:
      return "replicated";
    case DistMode::kPartitioned:
      return "partitioned";
    case DistMode::kDisaggregated:
      return "disaggregated";
  }
  return "unknown";
}

namespace {

/// What a SamplerKind contributes to the one MatrixSampler: its plan, an
/// optional graph transform the sampler owns, and its SamplerConfig (the
/// walk kinds map the model depth onto unit fanouts).
struct KindRecipe {
  SamplePlan plan;
  std::optional<Graph> transformed;
  SamplerConfig config;
};

KindRecipe recipe_for(SamplerKind kind, const Graph& graph, const SamplerContext& ctx) {
  const SamplerConfig& cfg = ctx.config;
  const WalkParams& walk = ctx.walk;
  switch (kind) {
    case SamplerKind::kGraphSage:
      return {build_sage_plan(), std::nullopt, cfg};
    case SamplerKind::kLadies:
      return {build_ladies_plan(), std::nullopt, cfg};
    case SamplerKind::kFastGcn:
      return {build_fastgcn_plan(), std::nullopt, cfg};
    case SamplerKind::kLabor:
      return {build_labor_plan(), std::nullopt, cfg};
    case SamplerKind::kGraphSaint:
      return {build_saint_plan(walk.walk_length, cfg.num_layers()), std::nullopt,
              walk_adapter_config(cfg.num_layers(), cfg.seed)};
    case SamplerKind::kNode2Vec:
      return {build_node2vec_plan(walk.walk_length, cfg.num_layers(), walk.p, walk.q),
              std::nullopt, walk_adapter_config(cfg.num_layers(), cfg.seed)};
    case SamplerKind::kPinSage: {
      PinSageConfig pcfg;
      pcfg.num_walks = walk.pinsage_walks;
      pcfg.walk_length = walk.walk_length;
      pcfg.top_neighbors = walk.pinsage_top;
      pcfg.seed = cfg.seed;
      return {build_pinsage_plan(), pinsage_importance_graph(graph, pcfg), cfg};
    }
  }
  throw DmsError("make_sampler: unknown SamplerKind");
}

}  // namespace

std::unique_ptr<MatrixSampler> make_sampler(SamplerKind kind, DistMode mode,
                                            const Graph& graph,
                                            const SamplerContext& ctx) {
  const std::string what =
      "make_sampler(" + to_string(kind) + ", " + to_string(mode) + ")";
  validate_fanouts(ctx.config.fanouts, what);
  check(mode == DistMode::kReplicated || ctx.grid != nullptr,
        what + " requires SamplerContext::grid");
  // kDisaggregated partitions over the sampler sub-grid. ctx.cluster is not
  // bound there: its grid is the full cluster's (the pipeline binds its
  // sampler-role sub-cluster after construction).
  RankRoles roles;
  const ProcessGrid* grid = nullptr;
  if (mode != DistMode::kReplicated) {
    roles = make_rank_roles(mode, *ctx.grid, ctx.disagg);
    grid = &roles.sampler_grid;
  }
  KindRecipe r = recipe_for(kind, graph, ctx);
  auto sampler =
      r.transformed
          ? std::make_unique<MatrixSampler>(std::move(*r.transformed), std::move(r.plan),
                                            std::move(r.config), grid, ctx.part_opts)
          : std::make_unique<MatrixSampler>(graph, std::move(r.plan), std::move(r.config),
                                            grid, ctx.part_opts);
  if (mode == DistMode::kPartitioned) sampler->bind_cluster(ctx.cluster);
  return sampler;
}

std::unique_ptr<MatrixSampler> make_sampler(SamplerKind kind, const Graph& graph,
                                            const SamplerConfig& config) {
  SamplerContext ctx;
  ctx.config = config;
  return make_sampler(kind, DistMode::kReplicated, graph, ctx);
}

}  // namespace dms
