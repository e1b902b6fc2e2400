#include "core/graphsaint.hpp"

namespace dms {

SamplerConfig walk_adapter_config(index_t model_layers, std::uint64_t seed) {
  check(model_layers >= 1, "walk_adapter_config: model_layers must be >= 1");
  SamplerConfig cfg;
  cfg.fanouts.assign(static_cast<std::size_t>(model_layers), 1);
  cfg.seed = seed;
  return cfg;
}

}  // namespace dms
