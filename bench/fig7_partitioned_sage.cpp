// Figure 7 (top row): Graph Partitioned GraphSAGE — bulk sampling time
// broken into probability generation / sampling / extraction, and into
// computation vs communication, across p with the paper's per-p best c.
//
// Expected shapes (§8.2.1): probability generation (the 1.5D SpGEMM)
// dominates; communication scales when c grows and stalls when c is fixed;
// computation scales with p.
#include "bench_util.hpp"
#include "core/minibatch.hpp"
#include "dist/sampler_factory.hpp"

using namespace dms;
using namespace dms::bench;

namespace {

struct Point {
  int p, c;
};

}  // namespace

int main() {
  print_header("Figure 7 (top): Graph Partitioned GraphSAGE sampling time (s, simulated)");
  const LinkParams links = perlmutter_links();

  const std::map<std::string, std::vector<Point>> points = {
      {"protein", {{16, 2}, {32, 4}, {64, 4}}},
      {"papers", {{16, 1}, {32, 2}, {64, 4}}},
  };

  for (const auto& [name, pts] : points) {
    const Dataset& ds = dataset(name);
    const auto batches =
        make_epoch_batches(ds.train_idx, arch().sage_batch, /*epoch_seed=*/1);
    std::vector<index_t> ids(batches.size());
    for (std::size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<index_t>(i);

    std::printf("\n--- %s (%zu minibatches, all sampled in one bulk) ---\n",
                ds.name.c_str(), batches.size());
    print_row({"p", "c", "total", "probability", "sampling", "extraction",
               "comp", "comm"},
              12);
    for (const Point& pt : pts) {
      Cluster cluster(ProcessGrid(pt.p, pt.c), CostModel(links));
      SamplerContext ctx;
      ctx.config = SamplerConfig{arch().sage_fanout, 1};
      ctx.grid = &cluster.grid();
      const auto sampler =
          make_sampler(SamplerKind::kGraphSage, DistMode::kPartitioned, ds.graph, ctx);
      sampler->sample_bulk(cluster, batches, ids, /*epoch_seed=*/7);
      print_row({std::to_string(pt.p), std::to_string(pt.c),
                 fmt(cluster.total_time()),
                 fmt(cluster.phase_time(kPhaseProbability)),
                 fmt(cluster.phase_time(kPhaseSampling)),
                 fmt(cluster.phase_time(kPhaseExtraction)),
                 fmt(cluster.total_compute()), fmt(cluster.total_comm())},
                12);
    }
  }
  std::printf("\nPaper reference: Protein 1.75x speedup 16->64, Papers 1.43x; time\n"
              "dominated by the sparsity-aware 1.5D SpGEMM probability step.\n");
  return 0;
}
