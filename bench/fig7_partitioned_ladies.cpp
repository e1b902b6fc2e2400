// Figure 7 (bottom row): Graph Partitioned LADIES — sampling-time breakdown
// across p, plus the §8.2.2 comparison against the reference CPU LADIES
// implementation (which took 43.9 s on Papers / 3.12 s on Protein; the
// distributed runs begin to beat it at 64 GPUs).
//
// Expected shapes: column extraction dominates (chunked CSR SpGEMMs);
// scaling across p; crossover vs the CPU reference at large p.
#include "baselines/ladies_cpu.hpp"
#include "bench_util.hpp"
#include "core/minibatch.hpp"
#include "dist/sampler_factory.hpp"

using namespace dms;
using namespace dms::bench;

int main() {
  print_header("Figure 7 (bottom): Graph Partitioned LADIES sampling time (s, simulated)");
  const LinkParams links = perlmutter_links();

  const std::map<std::string, std::vector<std::pair<int, int>>> points = {
      {"protein", {{16, 1}, {32, 2}, {64, 4}}},
      {"papers", {{16, 1}, {32, 2}, {64, 4}}},
  };

  for (const auto& [name, pts] : points) {
    const Dataset& ds = dataset(name);
    const auto batches =
        make_epoch_batches(ds.train_idx, arch().ladies_batch, /*epoch_seed=*/1);
    std::vector<index_t> ids(batches.size());
    for (std::size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<index_t>(i);

    // Reference CPU implementation sampling all minibatches serially.
    const auto cpu = ladies_cpu_reference(ds.graph, batches, arch().ladies_s, 3);

    std::printf("\n--- %s (%zu minibatches; CPU reference: %.3f s) ---\n",
                ds.name.c_str(), batches.size(), cpu.seconds);
    print_row({"p", "c", "total", "probability", "sampling", "extraction",
               "comp", "comm", "vs-CPU"},
              12);
    for (const auto& [p, c] : pts) {
      Cluster cluster(ProcessGrid(p, c), CostModel(links));
      SamplerContext ctx;
      ctx.config = SamplerConfig{{arch().ladies_s}, 1};
      ctx.grid = &cluster.grid();
      const auto sampler =
          make_sampler(SamplerKind::kLadies, DistMode::kPartitioned, ds.graph, ctx);
      sampler->sample_bulk(cluster, batches, ids, /*epoch_seed=*/7);
      print_row({std::to_string(p), std::to_string(c), fmt(cluster.total_time()),
                 fmt(cluster.phase_time(kPhaseProbability)),
                 fmt(cluster.phase_time(kPhaseSampling)),
                 fmt(cluster.phase_time(kPhaseExtraction)),
                 fmt(cluster.total_compute()), fmt(cluster.total_comm()),
                 fmt(cpu.seconds / cluster.total_time(), 2) + "x"},
                12);
    }
  }
  std::printf("\nPaper reference: distributed LADIES exceeds the CPU reference at 64\n"
              "GPUs; column extraction dominates the breakdown.\n");
  return 0;
}
