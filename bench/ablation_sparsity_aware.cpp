// Ablation for the §5.2.1 design choice: sparsity-aware (Ballard et al.)
// vs sparsity-oblivious (Koanantakool et al.) 1.5D SpGEMM in the
// probability-generation step. The aware variant ships only the A-rows that
// nonzero columns of Q actually touch.
#include "bench_util.hpp"
#include "core/minibatch.hpp"
#include "dist/sampler_factory.hpp"

using namespace dms;
using namespace dms::bench;

int main() {
  print_header("Ablation: sparsity-aware vs oblivious 1.5D SpGEMM (papers-sim, SAGE)");
  const Dataset& ds = dataset("papers");
  const auto batches = make_epoch_batches(ds.train_idx, arch().sage_batch, 1);
  std::vector<index_t> ids(batches.size());
  for (std::size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<index_t>(i);

  print_row({"p", "c", "variant", "prob-time(s)", "comm(s)", "row-bytes(MB)"}, 14);
  for (const auto& [p, c] : std::vector<std::pair<int, int>>{{16, 2}, {32, 2}, {64, 4}}) {
    for (const bool aware : {true, false}) {
      Cluster cluster(ProcessGrid(p, c), CostModel(perlmutter_links()));
      SamplerContext ctx;
      ctx.config = SamplerConfig{arch().sage_fanout, 1};
      ctx.grid = &cluster.grid();
      ctx.part_opts.sparsity_aware = aware;
      const auto sampler =
          make_sampler(SamplerKind::kGraphSage, DistMode::kPartitioned, ds.graph, ctx);
      sampler->sample_bulk(cluster, batches, ids, 7);
      const auto& comm = cluster.comm_stats().at(kPhaseProbability);
      print_row({std::to_string(p), std::to_string(c), aware ? "aware" : "oblivious",
                 fmt(cluster.phase_time(kPhaseProbability)), fmt(comm.seconds),
                 fmt(static_cast<double>(comm.bytes) / 1e6, 1)},
                14);
    }
  }
  std::printf("\nExpected: the aware variant ships a fraction of the oblivious row\n"
              "bytes whenever Q is sparse relative to the A panels it touches.\n");
  return 0;
}
