// Micro-benchmarks of the dense GEMM kernels behind the propagation step
// (§6.2) — the first bench whose headline number is measured wall-clock.
//
// Two modes:
//  - default: the Google Benchmark suite below (BM_*);
//  - --compare [--smoke] [--json=PATH]: a self-contained harness that times
//    the blocked matmul / matmul_tn / matmul_nt kernels against the scalar
//    reference implementations they replaced, cross-checks bit-identity
//    (nonzero exit on any mismatch), and enforces the perf gate: the blocked
//    matmul and matmul_nt must beat their references on every gated case
//    (the square sizes d >= 128 and the SAGE shapes; nonzero exit otherwise
//    — the Release CI smoke job gates on this). With --json
//    the measurements are written in the BENCH_micro.json trajectory
//    conventions of bench_util.hpp (appending, so micro_spgemm can share
//    the file).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "nn/gemm.hpp"

namespace {

using namespace dms;

/// Random matrix in [-0.5, 0.5); zero_frac of entries forced to exactly
/// 0.0f (the ReLU-sparse activation pattern the reference kernels skip).
DenseF random_dense(index_t rows, index_t cols, std::uint64_t seed,
                    double zero_frac = 0.0) {
  DenseF m(rows, cols);
  Pcg32 rng(seed);
  float* d = m.data();
  for (std::size_t i = 0; i < m.size(); ++i) {
    d[i] = static_cast<float>(rng.uniform() - 0.5);
    if (zero_frac > 0.0 && rng.uniform() < zero_frac) d[i] = 0.0f;
  }
  return m;
}

void BM_Matmul(benchmark::State& state) {
  const auto d = static_cast<index_t>(state.range(0));
  const DenseF a = random_dense(d, d, 11, 0.3);
  const DenseF b = random_dense(d, d, 13);
  for (auto _ : state) {
    benchmark::DoNotOptimize(matmul(a, b));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(matmul_flops(d, d, d)));
}
BENCHMARK(BM_Matmul)->Arg(64)->Arg(128)->Arg(256)->Arg(512)->Unit(benchmark::kMillisecond);

void BM_MatmulTn(benchmark::State& state) {
  const auto d = static_cast<index_t>(state.range(0));
  const DenseF a = random_dense(d, d, 17, 0.3);
  const DenseF b = random_dense(d, d, 19);
  for (auto _ : state) {
    benchmark::DoNotOptimize(matmul_tn(a, b));
  }
}
BENCHMARK(BM_MatmulTn)->Arg(128)->Arg(256)->Unit(benchmark::kMillisecond);

void BM_MatmulNt(benchmark::State& state) {
  const auto d = static_cast<index_t>(state.range(0));
  const DenseF a = random_dense(d, d, 23, 0.3);
  const DenseF b = random_dense(d, d, 29);
  for (auto _ : state) {
    benchmark::DoNotOptimize(matmul_nt(a, b));
  }
}
BENCHMARK(BM_MatmulNt)->Arg(128)->Arg(256)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// --compare mode
// ---------------------------------------------------------------------------

/// Minimum of `reps` timed runs of fn(), in milliseconds.
template <typename Fn>
double time_min_ms(int reps, Fn&& fn) {
  double best = 1e300;
  for (int i = 0; i < reps; ++i) {
    Timer t;
    fn();
    best = std::min(best, t.seconds() * 1e3);
  }
  return best;
}

struct CompareCase {
  std::string name;
  index_t m, k, n;
  bool gated;        ///< blocked nn/nt must beat the reference (the CI gate)
  double a_zero_frac;  ///< exact-zero fraction of A (ReLU-sparse activations)
};

int run_compare(bool smoke, const std::string& json_path) {
  const int reps = smoke ? 3 : 7;
  bool identical = true;
  bool gate_ok = true;

  // Square dense sizes carry the gate (the d >= 128 acceptance shapes, pure
  // GEMM throughput). The extra cases are the training pipeline's real
  // shapes — forward (batch×features × features×hidden), SAGE backward's
  // input gradient at hidden 256 (dz 96×256 times W(128×256)ᵀ, layer 1 of
  // the LADIES workload; gated), the narrow classifier layer whose n < one
  // vector tile exercises the scalar-remainder path, and a ReLU-sparse A
  // (30% exact zeros) where the reference's zero-skip shrinks its work; the
  // last two are reported, not gated.
  std::vector<CompareCase> cases;
  for (const index_t d : smoke ? std::vector<index_t>{64, 128}
                               : std::vector<index_t>{64, 128, 256, 512}) {
    cases.push_back({"d" + std::to_string(d), d, d, d, d >= 128, 0.0});
  }
  if (!smoke) {
    cases.push_back({"sage_fwd_2048x128x128", 2048, 128, 128, true, 0.0});
    cases.push_back({"sage_bwd_96x256x128", 96, 256, 128, true, 0.0});
    cases.push_back({"classifier_2048x128x16", 2048, 128, 16, false, 0.3});
    cases.push_back({"relu30_d256", 256, 256, 256, false, 0.3});
  }

  // Truncating writer: micro_gemm (re)creates the trajectory file, then
  // micro_spgemm --kernel-compare appends its rows. Regenerating the
  // checked-in BENCH_micro.json means running the two in that order;
  // starting fresh here is what keeps re-runs from accumulating duplicate
  // rows in the baseline.
  bench::JsonWriter json(json_path.empty() ? "/dev/null" : json_path);
  if (!json_path.empty() && !json.ok()) {
    std::fprintf(stderr, "FAIL: cannot open JSON output path %s\n",
                 json_path.c_str());
    return 1;
  }
  const std::string bench_id = "micro_gemm.compare";

  bench::print_header(std::string("Dense GEMM kernel comparison (tile kernel: ") +
                      matmul_kernel_name() + (smoke ? ", smoke)" : ")"));
  const int w = 26;
  bench::print_row({"case", "kernel", "time_ms", "Gflop/s", "speedup"}, w);

  auto report = [&](const std::string& cs, const std::string& kernel, double ms,
                    double flops, double speedup) {
    bench::print_row({cs, kernel, bench::fmt(ms), bench::fmt(flops / ms / 1e6, 2),
                      bench::fmt(speedup, 2)},
                     w);
    json.row({{"bench", bench_id},
              {"case", cs},
              {"kernel", kernel},
              {"tile", matmul_kernel_name()},
              {"time_ms", ms},
              {"flops_per_sec", flops / (ms / 1e3)},
              {"speedup_vs_baseline", speedup}});
  };

  struct Op {
    const char* name;
    DenseF (*blocked)(const DenseF&, const DenseF&);
    DenseF (*reference)(const DenseF&, const DenseF&);
  };
  const Op ops[] = {
      {"matmul", matmul, matmul_reference},
      {"matmul_tn", matmul_tn, matmul_tn_reference},
      {"matmul_nt", matmul_nt, matmul_nt_reference},
  };

  for (const CompareCase& c : cases) {
    for (const Op& op : ops) {
      // Operand shapes per op: matmul A (m×k); tn contracts over rows, so A
      // is (k×m); nt contracts over columns of both, so B is (n×k).
      const bool tn = std::string(op.name) == "matmul_tn";
      const bool nt = std::string(op.name) == "matmul_nt";
      const DenseF a = random_dense(tn ? c.k : c.m, tn ? c.m : c.k,
                                    101 + c.m + c.n, c.a_zero_frac);
      const DenseF b =
          random_dense(nt ? c.n : c.k, nt ? c.k : c.n, 103 + c.k + c.n);
      const DenseF ref = op.reference(a, b);
      const DenseF out = op.blocked(a, b);
      if (!(out == ref)) {
        std::fprintf(stderr, "FAIL: %s/%s blocked kernel differs from reference\n",
                     op.name, c.name.c_str());
        identical = false;
      }
      const double ref_ms =
          time_min_ms(reps, [&] { benchmark::DoNotOptimize(op.reference(a, b)); });
      const double blk_ms =
          time_min_ms(reps, [&] { benchmark::DoNotOptimize(op.blocked(a, b)); });
      const double flops = matmul_flops(c.m, c.k, c.n);
      const std::string cs = std::string(op.name) + "_" + c.name;
      report(cs, "naive", ref_ms, flops, 1.0);
      report(cs, "blocked", blk_ms, flops, ref_ms / blk_ms);
      // The gate rides matmul and matmul_nt (which packs Bᵀ and runs
      // matmul's tile kernel); tn is reported for the trajectory only.
      if (c.gated && !tn && blk_ms >= ref_ms) {
        std::fprintf(stderr,
                     "FAIL: blocked %s (%s) does not beat the naive "
                     "reference (%.3fms vs %.3fms)\n",
                     op.name, c.name.c_str(), blk_ms, ref_ms);
        gate_ok = false;
      }
    }
  }

  if (!json_path.empty()) std::printf("\nJSON appended to %s\n", json_path.c_str());
  std::printf("\nbit-identity: %s; perf gate (matmul + matmul_nt, gated "
              "cases): %s\n",
              identical ? "all identical" : "MISMATCH",
              gate_ok ? "pass" : "FAIL");
  return identical && gate_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool compare = false;
  bool smoke = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--compare") {
      compare = true;
    } else if (arg == "--smoke") {
      smoke = true;
    } else if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(7);
    }
  }
  if (compare) return run_compare(smoke, json_path);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
