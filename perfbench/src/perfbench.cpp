// Workload program of the repository benchmark (see perfbench/README.md).
//
// One process runs one workload: it generates the dataset from --seed,
// constructs the training pipeline and the serving engine, trains a fixed
// number of epochs, replays a few training steps through the component
// APIs, and then runs rounds -- open-loop request traces answered by the
// trained model, then one more epoch -- until --seconds have been measured.
// Every number is written raw (per-epoch rows, per-request latencies, spans)
// to the --out JSON file; perfbench/run.py turns them into metrics and
// applies the correctness gates.
//
// Only public library functions are called. Spans are recorded here, around
// those calls, never inside src/. With --trace 0 no span is recorded.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/workspace.hpp"
#include "core/minibatch.hpp"
#include "dist/sampler_factory.hpp"
#include "graph/dataset.hpp"
#include "nn/gemm.hpp"
#include "nn/loss.hpp"
#include "nn/model.hpp"
#include "nn/optimizer.hpp"
#include "serve/coalescer.hpp"
#include "serve/engine.hpp"
#include "train/feature_store.hpp"
#include "train/pipeline.hpp"

namespace {

using namespace dms;

// --- workloads ---------------------------------------------------------------

/// Everything a workload fixes. Rates are absolute request rates (req/s):
/// the arrival schedule never depends on a measured service time.
struct Workload {
  const char* name;
  const char* dataset;
  int feature_dim;
  double train_fraction;  ///< StandInConfig::train_fraction (epoch length)
  SamplerKind sampler;
  DistMode mode;
  std::vector<index_t> fanouts;
  index_t batch;
  index_t hidden;
  int p;
  int c;
  bool lru_cache;               ///< LRU feature cache of n/8 rows per rank
  int epochs_per_round;
  double nominal_rate;          ///< p50/p99 are read at this rate
  int nominal_per_round;        ///< traces at the nominal rate per round
  std::vector<double> ladder;   ///< goodput ladder, ascending; the top overloads
  int ladder_requests;          ///< requests of a trace at a ladder rate
  double limit_ms;              ///< p99 latency limit of the goodput rule
};

/// Geometric ladder lo · 2^(i/8), i = 0..7.
std::vector<double> ladder(double lo) {
  std::vector<double> r;
  for (int i = 0; i < 8; ++i) r.push_back(lo * std::pow(2.0, i / 8.0));
  return r;
}

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> w = {
      {"train-ladies-partitioned", "papers", 128, 0.03, SamplerKind::kLadies,
       DistMode::kPartitioned, {32, 32, 32}, 32, 256, 8, 2, /*lru_cache=*/false,
       /*epochs_per_round=*/1, /*nominal=*/60.0, /*per_round=*/2, ladder(330.0),
       /*ladder_requests=*/250, /*limit_ms=*/50.0},
      {"serve-sage-openloop", "products", 32, 0.10, SamplerKind::kGraphSage,
       DistMode::kReplicated, {8, 4}, 64, 32, 4, 1, /*lru_cache=*/true,
       /*epochs_per_round=*/2, /*nominal=*/300.0, /*per_round=*/3, ladder(1800.0),
       /*ladder_requests=*/1500, /*limit_ms=*/25.0},
  };
  return w;
}

/// Measurement rounds per run at least, whatever --seconds says. A round is
/// nominal_per_round traces at the nominal rate, one trace per ladder rate
/// and epochs_per_round epochs; rounds spread every metric's samples over
/// the whole run.
constexpr int kMinRounds = 3;
/// Requests of a trace at the nominal rate: p99 has ten beyond it.
constexpr int kNominalRequests = 1000;
/// The request pool holds this many nominal traces; traces take successive
/// slices of it, so trials see different requests.
constexpr int kPoolSlices = 8;
/// Epochs before the rounds; train_loss is read after the last of them.
constexpr int kFixedEpochs = 2;
/// Training steps of the component replay.
constexpr int kReplaySteps = 4;
/// Setups per run; setup_s is their median.
constexpr int kSetups = 3;
/// Coalescer of every serving trace: 0.5 ms window, 16-request cap.
constexpr double kWindow = 0.5e-3;
constexpr index_t kCap = 16;
/// Requests re-served alone on a fresh engine by the identity gate.
constexpr std::size_t kIdentityChecks = 16;

// --- clock and spans ---------------------------------------------------------

double now_s() {
  static const auto t0 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

/// CPU seconds of this process, all threads. Time the host takes the vCPU
/// away (steal) or the process waits preempted is not counted.
double cpu_s() {
  timespec t{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &t);
  return static_cast<double>(t.tv_sec) + 1e-9 * static_cast<double>(t.tv_nsec);
}

/// In-memory span log: name, start, end, parent index, step/request id.
/// Written out once at exit; disabled tracers record nothing.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    long parent = -1;
    long id = -1;
  };

  class Scope {
   public:
    Scope(Tracer& t, const char* name, long id) : t_(t) {
      if (!t_.on) return;
      index_ = static_cast<long>(t_.spans.size());
      const long parent = t_.stack.empty() ? -1 : t_.stack.back();
      t_.spans.push_back({name, now_s(), 0.0, parent, id});
      t_.stack.push_back(index_);
    }
    ~Scope() {
      if (index_ < 0) return;
      t_.spans[static_cast<std::size_t>(index_)].end = now_s();
      t_.stack.pop_back();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& t_;
    long index_ = -1;
  };

  bool on = false;
  std::vector<Span> spans;
  std::vector<long> stack;  ///< indices of the open spans
};

// --- JSON output -------------------------------------------------------------

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string str(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += ch;
  }
  return out + "\"";
}

std::string num_list(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += ',';
    out += num(v[i]);
  }
  return out + "]";
}

/// Minimal ordered JSON object writer.
class Obj {
 public:
  Obj& add(const std::string& key, const std::string& raw) {
    if (!body_.empty()) body_ += ',';
    body_ += str(key);
    body_ += ':';
    body_ += raw;
    return *this;
  }
  Obj& num(const std::string& key, double v) { return add(key, ::num(v)); }
  std::string done() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

// --- shared helpers ----------------------------------------------------------

/// Scaled-Perlmutter links with host compute standing in for an A100: the
/// link and compute ratios of the repo's figure benches.
CostModel cost_model() {
  constexpr double kVolumeScale = 64.0;
  LinkParams l;
  l.alpha = 5e-6;
  l.beta_intra = kVolumeScale / 100e9;
  l.beta_inter = kVolumeScale / 25e9;
  l.beta_pcie = kVolumeScale / 20e9;
  l.ranks_per_node = 4;
  l.compute_scale = 8.0;
  l.irregular_compute_scale = 2.0;
  l.launch_overhead = 30e-6;
  return CostModel(l);
}

PipelineConfig pipeline_config(const Workload& w, const Dataset& ds,
                               std::uint64_t seed) {
  PipelineConfig cfg;
  cfg.sampler = w.sampler;
  cfg.mode = w.mode;
  cfg.batch_size = w.batch;
  cfg.fanouts = w.fanouts;
  cfg.hidden = w.hidden;
  cfg.seed = derive_seed(seed, 3);
  cfg.overlap = true;
  if (w.lru_cache) {
    cfg.feature_cache.policy = CachePolicy::kLru;
    cfg.feature_cache.capacity_rows = ds.num_vertices() / 8;
  }
  return cfg;
}

ServeEngineConfig engine_config(const Workload& w, std::uint64_t seed) {
  ServeEngineConfig cfg;
  cfg.sampler = w.sampler;
  cfg.mode = DistMode::kReplicated;
  cfg.fanouts = w.fanouts;
  cfg.sampler_seed = derive_seed(seed, 4);
  cfg.serve_seed = derive_seed(seed, 5);
  return cfg;
}

bool bits_equal(const DenseF& a, const DenseF& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (index_t i = 0; i < a.rows(); ++i) {
    for (index_t j = 0; j < a.cols(); ++j) {
      if (a(i, j) != b(i, j)) return false;
    }
  }
  return true;
}

double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

// --- roofline probe ----------------------------------------------------------

/// Best-of-reps GEMM rate on an n×n square and a DenseF copy's bandwidth.
/// Bytes are computed from tensor sizes (read + write of the copied matrix).
std::string roofline(Tracer& tr) {
  Tracer::Scope span(tr, "common.roofline", -1);
  constexpr index_t n = 768;
  DenseF a(n, n), b(n, n);
  Pcg32 rng(1, 2);
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j < n; ++j) {
      a(i, j) = static_cast<float>(rng.uniform() - 0.5);
      b(i, j) = static_cast<float>(rng.uniform() - 0.5);
    }
  }
  double best_gemm = 1e30;
  for (int rep = 0; rep < 5; ++rep) {
    const double t0 = now_s();
    const DenseF c = matmul(a, b);
    best_gemm = std::min(best_gemm, now_s() - t0);
    if (!std::isfinite(c(0, 0))) throw std::runtime_error("roofline: non-finite GEMM");
  }
  const DenseF src(4096, 2048, 1.0f);
  DenseF dst(4096, 2048);  // allocated and touched before timing
  const double bytes = 2.0 * static_cast<double>(src.size()) * sizeof(float);
  double best_copy = 1e30;
  for (int rep = 0; rep < 5; ++rep) {
    const double t0 = now_s();
    dst = src;
    best_copy = std::min(best_copy, now_s() - t0);
    if (dst(4095, 2047) != 1.0f) throw std::runtime_error("roofline: bad copy");
  }
  const double flops = 2.0 * static_cast<double>(n) * n * n;
  return Obj()
      .num("gemm_n", static_cast<double>(n))
      .num("gemm_gflops", flops / best_gemm / 1e9)
      .num("stream_bytes", bytes)
      .num("stream_gbps", bytes / best_copy / 1e9)
      .done();
}

// --- training epochs ---------------------------------------------------------

std::string epoch_row(int epoch, double wall, const EpochStats& s,
                      const Cluster& cluster) {
  Obj ops;
  for (const auto& [label, sec] : s.sampler_ops) ops.num(label, sec);
  Obj comm;
  for (const auto& [phase, cs] : cluster.comm_stats()) {
    comm.add(phase, Obj()
                        .num("bytes", static_cast<double>(cs.bytes))
                        .num("msgs", static_cast<double>(cs.messages))
                        .num("sim_s", cs.seconds)
                        .done());
  }
  return Obj()
      .num("epoch", epoch)
      .num("wall_s", wall)
      .num("sim_s", s.total)
      .num("loss", s.loss)
      .num("sampling", s.sampling)
      .num("fetch", s.fetch)
      .num("propagation", s.propagation)
      .num("overlap_saved", s.overlap_saved)
      .num("stall", s.stall)
      .num("cache_hits", static_cast<double>(s.cache_hits))
      .num("cache_misses", static_cast<double>(s.cache_misses))
      .num("cache_local", static_cast<double>(s.cache_local))
      .num("fetch_bytes", static_cast<double>(s.fetch_bytes))
      .add("ops", ops.done())
      .add("comm", comm.done())
      .done();
}

// --- component replay --------------------------------------------------------

/// Replays kReplaySteps training steps through the component APIs the
/// pipeline is built from (sample_bulk, fetch_all, forward, backward,
/// Optimizer::step) on a fresh model, one minibatch per rank per step.
/// Spans bracket every call when the tracer is on; the arithmetic is the
/// same either way, so traced and untraced replays must agree bit for bit.
std::string replay(const Workload& w, const Dataset& ds, std::uint64_t seed,
                   Tracer& tr) {
  const ProcessGrid grid(w.p, w.c);
  Cluster cluster(grid, cost_model());
  SamplerContext ctx;
  ctx.config.fanouts = w.fanouts;
  ctx.config.seed = derive_seed(seed, 6);
  ctx.grid = &grid;
  ctx.cluster = &cluster;
  const auto sampler = make_sampler(w.sampler, w.mode, ds.graph, ctx);
  FeatureStore store(grid, ds.features);
  ModelConfig mc;
  mc.in_dim = ds.feature_dim();
  mc.hidden = w.hidden;
  mc.num_classes = ds.num_classes;
  mc.num_layers = static_cast<index_t>(w.fanouts.size());
  mc.seed = derive_seed(seed, 7);
  SageModel model(mc);
  Adam opt(1e-2f);
  const std::uint64_t epoch_seed = derive_seed(seed, 8);
  const auto batches = make_epoch_batches(ds.train_idx, w.batch, epoch_seed);

  double sample_s = 0, fetch_s = 0, fwd_s = 0, bwd_s = 0, opt_s = 0;
  double edges = 0, input_rows = 0, gflop = 0, loss_sum = 0, seen = 0;
  std::size_t fetch_bytes = 0;
  const double t_begin = now_s();
  for (int step = 0; step < kReplaySteps; ++step) {
    Tracer::Scope step_span(tr, "train.step", step);
    std::vector<std::vector<index_t>> chunk;
    std::vector<index_t> ids;
    for (int r = 0; r < w.p; ++r) {
      const auto b = static_cast<std::size_t>(step * w.p + r) % batches.size();
      chunk.push_back(batches[b]);
      ids.push_back(static_cast<index_t>(b));
    }
    double t0 = now_s();
    std::vector<MinibatchSample> samples;
    {
      Tracer::Scope s(tr, "plan.sample_bulk", step);
      samples = sampler->sample_bulk(chunk, ids, epoch_seed);
    }
    sample_s += now_s() - t0;
    std::vector<std::vector<index_t>> wanted;
    for (const MinibatchSample& s : samples) {
      wanted.push_back(s.input_vertices());
      input_rows += static_cast<double>(s.input_vertices().size());
      for (const LayerSample& l : s.layers) edges += static_cast<double>(l.adj.nnz());
    }
    const std::size_t moved_before = store.cache_stats().bytes_moved;
    t0 = now_s();
    std::vector<DenseF> gathered;
    {
      Tracer::Scope s(tr, "train.fetch", step);
      gathered = store.fetch_all(cluster, wanted);
    }
    fetch_s += now_s() - t0;
    fetch_bytes += store.cache_stats().bytes_moved - moved_before;
    for (std::size_t r = 0; r < samples.size(); ++r) {
      const MinibatchSample& s = samples[r];
      std::vector<int> labels;
      for (const index_t v : s.batch_vertices) {
        labels.push_back(ds.labels[static_cast<std::size_t>(v)]);
      }
      // GEMM flops of the forward pass (two products per layer), tripled
      // for forward + backward (weight and input gradients).
      for (std::size_t m = 0; m < s.layers.size(); ++m) {
        const LayerSample& l = s.layers[s.layers.size() - 1 - m];
        const double in = static_cast<double>(m == 0 ? mc.in_dim : mc.hidden);
        const double out =
            static_cast<double>(m + 1 == s.layers.size() ? mc.num_classes : mc.hidden);
        gflop += 3.0 * 2.0 * 2.0 * static_cast<double>(l.adj.rows()) * in * out / 1e9;
      }
      std::vector<SageLayerCache> caches;
      t0 = now_s();
      LossResult res;
      {
        Tracer::Scope f(tr, "nn.forward", step);
        const DenseF logits = model.forward(s, gathered[r], &caches);
        res = softmax_cross_entropy(logits, labels);
      }
      fwd_s += now_s() - t0;
      t0 = now_s();
      {
        Tracer::Scope b(tr, "nn.backward", step);
        model.backward(s, res.dlogits, caches);
      }
      bwd_s += now_s() - t0;
      loss_sum += res.loss * static_cast<double>(labels.size());
      seen += static_cast<double>(labels.size());
    }
    t0 = now_s();
    {
      Tracer::Scope o(tr, "nn.optimizer", step);
      model.scale_grads(1.0f / static_cast<float>(samples.size()));
      opt.step(model.params());
      model.zero_grads();
    }
    opt_s += now_s() - t0;
  }
  return Obj()
      .num("wall_s", now_s() - t_begin)
      .num("loss", loss_sum / std::max(1.0, seen))
      .num("sample_bulk_s", sample_s)
      .num("fetch_s", fetch_s)
      .num("forward_s", fwd_s)
      .num("backward_s", bwd_s)
      .num("optimizer_s", opt_s)
      .num("sampled_edges", edges)
      .num("input_rows", input_rows)
      .num("fetch_bytes", static_cast<double>(fetch_bytes))
      .num("gflop", gflop)
      .done();
}

// --- serving -----------------------------------------------------------------

/// Requests with 1-4 distinct train-split seeds and unit-rate Poisson
/// arrival offsets. A trace takes the next slice of this pool and divides
/// its offsets by the trace's rate.
std::vector<ServeRequest> make_requests(const Dataset& ds, int n, std::uint64_t seed) {
  std::vector<ServeRequest> reqs(static_cast<std::size_t>(n));
  Pcg32 rng(seed, 0x5e12e);
  double clock = 0.0;
  const auto train_n = static_cast<std::uint32_t>(ds.train_idx.size());
  for (int i = 0; i < n; ++i) {
    ServeRequest& r = reqs[static_cast<std::size_t>(i)];
    r.id = i;
    const std::size_t k = 1 + rng.bounded(4);
    while (r.seeds.size() < k) {
      const index_t v = ds.train_idx[rng.bounded(train_n)];
      if (std::find(r.seeds.begin(), r.seeds.end(), v) == r.seeds.end()) {
        r.seeds.push_back(v);
      }
    }
    r.arrival = clock;
    clock += -std::log(1.0 - rng.uniform());
  }
  return reqs;
}

struct TraceRun {
  std::string json;
  std::map<index_t, DenseF> coalesced;  ///< logits of requests served in batches > 1
};

/// Discrete-event single server over pool[first, first + n): the coalescer
/// closes batches on the arrival clock, the server is busy for each serve()
/// call's measured process CPU time, and a request's latency runs from its
/// due (arrival) time to its batch's completion. The generator is a
/// schedule, so it is never late. CPU time, not wall time, because on a
/// shared host the vCPU is taken away a few times a second for milliseconds,
/// and at 1% those stalls, not the program, decide the tail; the wall time
/// of the serve() calls is recorded beside it.
TraceRun run_trace(ServeEngine& engine, const std::vector<ServeRequest>& pool,
                   std::size_t first, std::size_t n, double rate, Tracer& tr,
                   bool keep_logits) {
  std::vector<ServeRequest> reqs(pool.begin() + static_cast<std::ptrdiff_t>(first),
                                 pool.begin() + static_cast<std::ptrdiff_t>(first + n));
  const double t_first = reqs.front().arrival;
  for (ServeRequest& r : reqs) r.arrival = (r.arrival - t_first) / rate;
  engine.reset_stats();
  CoalescerConfig cc;
  cc.window = kWindow;
  cc.max_requests = kCap;
  Coalescer coal(cc);
  for (const ServeRequest& r : reqs) coal.push(r);
  std::vector<double> latency_ms(n, -1.0);
  TraceRun out;
  double server_free = 0.0, busy = 0.0, wall_busy = 0.0;
  std::size_t failed = 0;
  while (!coal.empty()) {
    const double start = std::max(coal.ready_at(), server_free);
    CoalescedBatch batch = coal.pop(start);
    const double t0 = now_s();
    const double c0 = cpu_s();
    ServeBatchResult res;
    bool ok = true;
    {
      Tracer::Scope s(tr, "serve.batch", batch.requests.front().id);
      try {
        res = engine.serve(batch);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "serve failed: %s\n", e.what());
        ok = false;
      }
    }
    const double service = cpu_s() - c0;
    wall_busy += now_s() - t0;
    busy += service;
    server_free = start + service;
    for (std::size_t i = 0; i < batch.requests.size(); ++i) {
      const ServeRequest& r = batch.requests[i];
      if (!ok) {
        ++failed;
        continue;
      }
      latency_ms[static_cast<std::size_t>(r.id) - first] =
          (server_free - r.arrival) * 1e3;
      if (keep_logits && batch.size() > 1 && out.coalesced.size() < kIdentityChecks) {
        out.coalesced.emplace(r.id, std::move(res.logits[i]));
      }
    }
  }
  std::vector<double> lat;
  for (const double l : latency_ms) {
    if (l >= 0.0) lat.push_back(l);
  }
  const ServeStats& st = engine.stats();
  auto batch_median_ms = [&](double BatchRecord::*phase) {
    std::vector<double> v;
    for (const BatchRecord& b : st.batches()) v.push_back(b.*phase * 1e3);
    return percentile(v, 50.0);
  };
  out.json = Obj()
                 .num("rate", rate)
                 .num("attempted", static_cast<double>(reqs.size()))
                 .num("failed", static_cast<double>(failed))
                 .num("makespan_s", server_free)
                 .num("last_arrival_s", reqs.back().arrival)
                 .num("busy_s", busy)
                 .num("wall_busy_s", wall_busy)
                 .num("batches", static_cast<double>(st.num_batches()))
                 .num("batch_mean", st.mean_batch_size())
                 .num("queue_wait_p99_ms", st.queue_wait_percentile(99.0) * 1e3)
                 .num("sample_ms", batch_median_ms(&BatchRecord::sampling))
                 .num("gather_ms", batch_median_ms(&BatchRecord::fetch))
                 .num("infer_ms", batch_median_ms(&BatchRecord::inference))
                 .add("latency_ms", num_list(lat))
                 .done();
  return out;
}

// --- main --------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out;
};

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--out") a.out = v;
    else throw std::runtime_error("unknown argument " + k);
  }
  if (a.out.empty()) throw std::runtime_error("--out is required");
  return a;
}

const Workload& find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (name == w.name) return w;
  }
  throw std::runtime_error("unknown workload " + name);
}

/// One constructed instance of a workload's system, members in dependency
/// order (each borrows from the ones above it).
struct System {
  std::unique_ptr<Dataset> ds;
  std::unique_ptr<Cluster> cluster;
  std::unique_ptr<Pipeline> pipe;
  std::unique_ptr<FeatureStore> serve_store;
  std::unique_ptr<ServeEngine> engine;
};

std::string json_list(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ',';
    out += items[i];
  }
  return out + "]";
}

int run(const Args& args) {
  const Workload& w = find_workload(args.workload);
  Tracer tr;
  tr.on = args.trace;
  Obj out;
  const char* threads = std::getenv("DMS_THREADS");
  out.add("provenance", Obj()
                            .add("isa", str(matmul_kernel_name()))
                            .add("build_type", str(PERFBENCH_BUILD_TYPE))
                            .add("dms_threads", str(threads ? threads : ""))
                            .done());
  out.add("roofline", roofline(tr));

  // Setup, repeated: dataset generation, pipeline construction, serving
  // engine construction plus warmup/freeze. The last instance is kept.
  System sys;
  std::vector<ServeRequest> base;  // the request trace, drawn from the dataset
  std::vector<std::string> setups;
  for (int s = 0; s < kSetups; ++s) {
    // Dependents first: the engine and the pipeline borrow the dataset.
    sys.engine.reset();
    sys.serve_store.reset();
    sys.pipe.reset();
    sys.cluster.reset();
    sys.ds.reset();
    const double t0 = now_s();
    {
      Tracer::Scope span(tr, "graph.generate", s);
      StandInConfig dc;
      dc.feature_dim = w.feature_dim;
      dc.train_fraction = w.train_fraction;
      dc.seed = derive_seed(args.seed, 1);
      sys.ds = std::make_unique<Dataset>(make_standin_by_name(w.dataset, dc));
    }
    if (base.empty()) {
      base = make_requests(*sys.ds, kPoolSlices * kNominalRequests,
                           derive_seed(args.seed, 2));
    }
    const double t1 = now_s();
    {
      Tracer::Scope span(tr, "train.pipeline_ctor", s);
      sys.cluster = std::make_unique<Cluster>(ProcessGrid(w.p, w.c), cost_model());
      sys.pipe = std::make_unique<Pipeline>(*sys.cluster, *sys.ds,
                                            pipeline_config(w, *sys.ds, args.seed));
    }
    const double t2 = now_s();
    {
      Tracer::Scope span(tr, "serve.engine_ctor", s);
      sys.serve_store =
          std::make_unique<FeatureStore>(ProcessGrid(w.p, w.c), sys.ds->features);
      sys.engine = std::make_unique<ServeEngine>(sys.ds->graph, *sys.serve_store,
                                                 sys.pipe->model(),
                                                 engine_config(w, args.seed));
      std::vector<std::vector<index_t>> warm;
      for (std::size_t i = 0; i < static_cast<std::size_t>(kCap); ++i) {
        warm.push_back(base[i].seeds);
      }
      sys.engine->warmup(warm);
    }
    const double t3 = now_s();
    setups.push_back(Obj()
                         .num("generate_s", t1 - t0)
                         .num("pipeline_ctor_s", t2 - t1)
                         .num("serve_ctor_s", t3 - t2)
                         .num("total_s", t3 - t0)
                         .done());
  }
  out.add("setups", json_list(setups));
  const Dataset& ds = *sys.ds;
  out.num("train_rows", static_cast<double>(ds.train_idx.size()));
  out.num("batch", static_cast<double>(w.batch));
  out.num("limit_ms", w.limit_ms);

  // Measurement: the fixed epochs (train_loss is read after them), the
  // component replay, then rounds of serving and training until --seconds.
  const double t_measure = now_s();
  std::vector<std::string> epochs;
  auto train_epoch = [&](int e) {
    const double t0 = now_s();
    const EpochStats st = sys.pipe->run_epoch(e);
    epochs.push_back(epoch_row(e, now_s() - t0, st, *sys.cluster));
  };
  for (int e = 0; e < kFixedEpochs; ++e) train_epoch(e);

  // Component replay: untraced twice (the repeat gate); with tracing on, the
  // second replay is traced, and its wall time minus the first's is the
  // tracing overhead.
  Tracer off;
  const std::string replay_a = replay(w, ds, args.seed, off);
  const std::string replay_b = replay(w, ds, args.seed, tr);
  out.add("replays", json_list({replay_a, replay_b}));

  std::vector<std::string> nominal, ladder_runs;
  std::size_t checked = 0, mismatches = 0;
  std::size_t cursor = 0;  // next unused request of the pool, wrapping
  auto take = [&](int n) {
    const auto k = static_cast<std::size_t>(n);
    if (cursor + k > base.size()) cursor = 0;
    cursor += k;
    return cursor - k;
  };
  int e = kFixedEpochs;
  for (int round = 0;; ++round) {
    const double t_round = now_s();
    std::map<index_t, DenseF> coalesced;
    for (int k = 0; k < w.nominal_per_round; ++k) {
      const bool first_trace = round == 0 && k == 0;
      TraceRun run = run_trace(*sys.engine, base, take(kNominalRequests),
                               kNominalRequests, w.nominal_rate, tr, first_trace);
      if (first_trace) coalesced = std::move(run.coalesced);
      nominal.push_back(std::move(run.json));
    }
    for (const double rate : w.ladder) {
      ladder_runs.push_back(run_trace(*sys.engine, base, take(w.ladder_requests),
                                      w.ladder_requests, rate, tr, false)
                                .json);
    }
    if (round == 0) {
      // Identity gate, before the model trains on: each coalesced request
      // re-served alone on a fresh engine must give the same bits.
      ServeEngine fresh(ds.graph, *sys.serve_store, sys.pipe->model(),
                        engine_config(w, args.seed));
      for (const auto& [id, logits] : coalesced) {
        if (!bits_equal(fresh.serve_one(base[static_cast<std::size_t>(id)]), logits)) {
          ++mismatches;
        }
      }
      checked = coalesced.size();
      tr.on = false;  // spans cover one round: the same work in every run
    }
    for (int k = 0; k < w.epochs_per_round; ++k) train_epoch(e++);
    const double elapsed = now_s() - t_measure;
    if (round + 1 >= kMinRounds && elapsed + (now_s() - t_round) > args.seconds) break;
  }
  out.add("nominal", json_list(nominal));
  out.add("ladder", json_list(ladder_runs));
  out.num("arena_bytes", static_cast<double>(sys.engine->workspace()->bytes_held()));
  out.num("identity_checked", static_cast<double>(checked));
  out.num("identity_mismatches", static_cast<double>(mismatches));
  out.add("epochs", json_list(epochs));
  out.num("fixed_epochs", kFixedEpochs);
  out.num("measure_s", now_s() - t_measure);
  out.num("peak_rss_mb", peak_rss_mb());

  std::vector<std::string> spans;
  for (const Tracer::Span& s : tr.spans) {
    spans.push_back(json_list({str(s.name), num(s.start), num(s.end),
                               std::to_string(s.parent), std::to_string(s.id)}));
  }
  out.add("spans", json_list(spans));

  std::ofstream f(args.out);
  f << out.done() << "\n";
  if (!f) throw std::runtime_error("cannot write " + args.out);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
