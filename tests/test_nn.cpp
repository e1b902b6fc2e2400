// NN substrate: GEMM kernels, loss, SAGE layer + model gradient checks
// against finite differences, optimizer convergence.
#include <gtest/gtest.h>

#include <cmath>

#include "core/sampler.hpp"
#include "graph/generators.hpp"
#include "nn/gemm.hpp"
#include "nn/loss.hpp"
#include "nn/model.hpp"
#include "nn/optimizer.hpp"
#include "plan/builders.hpp"
#include "test_util.hpp"

namespace dms {
namespace {

DenseF random_densef(index_t rows, index_t cols, std::uint64_t seed) {
  DenseF d(rows, cols);
  Pcg32 rng(seed, 0xf);
  for (index_t i = 0; i < rows; ++i) {
    for (index_t j = 0; j < cols; ++j) {
      d(i, j) = static_cast<float>(rng.uniform() - 0.5);
    }
  }
  return d;
}

TEST(Gemm, MatmulMatchesManual) {
  DenseF a(2, 3), b(3, 2);
  float av[] = {1, 2, 3, 4, 5, 6};
  float bv[] = {7, 8, 9, 10, 11, 12};
  std::copy(av, av + 6, a.data());
  std::copy(bv, bv + 6, b.data());
  const DenseF c = matmul(a, b);
  EXPECT_FLOAT_EQ(c(0, 0), 58);
  EXPECT_FLOAT_EQ(c(0, 1), 64);
  EXPECT_FLOAT_EQ(c(1, 0), 139);
  EXPECT_FLOAT_EQ(c(1, 1), 154);
}

TEST(Gemm, TransposedVariantsAgree) {
  const DenseF a = random_densef(7, 5, 1);
  const DenseF b = random_densef(7, 4, 2);
  // Aᵀ·B via matmul_tn vs explicit transpose.
  DenseF at(5, 7);
  for (index_t i = 0; i < 7; ++i) {
    for (index_t j = 0; j < 5; ++j) at(j, i) = a(i, j);
  }
  EXPECT_LT(DenseF::max_abs_diff(matmul_tn(a, b), matmul(at, b)), 1e-5);

  const DenseF x = random_densef(6, 5, 3);
  const DenseF y = random_densef(8, 5, 4);
  DenseF yt(5, 8);
  for (index_t i = 0; i < 8; ++i) {
    for (index_t j = 0; j < 5; ++j) yt(j, i) = y(i, j);
  }
  // matmul_nt packs yᵀ and runs matmul's kernel: the same bits exactly.
  EXPECT_TRUE(matmul_nt(x, y) == matmul(x, yt));
}

TEST(Gemm, ReluAndBackward) {
  DenseF a(1, 4);
  a(0, 0) = -1;
  a(0, 1) = 2;
  a(0, 2) = 0;
  a(0, 3) = 5;
  DenseF y = a;
  relu_inplace(y);
  EXPECT_FLOAT_EQ(y(0, 0), 0);
  EXPECT_FLOAT_EQ(y(0, 1), 2);
  DenseF dy(1, 4, 1.0f);
  relu_backward_inplace(dy, y);
  EXPECT_FLOAT_EQ(dy(0, 0), 0);
  EXPECT_FLOAT_EQ(dy(0, 1), 1);
  EXPECT_FLOAT_EQ(dy(0, 2), 0);
  EXPECT_FLOAT_EQ(dy(0, 3), 1);
}

TEST(Loss, PerfectPredictionHasLowLoss) {
  DenseF logits(2, 3);
  logits(0, 1) = 20.0f;
  logits(1, 2) = 20.0f;
  const LossResult r = softmax_cross_entropy(logits, {1, 2});
  EXPECT_LT(r.loss, 1e-4);
  EXPECT_EQ(r.correct, 2);
}

TEST(Loss, UniformLogitsGiveLogC) {
  const DenseF logits(4, 8);
  const LossResult r = softmax_cross_entropy(logits, {0, 1, 2, 3});
  EXPECT_NEAR(r.loss, std::log(8.0), 1e-6);
}

TEST(Loss, GradientRowsSumToZero) {
  const DenseF logits = random_densef(5, 6, 7);
  const LossResult r = softmax_cross_entropy(logits, {0, 1, 2, 3, 4});
  for (index_t i = 0; i < 5; ++i) {
    float s = 0;
    for (index_t j = 0; j < 6; ++j) s += r.dlogits(i, j);
    EXPECT_NEAR(s, 0.0f, 1e-6);
  }
}

TEST(Loss, LabelOutOfRangeThrows) {
  const DenseF logits(1, 3);
  EXPECT_THROW(softmax_cross_entropy(logits, {3}), DmsError);
}

/// Finite-difference gradient check of the full model loss w.r.t. every
/// parameter of the first layer (float precision → loose tolerance).
TEST(ModelGradcheck, MatchesFiniteDifferences) {
  const Graph g = generate_erdos_renyi(40, 6.0, 51);
  MatrixSampler sampler(g, build_sage_plan(), {{3, 2}, 1});
  const MinibatchSample sample = sampler.sample_one({1, 2, 3, 4}, 0, 1);

  ModelConfig mc;
  mc.in_dim = 5;
  mc.hidden = 4;
  mc.num_classes = 3;
  mc.num_layers = 2;
  mc.seed = 3;
  SageModel model(mc);
  const DenseF h = random_densef(
      static_cast<index_t>(sample.input_vertices().size()), 5, 13);
  const std::vector<int> labels = {0, 1, 2, 0};

  model.zero_grads();
  const LossResult base = model.train_step(sample, h, labels);
  (void)base;

  auto loss_at = [&]() {
    std::vector<SageLayerCache> caches;
    const DenseF logits = model.forward(sample, h, &caches);
    return softmax_cross_entropy(logits, labels).loss;
  };

  const float eps = 1e-3f;
  auto params = model.params();
  int checked = 0;
  for (std::size_t pi = 0; pi < params.size() && checked < 40; ++pi) {
    DenseF& w = *params[pi].param;
    const DenseF& grad = *params[pi].grad;
    for (std::size_t i = 0; i < std::min<std::size_t>(w.size(), 5); ++i, ++checked) {
      const float orig = w.data()[i];
      w.data()[i] = orig + eps;
      const double lp = loss_at();
      w.data()[i] = orig - eps;
      const double lm = loss_at();
      w.data()[i] = orig;
      const double numeric = (lp - lm) / (2.0 * eps);
      const double analytic = grad.data()[i];
      EXPECT_NEAR(analytic, numeric, 5e-3 + 0.05 * std::abs(numeric))
          << "param " << pi << " element " << i;
    }
  }
  // 6 tensors, ≤5 elements each (biases are shorter): 27 comparisons.
  EXPECT_GE(checked, 25);
}

// SageModel::backward does not form layer 0's input gradient; skipping
// dh_in must leave every parameter gradient bit-identical. The reference
// requests dh_in at every layer of a 3-layer model; the model's own
// train_step skips it at the first layer, and a backward that stops at the
// middle layer skips it there.
TEST(SageLayer, SkippingInputGradientLeavesParameterGradientsIdentical) {
  const Graph g = generate_erdos_renyi(64, 8.0, 54);
  MatrixSampler sampler(g, build_sage_plan(), {{4, 3, 2}, 1});
  const MinibatchSample sample = sampler.sample_one({5, 6, 7, 8}, 0, 3);
  ModelConfig mc;
  mc.in_dim = 6;
  mc.hidden = 8;
  mc.num_classes = 4;
  mc.num_layers = 3;
  SageModel model(mc);
  const DenseF h = random_densef(
      static_cast<index_t>(sample.input_vertices().size()), 6, 15);
  const std::vector<int> labels = {0, 1, 2, 3};
  auto& layers = model.layers();
  auto grads_of = [&](std::size_t m) {
    return std::vector<DenseF>{layers[m].grad_w_self(), layers[m].grad_w_neigh(),
                               layers[m].grad_bias()};
  };

  std::vector<SageLayerCache> caches;
  const LossResult res =
      softmax_cross_entropy(model.forward(sample, h, &caches), labels);
  model.zero_grads();
  DenseF d = res.dlogits;
  for (std::size_t m = layers.size(); m-- > 0;) {
    d = layers[m].backward(d, caches[m], /*need_dh_in=*/true);
  }
  EXPECT_EQ(d.rows(), static_cast<index_t>(sample.input_vertices().size()));
  std::vector<std::vector<DenseF>> reference;
  for (std::size_t m = 0; m < layers.size(); ++m) reference.push_back(grads_of(m));

  model.zero_grads();
  model.train_step(sample, h, labels);  // skips dh_in at layer 0
  for (std::size_t m = 0; m < layers.size(); ++m) {
    const auto got = grads_of(m);
    for (std::size_t p = 0; p < got.size(); ++p) {
      EXPECT_TRUE(got[p] == reference[m][p]) << "layer " << m << " param " << p;
    }
  }

  model.zero_grads();
  d = res.dlogits;
  d = layers[2].backward(d, caches[2], /*need_dh_in=*/true);
  d = layers[1].backward(d, caches[1], /*need_dh_in=*/false);
  EXPECT_EQ(d.size(), 0u);
  for (const std::size_t m : {std::size_t{1}, std::size_t{2}}) {
    const auto got = grads_of(m);
    for (std::size_t p = 0; p < got.size(); ++p) {
      EXPECT_TRUE(got[p] == reference[m][p]) << "layer " << m << " param " << p;
    }
  }
}

TEST(Optimizer, SgdDescendsQuadratic) {
  // Minimize f(w) = ||w - 3||² with gradient 2(w-3).
  DenseF w(1, 4, 0.0f), g(1, 4);
  Sgd opt(0.1f);
  for (int it = 0; it < 200; ++it) {
    for (index_t j = 0; j < 4; ++j) g(0, j) = 2.0f * (w(0, j) - 3.0f);
    opt.step({{&w, &g}});
  }
  for (index_t j = 0; j < 4; ++j) EXPECT_NEAR(w(0, j), 3.0f, 1e-3);
}

TEST(Optimizer, AdamDescendsQuadratic) {
  DenseF w(1, 4, 0.0f), g(1, 4);
  Adam opt(0.05f);
  for (int it = 0; it < 500; ++it) {
    for (index_t j = 0; j < 4; ++j) g(0, j) = 2.0f * (w(0, j) - 3.0f);
    opt.step({{&w, &g}});
  }
  for (index_t j = 0; j < 4; ++j) EXPECT_NEAR(w(0, j), 3.0f, 1e-2);
}

TEST(SageModel, ForwardShapesAndDeterminism) {
  const Graph g = generate_erdos_renyi(64, 8.0, 52);
  MatrixSampler sampler(g, build_sage_plan(), {{4, 3, 2}, 1});
  const MinibatchSample sample = sampler.sample_one({5, 6, 7}, 0, 2);
  ModelConfig mc;
  mc.in_dim = 6;
  mc.hidden = 8;
  mc.num_classes = 4;
  mc.num_layers = 3;
  SageModel model(mc);
  const DenseF h = random_densef(
      static_cast<index_t>(sample.input_vertices().size()), 6, 14);
  const DenseF l1 = model.forward(sample, h, nullptr);
  const DenseF l2 = model.forward(sample, h, nullptr);
  EXPECT_EQ(l1.rows(), 3);
  EXPECT_EQ(l1.cols(), 4);
  EXPECT_TRUE(l1 == l2);
}

TEST(SageModel, DepthMismatchThrows) {
  const Graph g = generate_erdos_renyi(32, 5.0, 53);
  MatrixSampler sampler(g, build_sage_plan(), {{2}, 1});
  const MinibatchSample sample = sampler.sample_one({1}, 0, 1);
  ModelConfig mc;
  mc.num_layers = 2;
  mc.in_dim = 4;
  SageModel model(mc);
  const DenseF h(static_cast<index_t>(sample.input_vertices().size()), 4);
  EXPECT_THROW(model.forward(sample, h, nullptr), DmsError);
}

TEST(SageModel, GradScalingAndAccumulation) {
  ModelConfig mc;
  mc.in_dim = 3;
  mc.hidden = 3;
  mc.num_classes = 2;
  mc.num_layers = 1;
  SageModel a(mc), b(mc);
  a.layers()[0].grad_bias()(0, 0) = 2.0f;
  b.layers()[0].grad_bias()(0, 0) = 4.0f;
  a.accumulate_grads_from(b);
  EXPECT_FLOAT_EQ(a.layers()[0].grad_bias()(0, 0), 6.0f);
  a.scale_grads(0.5f);
  EXPECT_FLOAT_EQ(a.layers()[0].grad_bias()(0, 0), 3.0f);
}

TEST(SageModel, ParamBytesCoversAllLayers) {
  ModelConfig mc;
  mc.in_dim = 10;
  mc.hidden = 8;
  mc.num_classes = 4;
  mc.num_layers = 2;
  SageModel model(mc);
  // Layer 0: 2×(10×8) + 8; layer 1: 2×(8×4) + 4 floats.
  const std::size_t expect = (2 * 80 + 8 + 2 * 32 + 4) * sizeof(float);
  EXPECT_EQ(model.param_bytes(), expect);
}

}  // namespace
}  // namespace dms
