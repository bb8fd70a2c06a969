// Tests for the Network container, encoders, loss/readout and trainer.
#include <gtest/gtest.h>

#include "snn/conv2d.hpp"
#include "snn/dense.hpp"
#include "snn/encoding.hpp"
#include "snn/inference.hpp"
#include "snn/lif_layer.hpp"
#include "snn/loss.hpp"
#include "snn/models.hpp"
#include "snn/network.hpp"
#include "snn/pool.hpp"
#include "snn/trainer.hpp"
#include "test_util.hpp"

namespace axsnn::snn {
namespace {

Network TinyNet(std::uint64_t seed = 1) {
  Rng rng(seed);
  LifParams lif;
  lif.v_threshold = 0.5f;
  Network net;
  net.Emplace<Dense>("fc1", 4, 8, rng);
  net.Emplace<LifLayer>("lif1", lif);
  net.Emplace<Dense>("fc2", 8, 3, rng);
  return net;
}

TEST(Network, ForwardBackwardShapes) {
  Network net = TinyNet();
  net.SetGradCache(true);  // Backward through a train=false pass
  Rng rng(2);
  Tensor x = Tensor::Uniform({5, 2, 4}, 0.0f, 1.0f, rng);
  Tensor y = net.Forward(x, false);
  EXPECT_EQ(y.shape(), (Shape{5, 2, 3}));
  Tensor g = Tensor::Ones({5, 2, 3});
  Tensor gi = net.Backward(g);
  EXPECT_EQ(gi.shape(), x.shape());
}

/// Seeds every Grads() tensor with nonzero values; returns copies.
std::vector<Tensor> SeedGrads(Network& net, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Tensor> seeds;
  for (Tensor* g : net.Grads()) {
    *g = Tensor::Normal(g->shape(), 0.0f, 1.0f, rng);
    seeds.push_back(*g);
  }
  return seeds;
}

std::vector<Tensor> CopyGrads(Network& net) {
  std::vector<Tensor> out;
  for (Tensor* g : net.Grads()) out.push_back(*g);
  return out;
}

TEST(Network, BackwardComputesWhatItsRequestAsks) {
  DvsNetOptions dvs;
  dvs.height = 16;
  dvs.width = 16;
  struct Case {
    const char* name;
    Network net;
    Shape input;  // [T, B, C, H, W]
  };
  Case cases[] = {{"static", BuildStaticNet({}), {3, 4, 1, 16, 16}},
                  {"dvs", BuildDvsNet(dvs), {3, 4, 2, 16, 16}}};
  for (Case& c : cases) {
    SCOPED_TRACE(c.name);
    Rng rng(11);
    const Tensor x = Tensor::Uniform(c.input, 0.0f, 1.0f, rng);
    // A training forward: the DVS net's dropout draws its mask here.
    const Tensor& seq = c.net.ForwardShared(x, /*train=*/true);
    const Tensor g = Tensor::Normal(seq.shape(), 0.0f, 1.0f, rng);

    const std::vector<Tensor> seeds = SeedGrads(c.net, 5);
    const Tensor dx_both = c.net.Backward(g, GradRequest::kBoth);
    const std::vector<Tensor> grads_both = CopyGrads(c.net);
    ASSERT_EQ(dx_both.shape(), x.shape());

    // Input only: every Grads() tensor keeps its seed, dX is the same.
    SeedGrads(c.net, 5);
    EXPECT_TRUE(axsnn::testing::SameBytes(
        c.net.Backward(g, GradRequest::kInput), dx_both));
    const std::vector<Tensor> grads_input = CopyGrads(c.net);
    for (std::size_t i = 0; i < seeds.size(); ++i)
      EXPECT_TRUE(axsnn::testing::SameBytes(grads_input[i], seeds[i]))
          << "grad " << i << " moved under kInput";

    // Parameters only: the same parameter gradients, no input gradient.
    SeedGrads(c.net, 5);
    EXPECT_TRUE(c.net.Backward(g, GradRequest::kParams).empty());
    const std::vector<Tensor> grads_params = CopyGrads(c.net);
    for (std::size_t i = 0; i < seeds.size(); ++i)
      EXPECT_TRUE(axsnn::testing::SameBytes(grads_params[i], grads_both[i]))
          << "grad " << i << " differs under kParams";
  }
}

TEST(Network, EmptyNetworkThrows) {
  Network net;
  EXPECT_THROW(net.Forward(Tensor({1, 1}), false), std::invalid_argument);
  EXPECT_THROW(net.Backward(Tensor({1, 1})), std::invalid_argument);
  EXPECT_THROW(net.Add(nullptr), std::invalid_argument);
}

TEST(Network, ParamsAndGradsAligned) {
  Network net = TinyNet();
  auto params = net.Params();
  auto grads = net.Grads();
  ASSERT_EQ(params.size(), grads.size());
  ASSERT_EQ(params.size(), 4u);  // two dense layers x (weight, bias)
  for (std::size_t i = 0; i < params.size(); ++i)
    EXPECT_EQ(params[i]->shape(), grads[i]->shape());
  EXPECT_EQ(net.ParameterCount(), 4 * 8 + 8 + 8 * 3 + 3);
}

TEST(Network, CloneSharesNothing) {
  Network net = TinyNet();
  Network copy = net.Clone();
  copy.Params()[0]->Fill(0.0f);
  EXPECT_NE(net.Params()[0]->Sum(), 0.0f);
  // Same topology.
  EXPECT_EQ(copy.size(), net.size());
  EXPECT_EQ(copy.ParameterCount(), net.ParameterCount());
}

TEST(Network, CloneProducesIdenticalOutputs) {
  Network net = TinyNet(7);
  Network copy = net.Clone();
  Rng rng(3);
  Tensor x = Tensor::Uniform({4, 2, 4}, 0.0f, 1.0f, rng);
  EXPECT_TRUE(net.Forward(x, false).AllClose(copy.Forward(x, false), 0.0f));
}

TEST(Network, StateDictRoundTrip) {
  Network net = TinyNet(11);
  auto state = net.StateDict();
  EXPECT_EQ(state.size(), 4u);
  Network other = TinyNet(99);  // different init
  other.LoadStateDict(state);
  Rng rng(4);
  Tensor x = Tensor::Uniform({3, 1, 4}, 0.0f, 1.0f, rng);
  EXPECT_TRUE(net.Forward(x, false).AllClose(other.Forward(x, false), 0.0f));
}

TEST(Network, LoadStateDictRejectsMissingKey) {
  Network net = TinyNet();
  std::map<std::string, Tensor> empty;
  EXPECT_THROW(net.LoadStateDict(empty), std::invalid_argument);
}

TEST(Network, SetLifParamsAppliesEverywhere) {
  StaticNetOptions opts;
  Network net = BuildStaticNet(opts);
  LifParams p;
  p.v_threshold = 1.75f;
  net.SetLifParams(p);
  for (const LifLayer* lif : net.LifLayers())
    EXPECT_FLOAT_EQ(lif->params().v_threshold, 1.75f);
  EXPECT_EQ(net.LifLayers().size(), 4u);
}

TEST(Models, StaticNetTopology) {
  StaticNetOptions opts;
  Network net = BuildStaticNet(opts);
  EXPECT_EQ(net.size(), 11u);  // 3 conv + 4 lif + 2 pool + 2 fc
  Rng rng(5);
  Tensor x = Tensor::Uniform({2, 3, 1, 16, 16}, 0.0f, 1.0f, rng);
  Tensor y = net.Forward(x, false);
  EXPECT_EQ(y.shape(), (Shape{2, 3, 10}));
  EXPECT_THROW(BuildStaticNet({.height = 15}), std::invalid_argument);
}

TEST(Models, DvsNetTopology) {
  DvsNetOptions opts;
  Network net = BuildDvsNet(opts);
  EXPECT_EQ(net.size(), 11u);  // 2 conv + 3 lif + 3 pool + dropout + 2 fc
  Rng rng(6);
  Tensor x = Tensor::Uniform({2, 2, 2, 32, 32}, 0.0f, 1.0f, rng);
  Tensor y = net.Forward(x, false);
  EXPECT_EQ(y.shape(), (Shape{2, 2, 11}));
}

TEST(Encoding, RateMatchesIntensityInExpectation) {
  Rng rng(7);
  Tensor images({1, 1, 2, 2}, {0.0f, 0.25f, 0.75f, 1.0f});
  const long T = 4000;
  Tensor spikes = EncodeRate(images, T, rng);
  EXPECT_EQ(spikes.shape(), (Shape{T, 1, 1, 2, 2}));
  double sums[4] = {0, 0, 0, 0};
  for (long t = 0; t < T; ++t)
    for (long i = 0; i < 4; ++i) sums[i] += spikes[t * 4 + i];
  EXPECT_EQ(sums[0], 0.0);
  EXPECT_NEAR(sums[1] / T, 0.25, 0.03);
  EXPECT_NEAR(sums[2] / T, 0.75, 0.03);
  EXPECT_EQ(sums[3], static_cast<double>(T));
}

TEST(Encoding, DirectReplicates) {
  Tensor images({2, 1, 1, 2}, {0.1f, 0.9f, 0.4f, 0.6f});
  Tensor direct = EncodeDirect(images, 3);
  for (long t = 0; t < 3; ++t)
    for (long i = 0; i < 4; ++i)
      EXPECT_EQ(direct[t * 4 + i], images[i]);
}

TEST(Encoding, CollapseTimeGradientSums) {
  Tensor g({2, 1, 3}, {1, 2, 3, 10, 20, 30});
  Tensor c = CollapseTimeGradient(g);
  EXPECT_EQ(c.shape(), (Shape{1, 3}));
  EXPECT_TRUE(c.AllClose(Tensor({1, 3}, {11, 22, 33})));
}

TEST(Encoding, TimeMajorTransposes) {
  Tensor btx({2, 3, 2}, {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11});
  Tensor tbx = TimeMajor(btx);
  EXPECT_EQ(tbx.shape(), (Shape{3, 2, 2}));
  // sample 1, time 2 of [B,T,F] = values {10, 11} -> position [2][1] in [T,B,F]
  EXPECT_FLOAT_EQ(tbx(2, 1, 0), 10.0f);
  EXPECT_FLOAT_EQ(tbx(2, 1, 1), 11.0f);
}

TEST(Loss, ReadoutMeanAveragesOverTime) {
  Tensor seq({2, 1, 2}, {1, 3, 3, 5});
  Tensor logits = ReadoutMean(seq);
  EXPECT_TRUE(logits.AllClose(Tensor({1, 2}, {2, 4})));
  Tensor back = ReadoutMeanBackward(Tensor({1, 2}, {2, 4}), 2);
  EXPECT_TRUE(back.AllClose(Tensor({2, 1, 2}, {1, 2, 1, 2})));
}

TEST(Loss, SoftmaxCrossEntropyKnownValues) {
  Tensor logits({1, 2}, {0.0f, 0.0f});
  const int labels[] = {0};
  LossResult r = SoftmaxCrossEntropy(logits, labels);
  EXPECT_NEAR(r.loss, std::log(2.0f), 1e-5f);
  EXPECT_NEAR(r.grad_logits(0, 0), -0.5f, 1e-5f);
  EXPECT_NEAR(r.grad_logits(0, 1), 0.5f, 1e-5f);
  EXPECT_EQ(r.correct, 1);  // argmax tie -> first index wins
}

TEST(Loss, GradientSumsToZeroPerRow) {
  Rng rng(8);
  Tensor logits = Tensor::Normal({5, 7}, 0.0f, 2.0f, rng);
  std::vector<int> labels = {0, 3, 6, 2, 1};
  LossResult r = SoftmaxCrossEntropy(logits, labels);
  for (long i = 0; i < 5; ++i) {
    double row = 0.0;
    for (long k = 0; k < 7; ++k) row += r.grad_logits(i, k);
    EXPECT_NEAR(row, 0.0, 1e-5);
  }
}

TEST(Loss, RejectsBadLabels) {
  Tensor logits({1, 3});
  const int bad[] = {3};
  EXPECT_THROW(SoftmaxCrossEntropy(logits, bad), std::invalid_argument);
  const int neg[] = {-1};
  EXPECT_THROW(SoftmaxCrossEntropy(logits, neg), std::invalid_argument);
}

TEST(Loss, NumericallyStableForLargeLogits) {
  Tensor logits({1, 2}, {1000.0f, -1000.0f});
  const int labels[] = {0};
  LossResult r = SoftmaxCrossEntropy(logits, labels);
  EXPECT_TRUE(std::isfinite(r.loss));
  EXPECT_NEAR(r.loss, 0.0f, 1e-4f);
}

TEST(Trainer, AdamReducesQuadraticLoss) {
  // Minimize ||w||^2 via gradients 2w.
  Tensor w({4}, {1.0f, -2.0f, 3.0f, -4.0f});
  TrainConfig cfg;
  cfg.learning_rate = 0.1f;
  AdamOptimizer opt({&w}, cfg);
  for (int i = 0; i < 200; ++i) {
    Tensor g = w;
    g.Scale(2.0f);
    opt.Step({&g});
  }
  EXPECT_LT(w.MeanAbs(), 0.05f);
}

TEST(Trainer, FitStaticLearnsToSeparateTwoClasses) {
  // Two trivially separable classes: bright top half vs bright bottom half.
  const long n = 64;
  Tensor images({n, 1, 4, 4});
  std::vector<int> labels(n);
  for (long i = 0; i < n; ++i) {
    labels[i] = static_cast<int>(i % 2);
    for (long y = 0; y < 4; ++y)
      for (long x = 0; x < 4; ++x)
        images(i, 0, y, x) =
            (labels[i] == 0) == (y < 2) ? 0.9f : 0.05f;
  }
  Rng rng(9);
  LifParams lif;
  lif.v_threshold = 0.5f;
  Network net;
  net.Emplace<Dense>("fc1", 16, 12, rng);
  net.Emplace<LifLayer>("lif1", lif);
  net.Emplace<Dense>("fc2", 12, 2, rng);

  TrainConfig cfg;
  cfg.epochs = 12;
  cfg.batch_size = 16;
  cfg.time_steps = 6;
  TrainResult result = FitStatic(net, images, labels, cfg);
  EXPECT_GT(result.final_accuracy, 0.95f);
  EXPECT_EQ(result.epochs.size(), 12u);
  // Loss decreased from the first epoch.
  EXPECT_LT(result.epochs.back().mean_loss, result.epochs.front().mean_loss);
}

TEST(Trainer, FitTemporalValidatesFrameCount) {
  Network net = TinyNet();
  Tensor frames({4, 6, 4});  // wrong rank
  std::vector<int> labels(4, 0);
  TrainConfig cfg;
  EXPECT_THROW(FitTemporal(net, frames, labels, cfg), std::invalid_argument);
}

TEST(Inference, PredictionsMatchAccuracy) {
  Network net = TinyNet(21);
  Rng rng(10);
  Tensor images = Tensor::Uniform({10, 1, 2, 2}, 0.0f, 1.0f, rng);
  // Tiny dense-only net expects 4 features; reshape path exercises Dense
  // flattening.
  std::vector<int> labels(10, 0);
  auto preds = PredictStatic(net, images, 4, Encoding::kRate, 77, 4);
  float acc = AccuracyStatic(net, images, labels, 4, Encoding::kRate, 77, 4);
  long correct = 0;
  for (int p : preds) correct += (p == 0) ? 1 : 0;
  EXPECT_FLOAT_EQ(acc, static_cast<float>(correct) / 10.0f);
}

TEST(Inference, DeterministicGivenSeed) {
  Network net = TinyNet(22);
  Rng rng(11);
  Tensor images = Tensor::Uniform({6, 1, 2, 2}, 0.0f, 1.0f, rng);
  auto a = PredictStatic(net, images, 8, Encoding::kRate, 5, 3);
  auto b = PredictStatic(net, images, 8, Encoding::kRate, 5, 3);
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace axsnn::snn
