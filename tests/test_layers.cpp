// Unit tests for the weight/pooling/dropout layers, including numerical
// gradient checks of every Backward implementation and a reference
// implementation cross-check for the convolution.
#include <memory>

#include <gtest/gtest.h>

#include "snn/conv2d.hpp"
#include "snn/dense.hpp"
#include "snn/dropout.hpp"
#include "snn/pool.hpp"
#include "test_util.hpp"

namespace axsnn::snn {
namespace {

using axsnn::testing::CheckGradient;
using axsnn::testing::ProbeLoss;

/// Naive reference convolution for cross-checking the optimized kernel.
Tensor ReferenceConv(const Tensor& x, const Tensor& w, const Tensor& b,
                     long pad) {
  const long n = x.dim(0), c_in = x.dim(1), h = x.dim(2), ww = x.dim(3);
  const long c_out = w.dim(0), k = w.dim(2);
  const long ho = h + 2 * pad - k + 1, wo = ww + 2 * pad - k + 1;
  Tensor out({n, c_out, ho, wo});
  for (long s = 0; s < n; ++s)
    for (long co = 0; co < c_out; ++co)
      for (long oy = 0; oy < ho; ++oy)
        for (long ox = 0; ox < wo; ++ox) {
          float acc = b(co);
          for (long ci = 0; ci < c_in; ++ci)
            for (long ky = 0; ky < k; ++ky)
              for (long kx = 0; kx < k; ++kx) {
                const long iy = oy + ky - pad, ix = ox + kx - pad;
                if (iy < 0 || iy >= h || ix < 0 || ix >= ww) continue;
                acc += x(s, ci, iy, ix) * w(co, ci, ky, kx);
              }
          out(s, co, oy, ox) = acc;
        }
  return out;
}

TEST(Conv2d, MatchesReferenceImplementation) {
  Rng rng(3);
  Conv2d conv("c", 3, 5, 3, 1, rng);
  Tensor x = Tensor::Uniform({4, 3, 6, 6}, -1.0f, 1.0f, rng);
  Tensor got = conv.Forward(x, false);
  Tensor want = ReferenceConv(x, conv.weight(), conv.bias(), 1);
  EXPECT_EQ(got.shape(), want.shape());
  EXPECT_TRUE(got.AllClose(want, 1e-4f));
}

TEST(Conv2d, NoPaddingShrinksOutput) {
  Rng rng(4);
  Conv2d conv("c", 1, 2, 3, 0, rng);
  Tensor x = Tensor::Uniform({2, 1, 5, 5}, 0.0f, 1.0f, rng);
  Tensor y = conv.Forward(x, false);
  EXPECT_EQ(y.shape(), (Shape{2, 2, 3, 3}));
  Tensor want = ReferenceConv(x, conv.weight(), conv.bias(), 0);
  EXPECT_TRUE(y.AllClose(want, 1e-4f));
}

TEST(Conv2d, TimeMajorFiveDimInput) {
  Rng rng(5);
  Conv2d conv("c", 2, 4, 3, 1, rng);
  Tensor x = Tensor::Uniform({3, 2, 2, 4, 4}, 0.0f, 1.0f, rng);  // [T,B,C,H,W]
  Tensor y = conv.Forward(x, false);
  EXPECT_EQ(y.shape(), (Shape{3, 2, 4, 4, 4}));
  // Equivalent to flattening T*B.
  Tensor x2 = x.Reshaped({6, 2, 4, 4});
  Conv2d conv2("c2", 2, 4, 3, 1, rng);
  conv2.weight() = conv.weight();
  conv2.bias() = conv.bias();
  Tensor y2 = conv2.Forward(x2, false);
  EXPECT_TRUE(y.Reshaped({6, 4, 4, 4}).AllClose(y2, 1e-5f));
}

TEST(Conv2d, InputGradientNumerical) {
  Rng rng(6);
  Conv2d conv("c", 2, 3, 3, 1, rng);
  Tensor x = Tensor::Uniform({2, 2, 4, 4}, -1.0f, 1.0f, rng);
  Tensor probe = Tensor::Normal({2, 3, 4, 4}, 0.0f, 1.0f, rng);
  conv.Forward(x, true);
  Tensor grad_in = conv.Backward(probe);
  auto loss = [&] { return ProbeLoss(conv.Forward(x, true), probe); };
  CheckGradient(x, grad_in, loss, 1e-3f, 2e-2f);
}

TEST(Conv2d, WeightGradientNumerical) {
  Rng rng(7);
  Conv2d conv("c", 2, 3, 3, 1, rng);
  Tensor x = Tensor::Uniform({2, 2, 4, 4}, -1.0f, 1.0f, rng);
  Tensor probe = Tensor::Normal({2, 3, 4, 4}, 0.0f, 1.0f, rng);
  conv.Forward(x, true);
  conv.ZeroGrad();
  conv.Backward(probe);
  Tensor analytic = *conv.Grads()[0];
  auto loss = [&] { return ProbeLoss(conv.Forward(x, true), probe); };
  CheckGradient(conv.weight(), analytic, loss, 1e-3f, 2e-2f);
}

TEST(Conv2d, BiasGradientIsGradSum) {
  Rng rng(8);
  Conv2d conv("c", 1, 2, 3, 1, rng);
  Tensor x = Tensor::Uniform({2, 1, 4, 4}, 0.0f, 1.0f, rng);
  Tensor probe = Tensor::Ones({2, 2, 4, 4});
  conv.Forward(x, true);
  conv.ZeroGrad();
  conv.Backward(probe);
  const Tensor& dbias = *conv.Grads()[1];
  EXPECT_NEAR(dbias(0), 32.0f, 1e-3f);  // 2 samples * 16 positions
  EXPECT_NEAR(dbias(1), 32.0f, 1e-3f);
}

TEST(Conv2d, GradAccumulatesAcrossBackwards) {
  Rng rng(9);
  Conv2d conv("c", 1, 1, 3, 1, rng);
  Tensor x = Tensor::Ones({1, 1, 4, 4});
  Tensor probe = Tensor::Ones({1, 1, 4, 4});
  conv.Forward(x, true);
  conv.Backward(probe);
  Tensor once = *conv.Grads()[0];
  conv.Forward(x, true);
  conv.Backward(probe);
  Tensor twice = *conv.Grads()[0];
  Tensor doubled = once;
  doubled.Scale(2.0f);
  EXPECT_TRUE(twice.AllClose(doubled, 1e-4f));
  conv.ZeroGrad();
  EXPECT_FLOAT_EQ(conv.Grads()[0]->Sum(), 0.0f);
}

TEST(Conv2d, PrunedWeightsProduceNoOutput) {
  Rng rng(10);
  Conv2d conv("c", 1, 1, 3, 1, rng);
  conv.weight().Zero();
  conv.bias().Zero();
  Tensor x = Tensor::Uniform({1, 1, 4, 4}, 0.0f, 1.0f, rng);
  Tensor y = conv.Forward(x, false);
  EXPECT_FLOAT_EQ(y.Sum(), 0.0f);
}

TEST(Conv2d, RejectsBadConstruction) {
  Rng rng(11);
  EXPECT_THROW(Conv2d("c", 0, 1, 3, 1, rng), std::invalid_argument);
  EXPECT_THROW(Conv2d("c", 1, 1, 3, 3, rng), std::invalid_argument);
  Conv2d conv("c", 2, 1, 3, 1, rng);
  Tensor wrong_channels({1, 3, 4, 4});
  EXPECT_THROW(conv.Forward(wrong_channels, false), std::invalid_argument);
  EXPECT_THROW(conv.Backward(Tensor({1, 1, 4, 4})), std::invalid_argument);
}

TEST(Conv2d, InferenceForwardSkipsInputCache) {
  // Inference passes (train == false, grad_cache off) must not copy the
  // input into the Backward cache — Backward after such a pass throws, and
  // enabling grad_cache restores the attack-style backprop-through-eval.
  Rng rng(30);
  Conv2d conv("c", 1, 2, 3, 1, rng);
  Tensor x = Tensor::Uniform({1, 1, 4, 4}, 0.0f, 1.0f, rng);
  Tensor out;
  conv.ForwardInto(x, out, false);
  Tensor grad = Tensor::Ones(out.shape());
  EXPECT_THROW(conv.Backward(grad), std::invalid_argument);

  conv.set_grad_cache(true);
  conv.ForwardInto(x, out, false);
  EXPECT_EQ(conv.Backward(grad).shape(), x.shape());

  conv.set_grad_cache(false);
  conv.ForwardInto(x, out, true);  // training passes always cache
  EXPECT_EQ(conv.Backward(grad).shape(), x.shape());

  // An uncached pass after a cached one must invalidate, not keep, the
  // stale cache: Backward would otherwise silently differentiate the
  // earlier input.
  conv.ForwardInto(x, out, false);
  EXPECT_THROW(conv.Backward(grad), std::invalid_argument);
}

TEST(Dense, ForwardMatchesManualMatmul) {
  Rng rng(12);
  Dense fc("fc", 3, 2, rng);
  Tensor x({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor y = fc.Forward(x, false);
  for (long s = 0; s < 2; ++s)
    for (long o = 0; o < 2; ++o) {
      float want = fc.bias()(o);
      for (long i = 0; i < 3; ++i) want += fc.weight()(o, i) * x(s, i);
      EXPECT_NEAR(y(s, o), want, 1e-5f);
    }
}

TEST(Dense, FlattensTrailingFeatureDims) {
  Rng rng(13);
  Dense fc("fc", 8, 4, rng);
  Tensor x = Tensor::Uniform({3, 2, 2, 2, 2}, 0.0f, 1.0f, rng);  // [T,B,C,H,W]
  Tensor y = fc.Forward(x, false);
  EXPECT_EQ(y.shape(), (Shape{3, 2, 4}));
}

TEST(Dense, InputAndWeightGradientsNumerical) {
  Rng rng(14);
  Dense fc("fc", 4, 3, rng);
  Tensor x = Tensor::Uniform({3, 4}, -1.0f, 1.0f, rng);
  Tensor probe = Tensor::Normal({3, 3}, 0.0f, 1.0f, rng);
  fc.Forward(x, true);
  fc.ZeroGrad();
  Tensor grad_in = fc.Backward(probe);
  auto loss = [&] { return ProbeLoss(fc.Forward(x, true), probe); };
  CheckGradient(x, grad_in, loss, 1e-3f, 1e-2f);
  Tensor analytic_w = *fc.Grads()[0];
  CheckGradient(fc.weight(), analytic_w, loss, 1e-3f, 1e-2f);
}

TEST(Dense, InferenceForwardSkipsInputCache) {
  Rng rng(31);
  Dense fc("fc", 4, 2, rng);
  Tensor x = Tensor::Uniform({3, 4}, 0.0f, 1.0f, rng);
  Tensor out;
  fc.ForwardInto(x, out, false);
  Tensor grad = Tensor::Ones(out.shape());
  EXPECT_THROW(fc.Backward(grad), std::invalid_argument);

  fc.set_grad_cache(true);
  fc.ForwardInto(x, out, false);
  EXPECT_EQ(fc.Backward(grad).shape(), x.shape());
}

TEST(Dense, RejectsIndivisibleInput) {
  Rng rng(15);
  Dense fc("fc", 5, 2, rng);
  EXPECT_THROW(fc.Forward(Tensor({2, 4}), false), std::invalid_argument);
}

TEST(WeightLayer, SharedParamsAndFans) {
  Rng rng(16);
  Conv2d conv("c", 2, 3, 3, 1, rng);
  Dense fc("fc", 5, 4, rng);
  for (WeightLayer* layer : {static_cast<WeightLayer*>(&conv),
                             static_cast<WeightLayer*>(&fc)}) {
    // Params() order (weight, bias) is what the state-dict keys ".0"/".1"
    // name, so stored checkpoints depend on it.
    ASSERT_EQ(layer->Params().size(), 2u);
    EXPECT_EQ(layer->Params()[0], &layer->weight());
    EXPECT_EQ(layer->Params()[1], &layer->bias());
    EXPECT_EQ(layer->Grads()[0]->shape(), layer->weight().shape());
    EXPECT_EQ(layer->bias().shape(), (Shape{layer->weight().dim(0)}));
  }
  EXPECT_EQ(conv.fan_in(), 2 * 3 * 3);
  EXPECT_EQ(conv.fan_out(), 3 * 3 * 3);
  EXPECT_EQ(fc.fan_in(), 5);
  EXPECT_EQ(fc.fan_out(), 4);
}

TEST(WeightLayer, CloneKeepsWeightsDropsInputCache) {
  Rng rng(17);
  Dense fc("fc", 4, 2, rng);
  Tensor x = Tensor::Uniform({3, 4}, 0.0f, 1.0f, rng);
  fc.Forward(x, true);  // caches x for Backward
  std::unique_ptr<Layer> copy = fc.Clone();
  EXPECT_TRUE(copy->Params()[0]->AllClose(fc.weight(), 0.0f));
  EXPECT_THROW(copy->Backward(Tensor::Ones({3, 2})), std::invalid_argument);
  EXPECT_EQ(fc.Backward(Tensor::Ones({3, 2})).shape(), x.shape());
}

TEST(WeightLayer, SilentStepsWriteBiasPlanesAndCountSkips) {
  Rng rng(18);
  Conv2d conv("c", 2, 3, 3, 1, rng);
  Dense fc("fc", 32, 4, rng);
  for (WeightLayer* layer : {static_cast<WeightLayer*>(&conv),
                             static_cast<WeightLayer*>(&fc)}) {
    SCOPED_TRACE(layer->Name());
    layer->bias() = Tensor::Uniform(layer->bias().shape(), -1.0f, 1.0f, rng);
    // 2 samples of 32 zeros: [B, C, H, W] for the conv, [B, F] for dense.
    Tensor silent(layer == &conv ? Shape{2, 2, 4, 4} : Shape{2, 32});
    Tensor live = silent;
    live[3] = 1.0f;
    // Every kernel mode maps an all-zero input to the pure bias planes.
    const Tensor want = layer->Forward(silent, false);

    SpikePlanes lane;
    lane.Configure(2, 32);
    long calls = 0;
    long skipped = 0;
    StepContext ctx;
    ctx.kernel_calls = &calls;
    ctx.kernel_calls_skipped = &skipped;
    Tensor out;
    layer->BeginStepped(3, 2);
    lane.ZeroFill();
    ctx.in = lane.View();
    layer->ForwardStep(silent, out, ctx);
    EXPECT_EQ(out.numel(), want.numel());
    for (long i = 0; i < want.numel(); ++i) ASSERT_EQ(out[i], want[i]) << i;
    // A live step runs the kernel into the same buffer; the next silent
    // step must write the bias planes again.
    lane.PackFrom(live.data());
    ctx.in = lane.View();
    layer->ForwardStep(live, out, ctx);
    lane.ZeroFill();
    ctx.in = lane.View();
    layer->ForwardStep(silent, out, ctx);
    for (long i = 0; i < want.numel(); ++i) ASSERT_EQ(out[i], want[i]) << i;
    EXPECT_EQ(calls, 1);
    EXPECT_EQ(skipped, 2);
  }
}

TEST(AvgPool2d, AveragesWindows) {
  AvgPool2d pool("p", 2);
  Tensor x({1, 1, 2, 2}, {1, 2, 3, 4});
  Tensor y = pool.Forward(x, false);
  EXPECT_EQ(y.shape(), (Shape{1, 1, 1, 1}));
  EXPECT_FLOAT_EQ(y[0], 2.5f);
}

TEST(AvgPool2d, BackwardDistributesEvenly) {
  AvgPool2d pool("p", 2);
  Tensor x = Tensor::Ones({1, 1, 4, 4});
  pool.Forward(x, false);
  Tensor g({1, 1, 2, 2}, {4, 8, 12, 16});
  Tensor gi = pool.Backward(g);
  EXPECT_FLOAT_EQ(gi(0, 0, 0, 0), 1.0f);
  EXPECT_FLOAT_EQ(gi(0, 0, 0, 2), 2.0f);
  EXPECT_FLOAT_EQ(gi(0, 0, 2, 0), 3.0f);
  EXPECT_FLOAT_EQ(gi(0, 0, 3, 3), 4.0f);
}

TEST(AvgPool2d, RejectsIndivisibleSpatialDims) {
  AvgPool2d pool("p", 2);
  EXPECT_THROW(pool.Forward(Tensor({1, 1, 5, 4}), false),
               std::invalid_argument);
}

TEST(MaxPool2d, SelectsMaximumAndRoutesGradient) {
  MaxPool2d pool("p", 2);
  Tensor x({1, 1, 2, 2}, {1, 7, 3, 4});
  Tensor y = pool.Forward(x, false);
  EXPECT_FLOAT_EQ(y[0], 7.0f);
  Tensor g({1, 1, 1, 1}, {5.0f});
  Tensor gi = pool.Backward(g);
  EXPECT_FLOAT_EQ(gi(0, 0, 0, 1), 5.0f);
  EXPECT_FLOAT_EQ(gi(0, 0, 0, 0), 0.0f);
  EXPECT_FLOAT_EQ(gi(0, 0, 1, 0), 0.0f);
}

TEST(Dropout, InferenceIsIdentity) {
  Dropout drop("d", 0.5f, 1);
  Rng rng(16);
  Tensor x = Tensor::Uniform({2, 3, 4}, 0.0f, 1.0f, rng);
  Tensor y = drop.Forward(x, /*train=*/false);
  EXPECT_TRUE(y.AllClose(x, 0.0f));
}

TEST(Dropout, TrainingDropsAndRescales) {
  Dropout drop("d", 0.5f, 2);
  Tensor x = Tensor::Ones({1, 64, 16});
  Tensor y = drop.Forward(x, /*train=*/true);
  long zeros = 0, doubled = 0;
  for (long i = 0; i < y.numel(); ++i) {
    if (y[i] == 0.0f) ++zeros;
    else if (std::abs(y[i] - 2.0f) < 1e-6f) ++doubled;
    else FAIL() << "unexpected dropout output " << y[i];
  }
  EXPECT_GT(zeros, 0);
  EXPECT_GT(doubled, 0);
  EXPECT_NEAR(static_cast<double>(zeros) / y.numel(), 0.5, 0.1);
}

TEST(Dropout, MaskSharedAcrossTime) {
  Dropout drop("d", 0.5f, 3);
  Tensor x = Tensor::Ones({4, 8, 8});
  Tensor y = drop.Forward(x, true);
  const long slice = 64;
  for (long t = 1; t < 4; ++t)
    for (long i = 0; i < slice; ++i)
      EXPECT_EQ(y[t * slice + i], y[i]) << "mask differs at t=" << t;
}

TEST(Dropout, BackwardAppliesSameMask) {
  Dropout drop("d", 0.3f, 4);
  Tensor x = Tensor::Ones({2, 4, 4});
  Tensor y = drop.Forward(x, true);
  Tensor g = Tensor::Ones({2, 4, 4});
  Tensor gi = drop.Backward(g);
  EXPECT_TRUE(gi.AllClose(y, 1e-6f));  // identical scaling pattern
}

TEST(Dropout, ZeroRateIsNoOp) {
  Dropout drop("d", 0.0f, 5);
  Tensor x = Tensor::Ones({2, 2, 2});
  EXPECT_TRUE(drop.Forward(x, true).AllClose(x, 0.0f));
  EXPECT_THROW(Dropout("d", 1.0f, 5), std::invalid_argument);
}

// --- Parameterized pooling property sweep ---------------------------------

class PoolWindowTest : public ::testing::TestWithParam<long> {};

TEST_P(PoolWindowTest, AvgPreservesMeanMaxBoundsOutput) {
  const long window = GetParam();
  Rng rng(17);
  Tensor x = Tensor::Uniform({2, 3, 2 * window * 2, window * 4}, 0.0f, 1.0f,
                             rng);
  AvgPool2d avg("a", window);
  Tensor ya = avg.Forward(x, false);
  EXPECT_NEAR(ya.Mean(), x.Mean(), 1e-4f);  // averaging preserves the mean
  MaxPool2d mx("m", window);
  Tensor ym = mx.Forward(x, false);
  EXPECT_GE(ym.Min(), x.Min());
  EXPECT_LE(ym.Max(), x.Max());
  EXPECT_GE(ym.Mean(), ya.Mean());  // max dominates average per window
}

INSTANTIATE_TEST_SUITE_P(Windows, PoolWindowTest, ::testing::Values(1L, 2L, 4L));

}  // namespace
}  // namespace axsnn::snn
