// Differential kernel-equivalence suite for the sparsity-aware dispatch
// engine (src/kernels/): every kernel flavour (naive / sparse / simd) must
// produce the *same* result for the same inputs — bit-identical for fp32
// (identical per-element accumulation order and rounding, see
// kernels/*.hpp; the simd tiles at every ISA tier cap) and for int8 simd
// (integer accumulation is exact and the requantize rounds identically —
// kernels/simd_kernels.hpp), within one ULP for the other int8 flavours.
//
// The suite sweeps shapes (1x1 kernels, pad 0 and kernel-1, H=W=1, single
// channels, odd sizes), spike densities 0 / 1% / 50% / 100%, and pool sizes
// 1 and 4, then pins the end-to-end guarantee with a golden determinism
// test: a fig2-style mini sweep whose report is byte-identical across every
// kernel mode and pool size, so Algorithm-1 search results can never depend
// on the dispatch decision.
//
// Modes are forced through SetGlobalKernelMode (precedence rule 1), so the
// comparisons stay meaningful even when CI exports AXSNN_KERNEL_MODE.
#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "approx/approximation.hpp"
#include "approx/int8_backend.hpp"
#include "core/workbench.hpp"
#include "data/synthetic_mnist.hpp"
#include "eval/report.hpp"
#include "kernels/conv2d_kernels.hpp"
#include "kernels/cpu_features.hpp"
#include "kernels/dense_kernels.hpp"
#include "kernels/dispatch.hpp"
#include "kernels/spike_words.hpp"
#include "runtime/thread_pool.hpp"
#include "runtime/workspace.hpp"
#include "snn/dense.hpp"
#include "snn/models.hpp"
#include "tensor/quantized.hpp"
#include "tensor/random.hpp"
#include "tensor/tensor.hpp"
#include "test_util.hpp"

namespace axsnn {
namespace {

using kernels::KernelMode;
// Forces one kernel path globally for a scope (and shields the test from
// any AXSNN_KERNEL_MODE the environment exports).
using kernels::ScopedKernelMode;

/// Pool-size override for a scope; restores the default on exit.
class ScopedThreads {
 public:
  explicit ScopedThreads(int threads) { runtime::SetGlobalThreads(threads); }
  ~ScopedThreads() { runtime::SetGlobalThreads(0); }
};

/// Spike-like activation tensor: each element is nonzero with probability
/// `density`, drawn from [0.25, 1) so values are representative of rate
/// coding (and never denormal).
Tensor MakeSpikes(Shape shape, float density, Rng& rng) {
  Tensor gate = Tensor::Uniform(shape, 0.0f, 1.0f, rng);
  Tensor vals = Tensor::Uniform(shape, 0.25f, 1.0f, rng);
  Tensor x(std::move(shape));
  for (long i = 0; i < x.numel(); ++i)
    x[i] = gate[i] < density ? vals[i] : 0.0f;
  return x;
}

/// Weights with ~25% exact zeros, mimicking Eq.-(1) pruning.
Tensor MakePrunedWeights(Shape shape, Rng& rng) {
  Tensor gate = Tensor::Uniform(shape, 0.0f, 1.0f, rng);
  Tensor w = Tensor::Normal(std::move(shape), 0.0f, 0.5f, rng);
  for (long i = 0; i < w.numel(); ++i)
    if (gate[i] < 0.25f) w[i] = 0.0f;
  return w;
}

/// ULP distance between two floats (max() for sign mismatch / non-finite).
long UlpDistance(float a, float b) {
  if (a == b) return 0;
  if (!std::isfinite(a) || !std::isfinite(b)) return 1L << 30;
  const auto ia = std::bit_cast<std::int32_t>(a);
  const auto ib = std::bit_cast<std::int32_t>(b);
  if ((ia < 0) != (ib < 0)) return 1L << 30;
  return std::labs(static_cast<long>(ia) - static_cast<long>(ib));
}

void ExpectBitIdentical(const Tensor& got, const Tensor& want,
                        const char* what) {
  ASSERT_EQ(got.shape(), want.shape()) << what;
  for (long i = 0; i < got.numel(); ++i)
    ASSERT_EQ(got[i], want[i]) << what << " diverges at flat index " << i;
}

void ExpectWithinOneUlp(const Tensor& got, const Tensor& want,
                        const char* what) {
  ASSERT_EQ(got.shape(), want.shape()) << what;
  for (long i = 0; i < got.numel(); ++i)
    ASSERT_LE(UlpDistance(got[i], want[i]), 1)
        << what << " diverges at flat index " << i << ": " << got[i]
        << " vs " << want[i];
}

/// The ISA tier caps every simd sweep runs under: the vnni cap, the avx2
/// mask below it, and the forced-ISA-off scalar degrade (a cap above what
/// the machine and build support changes nothing).
const kernels::SimdTier kTierCaps[] = {kernels::SimdTier::kVnni,
                                       kernels::SimdTier::kAvx2,
                                       kernels::SimdTier::kScalar};

// --- conv2d differential sweep ----------------------------------------------

struct ConvCase {
  long n, c_in, c_out, h, w, k, pad;
};

const ConvCase kConvCases[] = {
    {2, 3, 4, 5, 7, 3, 1},  // odd spatial sizes, typical pad
    {1, 1, 2, 4, 4, 1, 0},  // 1x1 kernel, single input channel
    {2, 2, 3, 6, 5, 3, 0},  // pad 0
    {1, 2, 2, 5, 5, 3, 2},  // pad = kernel-1 (full padding)
    {3, 4, 3, 1, 1, 1, 0},  // H = W = 1
    {1, 1, 1, 3, 3, 3, 2},  // single in/out channel, pad = kernel-1
    {40, 2, 3, 6, 5, 3, 1},  // simd: 14 capped chunks of 3, last one short
};

const float kDensities[] = {0.0f, 0.01f, 0.5f, 1.0f};

Tensor RunConv(const ConvCase& c, const Tensor& w, const Tensor& b,
               const Tensor& x, KernelMode mode) {
  ScopedKernelMode force(mode);
  runtime::Workspace scratch;
  const long h_out = c.h + 2 * c.pad - c.k + 1;
  const long w_out = c.w + 2 * c.pad - c.k + 1;
  Tensor out({c.n, c.c_out, h_out, w_out});
  const kernels::Conv2dGeom geom{c.c_in, c.c_out, c.k, c.pad};
  kernels::Conv2dForward(w, b, x, out, geom, mode, scratch);
  return out;
}

TEST(KernelEquivalence, Conv2dFp32BitIdenticalAcrossModes) {
  Rng rng(40);
  for (int threads : {1, 4}) {
    ScopedThreads pool(threads);
    for (const ConvCase& c : kConvCases) {
      Tensor w = MakePrunedWeights({c.c_out, c.c_in, c.k, c.k}, rng);
      Tensor b = Tensor::Normal({c.c_out}, 0.0f, 0.1f, rng);
      for (float density : kDensities) {
        SCOPED_TRACE(::testing::Message()
                     << "threads=" << threads << " c_in=" << c.c_in
                     << " c_out=" << c.c_out << " h=" << c.h << " w=" << c.w
                     << " k=" << c.k << " pad=" << c.pad
                     << " density=" << density);
        Tensor x = MakeSpikes({c.n, c.c_in, c.h, c.w}, density, rng);
        Tensor naive = RunConv(c, w, b, x, KernelMode::kNaive);
        ExpectBitIdentical(RunConv(c, w, b, x, KernelMode::kSparse), naive,
                           "conv2d sparse");
        ExpectBitIdentical(RunConv(c, w, b, x, KernelMode::kAuto), naive,
                           "conv2d auto");
        for (kernels::SimdTier cap : kTierCaps) {
          kernels::ScopedSimdTier scoped(cap);
          ExpectBitIdentical(RunConv(c, w, b, x, KernelMode::kSimd), naive,
                             "conv2d simd");
        }
      }
    }
  }
}

Tensor RunConvInt8(const ConvCase& c, const QuantizedTensor& qw,
                   const Tensor& b, const Tensor& x, KernelMode mode) {
  ScopedKernelMode force(mode);
  runtime::Workspace scratch;
  std::vector<std::int32_t> qact;
  const float act_scale = approx::Int8QuantizeActivations(x, qact);
  const long h_out = c.h + 2 * c.pad - c.k + 1;
  const long w_out = c.w + 2 * c.pad - c.k + 1;
  Tensor out({c.n, c.c_out, h_out, w_out});
  const kernels::Conv2dGeom geom{c.c_in, c.c_out, c.k, c.pad};
  kernels::Int8Conv2dForward(qw, b, qact.data(), act_scale, c.n, c.h, c.w,
                             out, geom, mode, scratch);
  return out;
}

TEST(KernelEquivalence, Conv2dInt8WithinOneUlpAcrossModes) {
  Rng rng(41);
  for (int threads : {1, 4}) {
    ScopedThreads pool(threads);
    for (const ConvCase& c : kConvCases) {
      Tensor w = MakePrunedWeights({c.c_out, c.c_in, c.k, c.k}, rng);
      QuantizedTensor qw = QuantizedTensor::QuantizeRowwise(w);
      Tensor b = Tensor::Normal({c.c_out}, 0.0f, 0.1f, rng);
      for (float density : kDensities) {
        SCOPED_TRACE(::testing::Message()
                     << "threads=" << threads << " c_in=" << c.c_in
                     << " c_out=" << c.c_out << " h=" << c.h << " w=" << c.w
                     << " k=" << c.k << " pad=" << c.pad
                     << " density=" << density);
        Tensor x = MakeSpikes({c.n, c.c_in, c.h, c.w}, density, rng);
        Tensor naive = RunConvInt8(c, qw, b, x, KernelMode::kNaive);
        ExpectWithinOneUlp(RunConvInt8(c, qw, b, x, KernelMode::kSparse),
                           naive, "int8 conv2d sparse");
        ExpectWithinOneUlp(RunConvInt8(c, qw, b, x, KernelMode::kAuto),
                           naive, "int8 conv2d auto");
        // int8 simd is bit-exact at every tier (the stronger contract in
        // kernels/simd_kernels.hpp).
        for (kernels::SimdTier cap : kTierCaps) {
          kernels::ScopedSimdTier scoped(cap);
          ExpectBitIdentical(RunConvInt8(c, qw, b, x, KernelMode::kSimd),
                             naive, "int8 conv2d simd");
        }
      }
    }
  }
}

// --- conv2d Backward differential sweep --------------------------------------

/// kConvCases plus the shapes the Backward tiles special-case: c_in = 1 on
/// a 16x16 plane (static conv1), a 4x4 plane narrower than one vector
/// (static conv3), c_in >= 4 with c_out not a multiple of 8, and a row
/// length with a partial last vector.
std::vector<ConvCase> ConvBackwardCases() {
  std::vector<ConvCase> cases(std::begin(kConvCases), std::end(kConvCases));
  cases.push_back({6, 1, 8, 16, 16, 3, 1});
  cases.push_back({5, 16, 16, 4, 4, 3, 1});
  cases.push_back({3, 8, 12, 8, 8, 3, 1});
  cases.push_back({2, 5, 9, 7, 10, 3, 1});
  return cases;
}

/// Bit-pattern equality: distinguishes -0 from +0, unlike ==.
void ExpectSameBits(const Tensor& got, const Tensor& want, const char* what) {
  ASSERT_EQ(got.shape(), want.shape()) << what;
  for (long i = 0; i < got.numel(); ++i)
    ASSERT_EQ(std::bit_cast<std::uint32_t>(got[i]),
              std::bit_cast<std::uint32_t>(want[i]))
        << what << " diverges at flat index " << i << ": " << got[i]
        << " vs " << want[i];
}

struct ConvGrads {
  Tensor dx, dw, db;
};

/// Two Backward calls through the dispatchers: dW/db accumulate onto the
/// nonzero seeds, dx is overwritten (its stale contents must not leak).
ConvGrads RunConvBackward(const ConvCase& c, const Tensor& w, const Tensor& x,
                          const Tensor& g, const ConvGrads& seed,
                          KernelMode mode) {
  ScopedKernelMode force(mode);
  runtime::Workspace scratch;
  const kernels::Conv2dGeom geom{c.c_in, c.c_out, c.k, c.pad};
  ConvGrads out{Tensor(x.shape(), 7.0f), seed.dw, seed.db};
  for (int call = 0; call < 2; ++call) {
    kernels::Conv2dBackwardParams(x, g, out.dw, out.db, geom, mode, scratch);
    kernels::Conv2dBackwardInput(w, g, out.dx, geom, mode, scratch);
  }
  return out;
}

TEST(KernelEquivalence, Conv2dBackwardBitIdenticalAcrossModes) {
  Rng rng(47);
  for (int threads : {1, 4}) {
    ScopedThreads pool(threads);
    for (const ConvCase& c : ConvBackwardCases()) {
      const long h_out = c.h + 2 * c.pad - c.k + 1;
      const long w_out = c.w + 2 * c.pad - c.k + 1;
      Tensor w = MakePrunedWeights({c.c_out, c.c_in, c.k, c.k}, rng);
      const ConvGrads seed{Tensor(),
                           Tensor::Normal(w.shape(), 0.0f, 0.1f, rng),
                           Tensor::Normal({c.c_out}, 0.0f, 0.1f, rng)};
      for (float density : kDensities) {
        SCOPED_TRACE(::testing::Message()
                     << "threads=" << threads << " n=" << c.n
                     << " c_in=" << c.c_in << " c_out=" << c.c_out
                     << " h=" << c.h << " w=" << c.w << " k=" << c.k
                     << " pad=" << c.pad << " density=" << density);
        Tensor x = MakeSpikes({c.n, c.c_in, c.h, c.w}, density, rng);
        // The surrogate makes the output gradient dense; a few exact zeros
        // still reach it through pooling borders and dead readouts.
        Tensor g = MakePrunedWeights({c.n, c.c_out, h_out, w_out}, rng);
        const ConvGrads naive =
            RunConvBackward(c, w, x, g, seed, KernelMode::kNaive);
        auto expect_naive = [&](const ConvGrads& got, const char* what) {
          ExpectSameBits(got.dx, naive.dx, what);
          ExpectSameBits(got.dw, naive.dw, what);
          ExpectSameBits(got.db, naive.db, what);
        };
        // No sparse Backward kernel: forced sparse takes the dense fallback.
        expect_naive(RunConvBackward(c, w, x, g, seed, KernelMode::kSparse),
                     "conv backward sparse");
        expect_naive(RunConvBackward(c, w, x, g, seed, KernelMode::kAuto),
                     "conv backward auto");
        for (kernels::SimdTier cap : kTierCaps) {
          kernels::ScopedSimdTier scoped(cap);
          expect_naive(RunConvBackward(c, w, x, g, seed, KernelMode::kSimd),
                       "conv backward simd");
        }
      }
    }
  }
}

// --- dense differential sweep ------------------------------------------------

struct DenseCase {
  long n, f_in, f_out;
};

const DenseCase kDenseCases[] = {
    {1, 1, 1},      // degenerate single MAC
    {4, 7, 5},      // odd sizes below one 8-sample block
    {9, 16, 3},     // ragged sample block (9 % 8 != 0)
    {5, 33, 9},     // ragged output rows (9 % 8 != 0)
    {8, 64, 16},    // exact blocks
    {20, 37, 11},   // simd: 8-sample chunks, the last one 4 live lanes
    {48, 256, 64},  // the served digits model's fc1
};

Tensor RunDense(const DenseCase& c, const Tensor& w, const Tensor& b,
                const Tensor& x, KernelMode mode) {
  ScopedKernelMode force(mode);
  runtime::Workspace scratch;
  Tensor out({c.n, c.f_out});
  kernels::DenseForward(w, b, x, out, mode, scratch);
  return out;
}

TEST(KernelEquivalence, DenseFp32BitIdenticalAcrossModes) {
  Rng rng(42);
  for (int threads : {1, 4}) {
    ScopedThreads pool(threads);
    for (const DenseCase& c : kDenseCases) {
      Tensor w = MakePrunedWeights({c.f_out, c.f_in}, rng);
      Tensor b = Tensor::Normal({c.f_out}, 0.0f, 0.1f, rng);
      for (float density : kDensities) {
        SCOPED_TRACE(::testing::Message()
                     << "threads=" << threads << " n=" << c.n
                     << " f_in=" << c.f_in << " f_out=" << c.f_out
                     << " density=" << density);
        Tensor x = MakeSpikes({c.n, c.f_in}, density, rng);
        Tensor naive = RunDense(c, w, b, x, KernelMode::kNaive);
        ExpectBitIdentical(RunDense(c, w, b, x, KernelMode::kSparse), naive,
                           "dense sparse");
        ExpectBitIdentical(RunDense(c, w, b, x, KernelMode::kAuto), naive,
                           "dense auto");
        for (kernels::SimdTier cap : kTierCaps) {
          kernels::ScopedSimdTier scoped(cap);
          ExpectBitIdentical(RunDense(c, w, b, x, KernelMode::kSimd), naive,
                             "dense simd");
        }
      }
    }
  }
}

Tensor RunDenseInt8(const DenseCase& c, const QuantizedTensor& qw,
                    const Tensor& b, const Tensor& x, KernelMode mode) {
  ScopedKernelMode force(mode);
  runtime::Workspace scratch;
  std::vector<std::int8_t> qact;
  const float act_scale = approx::Int8QuantizeActivations(x, qact);
  Tensor out({c.n, c.f_out});
  kernels::Int8DenseForward(qw, b, qact.data(), act_scale, c.n, out, mode,
                            scratch);
  return out;
}

TEST(KernelEquivalence, DenseInt8WithinOneUlpAcrossModes) {
  Rng rng(43);
  for (int threads : {1, 4}) {
    ScopedThreads pool(threads);
    for (const DenseCase& c : kDenseCases) {
      Tensor w = MakePrunedWeights({c.f_out, c.f_in}, rng);
      QuantizedTensor qw = QuantizedTensor::QuantizeRowwise(w);
      Tensor b = Tensor::Normal({c.f_out}, 0.0f, 0.1f, rng);
      for (float density : kDensities) {
        SCOPED_TRACE(::testing::Message()
                     << "threads=" << threads << " n=" << c.n
                     << " f_in=" << c.f_in << " f_out=" << c.f_out
                     << " density=" << density);
        Tensor x = MakeSpikes({c.n, c.f_in}, density, rng);
        Tensor naive = RunDenseInt8(c, qw, b, x, KernelMode::kNaive);
        ExpectWithinOneUlp(RunDenseInt8(c, qw, b, x, KernelMode::kSparse),
                           naive, "int8 dense sparse");
        ExpectWithinOneUlp(RunDenseInt8(c, qw, b, x, KernelMode::kAuto),
                           naive, "int8 dense auto");
        for (kernels::SimdTier cap : kTierCaps) {
          kernels::ScopedSimdTier scoped(cap);
          ExpectBitIdentical(RunDenseInt8(c, qw, b, x, KernelMode::kSimd),
                             naive, "int8 dense simd");
        }
      }
    }
  }
}

// --- dispatch unit tests -----------------------------------------------------

TEST(KernelDispatch, ModeNamesRoundTrip) {
  for (KernelMode m : {KernelMode::kAuto, KernelMode::kNaive,
                       KernelMode::kSparse, KernelMode::kSimd})
    EXPECT_EQ(kernels::ParseKernelMode(kernels::KernelModeName(m)), m);
  EXPECT_FALSE(kernels::ParseKernelMode("fast").has_value());
  EXPECT_FALSE(kernels::ParseKernelMode("").has_value());
  EXPECT_FALSE(kernels::ParseKernelMode("gemm").has_value());  // retired
}

TEST(KernelDispatch, DensityCountsNonzerosExactly) {
  const float x[] = {0.0f, 1.0f, 0.0f, -2.0f};
  EXPECT_FLOAT_EQ(kernels::Density(x, 4), 0.5f);
  EXPECT_FLOAT_EQ(kernels::Density(x, 0), 0.0f);
  const std::int8_t q[] = {0, 0, 0, 5};
  EXPECT_FLOAT_EQ(kernels::Density(q, 4), 0.25f);
}

TEST(KernelDispatch, ChooseByDensityProbesOnlyAuto) {
  using kernels::ChooseByDensity;
  const float max = kernels::kConvSparseDensityMax;
  EXPECT_EQ(ChooseByDensity(KernelMode::kAuto, max, max, KernelMode::kSimd),
            KernelMode::kSparse);  // at the threshold: sparse
  EXPECT_EQ(ChooseByDensity(KernelMode::kAuto, max + 0.01f, max,
                            KernelMode::kSimd),
            KernelMode::kSimd);  // above: the dense fallback
  EXPECT_EQ(ChooseByDensity(KernelMode::kAuto, max + 0.01f, max,
                            KernelMode::kNaive),
            KernelMode::kNaive);
  EXPECT_EQ(ChooseByDensity(KernelMode::kAuto, 0.0f, max, KernelMode::kSimd),
            KernelMode::kSparse);
  // Pinned modes pass through regardless of density.
  EXPECT_EQ(ChooseByDensity(KernelMode::kNaive, 0.0f, max, KernelMode::kSimd),
            KernelMode::kNaive);
  EXPECT_EQ(ChooseByDensity(KernelMode::kSimd, 0.0f, max, KernelMode::kNaive),
            KernelMode::kSimd);
}

TEST(KernelDispatch, KernelModeEnvValuesAreStrict) {
  using kernels::KernelModeFromEnv;
  EXPECT_EQ(KernelModeFromEnv(nullptr), KernelMode::kAuto);  // unset
  EXPECT_EQ(KernelModeFromEnv("auto"), KernelMode::kAuto);
  EXPECT_EQ(KernelModeFromEnv("naive"), KernelMode::kNaive);
  EXPECT_EQ(KernelModeFromEnv("sparse"), KernelMode::kSparse);
  EXPECT_EQ(KernelModeFromEnv("simd"), KernelMode::kSimd);
  // Empty, wrong case, trailing garbage and the retired gemm are errors,
  // never a silent auto.
  for (const char* bad : {"", "NAIVE", "Gemm", "gemm", "gemmm", "simd ",
                          " sparse", "auto1", "on"}) {
    try {
      KernelModeFromEnv(bad);
      ADD_FAILURE() << "accepted \"" << bad << "\"";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("AXSNN_KERNEL_MODE"), std::string::npos) << what;
      EXPECT_NE(what.find(std::string("\"") + bad + "\""), std::string::npos)
          << what;
      EXPECT_NE(what.find("auto, naive, sparse, simd"),
                std::string::npos)
          << what;
    }
  }
}

TEST(KernelDispatch, DecideKernelModeFamilyTable) {
  using kernels::KernelFamily;
  using kernels::SimdTier;
  // The sparse threshold of each family, with and without a SIMD tier.
  // Above it every family falls back to the exact simd kernels with a tier
  // and to naive without one. The conv Backward families have no sparse
  // kernel (threshold -1): auto and a forced sparse both take the fallback.
  struct Row {
    KernelFamily family;
    bool simd_tier;
    float sparse_max;
    KernelMode fallback;
  };
  const Row rows[] = {
      {KernelFamily::kConvF32, false, 0.15f, KernelMode::kNaive},
      {KernelFamily::kConvF32, true, 0.15f, KernelMode::kSimd},
      {KernelFamily::kDenseF32, false, 0.15f, KernelMode::kNaive},
      {KernelFamily::kDenseF32, true, 0.15f, KernelMode::kSimd},
      {KernelFamily::kConvI8, false, 0.15f, KernelMode::kNaive},
      {KernelFamily::kConvI8, true, 0.04f, KernelMode::kSimd},
      {KernelFamily::kDenseI8, false, 0.15f, KernelMode::kNaive},
      {KernelFamily::kDenseI8, true, 0.015f, KernelMode::kSimd},
      {KernelFamily::kConvDwF32, false, -1.0f, KernelMode::kNaive},
      {KernelFamily::kConvDwF32, true, -1.0f, KernelMode::kSimd},
      {KernelFamily::kConvDxF32, false, -1.0f, KernelMode::kNaive},
      {KernelFamily::kConvDxF32, true, -1.0f, KernelMode::kSimd},
  };
  std::vector<float> densities = {0.0f, 1.0f};
  for (float t : {0.015f, 0.04f, 0.15f}) {
    densities.push_back(t);
    densities.push_back(std::nextafter(t, 1.0f));  // just above
  }
  for (const Row& r : rows) {
    const std::vector<SimdTier> tiers =
        r.simd_tier ? std::vector<SimdTier>{SimdTier::kAvx2, SimdTier::kVnni}
                    : std::vector<SimdTier>{SimdTier::kScalar};
    for (SimdTier tier : tiers) {
      for (float d : densities) {
        const std::string where =
            "family " + std::to_string(static_cast<int>(r.family)) +
            " tier " + kernels::SimdTierName(tier) + " density " +
            std::to_string(d);
        EXPECT_EQ(kernels::DecideKernelMode(r.family, KernelMode::kAuto, d,
                                            tier),
                  d <= r.sparse_max ? KernelMode::kSparse : r.fallback)
            << where;
        EXPECT_EQ(kernels::HasSparseKernel(r.family), r.sparse_max >= 0.0f)
            << where;
        // Forced modes pass through, except a forced sparse without a
        // sparse kernel (the fallback); forced simd without a tier is
        // naive; the retired gemm is refused.
        for (KernelMode m : {KernelMode::kNaive, KernelMode::kSparse,
                             KernelMode::kSimd}) {
          KernelMode want = m;
          if (m == KernelMode::kSparse && r.sparse_max < 0.0f)
            want = r.fallback;
          if (want == KernelMode::kSimd && !r.simd_tier)
            want = KernelMode::kNaive;
          EXPECT_EQ(kernels::DecideKernelMode(r.family, m, d, tier), want)
              << where << " forced " << kernels::KernelModeName(m);
        }
        EXPECT_THROW(
            kernels::DecideKernelMode(r.family, KernelMode::kGemm, d, tier),
            std::invalid_argument)
            << where;
      }
    }
  }
  // The fp32 fallbacks at the static model's traced densities, spelled out.
  EXPECT_EQ(kernels::DecideKernelMode(KernelFamily::kConvF32,
                                      KernelMode::kAuto, 0.33f,
                                      SimdTier::kAvx2),
            KernelMode::kSimd);
  EXPECT_EQ(kernels::DecideKernelMode(KernelFamily::kDenseF32,
                                      KernelMode::kAuto, 0.33f,
                                      SimdTier::kScalar),
            KernelMode::kNaive);
}

TEST(KernelDispatch, PlanKernelResolvesPacksAndReusesWords) {
  using kernels::KernelFamily;
  runtime::Workspace scratch;
  // 2 samples of 70 elements: 3 + 1 nonzeros -> density 4/140.
  std::vector<float> x(140, 0.0f);
  x[0] = x[5] = x[69] = 1.0f;
  x[70 + 64] = 0.5f;
  const kernels::SimdTier tier = kernels::ActiveSimdTier();
  {
    ScopedKernelMode neutral(KernelMode::kAuto);
    // Auto packs the words into scratch and decides on their density.
    const kernels::KernelPlan plan = kernels::PlanKernel(
        KernelFamily::kDenseF32, KernelMode::kAuto, x.data(), 2, 70, scratch,
        nullptr);
    EXPECT_EQ(plan.mode, KernelMode::kSparse);
    EXPECT_EQ(plan.tier, tier);
    ASSERT_NE(plan.words, nullptr);
    const long wps = kernels::SpikeWordCount(70);
    EXPECT_EQ(std::popcount(plan.words[0]) + std::popcount(plan.words[1]), 3);
    EXPECT_EQ(std::popcount(plan.words[wps]) +
                  std::popcount(plan.words[wps + 1]),
              1);
    // Caller-supplied words are used as given, for the decision too.
    const std::uint64_t given[4] = {~0ull, ~0ull, ~0ull, ~0ull};
    const kernels::PackedWords packed{given, 140};
    const kernels::KernelPlan reused = kernels::PlanKernel(
        KernelFamily::kDenseF32, KernelMode::kAuto, x.data(), 2, 70, scratch,
        &packed);
    EXPECT_EQ(reused.words, given);
    EXPECT_EQ(reused.mode, tier == kernels::SimdTier::kScalar
                               ? KernelMode::kNaive
                               : KernelMode::kSimd);  // density 1
    // A forced dense mode needs no words.
    const kernels::KernelPlan naive = kernels::PlanKernel(
        KernelFamily::kDenseF32, KernelMode::kNaive, x.data(), 2, 70, scratch,
        nullptr);
    EXPECT_EQ(naive.mode, KernelMode::kNaive);
    EXPECT_EQ(naive.words, nullptr);
  }
  // The global override is applied first, and a forced sparse gets words.
  ScopedKernelMode force(KernelMode::kSparse);
  const kernels::KernelPlan forced = kernels::PlanKernel(
      KernelFamily::kConvF32, KernelMode::kNaive, x.data(), 2, 70, scratch,
      nullptr);
  EXPECT_EQ(forced.mode, KernelMode::kSparse);
  EXPECT_NE(forced.words, nullptr);
  // A Backward family probes nothing, even under a forced sparse.
  const kernels::KernelPlan backward = kernels::PlanKernel(
      KernelFamily::kConvDwF32, KernelMode::kAuto, x.data(), 2, 70, scratch,
      nullptr);
  EXPECT_EQ(backward.mode, tier == kernels::SimdTier::kScalar
                               ? KernelMode::kNaive
                               : KernelMode::kSimd);
  EXPECT_EQ(backward.words, nullptr);
}

TEST(KernelDispatch, GlobalModeOverridesRequested) {
  {
    ScopedKernelMode force(KernelMode::kSimd);
    EXPECT_EQ(kernels::ResolveKernelMode(KernelMode::kSparse),
              KernelMode::kSimd);
    EXPECT_EQ(kernels::ResolveKernelMode(KernelMode::kAuto),
              KernelMode::kSimd);
  }
  ScopedKernelMode neutral(KernelMode::kAuto);
  EXPECT_EQ(kernels::ResolveKernelMode(KernelMode::kSparse),
            KernelMode::kSparse);
  EXPECT_EQ(kernels::ResolveKernelMode(KernelMode::kAuto), KernelMode::kAuto);
}

TEST(KernelDispatch, ApproxConfigKnobReachesLayers) {
  // ApplyApproximation plumbs cfg.kernel_mode to every weight layer, and the
  // resulting networks produce identical logits in every mode.
  ScopedKernelMode neutral(KernelMode::kAuto);
  snn::StaticNetOptions opts;
  opts.height = 16;
  opts.width = 16;
  opts.conv1_channels = 4;
  opts.conv2_channels = 8;
  opts.conv3_channels = 8;
  opts.hidden = 32;
  snn::Network net = snn::BuildStaticNet(opts);
  Rng rng(44);
  Tensor input = Tensor::Uniform({4, 2, 1, 16, 16}, 0.0f, 1.0f, rng);
  approx::CalibrationStats stats = approx::Calibrate(net, input);

  std::vector<Tensor> outs;
  for (KernelMode mode : {KernelMode::kNaive, KernelMode::kSparse,
                          KernelMode::kSimd, KernelMode::kAuto}) {
    approx::ApproxConfig cfg;
    cfg.precision = approx::Precision::kInt8;
    cfg.level = 0.01;
    cfg.kernel_mode = mode;
    auto [ax, report] = approx::MakeApproximate(net, cfg, stats);
    (void)report;
    outs.push_back(ax.Forward(input, false));
  }
  for (std::size_t i = 1; i < outs.size(); ++i)
    ExpectWithinOneUlp(outs[i], outs[0], "ApproxConfig kernel_mode logits");
}

TEST(KernelDispatch, RetiredGemmModeThrowsFromFirstKernelCall) {
  Rng rng(46);
  snn::Dense fc("fc", 16, 4, rng);
  Tensor x = Tensor::Uniform({3, 16}, 0.0f, 1.0f, rng);
  Tensor out;
  {
    ScopedKernelMode force(KernelMode::kGemm);  // the global mode
    EXPECT_THROW(fc.ForwardInto(x, out, false), std::invalid_argument);
  }
  ScopedKernelMode neutral(KernelMode::kAuto);
  fc.set_kernel_mode(KernelMode::kGemm);  // a layer's mode
  try {
    fc.ForwardInto(x, out, false);
    ADD_FAILURE() << "a layer ran kernel mode gemm";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("auto, naive, sparse, simd"),
              std::string::npos)
        << e.what();
  }
  fc.set_kernel_mode(KernelMode::kAuto);
  EXPECT_NO_THROW(fc.ForwardInto(x, out, false));
}

TEST(KernelDispatch, LayerKnobDefaultsToAutoAndSticks) {
  Rng rng(45);
  snn::Dense fc("fc", 4, 2, rng);
  EXPECT_EQ(fc.kernel_mode(), KernelMode::kAuto);
  fc.set_kernel_mode(KernelMode::kSparse);
  EXPECT_EQ(fc.kernel_mode(), KernelMode::kSparse);
}

// --- golden determinism: fig2-style mini sweep -------------------------------

TEST(GoldenDeterminism, SweepReportByteIdenticalAcrossModesAndPools) {
  // A miniature Fig.-2 sweep (train -> craft PGD -> evaluate variants) whose
  // rendered report must be byte-identical for every kernel mode x pool
  // size, so an Algorithm-1 search outcome can never depend on the dispatch
  // decision or the thread count.
  core::StaticWorkbench::Options opts;
  opts.net.lif.v_threshold = 0.25f;
  opts.train.epochs = 2;
  opts.train.batch_size = 32;
  opts.train_time_steps_cap = 6;
  opts.attack_time_steps_cap = 6;
  opts.attack_steps = 3;
  opts.eval_batch = 64;

  data::SyntheticMnistOptions d;
  d.count = 192;
  d.seed = 51;
  data::StaticDataset train = data::MakeSyntheticMnist(d);
  d.count = 48;
  d.seed = 52;
  data::StaticDataset test = data::MakeSyntheticMnist(d);
  core::StaticWorkbench bench(std::move(train), std::move(test), opts);

  auto model = bench.Train(0.25f, 8);
  Tensor adversarial = bench.Craft(model, core::AttackKind::kPgd, 0.1f);
  const std::vector<core::VariantSpec> specs = {
      {approx::Precision::kFp32, 0.0},
      {approx::Precision::kFp32, 0.01},
      {approx::Precision::kInt8, 0.01},
  };

  std::string golden;
  for (KernelMode mode : {KernelMode::kNaive, KernelMode::kSparse,
                          KernelMode::kSimd, KernelMode::kAuto}) {
    for (int threads : {1, 4}) {
      ScopedThreads pool(threads);
      ScopedKernelMode force(mode);
      const std::vector<float> robustness =
          bench.EvaluateVariants(model, adversarial, specs);
      ASSERT_EQ(robustness.size(), specs.size());

      std::vector<eval::Series> series;
      for (std::size_t i = 0; i < specs.size(); ++i)
        series.push_back({"variant" + std::to_string(i),
                          {static_cast<double>(robustness[i])}});
      std::ostringstream os;
      eval::PrintSeriesTable(os, "golden mini sweep", "eps", {0.1}, series);

      if (golden.empty()) {
        golden = os.str();
      } else {
        EXPECT_EQ(golden, os.str())
            << "report changed under kernel mode "
            << kernels::KernelModeName(mode) << ", pool size " << threads;
      }
    }
  }
}

TEST(GoldenDeterminism, TrainingAndPgdBitIdenticalAcrossBackwardPaths) {
  // Training runs the parameters-only Backward and PGD the input-only one.
  // The trained weights and the crafted images must not depend on the
  // Backward path, the pool size or the ISA tier cap.
  core::StaticWorkbench::Options opts;
  opts.net.lif.v_threshold = 0.25f;
  opts.train.epochs = 2;
  opts.train.batch_size = 32;
  opts.train_time_steps_cap = 4;
  opts.attack_time_steps_cap = 4;
  opts.attack_steps = 2;

  data::SyntheticMnistOptions d;
  d.count = 96;
  d.seed = 53;
  data::StaticDataset train = data::MakeSyntheticMnist(d);
  d.count = 24;
  d.seed = 54;
  data::StaticDataset test = data::MakeSyntheticMnist(d);
  const core::StaticWorkbench bench(std::move(train), std::move(test), opts);

  std::map<std::string, Tensor> golden_state;
  Tensor golden_images;
  for (KernelMode mode : {KernelMode::kNaive, KernelMode::kSimd}) {
    for (int threads : {1, 4}) {
      for (kernels::SimdTier cap : kTierCaps) {
        SCOPED_TRACE(::testing::Message()
                     << kernels::KernelModeName(mode) << " pool " << threads
                     << " cap " << kernels::SimdTierName(cap));
        ScopedThreads pool(threads);
        ScopedKernelMode force(mode);
        kernels::ScopedSimdTier scoped(cap);
        const auto model = bench.Train(0.25f, 4);
        const Tensor images = bench.Craft(model, core::AttackKind::kPgd, 0.1f);
        const std::map<std::string, Tensor> state = model.net.StateDict();
        if (golden_images.empty()) {
          golden_state = state;
          golden_images = images;
          continue;
        }
        EXPECT_TRUE(axsnn::testing::SameBytes(images, golden_images));
        ASSERT_EQ(state.size(), golden_state.size());
        for (const auto& [key, tensor] : state)
          EXPECT_TRUE(axsnn::testing::SameBytes(tensor, golden_state[key]))
              << key;
      }
    }
  }
}

}  // namespace
}  // namespace axsnn
