// Cross-module property sweeps: invariants that must hold across the whole
// (encoding x precision x structural-parameter) space the experiments
// explore. These complement the per-module unit tests with the global
// guarantees the harnesses rely on.
#include <cmath>

#include <gtest/gtest.h>

#include "approx/approximation.hpp"
#include "approx/precision.hpp"
#include "data/dvs_gesture.hpp"
#include "tensor/quantized.hpp"
#include "data/synthetic_mnist.hpp"
#include "snn/encoding.hpp"
#include "snn/inference.hpp"
#include "snn/lif_layer.hpp"
#include "snn/models.hpp"

namespace axsnn {
namespace {

// --- Encoding invariants across all modes -----------------------------------

class EncodingModeTest : public ::testing::TestWithParam<snn::Encoding> {};

TEST_P(EncodingModeTest, OutputShapeAndRange) {
  Rng rng(1);
  Tensor images = Tensor::Uniform({3, 1, 4, 4}, 0.0f, 1.0f, rng);
  Tensor encoded = snn::Encode(images, 7, GetParam(), rng);
  EXPECT_EQ(encoded.shape(), (Shape{7, 3, 1, 4, 4}));
  EXPECT_GE(encoded.Min(), 0.0f);
  EXPECT_LE(encoded.Max(), 1.0f);
}

TEST_P(EncodingModeTest, BlackImageStaysSilentOrZero) {
  Rng rng(2);
  Tensor black({2, 1, 3, 3});
  Tensor encoded = snn::Encode(black, 5, GetParam(), rng);
  EXPECT_FLOAT_EQ(encoded.Sum(), 0.0f);
}

TEST_P(EncodingModeTest, MeanActivityTracksIntensityOrdering) {
  // Brighter images must never produce less total drive than darker ones.
  Rng rng(3);
  Tensor dim = Tensor::Full({2, 1, 4, 4}, 0.2f);
  Tensor bright = Tensor::Full({2, 1, 4, 4}, 0.9f);
  const float dim_sum = snn::Encode(dim, 16, GetParam(), rng).Sum();
  const float bright_sum = snn::Encode(bright, 16, GetParam(), rng).Sum();
  EXPECT_GE(bright_sum, dim_sum);
}

INSTANTIATE_TEST_SUITE_P(AllModes, EncodingModeTest,
                         ::testing::Values(snn::Encoding::kRate,
                                           snn::Encoding::kDirect,
                                           snn::Encoding::kTtfs));

// --- Quantizer properties across precisions ---------------------------------

class PrecisionTest : public ::testing::TestWithParam<approx::Precision> {};

TEST_P(PrecisionTest, QuantizationIsIdempotent) {
  Rng rng(4);
  Tensor t = Tensor::Normal({128}, 0.0f, 0.5f, rng);
  Tensor once = approx::Quantized(t, GetParam());
  Tensor twice = approx::Quantized(once, GetParam());
  EXPECT_TRUE(twice.AllClose(once, 0.0f))
      << "quantization must be a projection";
}

TEST_P(PrecisionTest, PreservesSignAndZero) {
  Tensor t({5}, {-0.7f, -0.1f, 0.0f, 0.1f, 0.7f});
  Tensor q = approx::Quantized(t, GetParam());
  EXPECT_FLOAT_EQ(q[2], 0.0f);
  for (long i = 0; i < 5; ++i) {
    if (t[i] > 0.0f) {
      EXPECT_GE(q[i], 0.0f);
    }
    if (t[i] < 0.0f) {
      EXPECT_LE(q[i], 0.0f);
    }
  }
}

TEST_P(PrecisionTest, QuantizationErrorSmallRelativeToRange) {
  Rng rng(5);
  Tensor t = Tensor::Uniform({512}, -1.0f, 1.0f, rng);
  Tensor q = approx::Quantized(t, GetParam());
  float max_err = 0.0f;
  for (long i = 0; i < t.numel(); ++i)
    max_err = std::max(max_err, std::fabs(q[i] - t[i]));
  // Worst case is INT8: half a step of 2/254.
  EXPECT_LE(max_err, 1.0f / 127.0f);
}

INSTANTIATE_TEST_SUITE_P(AllPrecisions, PrecisionTest,
                         ::testing::Values(approx::Precision::kFp32,
                                           approx::Precision::kFp16,
                                           approx::Precision::kInt8));

// --- QuantizedTensor invariants (the int8 backend's storage contract) -------

TEST(QuantizedTensorProperties, FromWeightsRoundTripPreservesSignAndZero) {
  // Symmetric rowwise quantization: zeros stay exactly zero and no value
  // changes sign through quantize -> dequantize, for any weight pattern.
  Rng rng(20);
  Tensor w = Tensor::Normal({6, 24}, 0.0f, 0.4f, rng);
  for (long i = 0; i < w.numel(); i += 5) w[i] = 0.0f;  // pruned weights
  QuantizedTensor q = QuantizedTensor::FromWeights(w, {});
  Tensor back = q.Dequantized();
  ASSERT_EQ(back.shape(), w.shape());
  for (long i = 0; i < w.numel(); ++i) {
    if (w[i] == 0.0f) {
      EXPECT_EQ(back[i], 0.0f) << "zero not preserved at " << i;
    } else if (w[i] > 0.0f) {
      EXPECT_GE(back[i], 0.0f) << "sign flipped at " << i;
    } else {
      EXPECT_LE(back[i], 0.0f) << "sign flipped at " << i;
    }
    // Round-trip error is bounded by half a quantization step per row.
    const long row = i / q.row_size();
    EXPECT_LE(std::fabs(back[i] - w[i]), 0.5f * q.scale(row) + 1e-7f);
  }
}

TEST(QuantizedTensorProperties, RowScalesAreMonotoneInRowMagnitude) {
  // scales[r] = max|row r| / 127: scaling a row's values scales its scale
  // proportionally, and a row with larger max-abs never gets the smaller
  // scale. Rows here have strictly increasing max-abs 0.1, 0.2, ... 0.8.
  Tensor w({8, 4});
  for (long r = 0; r < 8; ++r)
    for (long c = 0; c < 4; ++c)
      w(r, c) = (c == 0 ? 1.0f : 0.5f) * 0.1f * static_cast<float>(r + 1) *
                ((c % 2 == 0) ? 1.0f : -1.0f);
  QuantizedTensor q = QuantizedTensor::QuantizeRowwise(w);
  ASSERT_EQ(q.rows(), 8);
  for (long r = 1; r < 8; ++r)
    EXPECT_GT(q.scale(r), q.scale(r - 1))
        << "row " << r << " has larger max|w| but not larger scale";
  for (long r = 0; r < 8; ++r)
    EXPECT_NEAR(q.scale(r), 0.1f * static_cast<float>(r + 1) / 127.0f,
                1e-7f);
  // An all-zero row quantizes to all-zero codes with the sentinel scale 1.
  Tensor z({2, 3});
  z(1, 0) = 0.25f;
  QuantizedTensor qz = QuantizedTensor::QuantizeRowwise(z);
  EXPECT_FLOAT_EQ(qz.scale(0), 1.0f);
  for (long c = 0; c < 3; ++c) EXPECT_EQ(qz.data()[c], 0);
}

TEST(QuantizedTensorProperties, CodesStayInSymmetricRange) {
  // The symmetric scheme never emits -128, so negation of any code is
  // always representable (the kernels rely on this headroom bound).
  Rng rng(21);
  Tensor w = Tensor::Uniform({5, 17}, -2.0f, 2.0f, rng);
  QuantizedTensor q = QuantizedTensor::QuantizeRowwise(w);
  for (long i = 0; i < q.numel(); ++i) {
    EXPECT_GE(q.data()[i], -127);
    EXPECT_LE(q.data()[i], 127);
  }
}

// --- Approximation invariants across precision x level ----------------------

struct ApproxCase {
  approx::Precision precision;
  double level;
};

class ApproxGridTest : public ::testing::TestWithParam<ApproxCase> {};

TEST_P(ApproxGridTest, ReportConsistentWithNetwork) {
  snn::StaticNetOptions opts;
  opts.lif.v_threshold = 0.5f;
  snn::Network net = snn::BuildStaticNet(opts);
  Rng rng(6);
  Tensor input = Tensor::Uniform({6, 2, 1, 16, 16}, 0.0f, 1.0f, rng);
  approx::CalibrationStats stats = approx::Calibrate(net, input);

  approx::ApproxConfig cfg;
  cfg.precision = GetParam().precision;
  cfg.level = GetParam().level;
  auto [ax, report] = approx::MakeApproximate(net, cfg, stats);

  // Report totals add up and stay within bounds.
  EXPECT_EQ(report.layers.size(), 5u);
  long pruned = 0, total = 0;
  for (const auto& l : report.layers) {
    EXPECT_GE(l.pruned, 0);
    EXPECT_LE(l.pruned, l.total);
    EXPECT_GE(l.ath, 0.0f);
    pruned += l.pruned;
    total += l.total;
  }
  EXPECT_NEAR(report.pruned_fraction,
              static_cast<double>(pruned) / static_cast<double>(total),
              1e-9);

  // The approximate network still runs and produces finite logits.
  Tensor out = ax.Forward(input, false);
  for (long i = 0; i < out.numel(); ++i)
    ASSERT_TRUE(std::isfinite(out[i]));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ApproxGridTest,
    ::testing::Values(ApproxCase{approx::Precision::kFp32, 0.0},
                      ApproxCase{approx::Precision::kFp32, 0.01},
                      ApproxCase{approx::Precision::kFp16, 0.01},
                      ApproxCase{approx::Precision::kInt8, 0.01},
                      ApproxCase{approx::Precision::kInt8, 0.1},
                      ApproxCase{approx::Precision::kFp16, 1.0}));

// --- Structural-parameter invariants ----------------------------------------

class VthSweepTest : public ::testing::TestWithParam<float> {};

TEST_P(VthSweepTest, NetworkRunsAtEveryThreshold) {
  snn::StaticNetOptions opts;
  opts.lif.v_threshold = GetParam();
  snn::Network net = snn::BuildStaticNet(opts);
  Rng rng(7);
  Tensor input = Tensor::Uniform({4, 2, 1, 16, 16}, 0.0f, 1.0f, rng);
  Tensor out = net.Forward(input, false);
  EXPECT_EQ(out.shape(), (Shape{4, 2, 10}));
  // Spike rates decrease (weakly) as Vth rises; compare with doubled Vth.
  float rate_here = 0.0f;
  for (const approx::LayerCalibration& l : approx::Calibrate(net, input).lif)
    rate_here += l.mean_rate;
  snn::StaticNetOptions high = opts;
  high.lif.v_threshold = GetParam() * 2.0f;
  snn::Network net_high = snn::BuildStaticNet(high);
  float rate_high = 0.0f;
  for (const approx::LayerCalibration& l :
       approx::Calibrate(net_high, input).lif)
    rate_high += l.mean_rate;
  EXPECT_LE(rate_high, rate_here + 1e-6f);
}

INSTANTIATE_TEST_SUITE_P(PaperGrid, VthSweepTest,
                         ::testing::Values(0.25f, 0.75f, 1.25f, 2.25f));

// --- Dataset determinism under parallel generation --------------------------

TEST(ParallelDeterminism, MnistIndependentOfThreadSchedule) {
  // Generation parallelizes over samples with forked RNG streams; results
  // must not depend on scheduling. Two consecutive calls exercise different
  // dynamic schedules on a loaded machine.
  data::SyntheticMnistOptions opts;
  opts.count = 64;
  opts.seed = 77;
  data::StaticDataset a = data::MakeSyntheticMnist(opts);
  data::StaticDataset b = data::MakeSyntheticMnist(opts);
  EXPECT_TRUE(a.images.AllClose(b.images, 0.0f));
}

TEST(ParallelDeterminism, DvsIndependentOfThreadSchedule) {
  data::DvsGestureOptions opts;
  opts.count = 22;
  opts.seed = 78;
  data::EventDataset a = data::MakeSyntheticDvsGesture(opts);
  data::EventDataset b = data::MakeSyntheticDvsGesture(opts);
  ASSERT_EQ(a.size(), b.size());
  for (long i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a.streams[i].size(), b.streams[i].size());
    for (long e = 0; e < a.streams[i].size(); ++e)
      EXPECT_EQ(a.streams[i].events[static_cast<std::size_t>(e)],
                b.streams[i].events[static_cast<std::size_t>(e)]);
  }
}

}  // namespace
}  // namespace axsnn
