// Differential tests for the event-driven temporal pipeline: the compressed
// spike-stream path (pack -> step -> skip-on-silent) must be bit-identical
// to the dense [T, B, ...] reference path — same logits, same predictions,
// same sweep-grid numbers — across spike densities, kernel modes, precision
// backends and pool geometries. Exact float equality throughout: the event
// path reorders no arithmetic, so == is the contract, not a tolerance.
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "approx/approximation.hpp"
#include "core/workbench.hpp"
#include "data/dvs_gesture.hpp"
#include "kernels/dispatch.hpp"
#include "kernels/spike_stream.hpp"
#include "snn/conv2d.hpp"
#include "snn/dense.hpp"
#include "snn/encoding.hpp"
#include "snn/event_path.hpp"
#include "snn/event_runner.hpp"
#include "snn/inference.hpp"
#include "snn/lif_layer.hpp"
#include "snn/models.hpp"
#include "snn/network.hpp"
#include "snn/pool.hpp"
#include "tensor/random.hpp"
#include "tensor/tensor.hpp"

namespace axsnn {
namespace {

using kernels::KernelMode;
using kernels::ScopedKernelMode;
using kernels::SpikeStream;
using snn::EventPathMode;
using snn::ScopedEventPathMode;

/// Per-sample frame stacks [B, T, C, H, W] of i.i.d. Bernoulli(density)
/// spikes — the shape event datasets are binned into.
Tensor RandomBinaryFrames(long b, long t, long c, long h, long w,
                          double density, std::uint64_t seed) {
  Tensor frames({b, t, c, h, w});
  Rng rng(seed);
  for (float& v : frames.flat()) v = rng.Bernoulli(density) ? 1.0f : 0.0f;
  return frames;
}

/// Zeroes whole timesteps (every odd t) so the stream has guaranteed silent
/// steps that the skip path must handle.
void SilenceOddSteps(Tensor& frames_btx) {
  const long b = frames_btx.dim(0);
  const long t_steps = frames_btx.dim(1);
  const long per_step = frames_btx.numel() / (b * t_steps);
  for (long i = 0; i < b; ++i)
    for (long t = 1; t < t_steps; t += 2) {
      float* row = frames_btx.data() + (i * t_steps + t) * per_step;
      for (long j = 0; j < per_step; ++j) row[j] = 0.0f;
    }
}

void ExpectBitIdentical(const Tensor& a, const Tensor& b, const char* what) {
  ASSERT_EQ(a.shape(), b.shape()) << what;
  for (long i = 0; i < a.numel(); ++i)
    ASSERT_EQ(a[i], b[i]) << what << ": element " << i;
}

/// Small DVS net (16x16 sensor) — the real architecture at test size.
snn::Network SmallDvsNet(std::uint64_t seed = 11) {
  snn::DvsNetOptions opts;
  opts.height = 16;
  opts.width = 16;
  opts.seed = seed;
  return snn::BuildDvsNet(opts);
}

constexpr long kDvsWeightLayers = 4;  // conv1, conv2, fc1, fc2

// --- SpikeStream representation --------------------------------------------

TEST(SpikeStream, PackDensifyRoundTrip) {
  const long t_steps = 5, b = 3, plane = 70;  // plane straddles a word edge
  Tensor tm({t_steps, b, plane});
  Rng rng(17);
  for (float& v : tm.flat()) v = rng.Bernoulli(0.4) ? 1.0f : 0.0f;

  SpikeStream stream;
  stream.Configure(t_steps, b, {plane});
  ASSERT_TRUE(stream.PackTimeMajor(tm));
  EXPECT_EQ(stream.TotalSpikes(), static_cast<long>(tm.Sum()));

  std::vector<float> step(static_cast<std::size_t>(b * plane));
  for (long t = 0; t < t_steps; ++t) {
    stream.DensifyStepInto(t, step.data());
    long total = 0;
    for (long j = 0; j < b * plane; ++j) {
      ASSERT_EQ(step[static_cast<std::size_t>(j)], tm[t * b * plane + j])
          << "step " << t << " element " << j;
      total += step[static_cast<std::size_t>(j)] != 0.0f ? 1 : 0;
    }
    EXPECT_EQ(stream.StepTotal(t), total);
  }
}

TEST(SpikeStream, RejectsNonBinaryFrames) {
  Tensor tm({2, 1, 8});
  tm[3] = 0.5f;
  SpikeStream stream;
  stream.Configure(2, 1, {8L});
  EXPECT_FALSE(stream.PackTimeMajor(tm));
}

TEST(TimeMajorPackInto, MatchesTransposeThenPack) {
  Tensor frames = RandomBinaryFrames(3, 4, 2, 5, 5, 0.3, 23);
  SpikeStream direct;
  ASSERT_TRUE(snn::TimeMajorPackInto(frames, direct));

  Tensor tm = snn::TimeMajor(frames);
  SpikeStream via_dense;
  via_dense.Configure(4, 3, {2, 5, 5});
  ASSERT_TRUE(via_dense.PackTimeMajor(tm));

  ASSERT_EQ(direct.time_steps(), via_dense.time_steps());
  ASSERT_EQ(direct.batch(), via_dense.batch());
  ASSERT_EQ(direct.plane(), via_dense.plane());
  const long words = direct.batch() * direct.words_per_plane();
  for (long t = 0; t < direct.time_steps(); ++t) {
    EXPECT_EQ(direct.StepTotal(t), via_dense.StepTotal(t));
    const std::uint64_t* a = direct.StepWords(t);
    const std::uint64_t* b = via_dense.StepWords(t);
    for (long wi = 0; wi < words; ++wi)
      ASSERT_EQ(a[wi], b[wi]) << "step " << t << " word " << wi;
  }
}

TEST(TimeMajorPackInto, RejectsNonBinary) {
  Tensor frames = RandomBinaryFrames(2, 3, 1, 4, 4, 0.5, 29);
  frames[5] = 0.25f;
  SpikeStream stream;
  EXPECT_FALSE(snn::TimeMajorPackInto(frames, stream));
}

// --- Satellite: TimeMajorInto misuse throws --------------------------------

TEST(TimeMajorInto, RejectsAliasedOutput) {
  Tensor frames = RandomBinaryFrames(2, 3, 1, 4, 4, 0.5, 31);
  EXPECT_THROW(snn::TimeMajorInto(frames, frames), std::invalid_argument);
}

TEST(TimeMajorInto, RejectsDegenerateDims) {
  Tensor empty_batch({0, 3, 4});
  Tensor out;
  EXPECT_THROW(snn::TimeMajorInto(empty_batch, out), std::invalid_argument);
  Tensor empty_time({3, 0, 4});
  EXPECT_THROW(snn::TimeMajorInto(empty_time, out), std::invalid_argument);
}

// --- Mode knob -------------------------------------------------------------

TEST(EventPathMode, ParsesEnvSpellings) {
  using snn::ParseEventPathMode;
  EXPECT_EQ(ParseEventPathMode("auto"), EventPathMode::kAuto);
  EXPECT_EQ(ParseEventPathMode("dense"), EventPathMode::kDense);
  EXPECT_EQ(ParseEventPathMode("event"), EventPathMode::kEvent);
  EXPECT_EQ(ParseEventPathMode("on"), EventPathMode::kEvent);
  EXPECT_EQ(ParseEventPathMode("off"), EventPathMode::kDense);
  EXPECT_EQ(ParseEventPathMode("bogus"), std::nullopt);
}

TEST(EventPathMode, EnvValuesAreStrict) {
  using snn::EventPathModeFromEnv;
  EXPECT_EQ(EventPathModeFromEnv(nullptr), EventPathMode::kAuto);  // unset
  EXPECT_EQ(EventPathModeFromEnv("auto"), EventPathMode::kAuto);
  EXPECT_EQ(EventPathModeFromEnv("dense"), EventPathMode::kDense);
  EXPECT_EQ(EventPathModeFromEnv("off"), EventPathMode::kDense);
  EXPECT_EQ(EventPathModeFromEnv("event"), EventPathMode::kEvent);
  EXPECT_EQ(EventPathModeFromEnv("on"), EventPathMode::kEvent);
  // Empty, wrong case and trailing garbage are errors, never a silent auto.
  for (const char* bad : {"", "ON", "Event", "yes", "1", "on ", "eventt"}) {
    try {
      EventPathModeFromEnv(bad);
      ADD_FAILURE() << "accepted \"" << bad << "\"";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("AXSNN_EVENT_PATH"), std::string::npos) << what;
      EXPECT_NE(what.find(std::string("\"") + bad + "\""), std::string::npos)
          << what;
      EXPECT_NE(what.find("auto, dense, event, off, on"), std::string::npos)
          << what;
    }
  }
}

TEST(EventPathMode, UsesEventPathNeedsEventModeAndNoHook) {
  snn::Network net;
  ScopedEventPathMode neutral(EventPathMode::kAuto);
  EXPECT_FALSE(snn::UsesEventPath(net));  // auto resolves to dense
  net.set_event_path(EventPathMode::kEvent);
  EXPECT_TRUE(snn::UsesEventPath(net));
  {
    ScopedEventPathMode forced(EventPathMode::kDense);
    EXPECT_FALSE(snn::UsesEventPath(net));  // the global override wins
  }
  // A post-layer hook fires on the dense chain only, so it forces dense.
  net.set_post_layer_hook([](std::size_t, Tensor&) {});
  EXPECT_FALSE(snn::UsesEventPath(net));
  ScopedEventPathMode forced(EventPathMode::kEvent);
  EXPECT_FALSE(snn::UsesEventPath(net));
}

TEST(EventPathMode, GlobalOverridesConfigAutoResolvesDense) {
  using snn::ResolveEventPathMode;
  // Pin the global to auto first: the CI event-path leg exports
  // AXSNN_EVENT_PATH=on, and this test must hold in every leg.
  ScopedEventPathMode neutral(EventPathMode::kAuto);
  EXPECT_EQ(ResolveEventPathMode(EventPathMode::kAuto), EventPathMode::kDense);
  EXPECT_EQ(ResolveEventPathMode(EventPathMode::kEvent),
            EventPathMode::kEvent);
  {
    ScopedEventPathMode scoped(EventPathMode::kEvent);
    EXPECT_EQ(ResolveEventPathMode(EventPathMode::kAuto),
              EventPathMode::kEvent);
    EXPECT_EQ(ResolveEventPathMode(EventPathMode::kDense),
              EventPathMode::kEvent);  // global non-auto wins
  }
  EXPECT_EQ(ResolveEventPathMode(EventPathMode::kAuto), EventPathMode::kDense);
}

// --- End-to-end bit-identity: fp32, all densities x kernel modes -----------

Tensor DenseLogits(snn::Network& net, const Tensor& frames) {
  ScopedEventPathMode scoped(EventPathMode::kDense);
  return snn::LogitsTemporal(net, frames);
}

Tensor EventLogits(snn::Network& net, const Tensor& frames) {
  ScopedEventPathMode scoped(EventPathMode::kEvent);
  return snn::LogitsTemporal(net, frames);
}

TEST(EventPipeline, Fp32BitIdenticalAcrossDensitiesAndKernelModes) {
  snn::Network net = SmallDvsNet();
  const struct {
    const char* name;
    double density;
    bool silence_odd;
  } kCases[] = {
      {"all-silent", 0.0, false},
      {"half-steps-silent", 0.35, true},
      {"half-dense", 0.5, false},
      {"saturated", 1.0, false},
  };
  const KernelMode kModes[] = {KernelMode::kAuto, KernelMode::kNaive,
                               KernelMode::kSparse, KernelMode::kSimd};
  for (const auto& c : kCases) {
    Tensor frames = RandomBinaryFrames(3, 6, 2, 16, 16, c.density, 41);
    if (c.silence_odd) SilenceOddSteps(frames);
    for (KernelMode mode : kModes) {
      ScopedKernelMode scoped_mode(mode);
      Tensor dense = DenseLogits(net, frames);
      Tensor event = EventLogits(net, frames);
      ExpectBitIdentical(dense, event, c.name);
    }
  }
}

TEST(EventPipeline, NonBinaryFramesFallBackToDense) {
  snn::Network net = SmallDvsNet();
  Tensor frames = RandomBinaryFrames(2, 4, 2, 16, 16, 0.4, 43);
  frames[7] = 0.5f;  // rate-coded analog value: not stream-representable
  Tensor dense = DenseLogits(net, frames);
  Tensor event = EventLogits(net, frames);  // must silently take dense path
  ExpectBitIdentical(dense, event, "non-binary fallback");
}

// --- End-to-end bit-identity: int8 backend, every kernel mode -------------

TEST(EventPipeline, Int8BitIdenticalAcrossKernelModes) {
  snn::Network net = SmallDvsNet();
  Tensor calib_frames = RandomBinaryFrames(4, 6, 2, 16, 16, 0.3, 47);
  approx::CalibrationStats calibration =
      approx::Calibrate(net, snn::TimeMajor(calib_frames));

  approx::ApproxConfig cfg;
  cfg.precision = approx::Precision::kInt8;
  cfg.level = 0.0;
  cfg.time_steps = 6;
  cfg.int8_kernels = true;
  auto [ax, report] = approx::MakeApproximate(net, cfg, calibration);
  (void)report;

  Tensor frames = RandomBinaryFrames(3, 6, 2, 16, 16, 0.4, 53);
  SilenceOddSteps(frames);
  const KernelMode kModes[] = {KernelMode::kAuto, KernelMode::kNaive,
                               KernelMode::kSparse, KernelMode::kSimd};
  for (KernelMode mode : kModes) {
    ScopedKernelMode scoped_mode(mode);
    Tensor dense = DenseLogits(ax, frames);
    Tensor event = EventLogits(ax, frames);
    ExpectBitIdentical(dense, event, "int8");
  }
}

// --- Pool geometries the DVS net does not exercise -------------------------

TEST(EventPipeline, BitIdenticalAcrossPoolWindows) {
  for (long window : {1L, 4L}) {
    Rng rng(61);
    snn::Network net;
    net.Emplace<snn::Conv2d>("c1", 2L, 4L, 3L, 1L, rng);
    net.Emplace<snn::LifLayer>("l1", snn::LifParams{});
    net.Emplace<snn::AvgPool2d>("p1", window);
    const long side = 8 / window;
    net.Emplace<snn::Dense>("fc1", 4 * side * side, 16L, rng);
    net.Emplace<snn::LifLayer>("l2", snn::LifParams{});
    net.Emplace<snn::Dense>("fc2", 16L, 5L, rng);

    Tensor frames = RandomBinaryFrames(2, 5, 2, 8, 8, 0.3, 67);
    SilenceOddSteps(frames);
    Tensor dense = DenseLogits(net, frames);
    Tensor event = EventLogits(net, frames);
    ExpectBitIdentical(dense, event,
                       window == 1 ? "pool window 1" : "pool window 4");
  }
}

// --- Batched prediction: chunk boundaries must not matter ------------------

TEST(EventPipeline, PredictTemporalMatchesWithRaggedBatches) {
  snn::Network net = SmallDvsNet();
  Tensor frames = RandomBinaryFrames(7, 5, 2, 16, 16, 0.25, 71);
  std::vector<int> dense_preds, event_preds;
  {
    ScopedEventPathMode scoped(EventPathMode::kDense);
    dense_preds = snn::PredictTemporal(net, frames, /*batch_size=*/3);
  }
  {
    ScopedEventPathMode scoped(EventPathMode::kEvent);
    event_preds = snn::PredictTemporal(net, frames, /*batch_size=*/3);
  }
  EXPECT_EQ(dense_preds, event_preds);
}

// --- Skip accounting -------------------------------------------------------

TEST(EventRunner, CountsSilentStepsAndSkippedKernels) {
  snn::Network net = SmallDvsNet();
  Tensor frames = RandomBinaryFrames(2, 8, 2, 16, 16, 0.3, 73);
  SilenceOddSteps(frames);  // steps 1, 3, 5, 7 silent
  SpikeStream stream;
  ASSERT_TRUE(snn::TimeMajorPackInto(frames, stream));
  ASSERT_EQ(stream.SilentSteps(), 4);

  snn::EventRunner runner(net);
  const Tensor& logits = runner.Run(stream);
  EXPECT_EQ(logits.shape(), (Shape{2, 11}));

  const snn::EventRunStats& stats = runner.stats();
  EXPECT_EQ(stats.time_steps, 8);
  EXPECT_EQ(stats.batch, 2);
  EXPECT_EQ(stats.silent_steps, 4);
  // Every weight layer books exactly one of (run, skipped) per timestep.
  EXPECT_EQ(stats.kernel_calls + stats.kernel_calls_skipped,
            8 * kDvsWeightLayers);
  // Each silent input step skips at least the first conv.
  EXPECT_GE(stats.kernel_calls_skipped, stats.silent_steps);
  EXPECT_GT(stats.kernel_calls, 0);
}

TEST(EventRunner, AllSilentStreamSkipsEveryFirstLayerCall) {
  snn::Network net = SmallDvsNet();
  Tensor frames({2, 6, 2, 16, 16});  // zero-initialized: fully silent
  SpikeStream stream;
  ASSERT_TRUE(snn::TimeMajorPackInto(frames, stream));
  snn::EventRunner runner(net);
  Tensor event = runner.Run(stream);
  EXPECT_EQ(runner.stats().silent_steps, 6);
  EXPECT_GT(runner.stats().kernel_calls_skipped, 0);
  // Still bit-identical to the dense path on pure bias propagation.
  Tensor dense = DenseLogits(net, frames);
  ExpectBitIdentical(dense, event, "all-silent stream");
}

// --- Workbench grid: the fig7b/table2 entry point --------------------------

TEST(EventPipeline, WorkbenchGridBitIdenticalAcrossPaths) {
  data::DvsGestureOptions data_opts;
  data_opts.count = 33;
  data_opts.seed = 77;
  data::EventDataset train = data::MakeSyntheticDvsGesture(data_opts);
  data_opts.count = 22;
  data_opts.seed = 78;
  data::EventDataset test = data::MakeSyntheticDvsGesture(data_opts);

  core::DvsWorkbench::Options opts;
  opts.train.epochs = 2;
  opts.time_bins = 8;
  opts.eval_batch = 8;
  core::DvsWorkbench bench(std::move(train), std::move(test), opts);
  core::DvsWorkbench::TrainedModel model = bench.Train(1.0f);

  const std::vector<core::VariantSpec> specs = {
      {approx::Precision::kFp32, 0.0, std::nullopt},
      {approx::Precision::kInt8, 0.0, std::nullopt},
      {approx::Precision::kFp32, 0.05, std::nullopt},
  };

  float acc_dense = 0.0f, acc_event = 0.0f;
  std::vector<float> grid_dense, grid_event;
  {
    ScopedEventPathMode scoped(EventPathMode::kDense);
    acc_dense = bench.AccuracyPct(model.net, bench.test_set());
    grid_dense =
        bench.EvaluateVariants(model, bench.test_set(), std::nullopt, specs);
  }
  {
    ScopedEventPathMode scoped(EventPathMode::kEvent);
    acc_event = bench.AccuracyPct(model.net, bench.test_set());
    grid_event =
        bench.EvaluateVariants(model, bench.test_set(), std::nullopt, specs);
  }
  EXPECT_EQ(acc_dense, acc_event);
  ASSERT_EQ(grid_dense.size(), grid_event.size());
  for (std::size_t i = 0; i < grid_dense.size(); ++i)
    EXPECT_EQ(grid_dense[i], grid_event[i]) << "grid cell " << i;
}

}  // namespace
}  // namespace axsnn
