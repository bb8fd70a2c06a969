#include "core/workbench.hpp"

#include <algorithm>

#include "kernels/spike_stream.hpp"
#include "runtime/parallel_for.hpp"
#include "snn/event_runner.hpp"
#include "snn/inference.hpp"
#include "tensor/check.hpp"

namespace axsnn::core {

std::string AttackName(AttackKind kind) {
  // Index-to-key table only; the canonical display name comes from the
  // registered attack object, so the registry stays the single source of
  // truth (a missing registration throws with the registered list).
  static constexpr std::string_view kRegistryKeys[] = {"none", "PGD", "BIM",
                                                       "Sparse", "Frame"};
  const auto index = static_cast<std::size_t>(kind);
  AXSNN_CHECK(index < std::size(kRegistryKeys),
              "unknown AttackKind " << static_cast<int>(kind));
  return attacks::GetAttack(kRegistryKeys[index]).name();
}

// ---------------------------------------------------------------------------
// StaticWorkbench
// ---------------------------------------------------------------------------

StaticWorkbench::StaticWorkbench(data::StaticDataset train_set,
                                 data::StaticDataset test_set,
                                 Options options)
    : train_(std::move(train_set)),
      test_(std::move(test_set)),
      options_(std::move(options)) {
  AXSNN_CHECK(train_.size() > 0 && test_.size() > 0,
              "workbench needs non-empty train and test sets");
  AXSNN_CHECK(options_.train_time_steps_cap > 0 &&
                  options_.attack_time_steps_cap > 0,
              "time step caps must be positive");
}

StaticWorkbench::TrainedModel StaticWorkbench::Train(float vth,
                                                     long time_steps) const {
  AXSNN_CHECK(time_steps > 0, "time_steps must be positive");
  TrainedModel model;
  model.v_threshold = vth;
  model.time_steps = time_steps;

  snn::StaticNetOptions net_opts = options_.net;
  net_opts.lif.v_threshold = vth;
  model.net = snn::BuildStaticNet(net_opts);

  snn::TrainConfig cfg = options_.train;
  cfg.time_steps = std::min(time_steps, options_.train_time_steps_cap);
  snn::TrainResult result =
      snn::FitStatic(model.net, train_.images, train_.labels, cfg);
  model.train_accuracy_pct = result.final_accuracy * 100.0f;

  // Calibration on a clean test slice at the structural T: this measures the
  // Ns/T and Vm terms of Eq. (1) under deployment conditions.
  const long calib_count = std::min<long>(64, test_.size());
  Shape slice_shape = test_.images.shape();
  slice_shape[0] = calib_count;
  Tensor calib_images(slice_shape);
  std::copy(test_.images.data(),
            test_.images.data() + calib_images.numel(), calib_images.data());
  Rng calib_rng(options_.seed ^ 0xCA11B7ULL);
  Tensor calib_input = snn::EncodeRate(calib_images, time_steps, calib_rng);
  model.calibration = approx::Calibrate(model.net, calib_input);
  return model;
}

Tensor StaticWorkbench::Craft(const TrainedModel& model,
                              std::string_view attack, float epsilon,
                              const attacks::ParamMap& params) const {
  const attacks::Attack& impl = attacks::GetAttack(attack);
  AXSNN_CHECK(impl.supports_static(),
              "attack '" << impl.name()
                         << "' does not apply to static image batches — "
                            "neuromorphic attacks need the DvsWorkbench");
  attacks::StaticCraftContext ctx;
  ctx.epsilon = epsilon;
  ctx.steps = options_.attack_steps;
  ctx.time_steps = std::min(model.time_steps, options_.attack_time_steps_cap);
  ctx.seed = options_.seed ^ 0xA77AC4ULL;
  ctx.batch_size = options_.eval_batch;
  return impl.CraftStatic(model.net, test_.images, test_.labels, ctx, params);
}

Tensor StaticWorkbench::Craft(const TrainedModel& model, AttackKind kind,
                              float epsilon) const {
  return Craft(model, AttackName(kind), epsilon);
}

snn::Network StaticWorkbench::MakeAx(const TrainedModel& model, double level,
                                     approx::Precision precision) const {
  return MakeAx(model, VariantSpec{precision, level, std::nullopt});
}

snn::Network StaticWorkbench::MakeAx(const TrainedModel& model,
                                     const VariantSpec& spec) const {
  approx::ApproxConfig cfg;
  cfg.level = spec.level;
  cfg.precision = spec.precision;
  cfg.time_steps = model.time_steps;
  cfg.threshold_gain = options_.threshold_gain;
  cfg.int8_kernels = options_.int8_kernels;
  cfg.kernel_mode = spec.kernel_mode.value_or(options_.kernel_mode);
  auto [ax, report] = approx::MakeApproximate(model.net, cfg,
                                              model.calibration);
  (void)report;
  return std::move(ax);
}

float StaticWorkbench::AccuracyPct(snn::Network& victim, const Tensor& images,
                                   long time_steps) const {
  return 100.0f * snn::AccuracyStatic(victim, images, test_.labels,
                                      time_steps, options_.eval_encoding,
                                      options_.seed ^ 0xE7A10ULL,
                                      options_.eval_batch);
}

std::vector<float> StaticWorkbench::EvaluateVariants(
    const TrainedModel& model, const Tensor& images,
    std::span<const VariantSpec> specs) const {
  std::vector<float> robustness(specs.size(), 0.0f);
  // grain 1: one sweep cell per pool task. Each cell owns its clone and its
  // output slot, and its evaluation RNG is freshly seeded inside
  // AccuracyPct, so the fan-out is bit-identical to the serial loop.
  runtime::ParallelFor(
      0, static_cast<long>(specs.size()),
      [&](long i) {
        const VariantSpec& spec = specs[static_cast<std::size_t>(i)];
        snn::Network ax = MakeAx(model, spec);
        robustness[static_cast<std::size_t>(i)] =
            AccuracyPct(ax, images, model.time_steps);
      },
      /*grain=*/1);
  return robustness;
}

// ---------------------------------------------------------------------------
// DvsWorkbench
// ---------------------------------------------------------------------------

DvsWorkbench::DvsWorkbench(data::EventDataset train_set,
                           data::EventDataset test_set, Options options)
    : train_(std::move(train_set)),
      test_(std::move(test_set)),
      options_(std::move(options)) {
  AXSNN_CHECK(train_.size() > 0 && test_.size() > 0,
              "workbench needs non-empty train and test sets");
  AXSNN_CHECK(options_.time_bins > 0, "time_bins must be positive");
  train_frames_ = data::BinDataset(train_, options_.time_bins);
}

DvsWorkbench::TrainedModel DvsWorkbench::Train(float vth) const {
  TrainedModel model;
  model.v_threshold = vth;
  model.time_bins = options_.time_bins;

  snn::DvsNetOptions net_opts = options_.net;
  net_opts.lif.v_threshold = vth;
  net_opts.height = train_.height;
  net_opts.width = train_.width;
  model.net = snn::BuildDvsNet(net_opts);

  snn::TrainConfig cfg = options_.train;
  cfg.time_steps = options_.time_bins;
  snn::TrainResult result =
      snn::FitTemporal(model.net, train_frames_, train_.labels, cfg);
  model.train_accuracy_pct = result.final_accuracy * 100.0f;

  // Calibrate on a clean test slice.
  const long calib_count = std::min<long>(32, test_.size());
  data::EventDataset calib;
  calib.width = test_.width;
  calib.height = test_.height;
  calib.duration_ms = test_.duration_ms;
  calib.streams.assign(test_.streams.begin(),
                       test_.streams.begin() + calib_count);
  calib.labels.assign(test_.labels.begin(),
                      test_.labels.begin() + calib_count);
  Tensor frames = data::BinDataset(calib, options_.time_bins);
  model.calibration =
      approx::Calibrate(model.net, snn::TimeMajor(frames));
  return model;
}

data::EventDataset DvsWorkbench::Craft(const TrainedModel& model,
                                       std::string_view attack,
                                       const attacks::ParamMap& params) const {
  const attacks::Attack& impl = attacks::GetAttack(attack);
  AXSNN_CHECK(impl.supports_events(),
              "attack '" << impl.name()
                         << "' does not apply to event datasets — "
                            "gradient attacks need the StaticWorkbench");
  // Workbench options seed the paper attacks' parameters; explicit caller
  // params win over both the options and the schema defaults.
  attacks::ParamMap merged = DefaultAttackParams(attack);
  for (const auto& [key, value] : params)
    merged.insert_or_assign(key, value);
  attacks::EventCraftContext ctx;
  ctx.time_bins = options_.time_bins;
  ctx.seed = options_.sparse.seed;
  return impl.CraftEvents(model.net, test_, ctx, merged);
}

data::EventDataset DvsWorkbench::Craft(const TrainedModel& model,
                                       AttackKind kind) const {
  return Craft(model, AttackName(kind));
}

attacks::ParamMap DvsWorkbench::DefaultAttackParams(
    std::string_view attack) const {
  attacks::ParamMap params;
  if (attack == "Sparse") {
    params.emplace("max_iterations",
                   static_cast<double>(options_.sparse.max_iterations));
    params.emplace("events_per_iteration",
                   static_cast<double>(options_.sparse.events_per_iteration));
    params.emplace("min_spacing",
                   static_cast<double>(options_.sparse.min_spacing));
  } else if (attack == "Frame") {
    params.emplace("period_ms",
                   static_cast<double>(options_.frame.period_ms));
    params.emplace("border", static_cast<double>(options_.frame.border));
    params.emplace("both_polarities",
                   options_.frame.both_polarities ? 1.0 : 0.0);
  }
  return params;
}

snn::Network DvsWorkbench::MakeAx(const TrainedModel& model, double level,
                                  approx::Precision precision) const {
  return MakeAx(model, VariantSpec{precision, level, std::nullopt});
}

snn::Network DvsWorkbench::MakeAx(const TrainedModel& model,
                                  const VariantSpec& spec) const {
  approx::ApproxConfig cfg;
  cfg.level = spec.level;
  cfg.precision = spec.precision;
  cfg.time_steps = model.time_bins;
  cfg.threshold_gain = options_.threshold_gain;
  cfg.int8_kernels = options_.int8_kernels;
  cfg.kernel_mode = spec.kernel_mode.value_or(options_.kernel_mode);
  cfg.event_path = options_.event_path;
  auto [ax, report] = approx::MakeApproximate(model.net, cfg,
                                              model.calibration);
  (void)report;
  return std::move(ax);
}

float DvsWorkbench::EvalAccuracyPct(snn::Network& net,
                                    const data::EventDataset& eval_set,
                                    const Tensor* frames) const {
  if (snn::UsesEventPath(net)) {
    // Bins one eval chunk at a time straight into a packed spike stream
    // (the [N, T, 2, H, W] dense tensor never exists) and steps the runner
    // over it. Chunk boundaries match the dense AccuracyTemporal loop and
    // the runner's logits are bit-identical to the dense readout, so the
    // predictions — and every rendered report — are identical across paths.
    const long n = eval_set.size();
    const long batch = options_.eval_batch;
    kernels::SpikeStream stream;
    snn::EventRunner runner(net);
    long correct = 0;
    for (long start = 0; start < n; start += batch) {
      const long count = std::min(batch, n - start);
      data::BinRangePacked(eval_set, start, start + count, options_.time_bins,
                           stream);
      const Tensor& logits = runner.Run(stream);
      const long k = logits.dim(1);
      for (long i = 0; i < count; ++i) {
        const float* row = logits.data() + i * k;
        const int pred =
            static_cast<int>(std::max_element(row, row + k) - row);
        if (pred == eval_set.labels[static_cast<std::size_t>(start + i)])
          ++correct;
      }
    }
    return n == 0 ? 0.0f
                 : 100.0f * (static_cast<float>(correct) /
                             static_cast<float>(n));
  }
  Tensor binned;
  if (frames == nullptr) {
    binned = data::BinDataset(eval_set, options_.time_bins);
    frames = &binned;
  }
  return 100.0f * snn::AccuracyTemporal(net, *frames, eval_set.labels,
                                        options_.eval_batch);
}

float DvsWorkbench::AccuracyPct(snn::Network& victim,
                                const data::EventDataset& streams,
                                const std::optional<AqfConfig>& aqf) const {
  if (!aqf.has_value()) return EvalAccuracyPct(victim, streams, nullptr);
  return EvalAccuracyPct(victim, AqfFilterDataset(streams, *aqf), nullptr);
}

std::vector<float> DvsWorkbench::EvaluateVariants(
    const TrainedModel& model, const data::EventDataset& streams,
    const std::optional<AqfConfig>& aqf,
    std::span<const VariantSpec> specs) const {
  // Filter and bin once, shared read-only by every cell — the serial path
  // repeats this per variant, so the fan-out also removes redundant work.
  const data::EventDataset* eval_set = &streams;
  data::EventDataset filtered;
  if (aqf.has_value()) {
    filtered = AqfFilterDataset(streams, *aqf);
    eval_set = &filtered;
  }
  // Every cell carries the options-level event_path (MakeAx applies it) and
  // no hook, so on the event path no cell reads dense frames: skip the
  // binning then — each cell bins per-chunk packed streams instead.
  Tensor frames;
  if (snn::ResolveEventPathMode(options_.event_path) !=
      snn::EventPathMode::kEvent)
    frames = data::BinDataset(*eval_set, options_.time_bins);
  std::vector<float> robustness(specs.size(), 0.0f);
  runtime::ParallelFor(
      0, static_cast<long>(specs.size()),
      [&](long i) {
        const VariantSpec& spec = specs[static_cast<std::size_t>(i)];
        snn::Network ax = MakeAx(model, spec);
        robustness[static_cast<std::size_t>(i)] = EvalAccuracyPct(
            ax, *eval_set, frames.empty() ? nullptr : &frames);
      },
      /*grain=*/1);
  return robustness;
}

}  // namespace axsnn::core
