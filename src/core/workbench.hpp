// Experiment workbenches: one-stop train/attack/approximate/evaluate
// plumbing shared by Algorithm 1, the benchmark harnesses and the examples.
//
// A workbench owns a train/test split and the model-building options, and
// exposes the four primitives the paper's experiments compose:
//   Train(vth, T)      -> accurate SNN at given structural parameters
//   Craft(model, kind) -> adversarial test set (crafted on the *accurate*
//                         model, per the paper's threat model Section III)
//   MakeAx(...)        -> approximate variant (Eq. 1 + precision scaling)
//   AccuracyPct(...)   -> evaluation, rate-encoded like the paper's setup
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "approx/approximation.hpp"
#include "attacks/gradient_attacks.hpp"
#include "attacks/neuromorphic_attacks.hpp"
#include "attacks/registry.hpp"
#include "core/aqf.hpp"
#include "data/dvs_gesture.hpp"
#include "data/event.hpp"
#include "data/synthetic_mnist.hpp"
#include "snn/models.hpp"
#include "snn/trainer.hpp"

namespace axsnn::core {

/// The four attack families of the paper plus "no attack". Kept as a
/// convenience spelling of the common cases — every kind resolves to a
/// registry attack by name, and the registry (attacks/registry.hpp) is the
/// open set the scenario engine sweeps over.
enum class AttackKind { kNone, kPgd, kBim, kSparse, kFrame };

/// Canonical registry name of `kind` ("none" / "PGD" / "BIM" / "Sparse" /
/// "Frame"), sourced from the registered attack object.
std::string AttackName(AttackKind kind);

/// One approximate-variant cell of the paper's sweep grid: the (precision
/// scale, approximation level) pair derived from a trained accurate model,
/// plus an optional kernel-implementation override (bit-identical across
/// modes — a perf axis, never an accuracy one).
struct VariantSpec {
  approx::Precision precision = approx::Precision::kFp32;
  double level = 0.0;
  std::optional<kernels::KernelMode> kernel_mode;  ///< unset: Options value
};

// ---------------------------------------------------------------------------
// Static-dataset workbench (MNIST-class experiments)
// ---------------------------------------------------------------------------

/// Workbench over a static image dataset.
class StaticWorkbench {
 public:
  struct Options {
    snn::StaticNetOptions net;
    snn::TrainConfig train;
    /// Training unrolls at most this many time steps even when the
    /// structural T is larger (rate statistics are stationary in time; see
    /// DESIGN.md scale note). Evaluation always uses the full T.
    long train_time_steps_cap = 12;
    /// Attack unrolling cap, for the same reason.
    long attack_time_steps_cap = 12;
    /// PGD/BIM iteration count.
    long attack_steps = 10;
    snn::Encoding eval_encoding = snn::Encoding::kRate;
    long eval_batch = 128;
    /// Eq. (1) calibration constant for this architecture (see
    /// approx::ApproxConfig::threshold_gain).
    double threshold_gain = 3.0;
    /// Execute kInt8 variants on the integer backend (int8 weights,
    /// per-output-channel scales, int32 accumulation). False keeps the
    /// float fake-quantization emulation for every precision.
    bool int8_kernels = true;
    /// Kernel implementation for derived variants (src/kernels/ dispatch:
    /// auto | naive | sparse | simd; all bit-identical). kAuto probes spike
    /// density per call; AXSNN_KERNEL_MODE overrides.
    kernels::KernelMode kernel_mode = kernels::KernelMode::kAuto;
    std::uint64_t seed = 5;
  };

  /// An accurate SNN trained at one (Vth, T) cell, plus everything needed
  /// to derive approximate variants from it.
  struct TrainedModel {
    snn::Network net;
    float v_threshold = 0.0f;
    long time_steps = 0;
    float train_accuracy_pct = 0.0f;
    approx::CalibrationStats calibration;
  };

  /// What Craft returns: the attacked test images.
  using AdversarialSet = Tensor;

  StaticWorkbench(data::StaticDataset train_set, data::StaticDataset test_set,
                  Options options);

  /// Trains an accurate SNN with threshold voltage `vth` and observation
  /// window `time_steps` (Algorithm 1, line 3).
  TrainedModel Train(float vth, long time_steps) const;

  /// Crafts adversarial test images on the accurate model (Alg. 1 line 5)
  /// via the attack registry: any registered attack with static support
  /// works, unknown names throw with the registered list. "none" returns
  /// the clean test images. `params` overrides the attack's schema
  /// defaults. The model is const: white-box attacks craft on a clone.
  Tensor Craft(const TrainedModel& model, std::string_view attack,
               float epsilon, const attacks::ParamMap& params = {}) const;

  /// Enum convenience overload: Craft(model, AttackName(kind), epsilon).
  Tensor Craft(const TrainedModel& model, AttackKind kind,
               float epsilon) const;

  /// Builds the approximate variant (Alg. 1 lines 8-11).
  snn::Network MakeAx(const TrainedModel& model, double level,
                      approx::Precision precision) const;

  /// Variant-spec overload; applies spec.kernel_mode when set.
  snn::Network MakeAx(const TrainedModel& model,
                      const VariantSpec& spec) const;

  /// Test accuracy [%] of `victim` on `images`, rate-encoded over the
  /// model's structural T. This equals the paper's robustness R(eps) when
  /// `images` are adversarial (Alg. 1 line 21).
  float AccuracyPct(snn::Network& victim, const Tensor& images,
                    long time_steps) const;

  /// Robustness [%] of every approximate variant of `model` on `images`.
  /// The cells are independent: each one derives its own network clone
  /// (MakeAx) and evaluates on the global runtime pool; kernel loops inside
  /// a cell borrow parked workers or run inline. Results align with `specs`
  /// and are identical at any pool size, including 1.
  std::vector<float> EvaluateVariants(const TrainedModel& model,
                                      const Tensor& images,
                                      std::span<const VariantSpec> specs) const;

  const data::StaticDataset& train_set() const { return train_; }
  const data::StaticDataset& test_set() const { return test_; }
  const Options& options() const { return options_; }

 private:
  data::StaticDataset train_;
  data::StaticDataset test_;
  Options options_;
};

// ---------------------------------------------------------------------------
// Neuromorphic workbench (DVS-Gesture-class experiments)
// ---------------------------------------------------------------------------

/// Workbench over an event-stream dataset.
class DvsWorkbench {
 public:
  struct Options {
    snn::DvsNetOptions net;
    snn::TrainConfig train;
    /// Frames per stream fed to the SNN (T time bins).
    long time_bins = 20;
    attacks::SparseAttackConfig sparse;
    attacks::FrameAttackConfig frame;
    long eval_batch = 64;
    /// Eq. (1) calibration constant for the DVS architecture: level 0.1
    /// keeps clean accuracy (Table II operating point).
    double threshold_gain = 0.3;
    /// Execute kInt8 variants on the integer backend (see
    /// StaticWorkbench::Options::int8_kernels).
    bool int8_kernels = true;
    /// Kernel implementation for derived variants (see
    /// StaticWorkbench::Options::kernel_mode).
    kernels::KernelMode kernel_mode = kernels::KernelMode::kAuto;
    /// Temporal execution path for derived variants and evaluation: dense
    /// [T, B, ...] frame tensors vs the compressed spike-stream event path
    /// (streaming per-chunk binning, skip-on-silent timesteps). Predictions
    /// are bit-identical either way; AXSNN_EVENT_PATH overrides, kAuto
    /// resolves to dense — the same precedence scheme as kernel_mode.
    snn::EventPathMode event_path = snn::EventPathMode::kAuto;
    std::uint64_t seed = 17;
  };

  struct TrainedModel {
    snn::Network net;
    float v_threshold = 0.0f;
    long time_bins = 0;
    float train_accuracy_pct = 0.0f;
    approx::CalibrationStats calibration;
  };

  /// What Craft returns: the attacked test streams.
  using AdversarialSet = data::EventDataset;

  DvsWorkbench(data::EventDataset train_set, data::EventDataset test_set,
               Options options);

  /// Trains an accurate SNN with the given threshold voltage.
  TrainedModel Train(float vth) const;

  /// Attacks the test streams via the attack registry: any registered
  /// attack with event support works (white-box attacks craft on a clone of
  /// the accurate model; model-free attacks ignore it; "none" returns the
  /// clean streams). `params` overrides DefaultAttackParams(attack).
  data::EventDataset Craft(const TrainedModel& model, std::string_view attack,
                           const attacks::ParamMap& params = {}) const;

  /// Enum convenience overload: Craft(model, AttackName(kind)).
  data::EventDataset Craft(const TrainedModel& model, AttackKind kind) const;

  /// The options-derived parameter overrides this workbench applies for
  /// `attack` before caller `params`: Options::sparse / Options::frame for
  /// the paper's two attacks, empty otherwise (schema defaults apply).
  attacks::ParamMap DefaultAttackParams(std::string_view attack) const;

  /// Builds the approximate variant.
  snn::Network MakeAx(const TrainedModel& model, double level,
                      approx::Precision precision) const;

  /// Variant-spec overload; applies spec.kernel_mode when set.
  snn::Network MakeAx(const TrainedModel& model,
                      const VariantSpec& spec) const;

  /// Test accuracy [%] of `victim` on `streams`, optionally AQF-filtered
  /// first (Alg. 1 lines 12-14 with the neuromorphic flag set).
  float AccuracyPct(snn::Network& victim, const data::EventDataset& streams,
                    const std::optional<AqfConfig>& aqf = std::nullopt) const;

  /// Robustness [%] of every approximate variant of `model` on `streams`
  /// (optionally AQF-filtered once, shared by all cells). Independent cells
  /// fan out on the global runtime pool; results align with `specs` and are
  /// identical at any pool size.
  std::vector<float> EvaluateVariants(
      const TrainedModel& model, const data::EventDataset& streams,
      const std::optional<AqfConfig>& aqf,
      std::span<const VariantSpec> specs) const;

  const data::EventDataset& train_set() const { return train_; }
  const data::EventDataset& test_set() const { return test_; }
  const Options& options() const { return options_; }

 private:
  /// Accuracy [%] of `net` on `eval_set`: per-chunk packed streams through
  /// the event runner when snn::UsesEventPath(net), else AccuracyTemporal
  /// over `frames` (the binned eval set; null bins it here).
  float EvalAccuracyPct(snn::Network& net, const data::EventDataset& eval_set,
                        const Tensor* frames) const;

  data::EventDataset train_;
  data::EventDataset test_;
  Tensor train_frames_;  // pre-binned [N, T, 2, H, W]
  Options options_;
};

}  // namespace axsnn::core
