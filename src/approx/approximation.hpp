// Approximate SNN construction: Eq. (1) thresholds + connection pruning.
//
// The paper derives a per-layer approximation threshold
//
//     ath = (c * Ns / T) * min(1, Vm / Vth) * mean(|wp|)        (Eq. 1)
//
// where c is the number of connections per output neuron (fan-in), Ns/T the
// mean spiking activity of the layer's neurons over the observation window,
// Vm the mean membrane potential, Vth the threshold voltage, and wp the
// precision-scaled weights. Connections whose quantized weight magnitude
// falls below `level * ath` are removed (zeroed) — level is the paper's
// "approximation level" knob (0 = accurate network, 1 ≈ everything pruned).
//
// Ns, Vm are measured by a calibration pass over clean inputs: the LIF layer
// following each weight layer reports its spike statistics.
//
// Reading of the weight term: Algorithm 1 line 9 computes the *signed* per-
// output-neuron connection sum m_c = Σ_j wp_j and calls it "the mean of all
// connections in layer l". We implement exactly that — the mean over output
// neurons of |Σ_j wp_j| — and absorb the leading c of Eq. (1) into it: for
// zero-mean trained weights the signed sum grows like σ·√c, and multiplying
// by c *again* (fan-in twice) makes ath exceed every weight magnitude at any
// nonzero level, i.e. the doubly-scaled reading is degenerate. With this
// reading the published level bands reproduce: level 0.001 prunes ≈1% of
// connections, 0.01 a few percent, 0.1 tens of percent, 1.0 nearly all.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "approx/precision.hpp"
#include "kernels/dispatch.hpp"
#include "snn/network.hpp"
#include "tensor/tensor.hpp"

namespace axsnn::approx {

/// Spike statistics of one LIF layer measured on calibration data.
struct LayerCalibration {
  std::string lif_name;
  float mean_rate = 0.0f;      ///< Ns / (T * neurons): spikes per neuron-step
  float mean_membrane = 0.0f;  ///< signed mean membrane potential
  float mean_drive = 0.0f;     ///< Vm for Eq. (1): mean(max(0, u))
  float v_threshold = 1.0f;    ///< Vth of that layer
};

/// Calibration result for a whole network, in LIF-layer order.
struct CalibrationStats {
  std::vector<LayerCalibration> lif;
};

/// Runs an inference pass on time-major calibration input [T, B, ...] and
/// asks each LIF layer for the spike statistics of its input
/// (snn::LifLayer::Statistics).
CalibrationStats Calibrate(snn::Network& net, const Tensor& input_tb);

/// AxSNN construction parameters.
struct ApproxConfig {
  /// The paper's approximation level a_th knob; 0 disables approximation.
  double level = 0.0;
  /// Weight precision scale (applied before thresholding, as in Alg. 1).
  Precision precision = Precision::kFp32;
  /// Observation window T used in the Ns/T activity term.
  long time_steps = 32;
  /// Calibration constant aligning our Eq. (1) reading with the paper's
  /// published level bands (level 0.001 ≈ 1% pruned, 0.01 a few %, 0.1
  /// prunes most of the network to ≈50% accuracy, 1.0 ≈ chance). Measured
  /// once on the reference static classifier; see DESIGN.md.
  double threshold_gain = 3.0;
  /// kInt8 only: execute the variant on the integer backend
  /// (approx/int8_backend.*) — int8 weight storage with per-output-channel
  /// scales, int32 accumulation, requantized outputs. When false, kInt8
  /// stays the paper's float fake-quantization emulation; that reference
  /// path is what the int8 backend is pinned against in the determinism
  /// tests. See DESIGN.md ("INT8 backend").
  bool int8_kernels = true;
  /// Kernel-implementation knob applied to every Conv2d/Dense of the
  /// variant (naive | sparse | simd; kAuto probes spike density per call).
  /// Every path is bit-identical — this is a performance/debugging knob,
  /// never an accuracy one. A non-auto AXSNN_KERNEL_MODE overrides it.
  kernels::KernelMode kernel_mode = kernels::KernelMode::kAuto;
  /// Temporal-execution knob applied to the variant's Network: dense frame
  /// tensors vs the compressed spike-stream event path (skip-on-silent,
  /// packed gather). Bit-identical inference either way — a performance
  /// knob like kernel_mode, with the same precedence: a non-auto
  /// AXSNN_EVENT_PATH overrides it; kAuto resolves to dense.
  snn::EventPathMode event_path = snn::EventPathMode::kAuto;
};

/// Per weight-layer outcome of the approximation pass.
struct LayerApproxReport {
  std::string layer;
  float ath = 0.0f;     ///< effective threshold (level already applied)
  long pruned = 0;      ///< connections removed
  long total = 0;       ///< connections in the layer
};

/// Whole-network outcome.
struct ApproxReport {
  std::vector<LayerApproxReport> layers;
  /// Fraction of all synaptic connections removed, in [0, 1].
  double pruned_fraction = 0.0;
};

/// Transforms `net` into its approximate counterpart in place:
/// 1. quantizes every weight tensor to cfg.precision;
/// 2. computes Eq. (1) per weight layer from `calibration`;
/// 3. zeroes connections with |w| below the level-scaled threshold.
/// The calibration must come from the same (or an identically structured)
/// network. Biases are quantized but never pruned.
ApproxReport ApplyApproximation(snn::Network& net, const ApproxConfig& cfg,
                                const CalibrationStats& calibration);

/// Convenience: deep-copies `net` and approximates the copy.
std::pair<snn::Network, ApproxReport> MakeApproximate(
    const snn::Network& net, const ApproxConfig& cfg,
    const CalibrationStats& calibration);

}  // namespace axsnn::approx
