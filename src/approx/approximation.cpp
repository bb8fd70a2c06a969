#include "approx/approximation.hpp"

#include <algorithm>
#include <cmath>

#include "snn/lif_layer.hpp"
#include "snn/weight_layer.hpp"
#include "tensor/check.hpp"

namespace axsnn::approx {

CalibrationStats Calibrate(snn::Network& net, const Tensor& input_tb) {
  AXSNN_CHECK(input_tb.rank() >= 2, "calibration input must be [T, B, ...]");
  // One inference pass, layer by layer (like EstimateEnergy), asking each
  // LIF layer for the statistics of the activation it receives.
  CalibrationStats stats;
  const Tensor* in = &input_tb;
  Tensor buffers[2];
  for (std::size_t i = 0; i < net.size(); ++i) {
    snn::Layer& layer = net.layer(i);
    if (const auto* lif = dynamic_cast<const snn::LifLayer*>(&layer)) {
      const snn::LifStatistics s = lif->Statistics(*in);
      LayerCalibration c;
      c.lif_name = lif->Name();
      c.mean_rate = s.mean_rate;
      c.mean_membrane = s.mean_membrane;
      c.mean_drive = s.mean_drive;
      c.v_threshold = lif->params().v_threshold;
      stats.lif.push_back(c);
    }
    Tensor& out = buffers[i % 2];
    layer.ForwardInto(*in, out, /*train=*/false);
    in = &out;
  }
  return stats;
}

namespace {

/// A weight layer and the LIF layers around it.
struct WeightLayerRef {
  snn::WeightLayer* layer = nullptr;
  int following_lif = -1;  // index into CalibrationStats::lif
  int preceding_lif = -1;
};

/// Walks the network and pairs every weight layer with the LIF layer whose
/// activity drives its Eq. (1) threshold (the LIF it feeds; for the readout
/// layer, the LIF feeding it).
std::vector<WeightLayerRef> CollectWeightLayers(snn::Network& net) {
  std::vector<WeightLayerRef> out;
  int lif_seen = 0;
  for (std::size_t i = 0; i < net.size(); ++i) {
    snn::Layer& layer = net.layer(i);
    if (auto* weighted = dynamic_cast<snn::WeightLayer*>(&layer)) {
      out.push_back({weighted, -1, lif_seen - 1});
    } else if (dynamic_cast<snn::LifLayer*>(&layer) != nullptr) {
      // The most recent weight layer without a LIF yet feeds this one.
      for (auto it = out.rbegin(); it != out.rend(); ++it) {
        if (it->following_lif >= 0) break;
        it->following_lif = lif_seen;
      }
      ++lif_seen;
    }
  }
  return out;
}

}  // namespace

ApproxReport ApplyApproximation(snn::Network& net, const ApproxConfig& cfg,
                                const CalibrationStats& calibration) {
  AXSNN_CHECK(cfg.level >= 0.0, "approximation level must be non-negative");
  AXSNN_CHECK(cfg.time_steps > 0, "time_steps must be positive");
  AXSNN_CHECK(cfg.threshold_gain > 0.0, "threshold_gain must be positive");

  ApproxReport report;
  long pruned_total = 0;
  long conn_total = 0;

  // Temporal-path knob: like kernel_mode, a pure performance preference.
  net.set_event_path(cfg.event_path);

  for (const WeightLayerRef& ref : CollectWeightLayers(net)) {
    snn::WeightLayer& layer = *ref.layer;
    Tensor& weight = layer.weight();
    // Kernel-path knob: applies to fp32 and int8 execution alike.
    layer.set_kernel_mode(cfg.kernel_mode);

    // Precision scaling always applies (it is the wp in Eq. (1)).
    const float weight_scale = QuantizeTensor(weight, cfg.precision);
    QuantizeTensor(layer.bias(), cfg.precision);

    LayerApproxReport lr;
    lr.layer = layer.Name();
    lr.total = weight.numel();
    conn_total += lr.total;

    if (cfg.level > 0.0) {
      // Pick the LIF whose activity gauges this layer's significance.
      const int lif_idx =
          ref.following_lif >= 0 ? ref.following_lif : ref.preceding_lif;
      AXSNN_CHECK(lif_idx >= 0 &&
                      lif_idx < static_cast<int>(calibration.lif.size()),
                  "no calibration stats for layer " << lr.layer);
      const LayerCalibration& cal =
          calibration.lif[static_cast<std::size_t>(lif_idx)];

      // Eq. (1): ath = (Ns/T) * min(1, Vm/Vth) * mean_o|Σ_i wp_oi|.
      // mean_rate already is Ns / (T * neurons). The spike-probability term
      // uses the rectified membrane mean (excitatory drive): the signed mean
      // is typically negative in trained networks, which would degenerate
      // min(1, Vm/Vth) to zero for every layer. The weight term is the
      // Algorithm 1 line 9 connection sum per output neuron (see header for
      // why the fan-in enters through it rather than as a second factor).
      const float spike_prob =
          std::min(1.0f, cal.mean_drive / cal.v_threshold);
      const long fan_in = layer.fan_in();
      const long outputs = weight.numel() / fan_in;
      double sum_of_abs_rowsums = 0.0;
      for (long o = 0; o < outputs; ++o) {
        double row = 0.0;
        for (long i = 0; i < fan_in; ++i) row += weight[o * fan_in + i];
        sum_of_abs_rowsums += std::fabs(row);
      }
      const float mean_connection_sum =
          static_cast<float>(sum_of_abs_rowsums / std::max(1L, outputs));
      const float ath_base = cal.mean_rate * spike_prob * mean_connection_sum;
      lr.ath = static_cast<float>(cfg.level * cfg.threshold_gain) * ath_base;

      for (float& w : weight.flat()) {
        if (std::fabs(w) < lr.ath && w != 0.0f) {
          w = 0.0f;
          ++lr.pruned;
        }
      }
      pruned_total += lr.pruned;
    }

    // kInt8 deployment path: hand the layer its weights as real int8 after
    // the last weight edit (pruned zeros quantize to zero). The per-row
    // scales are all the per-tensor lattice scale, so the int8 codes are
    // exactly the fake-quantization integers and the integer forward pass
    // reproduces the reference emulation to accumulation rounding. True
    // rowwise scales (EnableInt8Kernel with no argument) trade that
    // bit-alignment for finer per-channel resolution on raw float weights.
    if (cfg.precision == Precision::kInt8 && cfg.int8_kernels) {
      const std::vector<float> lattice(
          static_cast<std::size_t>(weight.dim(0)), weight_scale);
      layer.EnableInt8Kernel(lattice);
    } else {
      // Float emulation path (and stale-backend guard when re-approximating
      // a network that previously ran int8).
      layer.DisableInt8Kernel();
    }
    report.layers.push_back(lr);
  }

  report.pruned_fraction =
      conn_total == 0
          ? 0.0
          : static_cast<double>(pruned_total) / static_cast<double>(conn_total);
  return report;
}

std::pair<snn::Network, ApproxReport> MakeApproximate(
    const snn::Network& net, const ApproxConfig& cfg,
    const CalibrationStats& calibration) {
  snn::Network copy = net.Clone();
  ApproxReport report = ApplyApproximation(copy, cfg, calibration);
  return {std::move(copy), std::move(report)};
}

}  // namespace axsnn::approx
