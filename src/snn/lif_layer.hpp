// Leaky-integrate-and-fire activation layer with surrogate-gradient BPTT.
//
// This is the only stateful-in-time layer: it runs the membrane recursion
//   u[t] = beta * u[t-1] * (1 - s[t-1]) + x[t],   s[t] = H(u[t] - Vth)
// across the leading time axis of a [T, B, F...] activation, and its
// Backward implements full backpropagation-through-time using the
// fast-sigmoid surrogate for dH/du. The forward runs time-major over chunks
// of neurons; it caches the membrane for Backward only under the
// grad-cache rule (snn/layer.hpp). The spike statistics that the Eq. (1)
// approximation-threshold rule consumes are a separate const request,
// Statistics(x).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "snn/layer.hpp"
#include "snn/lif.hpp"
#include "tensor/tensor.hpp"

namespace axsnn::snn {

/// Spike statistics of one LIF layer on one input (LifLayer::Statistics).
struct LifStatistics {
  /// Total spikes emitted (Ns summed over neurons and time steps).
  double total_spikes = 0.0;
  /// Mean spikes per neuron per time step (Ns/T in Eq. (1) terms).
  float mean_rate = 0.0f;
  /// Mean membrane potential (signed).
  float mean_membrane = 0.0f;
  /// Mean rectified membrane potential, mean(max(0, u)) — the excitatory
  /// drive. This is the Vm a spike-probability reading of Eq. (1) needs:
  /// trained networks often have negative *signed* mean membrane (strong
  /// inhibition), which would zero the min(1, Vm/Vth) term.
  float mean_drive = 0.0f;
};

/// LIF spiking nonlinearity over time-major activations [T, B, F...].
class LifLayer final : public Layer {
 public:
  LifLayer(std::string name, LifParams params);

  Shape OutputShape(const Shape& in) const override;
  /// Caches the membrane u[t] for Backward when `train || grad_cache()`;
  /// an uncached pass releases the cache, so Backward after it throws.
  void ForwardInto(const Tensor& x, Tensor& out, bool train) override;
  /// Event-path step: advances the membrane recursion one timestep from the
  /// per-neuron carry with the same step body as ForwardInto, so the slice
  /// it writes is bit-identical to the dense recursion's slice t. LIF is
  /// never skipped on silent steps: the leak and any bias currents from an
  /// upstream silent-filled conv/dense still integrate. Publishes the
  /// (binary) output spikes into ctx.out and releases the BPTT cache, so
  /// Backward after a stepped run throws.
  void ForwardStep(const Tensor& x, Tensor& out, StepContext& ctx) override;
  void BackwardInto(const Tensor& grad_out, Tensor& grad_in,
                    GradRequest request) override;
  std::string Name() const override { return name_; }
  std::unique_ptr<Layer> Clone() const override;

  const LifParams& params() const { return params_; }

  /// Replaces the neuron parameters (e.g. when sweeping Vth). Clears caches.
  void set_params(LifParams params);

  /// Fault-injection entry (src/faults/): replaces the neuron parameters
  /// WITHOUT range validation — a hardware bit-flip does not respect
  /// software invariants, and a corrupted Vth/leak must flow through the
  /// recursion as-is (every downstream op is well-defined float
  /// arithmetic, including NaN/inf). Clears caches like set_params.
  void set_params_raw(LifParams params);

  /// Spike statistics this layer produces on input `x` [T, B, F...]. Runs
  /// the recursion without touching the layer's state; the sums are reduced
  /// neuron-major per fixed chunk and combined in chunk order, so they are
  /// bit-identical at any pool size.
  LifStatistics Statistics(const Tensor& x) const;

 private:
  std::string name_;
  LifParams params_;
  Tensor cached_membrane_;  // u[t] before reset; empty when uncached
  // Per-neuron recursion carry, reused across calls: the post-reset
  // membrane between forward steps (ForwardInto chunks and the stepped
  // path's timesteps), dL/du[t+1] in Backward.
  std::vector<float> carry_;
};

}  // namespace axsnn::snn
