// Inverted dropout for spiking activations.
//
// The DVS-Gesture classifier in the paper contains one dropout layer. The
// mask is drawn once per forward pass over the [B, F...] slice and shared
// across time steps, which matches how dropout is used in SNN training
// frameworks (a synapse is either present or absent for the whole stimulus
// presentation, not flickering per time step).
#pragma once

#include <memory>
#include <string>

#include "snn/layer.hpp"
#include "tensor/random.hpp"
#include "tensor/tensor.hpp"

namespace axsnn::snn {

/// Inverted dropout; identity in inference mode.
class Dropout final : public Layer {
 public:
  /// `rate` is the drop probability in [0, 1). `seed` fixes the mask
  /// sequence so training runs are reproducible.
  Dropout(std::string name, float rate, std::uint64_t seed);

  Shape OutputShape(const Shape& in) const override;
  void ForwardInto(const Tensor& x, Tensor& out, bool train) override;
  /// Event-path step: inference dropout is the identity, so a silent input
  /// stays a silent all-zero output (written without reading x) and a live
  /// input is copied through with its spike mask forwarded unchanged.
  void ForwardStep(const Tensor& x, Tensor& out, StepContext& ctx) override;
  void BeginStepped(long time_steps, long batch) override;
  void BackwardInto(const Tensor& grad_out, Tensor& grad_in,
                    GradRequest request) override;
  std::string Name() const override { return name_; }
  std::unique_ptr<Layer> Clone() const override;

  float rate() const { return rate_; }

 private:
  std::string name_;
  float rate_ = 0.0f;
  Rng rng_;
  Tensor mask_;  // [B, F...] scaled keep mask from the last training forward
  bool last_was_train_ = false;
  SilentFill silent_;  // stepped path: zero planes written once per run
};

}  // namespace axsnn::snn
