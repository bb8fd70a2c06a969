// Leaky-integrate-and-fire (LIF) neuron model parameters.
//
// The paper treats the threshold voltage Vth and the number of time steps T
// as *structural parameters* of the SNN and sweeps both in its robustness
// study (Figs. 4–7), so they are first-class values here rather than
// compile-time constants.
#pragma once

#include <algorithm>

#include "tensor/check.hpp"

namespace axsnn::snn {

/// Parameters of the standard LIF neuron used throughout the paper.
///
/// Dynamics per time step t (hard reset, as in the paper's Section II):
///   u[t] = beta * u[t-1] * (1 - s[t-1]) + I[t]
///   s[t] = 1 if u[t] >= v_threshold else 0
/// where u is the membrane potential, I the synaptic input current and s the
/// emitted spike. After a spike the membrane resets to `v_reset` (the
/// multiplicative (1 - s) term implements reset-to-zero; a nonzero v_reset
/// shifts the post-spike potential).
struct LifParams {
  /// Firing threshold voltage (the paper sweeps 0.25 … 2.25).
  float v_threshold = 1.0f;
  /// Membrane leak factor in (0, 1]; 1 = perfect integrator.
  float beta = 0.9f;
  /// Post-spike reset potential.
  float v_reset = 0.0f;
  /// Surrogate-gradient sharpness (fast sigmoid slope alpha).
  float surrogate_alpha = 2.0f;

  /// Validates parameter ranges; throws std::invalid_argument on misuse.
  void Validate() const {
    AXSNN_CHECK(v_threshold > 0.0f, "v_threshold must be positive");
    AXSNN_CHECK(beta > 0.0f && beta <= 1.0f, "beta must be in (0, 1]");
    AXSNN_CHECK(surrogate_alpha > 0.0f, "surrogate_alpha must be positive");
  }
};

/// Fast-sigmoid surrogate derivative of the Heaviside spike function,
///   d s / d u ≈ 1 / (1 + alpha * |u - vth|)^2,
/// evaluated at membrane potential `u` for threshold `vth`. This is the
/// standard choice for training SNNs with backpropagation-through-time and is
/// what our gradient-based attacks (PGD/BIM) differentiate through as well.
inline float SurrogateGrad(float u, float vth, float alpha) {
  // |u - vth| as the larger of the two differences: both are computed, so
  // a loop over neurons vectorizes (a conditional pick of one difference
  // compiles to a branch under trapping floating-point math).
  const float d = 1.0f + alpha * std::max(u - vth, vth - u);
  return 1.0f / (d * d);
}

}  // namespace axsnn::snn
