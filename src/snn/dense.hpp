// Fully-connected layer over the trailing feature axis.
//
// Input [*, F_in] -> output [*, F_out], where * is the flattened [T, B]
// prefix. Like Conv2d, the same synaptic weights are applied at every time
// step; Backward sums parameter gradients over time.
#pragma once

#include <memory>
#include <string>

#include "snn/weight_layer.hpp"

namespace axsnn::snn {

/// Fully-connected (linear) layer. Weights are [F_out, F_in].
class Dense final : public WeightLayer {
 public:
  /// Creates a dense layer with Kaiming-uniform initialized weights.
  Dense(std::string name, long in_features, long out_features, Rng& rng);

  Shape OutputShape(const Shape& in) const override;
  void BackwardInto(const Tensor& grad_out, Tensor& grad_in,
                    GradRequest request) override;
  std::unique_ptr<Layer> Clone() const override;

  long in_features() const { return in_features_; }
  long out_features() const { return out_features_; }
  long fan_in() const override { return in_features_; }
  long fan_out() const override { return out_features_; }

 private:
  void RunKernel(const Tensor& x, Tensor& out,
                 const kernels::PackedWords* packed) override;
  /// Sizes out to [B, F_out]: the step batch has no [T, B] prefix, so the
  /// OutputShape prefix check does not apply.
  void SizeStepOutput(const Tensor& x, Tensor& out) override;
  long SampleLength(const Tensor& x) const override {
    (void)x;
    return in_features_;
  }

  long in_features_ = 0;
  long out_features_ = 0;
};

}  // namespace axsnn::snn
