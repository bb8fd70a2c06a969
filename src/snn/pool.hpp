// Spatial pooling layers (average and max) over [*, C, H, W] activations.
//
// The paper's classifiers use pooling between convolution stages (2 pooling
// layers in the MNIST net, 3 in the DVS net). Average pooling of spike
// trains yields fractional firing rates, which downstream LIF layers
// integrate naturally; max pooling propagates the strongest spike.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "snn/layer.hpp"
#include "tensor/tensor.hpp"

namespace axsnn::snn {

/// Non-overlapping average pooling with a square window.
class AvgPool2d final : public Layer {
 public:
  AvgPool2d(std::string name, long window);

  Shape OutputShape(const Shape& in) const override;
  void ForwardInto(const Tensor& x, Tensor& out, bool train) override;
  /// Event-path step: a silent input pools to an exactly-zero output (the
  /// dense path's +0 window sums), published as an all-zero mask without
  /// touching x's data; otherwise pools normally and packs the output's
  /// nonzero mask (fractional rates pack fine — the mask marks nonzeros,
  /// not binary spikes). Invalidates the Backward cache.
  void ForwardStep(const Tensor& x, Tensor& out, StepContext& ctx) override;
  void BeginStepped(long time_steps, long batch) override;
  void BackwardInto(const Tensor& grad_out, Tensor& grad_in,
                    GradRequest request) override;
  std::string Name() const override { return name_; }
  std::unique_ptr<Layer> Clone() const override;

  long window() const { return window_; }

 private:
  std::string name_;
  long window_ = 2;
  Shape cached_in_shape_;
  SilentFill silent_;  // stepped path: zero planes written once per run
};

/// Non-overlapping max pooling with a square window.
class MaxPool2d final : public Layer {
 public:
  MaxPool2d(std::string name, long window);

  Shape OutputShape(const Shape& in) const override;
  void ForwardInto(const Tensor& x, Tensor& out, bool train) override;
  void BackwardInto(const Tensor& grad_out, Tensor& grad_in,
                    GradRequest request) override;
  std::string Name() const override { return name_; }
  std::unique_ptr<Layer> Clone() const override;

  long window() const { return window_; }

 private:
  std::string name_;
  long window_ = 2;
  Shape cached_in_shape_;
  std::vector<long> argmax_;  // winning input offset per output element
};

}  // namespace axsnn::snn
