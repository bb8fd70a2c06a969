// 2-D convolution layer (stride 1, symmetric zero padding).
//
// Spiking networks apply the same synaptic weights at every time step, so the
// convolution treats the leading [T, B] axes of a time-major activation as
// one large batch. Backward accumulates weight/bias gradients summed over
// time and produces the input gradient, as its request asks, enabling both
// training (BPTT) and input-space adversarial attacks. Both halves run
// behind the kernel dispatcher (kernels/conv2d_kernels.hpp).
#pragma once

#include <memory>
#include <string>

#include "snn/weight_layer.hpp"

namespace axsnn::snn {

/// Convolution over [*, C_in, H, W] -> [*, C_out, H_out, W_out] where * is
/// the flattened [T, B] prefix. Weights are [C_out, C_in, K, K].
class Conv2d final : public WeightLayer {
 public:
  /// Creates a convolution with Kaiming-uniform initialized weights.
  /// `pad` is symmetric zero padding (K=3, pad=1 keeps H, W unchanged).
  Conv2d(std::string name, long in_channels, long out_channels, long kernel,
         long pad, Rng& rng);

  Shape OutputShape(const Shape& in) const override;
  void BackwardInto(const Tensor& grad_out, Tensor& grad_in,
                    GradRequest request) override;
  std::unique_ptr<Layer> Clone() const override;

  long in_channels() const { return in_channels_; }
  long out_channels() const { return out_channels_; }
  long kernel() const { return kernel_; }
  long fan_in() const override { return in_channels_ * kernel_ * kernel_; }
  long fan_out() const override { return out_channels_ * kernel_ * kernel_; }

 private:
  void RunKernel(const Tensor& x, Tensor& out,
                 const kernels::PackedWords* packed) override;
  void SizeStepOutput(const Tensor& x, Tensor& out) override {
    SizeOutput(x, out);
  }
  long SampleLength(const Tensor& x) const override;

  long in_channels_ = 0;
  long out_channels_ = 0;
  long kernel_ = 0;
  long pad_ = 0;
};

}  // namespace axsnn::snn
