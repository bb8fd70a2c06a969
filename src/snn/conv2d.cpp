#include "snn/conv2d.hpp"

#include <algorithm>

#include "approx/int8_backend.hpp"
#include "kernels/conv2d_kernels.hpp"
#include "tensor/check.hpp"

namespace axsnn::snn {

Conv2d::Conv2d(std::string name, long in_channels, long out_channels,
               long kernel, long pad, Rng& rng)
    : WeightLayer(std::move(name)),
      in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_(kernel),
      pad_(pad) {
  AXSNN_CHECK(in_channels > 0 && out_channels > 0 && kernel > 0,
              "Conv2d dimensions must be positive");
  AXSNN_CHECK(pad >= 0 && pad < kernel, "Conv2d pad must be in [0, kernel)");
  InitWeights({out_channels, in_channels, kernel, kernel}, rng);
}

Shape Conv2d::OutputShape(const Shape& in) const {
  AXSNN_CHECK(in.size() >= 3, "Conv2d expects [*, C, H, W]");
  const std::size_t r = in.size();
  const long c_in = in[r - 3];
  const long h = in[r - 2];
  const long w = in[r - 1];
  AXSNN_CHECK(c_in == in_channels_,
              "Conv2d " << Name() << ": got " << c_in
                        << " input channels, want " << in_channels_);
  const long h_out = h + 2 * pad_ - kernel_ + 1;
  const long w_out = w + 2 * pad_ - kernel_ + 1;
  AXSNN_CHECK(h_out > 0 && w_out > 0, "Conv2d output would be empty");
  Shape out_shape(in.begin(), in.end() - 3);
  out_shape.push_back(out_channels_);
  out_shape.push_back(h_out);
  out_shape.push_back(w_out);
  return out_shape;
}

long Conv2d::SampleLength(const Tensor& x) const {
  const std::size_t r = x.rank();
  return x.dim(r - 3) * x.dim(r - 2) * x.dim(r - 1);
}

void Conv2d::RunKernel(const Tensor& x, Tensor& out,
                       const kernels::PackedWords* packed) {
  const kernels::Conv2dGeom geom{in_channels_, out_channels_, kernel_, pad_};
  if (int8_kernel()) {
    approx::Int8Conv2dForward(quantized_weight(), bias(), x, out, geom,
                              kernel_mode(), scratch(), packed);
    return;
  }
  kernels::Conv2dForward(weight(), bias(), x, out, geom, kernel_mode(),
                         scratch(), packed);
}

void Conv2d::BackwardInto(const Tensor& grad_out, Tensor& grad_in,
                          GradRequest request) {
  AXSNN_CHECK(!cached_input().empty(),
              "Conv2d::Backward called before Forward");
  const Tensor& x = cached_input();
  const std::size_t r = x.rank();
  const long n = x.numel() / SampleLength(x);
  const long h_out = x.dim(r - 2) + 2 * pad_ - kernel_ + 1;
  const long w_out = x.dim(r - 1) + 2 * pad_ - kernel_ + 1;
  AXSNN_CHECK(grad_out.numel() == n * out_channels_ * h_out * w_out,
              "Conv2d::Backward gradient shape mismatch");
  const kernels::Conv2dGeom geom{in_channels_, out_channels_, kernel_, pad_};
  if (WantsParamGrads(request))
    kernels::Conv2dBackwardParams(x, grad_out, dweight(), dbias(), geom,
                                  kernel_mode(), scratch());
  if (WantsInputGrad(request)) {
    grad_in.ResizeTo(x.shape());
    kernels::Conv2dBackwardInput(weight(), grad_out, grad_in, geom,
                                 kernel_mode(), scratch());
  }
}

std::unique_ptr<Layer> Conv2d::Clone() const { return CloneAs<Conv2d>(); }

}  // namespace axsnn::snn
