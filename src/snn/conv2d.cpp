#include "snn/conv2d.hpp"

#include <algorithm>

#include "approx/int8_backend.hpp"
#include "kernels/conv2d_kernels.hpp"
#include "runtime/parallel_for.hpp"
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

Tensor Conv2d::Backward(const Tensor& grad_out) {
  AXSNN_CHECK(!cached_input().empty(),
              "Conv2d::Backward called before Forward");
  const Tensor& x = cached_input();
  const std::size_t r = x.rank();
  const long c_in = x.dim(r - 3);
  const long h = x.dim(r - 2);
  const long w = x.dim(r - 1);
  const long n = x.numel() / (c_in * h * w);
  const long h_out = h + 2 * pad_ - kernel_ + 1;
  const long w_out = w + 2 * pad_ - kernel_ + 1;
  AXSNN_CHECK(grad_out.numel() == n * out_channels_ * h_out * w_out,
              "Conv2d::Backward gradient shape mismatch");

  Tensor grad_in(x.shape());

  const float* xd = x.data();
  const float* wd = weight().data();
  const float* gd = grad_out.data();
  float* gid = grad_in.data();
  float* gwd = dweight().data();
  float* gbd = dbias().data();

  const long x_plane = h * w;
  const long x_sample = c_in * x_plane;
  const long o_plane = h_out * w_out;
  const long o_sample = out_channels_ * o_plane;
  const long w_per_out = in_channels_ * kernel_ * kernel_;

  // Weight/bias gradients: parallelize over output channels so each
  // iteration owns a disjoint slice of dweight/dbias (no atomics needed).
  // The inner loop over ox is a contiguous dot product between a gradient
  // row and a shifted input row.
  runtime::ParallelFor(0, out_channels_, [&](long co) {
    float* gw = gwd + co * w_per_out;
    double gb = 0.0;
    for (long s = 0; s < n; ++s) {
      const float* xs = xd + s * x_sample;
      const float* gp = gd + s * o_sample + co * o_plane;
      for (long i = 0; i < o_plane; ++i) gb += gp[i];
      for (long ci = 0; ci < c_in; ++ci) {
        const float* xp = xs + ci * x_plane;
        float* gwp = gw + ci * kernel_ * kernel_;
        for (long ky = 0; ky < kernel_; ++ky) {
          for (long kx = 0; kx < kernel_; ++kx) {
            const long ox_lo = std::max(0L, pad_ - kx);
            const long ox_hi = std::min(w_out, w + pad_ - kx);
            float acc = 0.0f;
            for (long oy = 0; oy < h_out; ++oy) {
              const long iy = oy + ky - pad_;
              if (iy < 0 || iy >= h) continue;
              const float* xrow = xp + iy * w + (kx - pad_);
              const float* grow = gp + oy * w_out;
              for (long ox = ox_lo; ox < ox_hi; ++ox)
                acc += grow[ox] * xrow[ox];
            }
            gwp[ky * kernel_ + kx] += acc;
          }
        }
      }
    }
    gbd[co] += static_cast<float>(gb);
  });

  // Input gradient: parallelize over samples (disjoint grad_in slices);
  // contiguous saxpy over ox per (co, ci, ky, kx, oy).
  runtime::ParallelFor(0, n, [&](long s) {
    const float* gs = gd + s * o_sample;
    float* gi = gid + s * x_sample;
    for (long co = 0; co < out_channels_; ++co) {
      const float* wf = wd + co * w_per_out;
      const float* gp = gs + co * o_plane;
      for (long ci = 0; ci < c_in; ++ci) {
        float* gip = gi + ci * x_plane;
        const float* wp = wf + ci * kernel_ * kernel_;
        for (long ky = 0; ky < kernel_; ++ky) {
          for (long kx = 0; kx < kernel_; ++kx) {
            const float wv = wp[ky * kernel_ + kx];
            if (wv == 0.0f) continue;
            const long ox_lo = std::max(0L, pad_ - kx);
            const long ox_hi = std::min(w_out, w + pad_ - kx);
            for (long oy = 0; oy < h_out; ++oy) {
              const long iy = oy + ky - pad_;
              if (iy < 0 || iy >= h) continue;
              float* grow_in = gip + iy * w + (kx - pad_);
              const float* grow = gp + oy * w_out;
              for (long ox = ox_lo; ox < ox_hi; ++ox)
                grow_in[ox] += wv * grow[ox];
            }
          }
        }
      }
    }
  });
  return grad_in;
}

std::unique_ptr<Layer> Conv2d::Clone() const { return CloneAs<Conv2d>(); }

}  // namespace axsnn::snn
