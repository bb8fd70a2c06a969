#include "snn/pool.hpp"

#include <algorithm>

#include "runtime/parallel_for.hpp"
#include "tensor/check.hpp"

namespace axsnn::snn {

namespace {

/// Splits [*, C, H, W] into (n = prod(*)·C plane count, H, W).
void PlaneDims(const Tensor& x, long window, long& planes, long& h, long& w) {
  AXSNN_CHECK(x.rank() >= 3, "pooling expects [*, C, H, W]");
  const std::size_t r = x.rank();
  h = x.dim(r - 2);
  w = x.dim(r - 1);
  AXSNN_CHECK(h % window == 0 && w % window == 0,
              "pooling window " << window << " must divide spatial dims " << h
                                << "x" << w);
  planes = x.numel() / (h * w);
}

Shape PooledShape(const Shape& in, long window) {
  AXSNN_CHECK(in.size() >= 3, "pooling expects [*, C, H, W]");
  const std::size_t r = in.size();
  AXSNN_CHECK(in[r - 2] % window == 0 && in[r - 1] % window == 0,
              "pooling window " << window << " must divide spatial dims "
                                << in[r - 2] << "x" << in[r - 1]);
  Shape s = in;
  s[r - 2] /= window;
  s[r - 1] /= window;
  return s;
}

}  // namespace

AvgPool2d::AvgPool2d(std::string name, long window)
    : name_(std::move(name)), window_(window) {
  AXSNN_CHECK(window >= 1, "pooling window must be >= 1");
}

Shape AvgPool2d::OutputShape(const Shape& in) const {
  return PooledShape(in, window_);
}

void AvgPool2d::ForwardInto(const Tensor& x, Tensor& out, bool /*train*/) {
  long planes = 0, h = 0, w = 0;
  PlaneDims(x, window_, planes, h, w);
  cached_in_shape_ = x.shape();
  const long ho = h / window_;
  const long wo = w / window_;
  SizeOutput(x, out);
  const float inv = 1.0f / static_cast<float>(window_ * window_);
  const float* xd = x.data();
  float* od = out.data();
  runtime::ParallelFor(0, planes, [&](long p) {
    const float* xp = xd + p * h * w;
    float* op = od + p * ho * wo;
    for (long oy = 0; oy < ho; ++oy) {
      for (long ox = 0; ox < wo; ++ox) {
        float acc = 0.0f;
        for (long ky = 0; ky < window_; ++ky)
          for (long kx = 0; kx < window_; ++kx)
            acc += xp[(oy * window_ + ky) * w + ox * window_ + kx];
        op[oy * wo + ox] = acc * inv;
      }
    }
  });
}

void AvgPool2d::BeginStepped(long time_steps, long batch) {
  (void)time_steps;
  (void)batch;
  silent_.Reset();
}

void AvgPool2d::ForwardStep(const Tensor& x, Tensor& out, StepContext& ctx) {
  long planes = 0, h = 0, w = 0;
  PlaneDims(x, window_, planes, h, w);
  cached_in_shape_ = Shape();  // stepped runs never feed Backward
  SizeOutput(x, out);

  const bool mask_covers =
      ctx.in.valid() && ctx.in.batch * ctx.in.plane == x.numel();
  if (mask_covers && ctx.in.total == 0) {
    // Silent step: every window sum is +0.0f and +0 * inv stays +0.0f, so
    // the dense path's output is exactly zero — fill it without reading x.
    if (ctx.out != nullptr) ctx.out->ZeroFill();
    silent_.Apply(out, [&] {
      std::fill(out.data(), out.data() + out.numel(), 0.0f);
    });
    return;
  }
  silent_.Reset();

  const long ho = h / window_;
  const long wo = w / window_;
  const float inv = 1.0f / static_cast<float>(window_ * window_);
  const float* xd = x.data();
  float* od = out.data();
  runtime::ParallelFor(0, planes, [&](long p) {
    const float* xp = xd + p * h * w;
    float* op = od + p * ho * wo;
    for (long oy = 0; oy < ho; ++oy) {
      for (long ox = 0; ox < wo; ++ox) {
        float acc = 0.0f;
        for (long ky = 0; ky < window_; ++ky)
          for (long kx = 0; kx < window_; ++kx)
            acc += xp[(oy * window_ + ky) * w + ox * window_ + kx];
        op[oy * wo + ox] = acc * inv;
      }
    }
  });
  // Pooled rates are fractional, not binary — the lane mask marks nonzeros,
  // which is all the downstream silent check and sparse gather need.
  if (ctx.out != nullptr) {
    if (ctx.out->batch() * ctx.out->plane() == out.numel()) {
      ctx.out->PackFrom(od);
    } else {
      ctx.out->Invalidate();
    }
  }
}

void AvgPool2d::BackwardInto(const Tensor& grad_out, Tensor& grad_in,
                             GradRequest request) {
  AXSNN_CHECK(!cached_in_shape_.empty(),
              "AvgPool2d::Backward called before Forward");
  const std::size_t r = cached_in_shape_.size();
  const long h = cached_in_shape_[r - 2];
  const long w = cached_in_shape_[r - 1];
  const long planes = NumElements(cached_in_shape_) / (h * w);
  const long ho = h / window_;
  const long wo = w / window_;
  AXSNN_CHECK(grad_out.numel() == planes * ho * wo,
              "AvgPool2d::Backward gradient shape mismatch");
  if (!WantsInputGrad(request)) return;  // no parameters
  // The windows tile the plane (PlaneDims), so every element is written.
  grad_in.ResizeTo(cached_in_shape_);
  const float inv = 1.0f / static_cast<float>(window_ * window_);
  const float* gd = grad_out.data();
  float* gi = grad_in.data();
  runtime::ParallelFor(0, planes, [&](long p) {
    const float* gp = gd + p * ho * wo;
    float* gip = gi + p * h * w;
    for (long oy = 0; oy < ho; ++oy) {
      for (long ox = 0; ox < wo; ++ox) {
        const float g = gp[oy * wo + ox] * inv;
        for (long ky = 0; ky < window_; ++ky)
          for (long kx = 0; kx < window_; ++kx)
            gip[(oy * window_ + ky) * w + ox * window_ + kx] = g;
      }
    }
  });
}

std::unique_ptr<Layer> AvgPool2d::Clone() const {
  return std::make_unique<AvgPool2d>(name_, window_);
}

MaxPool2d::MaxPool2d(std::string name, long window)
    : name_(std::move(name)), window_(window) {
  AXSNN_CHECK(window >= 1, "pooling window must be >= 1");
}

Shape MaxPool2d::OutputShape(const Shape& in) const {
  return PooledShape(in, window_);
}

void MaxPool2d::ForwardInto(const Tensor& x, Tensor& out, bool /*train*/) {
  long planes = 0, h = 0, w = 0;
  PlaneDims(x, window_, planes, h, w);
  cached_in_shape_ = x.shape();
  const long ho = h / window_;
  const long wo = w / window_;
  SizeOutput(x, out);
  argmax_.resize(static_cast<std::size_t>(out.numel()));
  const float* xd = x.data();
  float* od = out.data();
  runtime::ParallelFor(0, planes, [&](long p) {
    const float* xp = xd + p * h * w;
    float* op = od + p * ho * wo;
    long* am = argmax_.data() + p * ho * wo;
    for (long oy = 0; oy < ho; ++oy) {
      for (long ox = 0; ox < wo; ++ox) {
        float best = xp[(oy * window_) * w + ox * window_];
        long best_off = (oy * window_) * w + ox * window_;
        for (long ky = 0; ky < window_; ++ky) {
          for (long kx = 0; kx < window_; ++kx) {
            const long off = (oy * window_ + ky) * w + ox * window_ + kx;
            if (xp[off] > best) {
              best = xp[off];
              best_off = off;
            }
          }
        }
        op[oy * wo + ox] = best;
        am[oy * wo + ox] = best_off;
      }
    }
  });
}

void MaxPool2d::BackwardInto(const Tensor& grad_out, Tensor& grad_in,
                             GradRequest request) {
  AXSNN_CHECK(!cached_in_shape_.empty(),
              "MaxPool2d::Backward called before Forward");
  const std::size_t r = cached_in_shape_.size();
  const long h = cached_in_shape_[r - 2];
  const long w = cached_in_shape_[r - 1];
  const long planes = NumElements(cached_in_shape_) / (h * w);
  const long ho = h / window_;
  const long wo = w / window_;
  AXSNN_CHECK(grad_out.numel() == planes * ho * wo,
              "MaxPool2d::Backward gradient shape mismatch");
  if (!WantsInputGrad(request)) return;  // no parameters
  grad_in.ResizeTo(cached_in_shape_);
  const float* gd = grad_out.data();
  float* gi = grad_in.data();
  runtime::ParallelFor(0, planes, [&](long p) {
    const float* gp = gd + p * ho * wo;
    const long* am = argmax_.data() + p * ho * wo;
    float* gip = gi + p * h * w;
    std::fill(gip, gip + h * w, 0.0f);
    for (long o = 0; o < ho * wo; ++o) gip[am[o]] += gp[o];
  });
}

std::unique_ptr<Layer> MaxPool2d::Clone() const {
  return std::make_unique<MaxPool2d>(name_, window_);
}

}  // namespace axsnn::snn
