#include "snn/dropout.hpp"

#include <algorithm>

#include "runtime/parallel_for.hpp"
#include "tensor/check.hpp"

namespace axsnn::snn {

Dropout::Dropout(std::string name, float rate, std::uint64_t seed)
    : name_(std::move(name)), rate_(rate), rng_(seed) {
  AXSNN_CHECK(rate >= 0.0f && rate < 1.0f, "dropout rate must be in [0, 1)");
}

Shape Dropout::OutputShape(const Shape& in) const {
  AXSNN_CHECK(in.size() >= 2, "Dropout expects [T, B, F...]");
  return in;
}

void Dropout::ForwardInto(const Tensor& x, Tensor& out, bool train) {
  SizeOutput(x, out);
  last_was_train_ = train;
  if (!train || rate_ == 0.0f) {
    std::copy(x.data(), x.data() + x.numel(), out.data());
    return;
  }

  const long t_steps = x.dim(0);
  const long slice = x.numel() / t_steps;  // one [B, F...] slice
  const float keep = 1.0f - rate_;
  const float scale = 1.0f / keep;

  // The mask draw is a sequential RNG walk; only its application fans out.
  mask_.ResizeTo({slice});
  for (long i = 0; i < slice; ++i)
    mask_[i] = rng_.Bernoulli(keep) ? scale : 0.0f;

  const float* xd = x.data();
  float* od = out.data();
  const float* md = mask_.data();
  runtime::ParallelFor(0, t_steps, [&](long t) {
    const float* xs = xd + t * slice;
    float* os = od + t * slice;
    for (long i = 0; i < slice; ++i) os[i] = xs[i] * md[i];
  });
}

void Dropout::BeginStepped(long time_steps, long batch) {
  (void)time_steps;
  (void)batch;
  silent_.Reset();
}

void Dropout::ForwardStep(const Tensor& x, Tensor& out, StepContext& ctx) {
  SizeOutput(x, out);
  last_was_train_ = false;
  const bool mask_covers =
      ctx.in.valid() && ctx.in.batch * ctx.in.plane == x.numel();
  const bool lane_fits =
      ctx.out != nullptr &&
      ctx.out->batch() * ctx.out->plane() == out.numel();
  if (mask_covers && ctx.in.total == 0) {
    // Inference dropout is the identity; a silent input copies to zeros.
    if (lane_fits) ctx.out->ZeroFill();
    else if (ctx.out != nullptr) ctx.out->Invalidate();
    silent_.Apply(out, [&] {
      std::fill(out.data(), out.data() + out.numel(), 0.0f);
    });
    return;
  }
  silent_.Reset();
  std::copy(x.data(), x.data() + x.numel(), out.data());
  if (ctx.out == nullptr) return;
  if (lane_fits && mask_covers && ctx.out->batch() == ctx.in.batch &&
      ctx.out->plane() == ctx.in.plane) {
    ctx.out->CopyFrom(ctx.in);
  } else if (lane_fits) {
    ctx.out->PackFrom(out.data());
  } else {
    ctx.out->Invalidate();
  }
}

void Dropout::BackwardInto(const Tensor& grad_out, Tensor& grad_in,
                           GradRequest request) {
  if (!WantsInputGrad(request)) return;  // no parameters
  grad_in.ResizeTo(grad_out.shape());
  if (!last_was_train_ || rate_ == 0.0f) {
    std::copy(grad_out.data(), grad_out.data() + grad_out.numel(),
              grad_in.data());
    return;
  }
  AXSNN_CHECK(!mask_.empty(), "Dropout::Backward called before Forward");
  const long t_steps = grad_out.dim(0);
  const long slice = grad_out.numel() / t_steps;
  AXSNN_CHECK(slice == mask_.numel(), "Dropout::Backward shape mismatch");
  const float* gd = grad_out.data();
  float* gi = grad_in.data();
  const float* md = mask_.data();
  runtime::ParallelFor(0, t_steps, [&](long t) {
    const float* gs = gd + t * slice;
    float* is = gi + t * slice;
    for (long i = 0; i < slice; ++i) is[i] = gs[i] * md[i];
  });
}

std::unique_ptr<Layer> Dropout::Clone() const {
  auto copy = std::make_unique<Dropout>(*this);
  copy->mask_ = Tensor();
  return copy;
}

}  // namespace axsnn::snn
