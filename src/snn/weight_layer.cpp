#include "snn/weight_layer.hpp"

#include <algorithm>
#include <cmath>

namespace axsnn::snn {

void WeightLayer::InitWeights(Shape weight_shape, Rng& rng) {
  const float bound = std::sqrt(6.0f / static_cast<float>(fan_in()));
  weight_ = Tensor::Uniform(std::move(weight_shape), -bound, bound, rng);
  bias_ = Tensor::Zeros({weight_.dim(0)});
  dweight_ = Tensor::Zeros(weight_.shape());
  dbias_ = Tensor::Zeros(bias_.shape());
}

void WeightLayer::EnableInt8Kernel(std::span<const float> row_scales) {
  qweight_ = QuantizedTensor::FromWeights(weight_, row_scales);
}

void WeightLayer::ForwardInto(const Tensor& x, Tensor& out, bool train) {
  SizeOutput(x, out);
  if (train || grad_cache()) {
    cached_input_ = x;  // vector copy-assign: reuses capacity in steady state
  } else {
    // Invalidate, don't just skip: a stale cache from an earlier training
    // pass would let Backward silently differentiate the wrong activations
    // instead of throwing.
    cached_input_ = Tensor();
  }
  RunKernel(x, out, nullptr);
}

void WeightLayer::BeginStepped(long time_steps, long batch) {
  (void)time_steps;
  (void)batch;
  silent_.Reset();
}

void WeightLayer::ForwardStep(const Tensor& x, Tensor& out,
                              StepContext& ctx) {
  SizeStepOutput(x, out);
  cached_input_ = Tensor();  // stepped runs never feed Backward
  if (ctx.out != nullptr) ctx.out->Invalidate();  // the output is dense

  const long sample = SampleLength(x);
  // The packed rows are usable by the kernels only when the lane's plane
  // length equals the per-sample element count (word-row padding must line
  // up); the silent check only needs the element counts to match.
  const bool mask_covers =
      ctx.in.valid() && ctx.in.batch * ctx.in.plane == x.numel();
  if (mask_covers && ctx.in.total == 0) {
    // Skip-on-silent: on an all-zero input every kernel mode produces the
    // pure bias planes (the sparse path's zero-gather result, inside the
    // pinned equivalence contract), so write them directly — and if the
    // previous step already left them in this buffer, skip even the fill.
    if (ctx.kernel_calls_skipped != nullptr) ++*ctx.kernel_calls_skipped;
    silent_.Apply(out, [&] {
      // out is [samples, C_out, plane]: plane = H_out * W_out for a conv,
      // 1 for a dense layer.
      const long c_out = bias_.numel();
      const long planes = x.numel() / sample * c_out;
      const long plane = planes == 0 ? 0 : out.numel() / planes;
      const float* bd = bias_.data();
      float* od = out.data();
      for (long p = 0; p < planes; ++p)
        std::fill_n(od + p * plane, plane, bd[p % c_out]);
    });
    return;
  }
  silent_.Reset();
  if (ctx.kernel_calls != nullptr) ++*ctx.kernel_calls;

  const kernels::PackedWords packed{ctx.in.words, ctx.in.total};
  RunKernel(x, out,
            mask_covers && ctx.in.plane == sample ? &packed : nullptr);
}

}  // namespace axsnn::snn
