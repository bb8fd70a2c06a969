#include "snn/event_runner.hpp"

#include <algorithm>
#include <cstddef>

#include "tensor/check.hpp"

namespace axsnn::snn {

const Tensor& EventRunner::Run(const kernels::SpikeStream& stream) {
  AXSNN_CHECK(!stream.empty(), "EventRunner::Run on an empty stream");
  AXSNN_CHECK(net_.size() > 0, "EventRunner::Run on an empty network");
  const long t_steps = stream.time_steps();
  const long batch = stream.batch();
  const long n_layers = static_cast<long>(net_.size());

  stats_ = EventRunStats{};
  stats_.time_steps = t_steps;
  stats_.batch = batch;

  // Rebuilt in place: a fresh Shape would allocate on every Run.
  in_shape_.clear();
  in_shape_.push_back(batch);
  in_shape_.insert(in_shape_.end(), stream.sample_shape().begin(),
                   stream.sample_shape().end());
  Tensor& x0 = ws_.Acquire(0, in_shape_);
  x0_zeroed_ = false;  // Acquire leaves contents unspecified

  if (planes_.size() != static_cast<std::size_t>(n_layers)) {
    planes_.assign(static_cast<std::size_t>(n_layers), 0);
    planes_known_ = false;
  }

  for (long i = 0; i < n_layers; ++i)
    net_.layer(static_cast<std::size_t>(i)).BeginStepped(t_steps, batch);

  Tensor* out = nullptr;
  for (long t = 0; t < t_steps; ++t) {
    const long total = stream.StepTotal(t);
    if (total == 0) {
      ++stats_.silent_steps;
      // A silent step's dense frame is all zeros; keep the buffer zeroed
      // across consecutive silent steps instead of refilling it. Layers
      // honoring the silent contract never read it anyway — this covers
      // layers that fall back to the default dense ForwardStep.
      if (!x0_zeroed_) {
        std::fill(x0.data(), x0.data() + x0.numel(), 0.0f);
        x0_zeroed_ = true;
      }
    } else {
      stream.DensifyStepInto(t, x0.data());
      x0_zeroed_ = false;
    }

    SpikeView in_view;
    in_view.words = stream.StepWords(t);
    in_view.counts = stream.StepCounts(t);
    in_view.batch = batch;
    in_view.plane = stream.plane();
    in_view.words_per_plane = stream.words_per_plane();
    in_view.total = total;

    const Tensor* in = &x0;
    for (long i = 0; i < n_layers; ++i) {
      // Dedicated output slot per layer: the buffer is stable across
      // timesteps, which is what makes the layers' silent-fill caches
      // ("this buffer already holds my bias fill") sound.
      Tensor& buf = ws_.Slot(static_cast<std::size_t>(i) + 1);
      SpikePlanes* out_lane = nullptr;
      if (planes_known_) {
        out_lane = &lanes_[i % 2];
        out_lane->Configure(batch, planes_[static_cast<std::size_t>(i)]);
      }
      StepContext ctx;
      ctx.t = t;
      ctx.time_steps = t_steps;
      ctx.in = in_view;
      ctx.out = out_lane;
      ctx.kernel_calls = &stats_.kernel_calls;
      ctx.kernel_calls_skipped = &stats_.kernel_calls_skipped;
      net_.layer(static_cast<std::size_t>(i)).ForwardStep(*in, buf, ctx);
      if (!planes_known_) {
        AXSNN_CHECK(buf.numel() % batch == 0,
                    "EventRunner: layer output not divisible by batch");
        planes_[static_cast<std::size_t>(i)] = buf.numel() / batch;
      }
      in_view = out_lane != nullptr ? out_lane->View() : SpikeView{};
      out = &buf;
      in = out;
    }
    // Lane geometry is known after the first timestep; from the next step
    // on every layer gets a configured output lane (skip + packed gather).
    planes_known_ = true;

    // Accumulate the readout exactly as loss.cpp's ReadoutMean does over
    // the dense output sequence: zero-init, += per ascending t, *= 1/T.
    if (t == 0) {
      logits_.ResizeTo(out->shape());
      std::fill(logits_.data(), logits_.data() + logits_.numel(), 0.0f);
    }
    AXSNN_CHECK(out->numel() == logits_.numel(),
                "EventRunner: readout shape changed across timesteps");
    const float* od = out->data();
    float* ld = logits_.data();
    const long k = logits_.numel();
    for (long j = 0; j < k; ++j) ld[j] += od[j];
  }

  const float inv = 1.0f / static_cast<float>(t_steps);
  float* ld = logits_.data();
  const long k = logits_.numel();
  for (long j = 0; j < k; ++j) ld[j] *= inv;

  for (long i = 0; i < n_layers; ++i)
    net_.layer(static_cast<std::size_t>(i)).EndStepped();
  return logits_;
}

}  // namespace axsnn::snn
