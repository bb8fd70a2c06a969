#include "snn/encoding.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "kernels/spike_words.hpp"
#include "runtime/parallel_for.hpp"
#include "tensor/check.hpp"

namespace axsnn::snn {

namespace {

/// [T, images.shape...] — the output shape of every encoder.
Shape TimeMajorShape(const Tensor& images, long time_steps) {
  AXSNN_CHECK(time_steps > 0, "time_steps must be positive");
  AXSNN_CHECK(images.rank() >= 2, "encoders expect [B, ...]");
  Shape out_shape;
  out_shape.reserve(images.rank() + 1);
  out_shape.push_back(time_steps);
  for (long d : images.shape()) out_shape.push_back(d);
  return out_shape;
}

void EncodeRateInto(const Tensor& images, long time_steps, Rng& rng,
                    Tensor& out) {
  out.ResizeTo(TimeMajorShape(images, time_steps));
  const long n = images.numel();
  const float* src = images.data();
  float* dst = out.data();
  // The Bernoulli draws walk the RNG stream in a fixed (t, pixel) order;
  // this stays sequential so the encoding is a pure function of the seed.
  for (long t = 0; t < time_steps; ++t) {
    float* frame = dst + t * n;
    for (long i = 0; i < n; ++i)
      frame[i] = rng.Bernoulli(src[i]) ? 1.0f : 0.0f;
  }
}

void EncodeDirectInto(const Tensor& images, long time_steps, Tensor& out) {
  out.ResizeTo(TimeMajorShape(images, time_steps));
  const long n = images.numel();
  const float* src = images.data();
  float* dst = out.data();
  for (long t = 0; t < time_steps; ++t)
    std::copy(src, src + n, dst + t * n);
}

void EncodeTtfsInto(const Tensor& images, long time_steps, Tensor& out) {
  out.ResizeTo(TimeMajorShape(images, time_steps));
  out.Zero();
  const long n = images.numel();
  const float* src = images.data();
  float* dst = out.data();
  for (long i = 0; i < n; ++i) {
    const float v = std::clamp(src[i], 0.0f, 1.0f);
    if (v <= 0.0f) continue;  // black pixels stay silent
    const long t = std::lround((1.0f - v) * static_cast<float>(time_steps - 1));
    dst[t * n + i] = 1.0f;
  }
}

}  // namespace

Tensor EncodeRate(const Tensor& images, long time_steps, Rng& rng) {
  Tensor out;
  EncodeRateInto(images, time_steps, rng, out);
  return out;
}

Tensor EncodeDirect(const Tensor& images, long time_steps) {
  Tensor out;
  EncodeDirectInto(images, time_steps, out);
  return out;
}

Tensor EncodeTtfs(const Tensor& images, long time_steps) {
  Tensor out;
  EncodeTtfsInto(images, time_steps, out);
  return out;
}

void EncodeInto(const Tensor& images, long time_steps, Encoding mode, Rng& rng,
                Tensor& out) {
  switch (mode) {
    case Encoding::kRate:
      EncodeRateInto(images, time_steps, rng, out);
      return;
    case Encoding::kDirect:
      EncodeDirectInto(images, time_steps, out);
      return;
    case Encoding::kTtfs:
      EncodeTtfsInto(images, time_steps, out);
      return;
  }
  AXSNN_CHECK(false, "unknown encoding mode");
}

Tensor Encode(const Tensor& images, long time_steps, Encoding mode, Rng& rng) {
  Tensor out;
  EncodeInto(images, time_steps, mode, rng, out);
  return out;
}

Tensor CollapseTimeGradient(const Tensor& grad_tbx) {
  AXSNN_CHECK(grad_tbx.rank() >= 2, "expected [T, B, ...] gradient");
  const long t_steps = grad_tbx.dim(0);
  const long n = grad_tbx.numel() / t_steps;
  Shape out_shape(grad_tbx.shape().begin() + 1, grad_tbx.shape().end());
  Tensor out(std::move(out_shape));
  const float* g = grad_tbx.data();
  float* o = out.data();
  for (long t = 0; t < t_steps; ++t) {
    const float* frame = g + t * n;
    for (long i = 0; i < n; ++i) o[i] += frame[i];
  }
  return out;
}

void TimeMajorInto(const Tensor& frames_btx, Tensor& out) {
  AXSNN_CHECK(frames_btx.rank() >= 3, "TimeMajor expects [B, T, ...]");
  AXSNN_CHECK(&out != &frames_btx &&
                  (frames_btx.numel() == 0 ||
                   out.data() != frames_btx.data()),
              "TimeMajorInto: out must not alias frames_btx");
  const long b = frames_btx.dim(0);
  const long t_steps = frames_btx.dim(1);
  AXSNN_CHECK(b > 0 && t_steps > 0,
              "TimeMajorInto: degenerate [B, T] dims " << b << "x" << t_steps);
  const long feat = frames_btx.numel() / (b * t_steps);
  Shape out_shape = frames_btx.shape();
  std::swap(out_shape[0], out_shape[1]);
  out.ResizeTo(std::move(out_shape));
  const float* src = frames_btx.data();
  float* dst = out.data();
  for (long i = 0; i < b; ++i)
    for (long t = 0; t < t_steps; ++t)
      std::copy(src + (i * t_steps + t) * feat,
                src + (i * t_steps + t + 1) * feat,
                dst + (t * b + i) * feat);
}

Tensor TimeMajor(const Tensor& frames_btx) {
  Tensor out;
  TimeMajorInto(frames_btx, out);
  return out;
}

bool TimeMajorPackInto(const Tensor& frames_btx,
                       kernels::SpikeStream& stream) {
  AXSNN_CHECK(frames_btx.rank() >= 3, "TimeMajorPackInto expects [B, T, ...]");
  const long b = frames_btx.dim(0);
  const long t_steps = frames_btx.dim(1);
  AXSNN_CHECK(b > 0 && t_steps > 0,
              "TimeMajorPackInto: degenerate [B, T] dims " << b << "x"
                                                           << t_steps);
  stream.Configure(t_steps, b,
                   std::span<const long>(frames_btx.shape()).subspan(2));
  const long feat = stream.plane();
  const float* src = frames_btx.data();

  bool binary[runtime::kMaxChunks];
  const long grain = runtime::DefaultGrain(b);
  runtime::ParallelForChunks(
      0, b,
      [&](long chunk, long lo, long hi) {
        bool ok = true;
        for (long i = lo; i < hi; ++i) {
          for (long t = 0; t < t_steps; ++t) {
            const float* row = src + (i * t_steps + t) * feat;
            for (long j = 0; j < feat; ++j)
              if (row[j] != 0.0f && row[j] != 1.0f) ok = false;
            kernels::PackSpikeWords(row, feat, stream.SampleWords(t, i));
          }
        }
        binary[chunk] = ok;
      },
      grain);
  for (long c = 0; c < runtime::NumChunks(b, grain); ++c)
    if (!binary[c]) return false;
  stream.FinalizeCounts();
  return true;
}

}  // namespace axsnn::snn
