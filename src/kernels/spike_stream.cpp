#include "kernels/spike_stream.hpp"

#include <algorithm>
#include <bit>
#include <numeric>
#include <stdexcept>

#include "kernels/spike_words.hpp"
#include "runtime/parallel_for.hpp"
#include "tensor/check.hpp"

namespace axsnn::kernels {

void SpikeStream::Configure(long time_steps, long batch,
                            std::span<const long> sample_shape) {
  AXSNN_CHECK(time_steps > 0, "SpikeStream: time_steps must be positive");
  AXSNN_CHECK(batch > 0, "SpikeStream: batch must be positive");
  long plane = 1;
  for (long d : sample_shape) plane *= d;
  AXSNN_CHECK(!sample_shape.empty() && plane > 0,
              "SpikeStream: sample plane must be non-empty");
  time_steps_ = time_steps;
  batch_ = batch;
  plane_ = plane;
  words_per_plane_ = SpikeWordCount(plane);
  // assign reuses the vector's capacity: no allocation once warm.
  sample_shape_.assign(sample_shape.begin(), sample_shape.end());
  const std::size_t n_words =
      std::size_t(time_steps_) * std::size_t(batch_) *
      std::size_t(words_per_plane_);
  if (words_.size() < n_words) words_.resize(n_words);
  std::fill(words_.begin(), words_.begin() + std::ptrdiff_t(n_words), 0);
  const std::size_t n_counts = std::size_t(time_steps_) * std::size_t(batch_);
  if (counts_.size() < n_counts) counts_.resize(n_counts);
  std::fill(counts_.begin(), counts_.begin() + std::ptrdiff_t(n_counts), 0);
  if (step_totals_.size() < std::size_t(time_steps_)) {
    step_totals_.resize(std::size_t(time_steps_));
  }
  std::fill(step_totals_.begin(), step_totals_.begin() + time_steps_, 0L);
}

long SpikeStream::TotalSpikes() const {
  return std::accumulate(step_totals_.begin(),
                         step_totals_.begin() + time_steps_, 0L);
}

long SpikeStream::SilentSteps() const {
  return std::count(step_totals_.begin(), step_totals_.begin() + time_steps_,
                    0L);
}

void SpikeStream::FinalizeCounts() {
  // Parallel over (t, i) rows; counting is order-independent, so the chunked
  // reduction is exact regardless of pool size.
  const long rows = time_steps_ * batch_;
  runtime::ParallelFor(0, rows, [&](long r) {
    const std::uint64_t* w = words_.data() + r * words_per_plane_;
    counts_[std::size_t(r)] =
        std::int32_t(CountSpikeWords(w, words_per_plane_));
  });
  for (long t = 0; t < time_steps_; ++t) {
    long total = 0;
    const std::int32_t* c = StepCounts(t);
    for (long i = 0; i < batch_; ++i) total += c[i];
    step_totals_[std::size_t(t)] = total;
  }
}

bool SpikeStream::PackTimeMajor(const Tensor& frames_tbx) {
  AXSNN_CHECK(frames_tbx.numel() == time_steps_ * batch_ * plane_,
              "SpikeStream::PackTimeMajor: tensor size does not match the "
              "configured stream");
  const float* src = frames_tbx.data();
  const long rows = time_steps_ * batch_;
  // One flag per possible chunk; a non-binary value anywhere in a chunk
  // poisons that chunk's flag. Deterministic regardless of pool size.
  bool binary[runtime::kMaxChunks] = {};
  std::fill(std::begin(binary), std::end(binary), true);
  runtime::ParallelForChunks(
      0, rows,
      [&](long chunk, long lo, long hi) {
        bool ok = true;
        for (long r = lo; r < hi; ++r) {
          const float* x = src + r * plane_;
          std::uint64_t* w = words_.data() + r * words_per_plane_;
          for (long v = 0; v < plane_; ++v) {
            ok = ok && (x[v] == 0.0f || x[v] == 1.0f);
          }
          counts_[std::size_t(r)] =
              std::int32_t(PackSpikeWords(x, plane_, w));
        }
        binary[chunk] = ok;
      },
      runtime::DefaultGrain(rows));
  for (long c = 0; c < runtime::kMaxChunks; ++c) {
    if (!binary[c]) return false;
  }
  for (long t = 0; t < time_steps_; ++t) {
    long total = 0;
    const std::int32_t* cnt = StepCounts(t);
    for (long i = 0; i < batch_; ++i) total += cnt[i];
    step_totals_[std::size_t(t)] = total;
  }
  return true;
}

void SpikeStream::DensifyStepInto(long t, float* out) const {
  const long n = batch_ * plane_;
  std::fill(out, out + n, 0.0f);
  for (long i = 0; i < batch_; ++i) {
    const std::uint64_t* w = SampleWords(t, i);
    float* dst = out + i * plane_;
    ForEachSetBit(w, words_per_plane_, [&](long v) { dst[v] = 1.0f; });
  }
}

}  // namespace axsnn::kernels
