// Compressed spike-stream representation: per-timestep bit-packed planes.
//
// The dense temporal path materializes a [N, T, C, H, W] float tensor even
// though DVS activations are binary and overwhelmingly zero — a 20-step
// 2x32x32 stream spends 160 KiB per sample on what is, informationally,
// 5 KiB of bits. SpikeStream is the compressed lingua franca of the
// event-driven path: for each timestep and each sample it stores one
// bit-packed word row (spike_words.hpp layout — element i at bit i%64 of
// word i/64, rows padded to whole words) plus its population count, so
//
//   * ingestion (data/event.*) bins events straight into bits, one chunk
//     of samples at a time, never building the T-step dense buffer;
//   * the per-timestep runner (snn/event_runner.*) reads StepTotal(t) once
//     to decide skip-on-silent for the whole step — no per-kernel density
//     probe — and hands SampleWords to the sparse gather unchanged;
//   * densification back to floats (DensifyStepInto) exists only for the
//     kernel calls that want a float view, and reproduces exactly the 0/1
//     planes the dense path would have built (the equivalence contract).
//
// Word layout: step t, sample i owns words_per_plane() consecutive words at
// words() + (t * batch + i) * words_per_plane(). Counts are per (t, i);
// per-step totals are the sums the skip decision reads.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <span>
#include <vector>

#include "runtime/aligned.hpp"
#include "tensor/tensor.hpp"

namespace axsnn::kernels {

class SpikeStream {
 public:
  SpikeStream() = default;

  /// Shapes the stream for `time_steps` x `batch` samples whose per-sample
  /// plane has shape `sample_shape` (e.g. {2, 32, 32}), zero-filling all
  /// words and counts. Storage is reused across calls (never shrinks), so
  /// a stream reconfigured per evaluation batch is allocation-free in
  /// steady state. The shape is a view (a braced list binds to the
  /// initializer_list overload), so no temporary Shape is built either.
  void Configure(long time_steps, long batch,
                 std::span<const long> sample_shape);
  void Configure(long time_steps, long batch,
                 std::initializer_list<long> sample_shape) {
    Configure(time_steps, batch,
              std::span<const long>(sample_shape.begin(),
                                    sample_shape.size()));
  }

  long time_steps() const { return time_steps_; }
  long batch() const { return batch_; }
  /// Elements per sample plane (product of sample_shape()).
  long plane() const { return plane_; }
  long words_per_plane() const { return words_per_plane_; }
  const Shape& sample_shape() const { return sample_shape_; }
  bool empty() const { return time_steps_ == 0 || batch_ == 0; }

  /// Word row of sample `i` at step `t` (words_per_plane() words).
  std::uint64_t* SampleWords(long t, long i) {
    return words_.data() + (t * batch_ + i) * words_per_plane_;
  }
  const std::uint64_t* SampleWords(long t, long i) const {
    return words_.data() + (t * batch_ + i) * words_per_plane_;
  }
  /// All of step `t`'s word rows (batch() * words_per_plane() words).
  std::uint64_t* StepWords(long t) { return SampleWords(t, 0); }
  const std::uint64_t* StepWords(long t) const { return SampleWords(t, 0); }

  /// Per-sample population counts of step `t` (batch() entries).
  const std::int32_t* StepCounts(long t) const {
    return counts_.data() + t * batch_;
  }
  /// Total spikes in step `t`; 0 means the step is silent.
  long StepTotal(long t) const { return step_totals_[std::size_t(t)]; }
  /// Total spikes across all steps.
  long TotalSpikes() const;
  /// Number of steps with StepTotal == 0.
  long SilentSteps() const;

  /// Recomputes every per-sample count and per-step total from the words.
  /// Callers that write bits directly (the event binner) finish with this.
  void FinalizeCounts();

  /// Packs a time-major dense tensor [T, B, <sample_shape>] into the
  /// stream. Returns false (leaving the stream configured but invalid) if
  /// any element is neither 0.0f nor 1.0f — the event path only represents
  /// binary activations; callers fall back to the dense path then.
  bool PackTimeMajor(const Tensor& frames_tbx);

  /// Writes step `t` back to floats: out[0 .. batch*plane) gets exactly the
  /// 0.0f / 1.0f values the dense path's frame tensor holds for this step.
  void DensifyStepInto(long t, float* out) const;

 private:
  long time_steps_ = 0;
  long batch_ = 0;
  long plane_ = 0;
  long words_per_plane_ = 0;
  Shape sample_shape_;
  runtime::AlignedVector<std::uint64_t> words_;
  std::vector<std::int32_t> counts_;
  std::vector<long> step_totals_;
};

}  // namespace axsnn::kernels
