#include "snn/inference.hpp"

#include <algorithm>
#include <optional>

#include "kernels/spike_stream.hpp"
#include "snn/event_path.hpp"
#include "snn/event_runner.hpp"
#include "snn/loss.hpp"
#include "tensor/check.hpp"

namespace axsnn::snn {

namespace {

/// Copies rows [start, start+count) of [N, ...] into `out` (resized; storage
/// reused across batches).
void SliceRowsInto(const Tensor& data, long start, long count, Tensor& out) {
  const long per_sample = data.numel() / data.dim(0);
  Shape shape = data.shape();
  shape[0] = count;
  out.ResizeTo(std::move(shape));
  std::copy(data.data() + start * per_sample,
            data.data() + (start + count) * per_sample, out.data());
}

void ArgmaxRowsAppend(const Tensor& logits, std::vector<int>& preds) {
  const long b = logits.dim(0);
  const long k = logits.dim(1);
  for (long i = 0; i < b; ++i) {
    const float* row = logits.data() + i * k;
    preds.push_back(static_cast<int>(std::max_element(row, row + k) - row));
  }
}

long CountCorrect(std::span<const int> preds, std::span<const int> labels) {
  AXSNN_CHECK(preds.size() == labels.size(), "prediction/label mismatch");
  long correct = 0;
  for (std::size_t i = 0; i < preds.size(); ++i)
    if (preds[i] == labels[i]) ++correct;
  return correct;
}

}  // namespace

Tensor LogitsStatic(Network& net, const Tensor& images, long time_steps,
                    Encoding mode, Rng& rng) {
  AXSNN_CHECK(images.rank() == 4, "LogitsStatic expects [B, C, H, W]");
  Tensor input = Encode(images, time_steps, mode, rng);
  const Tensor& seq = net.ForwardShared(input, /*train=*/false);
  return ReadoutMean(seq);
}

Tensor LogitsTemporal(Network& net, const Tensor& frames) {
  AXSNN_CHECK(frames.rank() == 5, "LogitsTemporal expects [B, T, C, H, W]");
  if (UsesEventPath(net)) {
    kernels::SpikeStream stream;
    if (TimeMajorPackInto(frames, stream)) {
      EventRunner runner(net);
      return runner.Run(stream);  // copy out of the runner's workspace
    }
    // Non-binary frames can't ride the spike stream; fall through dense.
  }
  Tensor input = TimeMajor(frames);
  const Tensor& seq = net.ForwardShared(input, /*train=*/false);
  return ReadoutMean(seq);
}

std::vector<int> PredictStatic(Network& net, const Tensor& images,
                               long time_steps, Encoding mode,
                               std::uint64_t seed, long batch_size) {
  AXSNN_CHECK(batch_size > 0, "batch_size must be positive");
  const long n = images.dim(0);
  Rng rng(seed);
  std::vector<int> preds;
  preds.reserve(static_cast<std::size_t>(n));
  // Staging buffers hoisted out of the loop: after the first (full-size)
  // batch, the whole evaluation loop performs no tensor allocation.
  Tensor batch;
  Tensor input;
  Tensor logits;
  for (long start = 0; start < n; start += batch_size) {
    const long count = std::min(batch_size, n - start);
    SliceRowsInto(images, start, count, batch);
    EncodeInto(batch, time_steps, mode, rng, input);
    const Tensor& seq = net.ForwardShared(input, /*train=*/false);
    ReadoutMeanInto(seq, logits);
    ArgmaxRowsAppend(logits, preds);
  }
  return preds;
}

std::vector<int> PredictTemporal(Network& net, const Tensor& frames,
                                 long batch_size) {
  AXSNN_CHECK(batch_size > 0, "batch_size must be positive");
  const long n = frames.dim(0);
  std::vector<int> preds;
  preds.reserve(static_cast<std::size_t>(n));
  Tensor batch;
  Tensor input;
  // Event path: the same batches go through the stepped spike-stream
  // runner instead — identical chunk boundaries, bit-identical logits, so
  // predictions match the dense loop exactly. Stream and runner storage is
  // reused across batches.
  const bool use_event = UsesEventPath(net);
  kernels::SpikeStream stream;
  std::optional<EventRunner> runner;
  if (use_event) runner.emplace(net);
  Tensor logits;
  for (long start = 0; start < n; start += batch_size) {
    const long count = std::min(batch_size, n - start);
    SliceRowsInto(frames, start, count, batch);
    if (use_event && TimeMajorPackInto(batch, stream)) {
      ArgmaxRowsAppend(runner->Run(stream), preds);
      continue;
    }
    TimeMajorInto(batch, input);
    const Tensor& seq = net.ForwardShared(input, /*train=*/false);
    ReadoutMeanInto(seq, logits);
    ArgmaxRowsAppend(logits, preds);
  }
  return preds;
}

float AccuracyStatic(Network& net, const Tensor& images,
                     std::span<const int> labels, long time_steps,
                     Encoding mode, std::uint64_t seed, long batch_size) {
  const auto preds =
      PredictStatic(net, images, time_steps, mode, seed, batch_size);
  const long correct = CountCorrect(preds, labels);
  return preds.empty()
             ? 0.0f
             : static_cast<float>(correct) / static_cast<float>(preds.size());
}

float AccuracyTemporal(Network& net, const Tensor& frames,
                       std::span<const int> labels, long batch_size) {
  const auto preds = PredictTemporal(net, frames, batch_size);
  const long correct = CountCorrect(preds, labels);
  return preds.empty()
             ? 0.0f
             : static_cast<float>(correct) / static_cast<float>(preds.size());
}

}  // namespace axsnn::snn
