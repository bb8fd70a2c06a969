#include "attacks/neuromorphic_attacks.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "runtime/parallel_for.hpp"
#include "snn/encoding.hpp"
#include "snn/loss.hpp"
#include "tensor/check.hpp"

namespace axsnn::attacks {

namespace {

/// A candidate injection site in frame space.
struct Candidate {
  float gain;  // loss gradient of switching this frame cell on
  long bin;
  long channel;  // 0 = OFF, 1 = ON
  long y;
  long x;
};

}  // namespace

data::EventStream SparseAttack(snn::Network& net,
                               const data::EventStream& stream, int label,
                               const SparseAttackConfig& cfg) {
  AXSNN_CHECK(cfg.max_iterations > 0 && cfg.events_per_iteration > 0 &&
                  cfg.time_bins > 0,
              "invalid sparse attack configuration");
  data::EventStream attacked = stream;
  Rng rng(cfg.seed);
  const float bin_ms =
      stream.duration_ms / static_cast<float>(cfg.time_bins);
  const std::vector<int> labels = {label};
  // The loop backpropagates through train=false forwards: keep the layers'
  // Backward caches alive for its duration (RAII — restores the prior
  // state even when a check throws mid-loop).
  snn::GradCacheScope grad_cache(net);

  for (long iter = 0; iter < cfg.max_iterations; ++iter) {
    // Frame the current stream and query the victim.
    Tensor frames = data::BinEvents(attacked, cfg.time_bins);  // [T,2,H,W]
    Tensor input = frames.Reshaped(
        {cfg.time_bins, 1, 2, stream.height, stream.width});
    const Tensor& seq = net.ForwardShared(input, /*train=*/false);
    Tensor logits = snn::ReadoutMean(seq);
    if (logits.Argmax() != label) break;  // already fooled — stay stealthy

    snn::LossResult loss = snn::SoftmaxCrossEntropy(logits, labels);
    Tensor grad_seq =
        snn::ReadoutMeanBackward(loss.grad_logits, cfg.time_bins);
    // Only the input gradient is read: no layer accumulates dW/db.
    const Tensor& grad_input =
        net.Backward(grad_seq, snn::GradRequest::kInput);  // [T,1,2,H,W]

    // Collect the empty frame cells whose activation would increase the
    // loss the most (positive gradient, no event there yet).
    std::vector<Candidate> candidates;
    const float* gd = grad_input.data();
    const float* fd = frames.data();
    const long plane = stream.height * stream.width;
    for (long t = 0; t < cfg.time_bins; ++t) {
      for (long c = 0; c < 2; ++c) {
        const long base = (t * 2 + c) * plane;
        for (long p = 0; p < plane; ++p) {
          const float g = gd[base + p];
          if (g > 0.0f && fd[base + p] == 0.0f) {
            candidates.push_back({g, t, c, p / stream.width,
                                  p % stream.width});
          }
        }
      }
    }
    if (candidates.empty()) break;

    std::sort(candidates.begin(), candidates.end(),
              [](const Candidate& a, const Candidate& b) {
                return a.gain > b.gain;
              });

    // Greedy selection under the stealthiness constraint: best-gain first,
    // skipping sites too close to an already chosen one in the same bin.
    std::vector<Candidate> chosen;
    chosen.reserve(static_cast<std::size_t>(cfg.events_per_iteration));
    for (const Candidate& c : candidates) {
      if (static_cast<long>(chosen.size()) >= cfg.events_per_iteration) break;
      bool too_close = false;
      for (const Candidate& k : chosen) {
        if (k.bin == c.bin &&
            std::max(std::labs(k.y - c.y), std::labs(k.x - c.x)) <
                cfg.min_spacing) {
          too_close = true;
          break;
        }
      }
      if (!too_close) chosen.push_back(c);
    }
    if (chosen.empty()) break;

    for (const Candidate& c : chosen) {
      // Place the event inside its bin with sub-bin jitter so the stream
      // stays plausibly asynchronous.
      const float t_ms = (static_cast<float>(c.bin) +
                          static_cast<float>(rng.Uniform(0.2, 0.8))) *
                         bin_ms;
      attacked.events.push_back({static_cast<std::int16_t>(c.x),
                                 static_cast<std::int16_t>(c.y),
                                 c.channel == 1 ? std::int8_t{1}
                                                : std::int8_t{-1},
                                 t_ms});
    }
  }

  std::sort(attacked.events.begin(), attacked.events.end(),
            [](const data::Event& a, const data::Event& b) {
              return a.t < b.t;
            });
  return attacked;
}

data::EventDataset SparseAttackDataset(snn::Network& net,
                                       const data::EventDataset& dataset,
                                       const SparseAttackConfig& cfg) {
  data::EventDataset out = dataset;
  const long n = dataset.size();
  // Each chunk drives its own network clone: forward caches are stateful.
  // Per-stream seeds make every stream's attack independent of the
  // partitioning, so results match the serial path at any pool size.
  runtime::ParallelForChunks(0, n, [&](long /*chunk*/, long lo, long hi) {
    snn::Network local = net.Clone();
    for (long i = lo; i < hi; ++i) {
      SparseAttackConfig per_stream = cfg;
      per_stream.seed = cfg.seed + static_cast<std::uint64_t>(i) * 0x9e37ULL;
      out.streams[static_cast<std::size_t>(i)] =
          SparseAttack(local, dataset.streams[static_cast<std::size_t>(i)],
                       dataset.labels[static_cast<std::size_t>(i)],
                       per_stream);
    }
  });
  return out;
}

data::EventStream FrameAttack(const data::EventStream& stream,
                              const FrameAttackConfig& cfg) {
  AXSNN_CHECK(cfg.period_ms > 0.0f, "period_ms must be positive");
  AXSNN_CHECK(cfg.border > 0, "border must be positive");
  data::EventStream attacked = stream;

  // Enumerate boundary pixels once.
  std::vector<std::pair<std::int16_t, std::int16_t>> boundary;
  for (long y = 0; y < stream.height; ++y) {
    for (long x = 0; x < stream.width; ++x) {
      const bool on_border = x < cfg.border || y < cfg.border ||
                             x >= stream.width - cfg.border ||
                             y >= stream.height - cfg.border;
      if (on_border)
        boundary.emplace_back(static_cast<std::int16_t>(x),
                              static_cast<std::int16_t>(y));
    }
  }

  for (float t = cfg.period_ms * 0.5f; t < stream.duration_ms;
       t += cfg.period_ms) {
    for (const auto& [x, y] : boundary) {
      attacked.events.push_back({x, y, std::int8_t{1}, t});
      if (cfg.both_polarities)
        attacked.events.push_back({x, y, std::int8_t{-1}, t});
    }
  }

  std::sort(attacked.events.begin(), attacked.events.end(),
            [](const data::Event& a, const data::Event& b) {
              return a.t < b.t;
            });
  return attacked;
}

data::EventDataset FrameAttackDataset(const data::EventDataset& dataset,
                                      const FrameAttackConfig& cfg) {
  data::EventDataset out = dataset;
  const long n = dataset.size();
  runtime::ParallelFor(0, n, [&](long i) {
    out.streams[static_cast<std::size_t>(i)] =
        FrameAttack(dataset.streams[static_cast<std::size_t>(i)], cfg);
  });
  return out;
}

}  // namespace axsnn::attacks
