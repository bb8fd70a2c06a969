#include "snn/trainer.hpp"

#include <algorithm>
#include <cmath>
#include <iostream>
#include <numeric>

#include "snn/loss.hpp"
#include "tensor/check.hpp"

namespace axsnn::snn {

AdamOptimizer::AdamOptimizer(std::vector<Tensor*> params,
                             const TrainConfig& cfg)
    : params_(std::move(params)),
      lr_(cfg.learning_rate),
      beta1_(cfg.beta1),
      beta2_(cfg.beta2),
      eps_(cfg.adam_eps),
      weight_decay_(cfg.weight_decay) {
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (const Tensor* p : params_) {
    m_.emplace_back(Tensor::Zeros(p->shape()));
    v_.emplace_back(Tensor::Zeros(p->shape()));
  }
}

void AdamOptimizer::Step(const std::vector<Tensor*>& grads) {
  AXSNN_CHECK(grads.size() == params_.size(),
              "optimizer gradient list mismatch");
  ++step_count_;
  const float bias1 = 1.0f - std::pow(beta1_, static_cast<float>(step_count_));
  const float bias2 = 1.0f - std::pow(beta2_, static_cast<float>(step_count_));
  for (std::size_t i = 0; i < params_.size(); ++i) {
    Tensor& p = *params_[i];
    const Tensor& g = *grads[i];
    AXSNN_CHECK(g.shape() == p.shape(), "gradient shape mismatch");
    float* pd = p.data();
    const float* gd = g.data();
    float* md = m_[i].data();
    float* vd = v_[i].data();
    const long n = p.numel();
    for (long j = 0; j < n; ++j) {
      const float grad = gd[j] + weight_decay_ * pd[j];
      md[j] = beta1_ * md[j] + (1.0f - beta1_) * grad;
      vd[j] = beta2_ * vd[j] + (1.0f - beta2_) * grad * grad;
      const float m_hat = md[j] / bias1;
      const float v_hat = vd[j] / bias2;
      pd[j] -= lr_ * m_hat / (std::sqrt(v_hat) + eps_);
    }
  }
}

namespace {

/// Copies samples `idx[first..last)` of [N, ...] into a [count, ...] batch.
Tensor GatherBatch(const Tensor& data, std::span<const long> idx) {
  const long per_sample = data.numel() / data.dim(0);
  Shape shape = data.shape();
  shape[0] = static_cast<long>(idx.size());
  Tensor out(std::move(shape));
  for (std::size_t i = 0; i < idx.size(); ++i)
    std::copy(data.data() + idx[i] * per_sample,
              data.data() + (idx[i] + 1) * per_sample,
              out.data() + static_cast<long>(i) * per_sample);
  return out;
}

std::vector<int> GatherLabels(std::span<const int> labels,
                              std::span<const long> idx) {
  std::vector<int> out(idx.size());
  for (std::size_t i = 0; i < idx.size(); ++i)
    out[i] = labels[static_cast<std::size_t>(idx[i])];
  return out;
}

/// Shared mini-batch loop. `make_input` maps a gathered sample batch to the
/// time-major network input [T, B, ...].
template <typename MakeInput>
TrainResult RunTraining(Network& net, const Tensor& data,
                        std::span<const int> labels, const TrainConfig& cfg,
                        MakeInput&& make_input) {
  const long n = data.dim(0);
  AXSNN_CHECK(n == static_cast<long>(labels.size()),
              "sample/label count mismatch");
  AXSNN_CHECK(cfg.epochs > 0 && cfg.batch_size > 0 && cfg.time_steps > 0,
              "invalid training configuration");

  AdamOptimizer opt(net.Params(), cfg);
  Rng shuffle_rng(cfg.seed);

  std::vector<long> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0L);

  TrainResult result;
  for (long epoch = 0; epoch < cfg.epochs; ++epoch) {
    if (cfg.shuffle) {
      // Fisher–Yates with our deterministic RNG.
      for (long i = n - 1; i > 0; --i) {
        const long j = static_cast<long>(
            shuffle_rng.UniformInt(static_cast<std::uint64_t>(i + 1)));
        std::swap(order[static_cast<std::size_t>(i)],
                  order[static_cast<std::size_t>(j)]);
      }
    }

    double loss_sum = 0.0;
    long correct = 0;
    long batches = 0;
    for (long start = 0; start < n; start += cfg.batch_size) {
      const long count = std::min(cfg.batch_size, n - start);
      std::span<const long> idx(order.data() + start,
                                static_cast<std::size_t>(count));
      Tensor batch = GatherBatch(data, idx);
      std::vector<int> batch_labels = GatherLabels(labels, idx);

      Tensor input = make_input(batch, epoch, batches);
      const Tensor& seq = net.ForwardShared(input, /*train=*/true);
      Tensor logits = ReadoutMean(seq);
      LossResult lr = SoftmaxCrossEntropy(logits, batch_labels);

      net.ZeroGrad();
      Tensor grad_seq = ReadoutMeanBackward(lr.grad_logits, cfg.time_steps);
      net.Backward(grad_seq, GradRequest::kParams);  // dL/d(input) unread
      opt.Step(net.Grads());

      loss_sum += lr.loss;
      correct += lr.correct;
      ++batches;
    }

    EpochStats stats;
    stats.mean_loss = static_cast<float>(loss_sum / std::max(1L, batches));
    stats.accuracy = static_cast<float>(correct) / static_cast<float>(n);
    result.epochs.push_back(stats);
    if (cfg.verbose) {
      std::cerr << "epoch " << (epoch + 1) << '/' << cfg.epochs
                << "  loss=" << stats.mean_loss
                << "  acc=" << stats.accuracy * 100.0f << "%\n";
    }
  }
  result.final_accuracy =
      result.epochs.empty() ? 0.0f : result.epochs.back().accuracy;
  return result;
}

}  // namespace

TrainResult FitStatic(Network& net, const Tensor& images,
                      std::span<const int> labels, const TrainConfig& cfg) {
  AXSNN_CHECK(images.rank() == 4, "FitStatic expects images [N, C, H, W]");
  Rng encode_rng(cfg.seed ^ 0xE4C0DEULL);
  return RunTraining(
      net, images, labels, cfg,
      [&](const Tensor& batch, long /*epoch*/, long /*batch_idx*/) {
        Rng rng = encode_rng.Fork(0);  // advance the stream deterministically
        encode_rng.NextU64();
        return Encode(batch, cfg.time_steps, cfg.encoding, rng);
      });
}

TrainResult FitTemporal(Network& net, const Tensor& frames,
                        std::span<const int> labels, const TrainConfig& cfg) {
  AXSNN_CHECK(frames.rank() == 5,
              "FitTemporal expects frames [N, T, C, H, W]");
  AXSNN_CHECK(frames.dim(1) == cfg.time_steps,
              "cfg.time_steps (" << cfg.time_steps
                                 << ") must equal the dataset frame count ("
                                 << frames.dim(1) << ')');
  return RunTraining(net, frames, labels, cfg,
                     [&](const Tensor& batch, long, long) {
                       return TimeMajor(batch);
                     });
}

}  // namespace axsnn::snn
