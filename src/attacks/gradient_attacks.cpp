#include "attacks/gradient_attacks.hpp"

#include <algorithm>
#include <cmath>

#include "snn/encoding.hpp"
#include "snn/loss.hpp"
#include "tensor/check.hpp"

namespace axsnn::attacks {

namespace {

/// One batched iterative-gradient attack (shared PGD/BIM core).
Tensor IterativeAttack(snn::Network& net, const Tensor& images,
                       std::span<const int> labels,
                       const GradientAttackConfig& cfg, bool random_start,
                       float default_step_factor) {
  AXSNN_CHECK(images.rank() == 4, "attack expects images [B, C, H, W]");
  AXSNN_CHECK(cfg.epsilon >= 0.0f, "epsilon must be non-negative");
  AXSNN_CHECK(cfg.steps > 0 && cfg.time_steps > 0 && cfg.batch_size > 0,
              "invalid attack configuration");
  const long n = images.dim(0);
  AXSNN_CHECK(n == static_cast<long>(labels.size()),
              "image/label count mismatch");

  if (cfg.epsilon == 0.0f) return images;  // empty budget: unperturbed

  const float alpha = cfg.step_size > 0.0f
                          ? cfg.step_size
                          : default_step_factor * cfg.epsilon /
                                static_cast<float>(cfg.steps);

  Tensor adversarial = images;
  const long per_sample = images.numel() / n;
  Rng rng(cfg.seed);
  Tensor input;  // encoded [T, B, ...] staging, reused across steps/batches
  // The craft loop backpropagates through train=false forwards: keep the
  // layers' Backward caches for its duration.
  snn::GradCacheScope grad_cache(net);

  for (long start = 0; start < n; start += cfg.batch_size) {
    const long count = std::min(cfg.batch_size, n - start);
    Shape batch_shape = images.shape();
    batch_shape[0] = count;

    Tensor x0(batch_shape);
    std::copy(images.data() + start * per_sample,
              images.data() + (start + count) * per_sample, x0.data());
    std::vector<int> batch_labels(labels.begin() + start,
                                  labels.begin() + start + count);

    Tensor x = x0;
    if (random_start) {
      for (float& v : x.flat())
        v += static_cast<float>(rng.Uniform(-cfg.epsilon, cfg.epsilon));
      x.Clamp(0.0f, 1.0f);
    }

    for (long step = 0; step < cfg.steps; ++step) {
      snn::EncodeInto(x, cfg.time_steps, cfg.encoding, rng, input);
      const Tensor& seq = net.ForwardShared(input, /*train=*/false);
      Tensor logits = snn::ReadoutMean(seq);
      snn::LossResult loss = snn::SoftmaxCrossEntropy(logits, batch_labels);

      Tensor grad_seq =
          snn::ReadoutMeanBackward(loss.grad_logits, cfg.time_steps);
      // Only the input gradient is read: no layer accumulates dW/db.
      const Tensor& grad_input =
          net.Backward(grad_seq, snn::GradRequest::kInput);
      Tensor grad_image = snn::CollapseTimeGradient(grad_input);

      // Ascent step on the sign of the gradient, then project back into the
      // eps-ball around x0 intersected with the valid pixel range.
      float* xd = x.data();
      const float* gd = grad_image.data();
      const float* x0d = x0.data();
      const long m = x.numel();
      for (long i = 0; i < m; ++i) {
        const float g = gd[i];
        const float stepv = g > 0.0f ? alpha : (g < 0.0f ? -alpha : 0.0f);
        float v = xd[i] + stepv;
        v = std::clamp(v, x0d[i] - cfg.epsilon, x0d[i] + cfg.epsilon);
        xd[i] = std::clamp(v, 0.0f, 1.0f);
      }
    }

    std::copy(x.data(), x.data() + count * per_sample,
              adversarial.data() + start * per_sample);
  }
  return adversarial;
}

}  // namespace

Tensor PgdAttack(snn::Network& net, const Tensor& images,
                 std::span<const int> labels,
                 const GradientAttackConfig& cfg) {
  return IterativeAttack(net, images, labels, cfg, /*random_start=*/true,
                         /*default_step_factor=*/2.5f);
}

Tensor BimAttack(snn::Network& net, const Tensor& images,
                 std::span<const int> labels,
                 const GradientAttackConfig& cfg) {
  return IterativeAttack(net, images, labels, cfg, /*random_start=*/false,
                         /*default_step_factor=*/1.0f);
}

}  // namespace axsnn::attacks
