// Layer abstraction for time-major spiking networks.
//
// All layers consume and produce *time-major* activations shaped
// [T, B, ...feature dims...]; stateless layers (conv, dense, pool) treat
// T*B as one large batch, while the LIF layer runs its membrane recursion
// across the leading time axis. Each layer caches what it needs during
// ForwardInto so that a subsequent Backward can run full
// backpropagation-through-time, including the gradient with respect to the
// *input* — which is what the gradient-based adversarial attacks consume.
//
// Forward and Backward are allocation-free in steady state: ForwardInto
// and BackwardInto write into a caller-provided tensor (resized in place,
// which reuses its heap block once capacities have warmed up), and
// Network::ForwardShared / Network::Backward ping-pong between two
// runtime::Workspace slots. The allocating Tensor Forward(x, train) and
// Tensor Backward(g) remain as convenience wrappers.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "kernels/spike_words.hpp"
#include "runtime/aligned.hpp"
#include "tensor/tensor.hpp"

namespace axsnn::snn {

/// Non-owning view of one timestep's bit-packed nonzero mask: `batch` rows
/// of `words_per_plane` words (spike_words.hpp layout) plus per-sample
/// popcounts. An invalid view (words == nullptr) means the mask is unknown
/// — consumers fall back to dense behaviour. The mask marks *nonzero*
/// elements of the accompanying float activation, which is exactly what
/// the kernel dispatchers' density decision and sparse gather consume
/// (kernels::PackedWords); values need not be binary.
struct SpikeView {
  const std::uint64_t* words = nullptr;
  const std::int32_t* counts = nullptr;
  long batch = 0;
  long plane = 0;
  long words_per_plane = 0;
  long total = 0;  ///< sum of counts; 0 == silent step
  bool valid() const { return words != nullptr; }
};

/// Owning per-step spike-plane buffer — the "lane" the event-driven runner
/// threads between layers so each layer's skip decision and sparse gather
/// read one shared popcount instead of re-probing the floats. Storage never
/// shrinks, so reconfiguring per step/batch is allocation-free in steady
/// state.
class SpikePlanes {
 public:
  /// Sizes the buffer for `batch` planes of `plane` elements each and marks
  /// the contents invalid until a producer fills them.
  void Configure(long batch, long plane) {
    batch_ = batch;
    plane_ = plane;
    wpp_ = kernels::SpikeWordCount(plane);
    const std::size_t n_words =
        static_cast<std::size_t>(batch) * static_cast<std::size_t>(wpp_);
    if (words_.size() < n_words) words_.resize(n_words);
    if (counts_.size() < static_cast<std::size_t>(batch))
      counts_.resize(static_cast<std::size_t>(batch));
    valid_ = false;
  }

  void Invalidate() { valid_ = false; }
  bool valid() const { return valid_; }
  long batch() const { return batch_; }
  long plane() const { return plane_; }

  /// All-zero mask (a silent plane).
  void ZeroFill() {
    std::fill(words_.begin(),
              words_.begin() + static_cast<std::ptrdiff_t>(batch_ * wpp_), 0);
    std::fill(counts_.begin(),
              counts_.begin() + static_cast<std::ptrdiff_t>(batch_), 0);
    total_ = 0;
    valid_ = true;
  }

  /// Packs the nonzero mask of `x` (batch rows of plane floats).
  void PackFrom(const float* x) {
    long total = 0;
    for (long i = 0; i < batch_; ++i) {
      const long c = kernels::PackSpikeWords(x + i * plane_, plane_,
                                             words_.data() + i * wpp_);
      counts_[static_cast<std::size_t>(i)] = static_cast<std::int32_t>(c);
      total += c;
    }
    total_ = total;
    valid_ = true;
  }

  /// Copies another step's mask (identity layers: dropout in eval mode).
  void CopyFrom(const SpikeView& in) {
    std::copy(in.words, in.words + batch_ * wpp_, words_.data());
    std::copy(in.counts, in.counts + batch_, counts_.data());
    total_ = in.total;
    valid_ = true;
  }

  SpikeView View() const {
    SpikeView v;
    if (!valid_) return v;
    v.words = words_.data();
    v.counts = counts_.data();
    v.batch = batch_;
    v.plane = plane_;
    v.words_per_plane = wpp_;
    v.total = total_;
    return v;
  }

 private:
  long batch_ = 0;
  long plane_ = 0;
  long wpp_ = 0;
  long total_ = 0;
  bool valid_ = false;
  runtime::AlignedVector<std::uint64_t> words_;
  std::vector<std::int32_t> counts_;
};

/// Silent-fill cache for the stepped path: a layer whose output on a silent
/// step is a constant pattern (bias planes, zeros) writes it once, and
/// consecutive silent steps into the same buffer skip the rewrite. Reset at
/// BeginStepped and on every non-silent step.
class SilentFill {
 public:
  void Reset() { filled_ = false; }

  /// Runs `fill` unless `out` still holds the previous silent step's fill.
  template <typename Fill>
  void Apply(Tensor& out, Fill&& fill) {
    if (filled_ && data_ == out.data() && numel_ == out.numel()) return;
    fill();
    filled_ = true;
    data_ = out.data();
    numel_ = out.numel();
  }

 private:
  bool filled_ = false;
  const float* data_ = nullptr;
  long numel_ = 0;
};

/// Per-timestep forward context for the event-driven path (EventRunner).
struct StepContext {
  long t = 0;           ///< current timestep, 0-based
  long time_steps = 0;  ///< total steps in the run
  SpikeView in;         ///< packed mask of `x`, if the producer published one
  SpikePlanes* out = nullptr;  ///< where to publish this layer's output mask
  long* kernel_calls = nullptr;          ///< ++ per conv/dense kernel run
  long* kernel_calls_skipped = nullptr;  ///< ++ per skip-on-silent bias fill
};

/// What one Backward computes: the input gradient dL/d(input), the
/// parameter gradients (accumulated into Layer::Grads()), or both. A caller
/// asks for what it reads: the gradient attacks read only the input
/// gradient, and training never reads the first layer's.
enum class GradRequest { kInput = 1, kParams = 2, kBoth = 3 };

inline bool WantsInputGrad(GradRequest r) {
  return (static_cast<int>(r) & static_cast<int>(GradRequest::kInput)) != 0;
}
inline bool WantsParamGrads(GradRequest r) {
  return (static_cast<int>(r) & static_cast<int>(GradRequest::kParams)) != 0;
}

/// Abstract base class of all network layers.
///
/// Contract: a Backward runs after a caching forward pass and receives
/// dL/d(output). It accumulates parameter gradients into Grads() and
/// produces dL/d(input), of the forward input's shape, as its request
/// asks. Backward reads only the forward's caches, so it may be repeated.
class Layer {
 public:
  virtual ~Layer() = default;

  Layer() = default;
  Layer(const Layer&) = default;
  Layer& operator=(const Layer&) = default;

  /// Output shape produced for an input of shape `in`. Throws when `in` is
  /// not a shape this layer accepts.
  virtual Shape OutputShape(const Shape& in) const = 0;

  /// Runs the layer on a time-major activation, writing the result into
  /// `out` (resized by the implementation; contents fully overwritten).
  /// `out` must not alias `x`. `train` enables stochastic behaviour
  /// (dropout) and input caching for Backward. Inference passes
  /// (train == false) skip — and invalidate — the input-activation cache
  /// unless grad_cache() is set, so Backward after an uncached pass throws
  /// rather than differentiating a stale input; callers that backpropagate
  /// through inference-mode forwards (the gradient-based attacks) enable
  /// caching first via Network::SetGradCache / snn::GradCacheScope.
  virtual void ForwardInto(const Tensor& x, Tensor& out, bool train) = 0;

  /// Allocating convenience wrapper around ForwardInto.
  Tensor Forward(const Tensor& x, bool train) {
    Tensor out;
    ForwardInto(x, out, train);
    return out;
  }

  /// Event-path stepped forward: processes one timestep's batch [B, ...]
  /// instead of the whole [T, B, ...] sequence. Must produce exactly the
  /// slice ForwardInto would have written for this step (the dense-path
  /// equivalence contract — pinned by tests/test_event_pipeline.cpp).
  /// `ctx.in` optionally carries the packed nonzero mask of `x` so the
  /// layer can skip work on silent steps and feed the sparse kernels
  /// without re-deriving the mask; when `ctx.in` is valid and silent
  /// (total == 0), implementations must not read x's *data* (the runner
  /// skips densifying silent steps — x then has the right shape but stale
  /// contents). Layers publish their own output mask into `ctx.out` when
  /// they can do so cheaply, or invalidate it. Bracketed by BeginStepped /
  /// EndStepped; only inference-mode behaviour (no dropout noise, no
  /// Backward caches — Backward after a stepped run throws).
  ///
  /// Default: run ForwardInto in inference mode on the step batch and
  /// publish no mask — correct for any stateless layer.
  virtual void ForwardStep(const Tensor& x, Tensor& out, StepContext& ctx) {
    ForwardInto(x, out, false);
    if (ctx.out != nullptr) ctx.out->Invalidate();
  }

  /// Bracket a stepped run (EventRunner): BeginStepped resets per-run
  /// stepped state (LIF membrane carries, silent-fill caches) before step
  /// t == 0; EndStepped runs after the last step.
  virtual void BeginStepped(long time_steps, long batch) {
    (void)time_steps;
    (void)batch;
  }
  virtual void EndStepped() {}

  /// Backpropagates `grad_out` = dL/d(output) through the cached forward
  /// pass. With WantsInputGrad(request), writes dL/d(input) into `grad_in`
  /// (resized by the implementation, contents fully overwritten; must not
  /// alias grad_out). With WantsParamGrads(request), adds the parameter
  /// gradients into Grads(). A kParams request leaves `grad_in` untouched
  /// and a kInput request leaves Grads() untouched.
  virtual void BackwardInto(const Tensor& grad_out, Tensor& grad_in,
                            GradRequest request) = 0;

  /// Allocating convenience wrapper around BackwardInto: computes both
  /// gradients and returns dL/d(input).
  Tensor Backward(const Tensor& grad_out) {
    Tensor grad_in;
    BackwardInto(grad_out, grad_in, GradRequest::kBoth);
    return grad_in;
  }

  /// Trainable parameter tensors (may be empty). Order is stable and matches
  /// Grads().
  virtual std::vector<Tensor*> Params() { return {}; }

  /// Accumulated parameter gradients, aligned with Params().
  virtual std::vector<Tensor*> Grads() { return {}; }

  /// Clears accumulated parameter gradients.
  void ZeroGrad() {
    for (Tensor* g : Grads()) g->Zero();
  }

  /// Called after the layer's parameter tensors were overwritten in bulk
  /// (Network::LoadStateDict). Layers holding state *derived* from their
  /// parameters — e.g. the int8 weight snapshot of Conv2d/Dense — must
  /// invalidate it here; executing on a stale snapshot would silently
  /// ignore the new weights. Direct mutation through weight()/Params()
  /// accessors does not trigger this hook; such callers re-derive manually
  /// (as ApplyApproximation does by enabling int8 after its last edit).
  virtual void OnWeightsChanged() {}

  /// Gradient-cache switch for inference-mode passes: when set, layers keep
  /// their Backward caches on train == false forwards too (the attacks'
  /// threat model — craft on the accurate model in eval mode). Default off:
  /// pure inference (AccuracyStatic, sweeps) skips the per-layer input
  /// copies. Training passes (train == true) always cache.
  void set_grad_cache(bool on) { grad_cache_ = on; }
  bool grad_cache() const { return grad_cache_; }

  /// Short identifier used in diagnostics and state dicts, e.g. "conv1".
  virtual std::string Name() const = 0;

  /// Deep copy, preserving weights but not cached activations. Approximation
  /// experiments clone a trained network once per (precision, level) variant.
  virtual std::unique_ptr<Layer> Clone() const = 0;

 protected:
  /// Resizes `out` to OutputShape(x.shape()), memoizing the (input, output)
  /// shape pair so steady-state passes (same input shape every call) perform
  /// no shape computation and no allocation. ForwardInto implementations
  /// call this first.
  void SizeOutput(const Tensor& x, Tensor& out) {
    if (x.shape() != last_in_shape_) {
      last_out_shape_ = OutputShape(x.shape());
      last_in_shape_ = x.shape();  // copy-assign: reuses capacity
    }
    out.ResizeTo(last_out_shape_);
  }

 private:
  Shape last_in_shape_;   // memoized SizeOutput key
  Shape last_out_shape_;  // memoized SizeOutput value
  bool grad_cache_ = false;  // cache inputs on inference passes too
};

}  // namespace axsnn::snn
