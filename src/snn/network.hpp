// Sequential spiking network container.
//
// A Network is an ordered list of layers processing time-major activations.
// It provides:
//  * Forward/Backward over the whole stack (Backward computes what its
//    request asks: dL/d(input), which the gradient-based attacks consume
//    directly, the parameter gradients training reads, or both);
//  * parameter/gradient aggregation for the optimizer;
//  * deep cloning and state-dict (de)serialization so approximation
//    experiments can derive many AxSNN variants from one trained checkpoint;
//  * structural-parameter editing (set every LIF layer's Vth and leak at
//    once) for the paper's (Vth, T) sweeps.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "runtime/workspace.hpp"
#include "snn/event_path.hpp"
#include "snn/layer.hpp"
#include "snn/lif.hpp"
#include "tensor/tensor.hpp"

namespace axsnn::snn {

class LifLayer;

/// Ordered stack of layers; owns them.
class Network {
 public:
  Network() = default;

  // Move-only: layers own training caches that must not be shallow-shared.
  Network(Network&&) = default;
  Network& operator=(Network&&) = default;
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Appends a layer; returns a reference to the stored layer.
  Layer& Add(std::unique_ptr<Layer> layer);

  /// Constructs a layer in place, e.g. net.Emplace<Conv2d>("c1", 1, 8, 3, 1, rng).
  template <typename L, typename... Args>
  L& Emplace(Args&&... args) {
    auto layer = std::make_unique<L>(std::forward<Args>(args)...);
    L& ref = *layer;
    Add(std::move(layer));
    return ref;
  }

  /// Runs all layers on a time-major activation [T, B, ...], returning a
  /// fresh tensor (allocates). Prefer ForwardShared on hot paths.
  Tensor Forward(const Tensor& x, bool train = false);

  /// Allocation-free forward pass: activations ping-pong between two slots
  /// of the network's own Workspace, which is warmed up on the first call
  /// and reused across timesteps, mini-batches and attack iterations. The
  /// returned reference points into the workspace and is valid until the
  /// next forward pass or Backward on this network. `x` must not alias the
  /// workspace (i.e. never feed a previous ForwardShared result back in
  /// directly).
  const Tensor& ForwardShared(const Tensor& x, bool train = false);

  /// Backpropagates `grad_out` = dL/d(output) through the last caching
  /// forward. `request` names what the caller reads: kInput leaves every
  /// Grads() tensor untouched, kParams skips the first layer's input
  /// gradient, kBoth does both. Returns dL/d(input) for kInput and kBoth,
  /// an empty tensor for kParams. Allocation-free in steady state: the
  /// gradients ping-pong through the same two workspace slots as
  /// ForwardShared, so the returned reference — and any ForwardShared
  /// result — is valid only until the next forward or Backward on this
  /// network. `grad_out` must not alias the workspace.
  const Tensor& Backward(const Tensor& grad_out,
                         GradRequest request = GradRequest::kBoth);

  /// Enables/disables gradient caching on inference-mode forwards for every
  /// layer (Layer::set_grad_cache). The gradient-based attacks switch this
  /// on around their craft loops — they backpropagate through train=false
  /// passes — and restore it so pure evaluation stays copy-free (use
  /// GradCacheScope rather than calling this directly).
  void SetGradCache(bool on);

  /// Current SetGradCache state (false for an empty network). All layers
  /// always share one value — SetGradCache is the only writer.
  bool GradCacheEnabled() const;

  /// Clears all parameter gradients.
  void ZeroGrad();

  std::size_t size() const { return layers_.size(); }
  Layer& layer(std::size_t i) { return *layers_.at(i); }
  const Layer& layer(std::size_t i) const { return *layers_.at(i); }

  /// All trainable parameters (layer order, Params() order within a layer).
  std::vector<Tensor*> Params();
  /// Gradients aligned with Params().
  std::vector<Tensor*> Grads();

  /// Total number of trainable scalars.
  long ParameterCount() const;

  /// Pointers to every LIF layer in the stack (non-owning).
  std::vector<LifLayer*> LifLayers();
  std::vector<const LifLayer*> LifLayers() const;

  /// Overwrites the neuron parameters of every LIF layer — the paper's
  /// "structural parameter" knob (threshold voltage sweep).
  void SetLifParams(const LifParams& params);

  /// Temporal execution path preference for this network: kDense runs the
  /// [T, B, ...] frame-tensor pipeline, kEvent the compressed spike-stream
  /// one. Resolved against the AXSNN_EVENT_PATH env override / global mode
  /// at dispatch time (snn::ResolveEventPathMode); kAuto means dense.
  EventPathMode event_path() const { return event_path_; }
  void set_event_path(EventPathMode mode) { event_path_ = mode; }

  /// Transient-fault injection hook (src/faults/): called after every
  /// layer's ForwardInto with the layer index and the freshly written
  /// activation, which it may corrupt in place. Deliberately execution
  /// state, not model state: Clone() does NOT copy it (a clone restarts
  /// fault-free) and StateDict() never sees it. The hook fires on the
  /// dense path only; the temporal dispatchers fall back to dense when one
  /// is installed (snn::UsesEventPath) so the corruption is never silently
  /// skipped by the event path.
  using PostLayerHook = std::function<void(std::size_t layer, Tensor& act)>;
  void set_post_layer_hook(PostLayerHook hook) {
    post_layer_hook_ = std::move(hook);
  }
  bool has_post_layer_hook() const {
    return static_cast<bool>(post_layer_hook_);
  }

  /// Deep copy: same weights, fresh caches. Does not copy the post-layer
  /// hook (see set_post_layer_hook).
  Network Clone() const;

  /// Weights keyed "layer_name.param_index" (e.g. "conv1.0" for the kernel).
  std::map<std::string, Tensor> StateDict() const;

  /// Restores weights saved by StateDict. Throws when a key is missing or a
  /// shape differs — a checkpoint must match the architecture exactly.
  void LoadStateDict(const std::map<std::string, Tensor>& state);

 private:
  std::vector<std::unique_ptr<Layer>> layers_;
  runtime::Workspace workspace_;  // ForwardShared / Backward ping-pong
  EventPathMode event_path_ = EventPathMode::kAuto;
  PostLayerHook post_layer_hook_;  // transient; never cloned/serialized
};

/// Scoped inference-pass gradient caching: the gradient-based attacks
/// backpropagate through train=false forwards, so the layers must keep
/// their Backward caches for the scope's duration. Restores the *prior*
/// state on exit (exception-safe), so a caller that already enabled
/// caching keeps it.
class GradCacheScope {
 public:
  explicit GradCacheScope(Network& net)
      : net_(net), saved_(net.GradCacheEnabled()) {
    net_.SetGradCache(true);
  }
  ~GradCacheScope() { net_.SetGradCache(saved_); }
  GradCacheScope(const GradCacheScope&) = delete;
  GradCacheScope& operator=(const GradCacheScope&) = delete;

 private:
  Network& net_;
  bool saved_;
};

}  // namespace axsnn::snn
