#include "snn/network.hpp"

#include <sstream>

#include "snn/lif_layer.hpp"
#include "tensor/check.hpp"

namespace axsnn::snn {

Layer& Network::Add(std::unique_ptr<Layer> layer) {
  AXSNN_CHECK(layer != nullptr, "cannot add a null layer");
  layers_.push_back(std::move(layer));
  return *layers_.back();
}

Tensor Network::Forward(const Tensor& x, bool train) {
  return ForwardShared(x, train);  // copies the workspace result out
}

const Tensor& Network::ForwardShared(const Tensor& x, bool train) {
  AXSNN_CHECK(!layers_.empty(), "Forward on an empty network");
  // Ping-pong between two workspace slots: layer i reads slot (i+1)%2 (or x
  // for the first layer) and writes slot i%2, so input and output never
  // alias and both buffers are reused across calls.
  const Tensor* in = &x;
  Tensor* out = nullptr;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    Tensor& buf = workspace_.Slot(i % 2);
    AXSNN_CHECK(in != &buf, "workspace slot aliases the layer input");
    layers_[i]->ForwardInto(*in, buf, train);
    if (post_layer_hook_) post_layer_hook_(i, buf);
    out = &buf;
    in = out;
  }
  return *out;
}

const Tensor& Network::Backward(const Tensor& grad_out,
                                GradRequest request) {
  AXSNN_CHECK(!layers_.empty(), "Backward on an empty network");
  // Layers above the first always produce their input gradient: the
  // layers below read it. Only the first layer takes `request` as given.
  const GradRequest above = WantsParamGrads(request) ? GradRequest::kBoth
                                                     : GradRequest::kInput;
  // Ping-pong through the forward's two slots: layer i writes dL/d(input)
  // into slot (i+1)%2, which held its input during the forward, so the
  // slots grow only for the first layer's gradient (the network input).
  const Tensor* g = &grad_out;
  for (std::size_t i = layers_.size(); i-- > 0;) {
    Tensor& buf = workspace_.Slot((i + 1) % 2);
    AXSNN_CHECK(g != &buf, "workspace slot aliases the layer gradient");
    layers_[i]->BackwardInto(*g, buf, i == 0 ? request : above);
    g = &buf;
  }
  static const Tensor kNoInputGrad;
  return WantsInputGrad(request) ? *g : kNoInputGrad;
}

void Network::SetGradCache(bool on) {
  for (auto& layer : layers_) layer->set_grad_cache(on);
}

bool Network::GradCacheEnabled() const {
  return !layers_.empty() && layers_.front()->grad_cache();
}

void Network::ZeroGrad() {
  for (auto& layer : layers_) layer->ZeroGrad();
}

std::vector<Tensor*> Network::Params() {
  std::vector<Tensor*> out;
  for (auto& layer : layers_)
    for (Tensor* p : layer->Params()) out.push_back(p);
  return out;
}

std::vector<Tensor*> Network::Grads() {
  std::vector<Tensor*> out;
  for (auto& layer : layers_)
    for (Tensor* g : layer->Grads()) out.push_back(g);
  return out;
}

long Network::ParameterCount() const {
  long n = 0;
  for (const auto& layer : layers_) {
    // Params() is non-const by design (optimizer mutates); cast for counting.
    for (Tensor* p : const_cast<Layer&>(*layer).Params()) n += p->numel();
  }
  return n;
}

std::vector<LifLayer*> Network::LifLayers() {
  std::vector<LifLayer*> out;
  for (auto& layer : layers_)
    if (auto* lif = dynamic_cast<LifLayer*>(layer.get())) out.push_back(lif);
  return out;
}

std::vector<const LifLayer*> Network::LifLayers() const {
  std::vector<const LifLayer*> out;
  for (const auto& layer : layers_)
    if (const auto* lif = dynamic_cast<const LifLayer*>(layer.get()))
      out.push_back(lif);
  return out;
}

void Network::SetLifParams(const LifParams& params) {
  for (LifLayer* lif : LifLayers()) lif->set_params(params);
}

Network Network::Clone() const {
  Network copy;
  for (const auto& layer : layers_) copy.Add(layer->Clone());
  copy.event_path_ = event_path_;
  return copy;
}

std::map<std::string, Tensor> Network::StateDict() const {
  std::map<std::string, Tensor> state;
  for (const auto& layer : layers_) {
    auto params = const_cast<Layer&>(*layer).Params();
    for (std::size_t i = 0; i < params.size(); ++i) {
      std::ostringstream key;
      key << layer->Name() << '.' << i;
      AXSNN_CHECK(state.find(key.str()) == state.end(),
                  "duplicate layer name in state dict: " << layer->Name());
      state.emplace(key.str(), *params[i]);
    }
  }
  return state;
}

void Network::LoadStateDict(const std::map<std::string, Tensor>& state) {
  for (auto& layer : layers_) {
    auto params = layer->Params();
    for (std::size_t i = 0; i < params.size(); ++i) {
      std::ostringstream key;
      key << layer->Name() << '.' << i;
      auto it = state.find(key.str());
      AXSNN_CHECK(it != state.end(),
                  "state dict missing key " << key.str());
      AXSNN_CHECK(it->second.shape() == params[i]->shape(),
                  "state dict shape mismatch for " << key.str());
      *params[i] = it->second;
    }
    // Derived parameter state (e.g. an int8 weight snapshot) is stale now.
    layer->OnWeightsChanged();
  }
}

}  // namespace axsnn::snn
