// Shared base of the synaptic layers, Conv2d and Dense.
//
// Everything that does not depend on the geometry lives here: weights,
// biases and their grads, the grad-cache rule, the int8 snapshot
// (approx/int8_backend.*), the kernel-mode knob (kernels/dispatch.hpp), and
// the one ForwardInto and ForwardStep. A subclass supplies its
// constructor, OutputShape, geometry accessors, BackwardInto and Clone, plus
// the hooks declared below.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "kernels/dispatch.hpp"
#include "runtime/workspace.hpp"
#include "snn/layer.hpp"
#include "tensor/quantized.hpp"
#include "tensor/random.hpp"
#include "tensor/tensor.hpp"

namespace axsnn::snn {

/// A layer with a weight tensor whose dim 0 is the output-channel axis and a
/// bias of one value per output channel. Params() order: weight, bias.
class WeightLayer : public Layer {
 public:
  void ForwardInto(const Tensor& x, Tensor& out, bool train) final;
  /// Event-path step: skip-on-silent (pure bias planes, cached across
  /// consecutive silent steps into the same buffer) and packed-word
  /// pass-through to the kernel dispatcher (kernels::PackedWords).
  void ForwardStep(const Tensor& x, Tensor& out, StepContext& ctx) final;
  void BeginStepped(long time_steps, long batch) final;
  std::vector<Tensor*> Params() final { return {&weight_, &bias_}; }
  std::vector<Tensor*> Grads() final { return {&dweight_, &dbias_}; }
  std::string Name() const final { return name_; }

  /// Direct weight access for quantization / approximation passes.
  Tensor& weight() { return weight_; }
  const Tensor& weight() const { return weight_; }
  Tensor& bias() { return bias_; }
  const Tensor& bias() const { return bias_; }

  /// Inputs one output neuron sums over (c in Eq. (1)): C_in*K*K or F_in.
  virtual long fan_in() const = 0;
  /// Outputs one input element feeds, ignoring borders: C_out*K*K or F_out.
  virtual long fan_out() const = 0;

  /// Switches the forward passes to the integer backend: snapshots the
  /// *current* weights as int8 with per-output-channel scales
  /// (`row_scales`; empty derives them rowwise as max|row| / 127) and runs
  /// int32-accumulating kernels from then on. Call after the last weight
  /// edit — later mutations of weight() are not re-quantized. Backward still
  /// differentiates the float weights (attacks are crafted on the accurate
  /// model, so the int8 path only ever runs forward).
  void EnableInt8Kernel(std::span<const float> row_scales = {});
  /// Returns to the float forward path.
  void DisableInt8Kernel() { qweight_ = QuantizedTensor(); }
  bool int8_kernel() const { return !qweight_.empty(); }
  const QuantizedTensor& quantized_weight() const { return qweight_; }
  /// Mutable snapshot access for the fault injector (src/faults/), which
  /// flips bits of the stored int8 codes / scale words in place. The next
  /// forward reads the corrupted snapshot directly.
  QuantizedTensor& quantized_weight() { return qweight_; }

  /// Bulk weight reload: the int8 snapshot no longer matches — drop it
  /// (callers re-enable if they still want integer execution).
  void OnWeightsChanged() final { DisableInt8Kernel(); }

  /// Kernel-implementation knob (src/kernels/): kAuto probes activation
  /// density per call, the other values pin one path. A non-auto global
  /// mode (AXSNN_KERNEL_MODE) overrides this — see kernels/dispatch.hpp.
  void set_kernel_mode(kernels::KernelMode mode) { kernel_mode_ = mode; }
  kernels::KernelMode kernel_mode() const { return kernel_mode_; }

 protected:
  explicit WeightLayer(std::string name) : name_(std::move(name)) {}

  /// Kaiming-uniform weights of `weight_shape` (bound sqrt(6 / fan_in())),
  /// a zero bias over dim 0 and zero grads. Subclass constructors call
  /// this after validating their geometry.
  void InitWeights(Shape weight_shape, Rng& rng);

  // --- subclass hooks ------------------------------------------------------

  /// Runs the layer's kernel dispatcher on x into the sized `out`: the int8
  /// backend on quantized_weight() when int8_kernel(), else the fp32 one.
  /// `packed` is forwarded to the dispatcher (kernels::PackedWords).
  virtual void RunKernel(const Tensor& x, Tensor& out,
                         const kernels::PackedWords* packed) = 0;
  /// Sizes `out` for a ForwardStep batch (no [T, B] prefix).
  virtual void SizeStepOutput(const Tensor& x, Tensor& out) = 0;
  /// Elements of one sample of `x` — the row length the kernels pack.
  virtual long SampleLength(const Tensor& x) const = 0;

  // --- state for the hooks and Backward ------------------------------------

  runtime::Workspace& scratch() { return *scratch_; }
  /// The input of the last caching forward; empty after an uncached one.
  const Tensor& cached_input() const { return cached_input_; }
  Tensor& dweight() { return dweight_; }
  Tensor& dbias() { return dbias_; }

  /// Clone() body: a copy of the subclass T keeping weights, grads, int8
  /// snapshot and kernel mode, without the input cache (kernel scratch
  /// starts fresh by LocalScratch copy).
  template <typename T>
  std::unique_ptr<Layer> CloneAs() const {
    auto copy = std::make_unique<T>(static_cast<const T&>(*this));
    static_cast<WeightLayer&>(*copy).cached_input_ = Tensor();
    return copy;
  }

 private:
  std::string name_;
  Tensor weight_;  // [C_out, ...]
  Tensor bias_;    // [C_out]
  Tensor dweight_;
  Tensor dbias_;
  Tensor cached_input_;      // saved activation for Backward
  QuantizedTensor qweight_;  // int8 backend weights (empty = off)
  kernels::KernelMode kernel_mode_ = kernels::KernelMode::kAuto;
  runtime::LocalScratch scratch_;  // kernel packing/code buffers (not copied)
  SilentFill silent_;              // stepped path: bias planes written once
};

}  // namespace axsnn::snn
