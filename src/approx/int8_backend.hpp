// True INT8 execution backend for Conv2d / Dense forward passes.
//
// The paper's precision-scaling knob (approx/precision.*) is a value-level
// emulation: weights are rounded onto an int8 lattice but every MAC still
// runs in float. This backend is the deployment-shaped counterpart: weights
// live as int8 with per-output-channel scales (tensor/quantized.hpp),
// activations are quantized on entry with a dynamic per-tensor scale,
// kernels accumulate in int32, and each output is requantized with the
// combined activation x channel scale before the bias is added — the same
// structure as MXNet's quantized_conv / TFLite integer kernels.
//
// Activation scale choice: SNN activations are spike-derived dyadic
// rationals — rate-encoded inputs and LIF outputs are {0, 1}, and 2^k-sized
// average-pool windows only ever divide by powers of two. The activation
// scale is therefore snapped to a power of two, 2^ceil(log2(max|x|)) / 64,
// which represents every such value *exactly* (6 significand bits, range
// headroom of one bit). Quantizing the activations then loses nothing, and
// the integer path reproduces the float fake-quantization reference to
// within accumulation rounding — the property the determinism tests pin.
//
// Accumulator headroom: |q_a| <= 64 and |q_w| <= 127, so int32 holds exact
// sums for fan-ins up to 2^31 / (64 * 127) ≈ 264k — far above any layer in
// this repo. The ASan/UBSan CI job would flag an overflow regression.
//
// Execution itself lives in src/kernels/ (naive / sparse / simd, selected
// by the sparsity-aware dispatcher — kernels/dispatch.hpp): this module
// quantizes the activations and forwards to kernels::Int8Conv2dForward /
// kernels::Int8DenseForward. Integer accumulation is exact, so every mode
// produces identical results.
#pragma once

#include <cstdint>
#include <vector>

#include "kernels/conv2d_kernels.hpp"
#include "kernels/dense_kernels.hpp"
#include "runtime/workspace.hpp"
#include "tensor/quantized.hpp"
#include "tensor/tensor.hpp"

namespace axsnn::approx {

/// Power-of-two symmetric activation scale for values in [-max_abs, max_abs]:
/// 2^ceil(log2(max_abs)) / 64. Exact for dyadic rationals with denominator
/// up to 64 / 2^ceil(log2(max_abs)); returns 1/64 for max_abs == 0.
float Int8ActivationScale(float max_abs);

namespace detail {
/// Raw-pointer quantization core: writes x.numel() codes to `qd` and
/// returns the activation scale. The codes clamp to [-127, 127]; -128 is
/// never produced (the SIMD int8 kernels' |q| precondition).
float Int8QuantizeInto(const Tensor& x, std::int8_t* qd);
float Int8QuantizeInto(const Tensor& x, std::int32_t* qd);
}  // namespace detail

/// Quantizes `x` into `qact` (resized) with the power-of-two scheme above;
/// returns the activation scale. `VecT` is any contiguous resizable
/// container of int8 or int32 codes — std::vector in tests,
/// runtime::AlignedVector for the workspace arenas. The element type is the
/// *storage* type of the codes (their values always fit int8): the dense
/// kernels keep int8 rows — their contiguous dot products feed the SIMD
/// tier's 32-MAC instructions directly — while the conv kernels stage int32
/// rows, which keep the naive reference's scalar-weight-times-row inner
/// loops on full-width integer lanes (the SIMD conv path narrows them to
/// int8 while packing its panels).
template <typename VecT>
float Int8QuantizeActivations(const Tensor& x, VecT& qact) {
  qact.resize(static_cast<std::size_t>(x.numel()));  // no-op in steady state
  return detail::Int8QuantizeInto(x, qact.data());
}

/// Conv2d geometry (stride 1, symmetric zero padding — mirrors snn::Conv2d).
using Conv2dGeom = kernels::Conv2dGeom;

/// Integer-accumulating convolution forward pass over [*, C_in, H, W].
/// `weight` is the int8 [C_out, C_in, K, K] kernel with per-C_out scales,
/// `bias` a float [C_out] tensor added after requantization. `out` must
/// already be sized to the output shape. `mode` picks the kernel flavour
/// (kAuto probes spike density); `scratch` owns the activation-code,
/// accumulator and packing buffers (grown on demand, allocation-free in
/// steady state). `packed` optionally forwards pre-built spike words of the
/// *float* activations to the kernel dispatcher (kernels::PackedWords) —
/// valid because on the binary activations the event path carries, the
/// float and quantized-code nonzero masks coincide.
void Int8Conv2dForward(const QuantizedTensor& weight, const Tensor& bias,
                       const Tensor& x, Tensor& out, const Conv2dGeom& geom,
                       kernels::KernelMode mode, runtime::Workspace& scratch,
                       const kernels::PackedWords* packed = nullptr);

/// Integer-accumulating dense forward pass over [*, F_in]. Same contract as
/// Int8Conv2dForward; `weight` is int8 [F_out, F_in] with per-F_out scales.
void Int8DenseForward(const QuantizedTensor& weight, const Tensor& bias,
                      const Tensor& x, Tensor& out, kernels::KernelMode mode,
                      runtime::Workspace& scratch,
                      const kernels::PackedWords* packed = nullptr);

}  // namespace axsnn::approx
