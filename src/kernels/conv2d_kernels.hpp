// Convolution kernels (stride 1, symmetric zero padding) behind the
// sparsity-aware dispatcher — fp32 and int8, each in three flavours
// (naive / sparse / simd; see kernels/dispatch.hpp for the taxonomy).
//
// Equivalence contract: for every mode the per-output-element accumulation
// runs bias-first, then the (ci, ky, kx) contributions in the naive loop
// order — the fp32 simd tile walks the im2col k axis in exactly that
// order, with unfused multiply and add, and the sparse scatter visits
// nonzeros in (ci, iy, ix) scan order, which for any fixed output element
// is the same (ci, ky, kx) order. fp32 results are therefore bit-identical
// across modes (terms the other modes add for zero activations / padding
// are exact ±0 no-ops), and int8 results are identical outright (int32
// accumulation is exact). The differential suite in tests/test_kernels.cpp
// pins this.
//
// The fp32 Backward (naive / simd; no sparse kernel) keeps the same
// contract, with two orders:
//  * dW, per weight (co, ci, ky, kx): each sample's terms summed into a
//    fresh +0 float over (oy, ox) ascending, then that sum added into dW in
//    ascending sample order. The simd tile keeps one lane per output
//    channel and one task per weight set over all samples, so no weight's
//    sum is ever split across sample chunks; db is a double sum over
//    (sample, pixel), cast once and added.
//  * dX, per input pixel (ci, iy, ix): w * g terms added to +0 in
//    ascending (co, ky, kx) order, zero weights skipped. The simd tile
//    reads 8 pixels of a row from a zero-padded gradient plane per output
//    channel, channels ascending.
// Padding terms are again exact ±0 no-ops (for finite gradients).
#pragma once

#include <cstdint>

#include "kernels/dispatch.hpp"
#include "runtime/workspace.hpp"
#include "tensor/quantized.hpp"
#include "tensor/tensor.hpp"

namespace axsnn::kernels {

/// Conv2d geometry (stride 1, symmetric zero padding — mirrors snn::Conv2d).
struct Conv2dGeom {
  long in_channels = 0;
  long out_channels = 0;
  long kernel = 0;
  long pad = 0;
};

/// fp32 convolution forward over [*, C_in, H, W] -> [*, C_out, H', W'].
/// `weight` is [C_out, C_in, K, K], `bias` [C_out]; `out` must already be
/// sized. `mode` selects the implementation after the global-override and
/// density-probe rules of kernels/dispatch.hpp; `scratch` owns the packing
/// buffers and gather lists (allocation-free in steady state). `packed`
/// optionally supplies pre-built spike words (one row per sample, row
/// length C_in * H * W) — see kernels::PackedWords.
void Conv2dForward(const Tensor& weight, const Tensor& bias, const Tensor& x,
                   Tensor& out, const Conv2dGeom& geom, KernelMode mode,
                   runtime::Workspace& scratch,
                   const PackedWords* packed = nullptr);

/// fp32 convolution Backward, parameter half: adds dL/dW into `dweight`
/// [C_out, C_in, K, K] and dL/db into `dbias` [C_out], summed over the
/// flattened [T, B] prefix, for the forward input `x` [*, C_in, H, W] and
/// the output gradient `grad_out` [*, C_out, H', W']. `mode` selects the
/// path (family KernelFamily::kConvDwF32); `scratch` holds the simd
/// tiles' per-task buffers (slot slots::kDwPack).
void Conv2dBackwardParams(const Tensor& x, const Tensor& grad_out,
                          Tensor& dweight, Tensor& dbias,
                          const Conv2dGeom& geom, KernelMode mode,
                          runtime::Workspace& scratch);

/// fp32 convolution Backward, input half: writes dL/dx into `grad_in`,
/// already sized like the forward input (contents fully overwritten).
/// Family KernelFamily::kConvDxF32; the simd path's padded gradient
/// planes live in slot slots::kDxPack.
void Conv2dBackwardInput(const Tensor& weight, const Tensor& grad_out,
                         Tensor& grad_in, const Conv2dGeom& geom,
                         KernelMode mode, runtime::Workspace& scratch);

/// int8 convolution forward. `qact` holds the activation codes (int8 values
/// staged in int32 lanes, length n * C_in * h * w) already quantized by the
/// caller at `act_scale` — typically living in `scratch` slot
/// slots::kQAct, which the kernels below never touch. Accumulates in int32
/// and requantizes with act_scale * weight.scale(channel) + bias.
void Int8Conv2dForward(const QuantizedTensor& weight, const Tensor& bias,
                       const std::int32_t* qact, float act_scale, long n,
                       long h, long w, Tensor& out, const Conv2dGeom& geom,
                       KernelMode mode, runtime::Workspace& scratch,
                       const PackedWords* packed = nullptr);

}  // namespace axsnn::kernels
