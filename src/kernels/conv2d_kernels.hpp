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
