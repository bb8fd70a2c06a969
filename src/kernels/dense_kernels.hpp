// Fully-connected kernels behind the sparsity-aware dispatcher — fp32 and
// int8, each naive / sparse / simd (see kernels/dispatch.hpp).
//
// Equivalence contract: every mode accumulates each output element
// bias-first, then the in-feature contributions in ascending-index order —
// the naive loop order. The fp32 simd tile vectorizes across 8 samples and
// keeps the i loop sequential per element, with unfused multiply and add,
// and the sparse gather scans each sample row left to right, so fp32
// results are bit-identical across modes (skipped zero-activation terms
// are exact ±0 no-ops) and int8 results are identical outright.
#pragma once

#include <cstdint>

#include "kernels/dispatch.hpp"
#include "runtime/workspace.hpp"
#include "tensor/quantized.hpp"
#include "tensor/tensor.hpp"

namespace axsnn::kernels {

/// fp32 dense forward over [*, F_in] -> [*, F_out]. `weight` is
/// [F_out, F_in], `bias` [F_out]; `out` must already be sized. `scratch`
/// owns the transposed packing buffer and gather lists. `packed`
/// optionally supplies pre-built spike words (one row per sample, row
/// length F_in) — see kernels::PackedWords.
void DenseForward(const Tensor& weight, const Tensor& bias, const Tensor& x,
                  Tensor& out, KernelMode mode, runtime::Workspace& scratch,
                  const PackedWords* packed = nullptr);

/// int8 dense forward. `qact` holds n * F_in activation codes already
/// quantized by the caller at `act_scale` (typically scratch slot
/// slots::kQActI8, untouched by the kernels here). `packed` as above.
void Int8DenseForward(const QuantizedTensor& weight, const Tensor& bias,
                      const std::int8_t* qact, float act_scale, long n,
                      Tensor& out, KernelMode mode,
                      runtime::Workspace& scratch,
                      const PackedWords* packed = nullptr);

}  // namespace axsnn::kernels
