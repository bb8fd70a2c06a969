// SIMD microkernels: AVX2/AVX-VNNI int8 dot products and 8-wide fp32
// tiles. This header is intrinsic-free — every vector instruction lives in
// simd_kernels.cpp, the one translation unit built with -mavx2 -mfma
// (CMakeLists guards the flags, cpu_features.hpp gates execution at
// runtime), so including it never leaks ISA requirements into other TUs.
//
// Numerics contract (see DESIGN.md "SIMD kernel tier"): every kernel here
// is EXACT — bit-identical to the naive reference, so auto may select any
// of them.
//  * int8: the product a*w is computed as |a| * (w * sign(a)) so
//    vpdpbusd/vpmaddubsw get their unsigned operand without any +128 shift
//    or compensation term, and with |a| <= 127, |w| <= 127 the maddubs
//    pair sums stay below int16 saturation. The int32 accumulator value is
//    therefore identical to the naive loop's regardless of summation
//    order, and the single requantization multiply matches the naive
//    write-out bit for bit.
//  * fp32: the tiles vectorize across independent outputs (8 output pixels
//    or 8 samples per vector; for the conv Backward, 8 output channels'
//    weight gradients or 8 input pixels' gradients), never across one
//    output's terms. Each lane starts from the bias (or +0, or the value
//    it accumulates into) and adds w*x as a separate multiply and add
//    (never FMA: the naive TU has no FMA ISA), in the naive loop's order —
//    its rounding, term for term.
//
// int8 conv panel layout ("panel" arguments): output pixels are grouped in
// blocks of 8 and the im2col k axis in groups of 4, matching one vpdpbusd:
// byte (block, k4, pix, t) lives at ((block * kk4/4 + k4) * 8 + pix) * 4 + t
// and holds im2col code (k = 4*k4 + t, j = 8*block + pix), zero-padded past
// kk and o_plane. Weight rows are staged zero-padded to kk4 so the kernel
// broadcasts whole dwords. kernels/conv2d_kernels.cpp packs both.
#pragma once

#include <cstdint>

namespace axsnn::kernels::simd {

/// Round up to the panel granularities.
inline long RoundUp4(long v) { return (v + 3) & ~3L; }
inline long RoundUp8(long v) { return (v + 7) & ~7L; }

// --- fp32 -------------------------------------------------------------------

/// One sample's conv GEMM over a row-major im2col matrix col[kk][o_plane]:
/// op[co][j] = bd[co] + sum_k wd[co*kk+k] * col[k][j], k ascending, 8
/// pixels per vector with 4 vectors in flight; trailing pixels (o_plane % 8)
/// run the same order scalar. Zero weights are skipped, as Conv2dNaive
/// skips them.
void ConvGemmF32(const float* wd, const float* bd, const float* col,
                 float* op, long c_out, long kk, long o_plane);

/// One 8-sample dense block over a transposed pack xt[i][j] = x[s0+j][i]
/// (zero-filled past the nr live samples): os[j*f_out + o] = bd[o] +
/// sum_i wd[o*f_in+i] * xt[i][j], i ascending, for j < nr. Zero weights
/// are not skipped, as DenseNaive skips none.
void DenseBlockF32(const float* wd, const float* bd, const float* xt,
                   float* os, long nr, long f_in, long f_out);

// --- fp32 conv Backward ------------------------------------------------------

/// Transposes `live` rows of `len` floats (row j at src + j * stride) into
/// dst[o * 8 + j] for o < len; lanes j >= live are zero. Moves bits only.
void TransposeRows8F32(const float* src, long live, long stride, long len,
                       float* dst);

/// One sample's conv weight-gradient terms for 8 output channels (the
/// lanes): for each k = (ci, ky, kx) in [k_lo, k_hi), with kk = kernel^2,
///   dwt[(k - k_lo) * 8 + j] += sum over (oy, ox) of
///     gt[(oy * w_out + ox) * 8 + j] *
///     xpad[(ci - ci_lo) * hp * wp + (oy + ky) * wp + ox + kx],
/// where the sum starts from +0 and walks (oy, ox) ascending — the naive
/// loop's per-sample sum, with the padding positions' exact zeros added in
/// (±0 no-ops). `gt` is the sample's output gradient as TransposeRows8F32
/// lays it out; `xpad` holds input planes ci_lo.. zero-padded to hp x wp.
/// Up to 8 k run in flight, sharing each gt load. When `gb` is non-null,
/// also gb[j] += gt[o * 8 + j] in double, o ascending (the bias gradient).
void ConvDwTileF32(const float* gt, const float* xpad, float* dwt,
                   double* gb, long k_lo, long k_hi, long ci_lo, long kernel,
                   long hp, long wp, long h_out, long w_out);

/// One (sample, output channel) of the conv input gradient: for every
/// input pixel (ci, iy, ix) of dx ([c_in][h][w], accumulated in place),
///   dx += w[ci][ky][kx] * gpad[(iy + kernel-1-ky) * gw + ix + kernel-1-kx]
/// over (ky, kx) ascending, skipping zero weights, with unfused multiply
/// and add. `wco` is the channel's weights [c_in][kernel][kernel]; `gpad`
/// its gradient plane zero-padded by kernel-1-pad on every side (gw = w +
/// kernel - 1 columns), followed by 8 readable floats. Called for output
/// channels in ascending order, this is the naive loop's per-pixel (co,
/// ky, kx) order. Vectorized over 8 pixels of one row, 8 vectors in
/// flight; a row's last partial vector loads and stores under a mask.
void ConvDxPlaneF32(const float* wco, const float* gpad, float* dx,
                    long c_in, long h, long w, long kernel);

// --- int8 (exact) ------------------------------------------------------------

/// One sample's int8 conv over a packed panel (layout above): for each
/// (co, pixel), acc = sum_k w[k] * code[k][j] in int32, then
/// op[co][j] = float(acc) * (act_scale * scales[co]) + bd[co].
/// `wpad` is the [c_out][kk4] zero-padded weight matrix. `vnni` selects the
/// vpdpbusd inner loop (caller passes ActiveSimdTier() == kVnni).
void ConvPanelI8(const std::int8_t* wpad, const float* scales,
                 float act_scale, const float* bd, const std::int8_t* panel,
                 float* op, long c_out, long kk4, long o_plane, bool vnni);

/// Packs one sample's int32 activation codes into the int8 conv panel
/// (layout above) for a conv over [c_in, h, w] -> [h_out, w_out = o_plane /
/// h_out]. Vectorized: for an 8-pixel block on one output row, the 8 source
/// codes of an in-bounds k are contiguous, so four k rows assemble a
/// 32-byte dword group via masked shifts OR-merged in int32 lanes; k rows
/// with out-of-range columns are patched scalar, and blocks touching the
/// o_plane tail or a w_out row break fall back to the scalar reference
/// loop. Lives in the AVX2 TU but needs no VNNI — both tiers share it.
void PackConvPanelI8(const std::int32_t* xs, std::int8_t* panel, long c_in,
                     long h, long w, long w_out, long kernel, long pad,
                     long o_plane, long kk4);

/// Dense rows [lo, hi) on raw int8 codes: 32 MACs per instruction over the
/// contiguous activation/weight rows, 4 output features in flight sharing
/// each activation load; f_in tail scalar. Exact (int32 accumulation).
void DenseRowsI8(const std::int8_t* wd, const float* scales, float act_scale,
                 const float* bd, const std::int8_t* qact, float* od,
                 long lo, long hi, long f_in, long f_out, bool vnni);

}  // namespace axsnn::kernels::simd
