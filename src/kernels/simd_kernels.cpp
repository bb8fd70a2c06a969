// AVX2/FMA microkernels — with simd_kernels_vnni.cpp, the only translation
// units built with vector ISA flags (see CMakeLists: -mavx2 -mfma
// -ffp-contract=off on exactly these sources, gated on a compiler probe).
// -ffp-contract=off matters: the naive TUs have no FMA ISA, so every
// multiply-add here (the fp32 tiles, their scalar tails and the int8
// requantization) must round the multiply and the add separately to stay
// bit-identical to them, and -mfma would otherwise let GCC contract a
// mul+add pair into an FMA.
//
// Without AVX2+FMA compiler support every entry point compiles to an
// aborting stub; that is safe because SimdKernelsCompiled() then returns
// false, ActiveSimdTier() pins to kScalar, and dispatch degrades
// KernelMode::kSimd to the naive kernels before ever reaching here.

#include "kernels/simd_kernels.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <type_traits>

#include "kernels/simd_detail.hpp"

#if defined(__AVX2__) && defined(__FMA__)
#define AXSNN_SIMD_COMPILED 1
#include <immintrin.h>
#else
#define AXSNN_SIMD_COMPILED 0
#endif

namespace axsnn::kernels {

bool SimdKernelsCompiled() { return AXSNN_SIMD_COMPILED != 0; }
bool SimdVnniCompiled() { return simd::detail::VnniCompiled(); }

}  // namespace axsnn::kernels

#if AXSNN_SIMD_COMPILED

#define AXSNN_SIMD_FN(f) f##_avx2
// Plain-AVX2 8x(4-way) int8 dot step: vpmaddubsw pairs u8*s8 into int16
// (bounded by 2*127*127 < 2^15 — see simd_int8_body.inl), vpmaddwd widens
// the pair sums to int32, vpaddd accumulates.
#define AXSNN_DP4(acc, ua, ws)                                       \
  _mm256_add_epi32((acc),                                            \
                   _mm256_madd_epi16(_mm256_maddubs_epi16((ua), (ws)), \
                                     _mm256_set1_epi16(1)))

#include "kernels/simd_int8_body.inl"

namespace axsnn::kernels::simd {

void ConvGemmF32(const float* wd, const float* bd, const float* col,
                 float* op, long c_out, long kk, long o_plane) {
  const long vend32 = o_plane & ~31L;
  for (long co = 0; co < c_out; ++co) {
    const float* wrow = wd + co * kk;
    const __m256 vbias = _mm256_set1_ps(bd[co]);
    float* orow = op + co * o_plane;
    long j = 0;
    for (; j < vend32; j += 32) {
      // Four 8-pixel tiles in flight: enough independent add chains to
      // cover the add latency while streaming one col row per k.
      __m256 a0 = vbias, a1 = vbias, a2 = vbias, a3 = vbias;
      for (long k = 0; k < kk; ++k) {
        const float w = wrow[k];
        if (w == 0.0f) continue;  // pruned weight: whole row of no-ops
        const __m256 vw = _mm256_set1_ps(w);
        const float* c = col + k * o_plane + j;
        a0 = _mm256_add_ps(a0, _mm256_mul_ps(vw, _mm256_loadu_ps(c)));
        a1 = _mm256_add_ps(a1, _mm256_mul_ps(vw, _mm256_loadu_ps(c + 8)));
        a2 = _mm256_add_ps(a2, _mm256_mul_ps(vw, _mm256_loadu_ps(c + 16)));
        a3 = _mm256_add_ps(a3, _mm256_mul_ps(vw, _mm256_loadu_ps(c + 24)));
      }
      _mm256_storeu_ps(orow + j, a0);
      _mm256_storeu_ps(orow + j + 8, a1);
      _mm256_storeu_ps(orow + j + 16, a2);
      _mm256_storeu_ps(orow + j + 24, a3);
    }
    for (; j + 8 <= o_plane; j += 8) {
      __m256 acc = vbias;
      for (long k = 0; k < kk; ++k) {
        const float w = wrow[k];
        if (w == 0.0f) continue;
        acc = _mm256_add_ps(
            acc, _mm256_mul_ps(_mm256_set1_ps(w),
                               _mm256_loadu_ps(col + k * o_plane + j)));
      }
      _mm256_storeu_ps(orow + j, acc);
    }
    for (; j < o_plane; ++j) {
      float acc = bd[co];
      for (long k = 0; k < kk; ++k) {
        const float w = wrow[k];
        if (w == 0.0f) continue;
        acc += w * col[k * o_plane + j];
      }
      orow[j] = acc;
    }
  }
}

namespace {

/// kRows consecutive outputs from `o` of one 8-sample dense block: one
/// 8-lane accumulator per output, lane j = sample j, all sharing each xt
/// row load. Only the nr live lanes are written back.
template <int kRows>
inline void DenseBlockRowsF32(const float* wd, const float* bd,
                              const float* xt, float* os, long o, long nr,
                              long f_in, long f_out) {
  const float* w = wd + o * f_in;
  __m256 acc[kRows];
  for (int r = 0; r < kRows; ++r) acc[r] = _mm256_set1_ps(bd[o + r]);
  for (long i = 0; i < f_in; ++i) {
    const __m256 xv = _mm256_loadu_ps(xt + i * 8);
    for (int r = 0; r < kRows; ++r)
      acc[r] = _mm256_add_ps(
          acc[r], _mm256_mul_ps(_mm256_set1_ps(w[r * f_in + i]), xv));
  }
  alignas(32) float lanes[8];
  for (int r = 0; r < kRows; ++r) {
    _mm256_store_ps(lanes, acc[r]);
    for (long j = 0; j < nr; ++j) os[j * f_out + o + r] = lanes[j];
  }
}

}  // namespace

void DenseBlockF32(const float* wd, const float* bd, const float* xt,
                   float* os, long nr, long f_in, long f_out) {
  long o = 0;
  // Eight independent add chains cover the add latency.
  for (; o + 8 <= f_out; o += 8)
    DenseBlockRowsF32<8>(wd, bd, xt, os, o, nr, f_in, f_out);
  for (; o < f_out; ++o)
    DenseBlockRowsF32<1>(wd, bd, xt, os, o, nr, f_in, f_out);
}

void TransposeRows8F32(const float* src, long live, long stride, long len,
                       float* dst) {
  long o = 0;
  for (; o + 8 <= len; o += 8) {
    __m256 r[8];
    for (long j = 0; j < 8; ++j)
      r[j] = j < live ? _mm256_loadu_ps(src + j * stride + o)
                      : _mm256_setzero_ps();
    const __m256 t0 = _mm256_unpacklo_ps(r[0], r[1]);
    const __m256 t1 = _mm256_unpackhi_ps(r[0], r[1]);
    const __m256 t2 = _mm256_unpacklo_ps(r[2], r[3]);
    const __m256 t3 = _mm256_unpackhi_ps(r[2], r[3]);
    const __m256 t4 = _mm256_unpacklo_ps(r[4], r[5]);
    const __m256 t5 = _mm256_unpackhi_ps(r[4], r[5]);
    const __m256 t6 = _mm256_unpacklo_ps(r[6], r[7]);
    const __m256 t7 = _mm256_unpackhi_ps(r[6], r[7]);
    const __m256 s0 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(1, 0, 1, 0));
    const __m256 s1 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(3, 2, 3, 2));
    const __m256 s2 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(1, 0, 1, 0));
    const __m256 s3 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(3, 2, 3, 2));
    const __m256 s4 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(1, 0, 1, 0));
    const __m256 s5 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(3, 2, 3, 2));
    const __m256 s6 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(1, 0, 1, 0));
    const __m256 s7 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(3, 2, 3, 2));
    float* d = dst + o * 8;
    _mm256_storeu_ps(d, _mm256_permute2f128_ps(s0, s4, 0x20));
    _mm256_storeu_ps(d + 8, _mm256_permute2f128_ps(s1, s5, 0x20));
    _mm256_storeu_ps(d + 16, _mm256_permute2f128_ps(s2, s6, 0x20));
    _mm256_storeu_ps(d + 24, _mm256_permute2f128_ps(s3, s7, 0x20));
    _mm256_storeu_ps(d + 32, _mm256_permute2f128_ps(s0, s4, 0x31));
    _mm256_storeu_ps(d + 40, _mm256_permute2f128_ps(s1, s5, 0x31));
    _mm256_storeu_ps(d + 48, _mm256_permute2f128_ps(s2, s6, 0x31));
    _mm256_storeu_ps(d + 56, _mm256_permute2f128_ps(s3, s7, 0x31));
  }
  for (; o < len; ++o)
    for (long j = 0; j < 8; ++j)
      dst[o * 8 + j] = j < live ? src[j * stride + o] : 0.0f;
}

namespace {

/// Calls f(std::integral_constant<int, n>{}) for n in [1, 8]. The conv
/// Backward tiles take their in-flight count as a template parameter, so
/// their accumulator arrays stay in registers.
template <typename F>
inline void WithCount8(long n, F&& f) {
  switch (n) {
    case 8: f(std::integral_constant<int, 8>{}); break;
    case 7: f(std::integral_constant<int, 7>{}); break;
    case 6: f(std::integral_constant<int, 6>{}); break;
    case 5: f(std::integral_constant<int, 5>{}); break;
    case 4: f(std::integral_constant<int, 4>{}); break;
    case 3: f(std::integral_constant<int, 3>{}); break;
    case 2: f(std::integral_constant<int, 2>{}); break;
    default: f(std::integral_constant<int, 1>{}); break;
  }
}

/// kG weight gradients (one k each, 8 output channels per lane group) of
/// one sample: per-k sums from +0 over (oy, ox) ascending, then added into
/// their dwt rows. xk[g] points at (oy, ox) = (0, 0) of k's padded window.
template <int kG>
inline void DwGroupF32(const float* gt, const float* const* xk, float* dwt,
                       long h_out, long w_out, long wp) {
  __m256 acc[kG];
  for (int g = 0; g < kG; ++g) acc[g] = _mm256_setzero_ps();
  for (long oy = 0; oy < h_out; ++oy) {
    const float* grow = gt + oy * w_out * 8;
    const long xo = oy * wp;
    for (long ox = 0; ox < w_out; ++ox) {
      const __m256 gv = _mm256_loadu_ps(grow + ox * 8);
      for (int g = 0; g < kG; ++g)
        acc[g] = _mm256_add_ps(
            acc[g], _mm256_mul_ps(gv, _mm256_broadcast_ss(xk[g] + xo + ox)));
    }
  }
  for (int g = 0; g < kG; ++g)
    _mm256_storeu_ps(dwt + g * 8,
                     _mm256_add_ps(_mm256_loadu_ps(dwt + g * 8), acc[g]));
}

}  // namespace

void ConvDwTileF32(const float* gt, const float* xpad, float* dwt,
                   double* gb, long k_lo, long k_hi, long ci_lo, long kernel,
                   long hp, long wp, long h_out, long w_out) {
  const long kk = kernel * kernel;
  // (ci, ky, kx) of k, advanced without division.
  long ci = k_lo / kk;
  long ky = (k_lo - ci * kk) / kernel;
  long kx = k_lo - ci * kk - ky * kernel;
  const float* xk[8];
  for (long k0 = k_lo; k0 < k_hi; k0 += 8) {
    const long group = std::min(8L, k_hi - k0);
    for (long g = 0; g < group; ++g) {
      xk[g] = xpad + (ci - ci_lo) * hp * wp + ky * wp + kx;
      if (++kx == kernel) {
        kx = 0;
        if (++ky == kernel) {
          ky = 0;
          ++ci;
        }
      }
    }
    float* d = dwt + (k0 - k_lo) * 8;
    WithCount8(group, [&](auto g) {
      DwGroupF32<decltype(g)::value>(gt, xk, d, h_out, w_out, wp);
    });
  }
  if (gb == nullptr) return;
  // Two independent double chains, lanes 0-3 and 4-7.
  __m256d lo = _mm256_loadu_pd(gb);
  __m256d hi = _mm256_loadu_pd(gb + 4);
  const long o_plane = h_out * w_out;
  for (long o = 0; o < o_plane; ++o) {
    const __m256 g = _mm256_loadu_ps(gt + o * 8);
    lo = _mm256_add_pd(lo, _mm256_cvtps_pd(_mm256_castps256_ps128(g)));
    hi = _mm256_add_pd(hi, _mm256_cvtps_pd(_mm256_extractf128_ps(g, 1)));
  }
  _mm256_storeu_pd(gb, lo);
  _mm256_storeu_pd(gb + 4, hi);
}

namespace {

/// Lane masks for a row's last partial vector: LaneMask(live) enables
/// lanes [0, live).
alignas(32) constexpr std::int32_t kLaneMaskTable[16] = {
    -1, -1, -1, -1, -1, -1, -1, -1, 0, 0, 0, 0, 0, 0, 0, 0};
inline __m256i LaneMask(long live) {
  return _mm256_loadu_si256(
      reinterpret_cast<const __m256i*>(kLaneMaskTable + 8 - live));
}

/// kV pixel vectors of one (ci, output channel) input-gradient update.
/// Vector v covers dx[dx_off[v] ..] (live[v] lanes) and reads the padded
/// gradient plane from gp_off[v]; terms run (ky, kx) ascending. Eight
/// vectors in flight cover the add latency.
template <int kV>
inline void DxVectorsF32(const float* wk, const float* gp, float* dxp,
                         const long* dx_off, const long* gp_off,
                         const long* live, long kernel, long gw) {
  __m256 acc[kV];
  __m256i mask[kV];
  for (int v = 0; v < kV; ++v) {
    mask[v] = LaneMask(live[v]);
    acc[v] = live[v] == 8 ? _mm256_loadu_ps(dxp + dx_off[v])
                          : _mm256_maskload_ps(dxp + dx_off[v], mask[v]);
  }
  for (long ky = 0; ky < kernel; ++ky) {
    for (long kx = 0; kx < kernel; ++kx) {
      const float w = wk[ky * kernel + kx];
      if (w == 0.0f) continue;  // pruned connection: no term, as in naive
      const __m256 vw = _mm256_set1_ps(w);
      const float* g = gp + (kernel - 1 - ky) * gw + (kernel - 1 - kx);
      for (int v = 0; v < kV; ++v)
        acc[v] = _mm256_add_ps(
            acc[v], _mm256_mul_ps(vw, _mm256_loadu_ps(g + gp_off[v])));
    }
  }
  for (int v = 0; v < kV; ++v) {
    if (live[v] == 8)
      _mm256_storeu_ps(dxp + dx_off[v], acc[v]);
    else
      _mm256_maskstore_ps(dxp + dx_off[v], mask[v], acc[v]);
  }
}

}  // namespace

void ConvDxPlaneF32(const float* wco, const float* gpad, float* dx,
                    long c_in, long h, long w, long kernel) {
  const long kk = kernel * kernel;
  const long gw = w + kernel - 1;
  const long vectors = h * ((w + 7) / 8);
  for (long ci = 0; ci < c_in; ++ci) {
    const float* wk = wco + ci * kk;
    float* dxp = dx + ci * h * w;
    long iy = 0;
    long ix = 0;
    for (long v0 = 0; v0 < vectors; v0 += 8) {
      const long nv = std::min(8L, vectors - v0);
      long dx_off[8], gp_off[8], live[8];
      for (long v = 0; v < nv; ++v) {
        dx_off[v] = iy * w + ix;
        gp_off[v] = iy * gw + ix;
        live[v] = std::min(8L, w - ix);
        ix += 8;
        if (ix >= w) {
          ix = 0;
          ++iy;
        }
      }
      WithCount8(nv, [&](auto v) {
        DxVectorsF32<decltype(v)::value>(wk, gpad, dxp, dx_off, gp_off, live,
                                         kernel, gw);
      });
    }
  }
}

void ConvPanelI8(const std::int8_t* wpad, const float* scales,
                 float act_scale, const float* bd, const std::int8_t* panel,
                 float* op, long c_out, long kk4, long o_plane, bool vnni) {
  if (vnni)
    detail::ConvPanelI8_vnni(wpad, scales, act_scale, bd, panel, op, c_out,
                             kk4, o_plane);
  else
    detail::ConvPanelI8_avx2(wpad, scales, act_scale, bd, panel, op, c_out,
                             kk4, o_plane);
}

void DenseRowsI8(const std::int8_t* wd, const float* scales, float act_scale,
                 const float* bd, const std::int8_t* qact, float* od,
                 long lo, long hi, long f_in, long f_out, bool vnni) {
  if (vnni)
    detail::DenseRowsI8_vnni(wd, scales, act_scale, bd, qact, od, lo, hi,
                             f_in, f_out);
  else
    detail::DenseRowsI8_avx2(wd, scales, act_scale, bd, qact, od, lo, hi,
                             f_in, f_out);
}

namespace {

/// Scalar reference pack for blocks the vector path cannot take: pixels
/// past o_plane or an output-row break inside the block. Byte-for-byte the
/// layout contract from the header.
void PackPanelBlockScalar(const std::int32_t* xs, std::int8_t* pb, long j0,
                          long c_in, long h, long w, long w_out, long kernel,
                          long pad, long o_plane, long kk4) {
  long oy[8] = {};
  long ox[8] = {};
  int live = 0;
  for (int pix = 0; pix < 8; ++pix) {
    const long j = j0 + pix;
    if (j >= o_plane) break;
    oy[pix] = j / w_out;
    ox[pix] = j - oy[pix] * w_out;
    live = pix + 1;
  }
  const long x_plane = h * w;
  long k = 0;
  for (long ci = 0; ci < c_in; ++ci) {
    const std::int32_t* xp = xs + ci * x_plane;
    for (long ky = 0; ky < kernel; ++ky) {
      for (long kx = 0; kx < kernel; ++kx, ++k) {
        std::int8_t* dst = pb + (k / 4) * 32 + (k % 4);
        for (int pix = 0; pix < live; ++pix) {
          const long iy = oy[pix] + ky - pad;
          const long ix = ox[pix] + kx - pad;
          const bool in = iy >= 0 && iy < h && ix >= 0 && ix < w;
          dst[pix * 4] = in ? static_cast<std::int8_t>(xp[iy * w + ix])
                            : std::int8_t{0};
        }
        for (int pix = live; pix < 8; ++pix) dst[pix * 4] = 0;
      }
    }
  }
  for (; k < kk4; ++k) {
    std::int8_t* dst = pb + (k / 4) * 32 + (k % 4);
    for (int pix = 0; pix < 8; ++pix) dst[pix * 4] = 0;
  }
}

}  // namespace

void PackConvPanelI8(const std::int32_t* xs, std::int8_t* panel, long c_in,
                     long h, long w, long w_out, long kernel, long pad,
                     long o_plane, long kk4) {
  const long rows = kk4 / 4;
  const long x_plane = h * w;
  const long kk = c_in * kernel * kernel;
  const long blocks = (o_plane + 7) / 8;
  const __m256i byte_mask = _mm256_set1_epi32(0xff);
  for (long block = 0; block < blocks; ++block) {
    std::int8_t* pb = panel + block * rows * 32;
    const long j0 = block * 8;
    const long oy0 = j0 / w_out;
    const long ox0 = j0 - oy0 * w_out;
    if (j0 + 8 > o_plane || ox0 + 8 > w_out) {
      PackPanelBlockScalar(xs, pb, j0, c_in, h, w, w_out, kernel, pad,
                           o_plane, kk4);
      continue;
    }
    // Fast path: the block's 8 pixels sit on one output row, so for any k
    // with its whole source column range in bounds the 8 codes are the
    // contiguous int32s xrow[ix .. ix+7]. Four such k rows build one dword
    // group: lane j of the group, viewed as int32, is
    //   (v0 & 0xff) | (v1 & 0xff) << 8 | (v2 & 0xff) << 16 | (v3 & 0xff) << 24
    // (the low byte of an int32 code IS its int8 value). k rows with
    // columns off the edge skip the OR — their bytes stay zero — and the
    // in-bounds pixels are patched scalar after the group store.
    struct Patch {
      int t;
      const std::int32_t* xrow;
      long ix;
    };
    Patch patches[4];
    int n_patches = 0;
    __m256i acc = _mm256_setzero_si256();
    long k = 0;
    for (long ci = 0; ci < c_in; ++ci) {
      const std::int32_t* xp = xs + ci * x_plane;
      for (long ky = 0; ky < kernel; ++ky) {
        const long iy = oy0 + ky - pad;
        const bool row_ok = iy >= 0 && iy < h;
        const std::int32_t* xrow = row_ok ? xp + iy * w : nullptr;
        for (long kx = 0; kx < kernel; ++kx, ++k) {
          const int t = static_cast<int>(k & 3);
          const long ix = ox0 + kx - pad;
          if (row_ok && ix >= 0 && ix + 8 <= w) {
            const __m256i v = _mm256_loadu_si256(
                reinterpret_cast<const __m256i*>(xrow + ix));
            acc = _mm256_or_si256(
                acc,
                _mm256_slli_epi32(_mm256_and_si256(v, byte_mask), 8 * t));
          } else if (row_ok && ix < w && ix + 8 > 0) {
            patches[n_patches++] = {t, xrow, ix};
          }
          if (t == 3) {
            _mm256_storeu_si256(reinterpret_cast<__m256i*>(pb + (k / 4) * 32),
                                acc);
            for (int pi = 0; pi < n_patches; ++pi) {
              std::int8_t* dst = pb + (k / 4) * 32 + patches[pi].t;
              for (int pix = 0; pix < 8; ++pix) {
                const long ixp = patches[pi].ix + pix;
                if (ixp >= 0 && ixp < w)
                  dst[pix * 4] =
                      static_cast<std::int8_t>(patches[pi].xrow[ixp]);
              }
            }
            n_patches = 0;
            acc = _mm256_setzero_si256();
          }
        }
      }
    }
    if ((k & 3) != 0) {  // kk % 4 tail group (high lanes stay zero)
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(pb + (k / 4) * 32), acc);
      for (int pi = 0; pi < n_patches; ++pi) {
        std::int8_t* dst = pb + (k / 4) * 32 + patches[pi].t;
        for (int pix = 0; pix < 8; ++pix) {
          const long ixp = patches[pi].ix + pix;
          if (ixp >= 0 && ixp < w)
            dst[pix * 4] = static_cast<std::int8_t>(patches[pi].xrow[ixp]);
        }
      }
      n_patches = 0;
      acc = _mm256_setzero_si256();
    }
    for (long g = (kk + 3) / 4; g < rows; ++g)
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(pb + g * 32),
                          _mm256_setzero_si256());
  }
}

}  // namespace axsnn::kernels::simd

#else  // !AXSNN_SIMD_COMPILED — stubs, unreachable behind ActiveSimdTier()

namespace axsnn::kernels::simd {

void ConvGemmF32(const float*, const float*, const float*, float*, long,
                 long, long) {
  std::abort();
}
void DenseBlockF32(const float*, const float*, const float*, float*, long,
                   long, long) {
  std::abort();
}
void TransposeRows8F32(const float*, long, long, long, float*) {
  std::abort();
}
void ConvDwTileF32(const float*, const float*, float*, double*, long, long,
                   long, long, long, long, long, long) {
  std::abort();
}
void ConvDxPlaneF32(const float*, const float*, float*, long, long, long,
                    long) {
  std::abort();
}
void ConvPanelI8(const std::int8_t*, const float*, float, const float*,
                 const std::int8_t*, float*, long, long, long, bool) {
  std::abort();
}
void DenseRowsI8(const std::int8_t*, const float*, float, const float*,
                 const std::int8_t*, float*, long, long, long, long, bool) {
  std::abort();
}
void PackConvPanelI8(const std::int32_t*, std::int8_t*, long, long, long,
                     long, long, long, long, long) {
  std::abort();
}

}  // namespace axsnn::kernels::simd

#endif
