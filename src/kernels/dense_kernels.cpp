#include "kernels/dense_kernels.hpp"

#include <algorithm>

#include "kernels/cpu_features.hpp"
#include "kernels/simd_kernels.hpp"
#include "kernels/spike_words.hpp"
#include "runtime/parallel_for.hpp"
#include "tensor/check.hpp"

namespace axsnn::kernels {

namespace {

/// Register tile: kMr output features x kNr samples.
constexpr long kMr = 4;
constexpr long kNr = 8;

// --- naive fp32 (reference; the seed repo's loops, retained verbatim) --------

void DenseNaive(const float* xd, const float* wd, const float* bd, float* od,
                long n, long f_in, long f_out) {
  runtime::ParallelFor(0, n, [&](long s) {
    const float* xs = xd + s * f_in;
    float* os = od + s * f_out;
    for (long o = 0; o < f_out; ++o) {
      const float* wr = wd + o * f_in;
      float acc = bd[o];
      for (long i = 0; i < f_in; ++i) acc += wr[i] * xs[i];
      os[o] = acc;
    }
  });
}

// --- register-blocked GEMM ---------------------------------------------------

/// Packs a block of up to kNr sample rows transposed: xt[i * kNr + j] =
/// x[(s0 + j)][i]. The tail of a partial block is zero-filled so the
/// micro-kernel can keep fixed trip counts (extra ±0 terms accumulate into
/// lanes that are never written back).
template <typename SrcT, typename DstT>
void PackTransposed(const SrcT* xs, long nr, long f_in, DstT* xt) {
  for (long i = 0; i < f_in; ++i) {
    DstT* row = xt + i * kNr;
    for (long j = 0; j < nr; ++j)
      row[j] = static_cast<DstT>(xs[j * f_in + i]);
    for (long j = nr; j < kNr; ++j) row[j] = DstT{0};
  }
}

/// One sample-block GEMM: out[s0+j][o] = bias[o] + sum_i W[o][i] * x[s0+j][i],
/// i ascending — the naive accumulation order per output element.
#if defined(__GNUC__) || defined(__clang__)
__attribute__((noinline))
#endif
void GemmBlockF32(const float* __restrict wd, const float* __restrict bd,
                  const float* __restrict xt, float* __restrict os, long nr,
                  long f_in, long f_out) {
  for (long o0 = 0; o0 < f_out; o0 += kMr) {
    const long mr = std::min(kMr, f_out - o0);
    float acc[kMr][kNr];
    for (long i = 0; i < mr; ++i)
      for (long j = 0; j < kNr; ++j) acc[i][j] = bd[o0 + i];
    for (long k = 0; k < f_in; ++k) {
      const float* brow = xt + k * kNr;
      for (long i = 0; i < mr; ++i) {
        const float av = wd[(o0 + i) * f_in + k];
        for (long j = 0; j < kNr; ++j) acc[i][j] += av * brow[j];
      }
    }
    for (long i = 0; i < mr; ++i)
      for (long j = 0; j < nr; ++j) os[j * f_out + o0 + i] = acc[i][j];
  }
}

/// Integer sibling of GemmBlockF32 with requantized write-out. ColT is the
/// packed code type — int8 since the packing-traffic fix
/// (kernels/dispatch.hpp); the int32 instantiation remains valid.
template <typename ColT>
#if defined(__GNUC__) || defined(__clang__)
__attribute__((noinline))
#endif
void GemmBlockI32(const std::int8_t* __restrict wd,
                  const float* __restrict scales, float act_scale,
                  const float* __restrict bd, const ColT* __restrict xt,
                  float* __restrict os, long nr, long f_in, long f_out) {
  for (long o0 = 0; o0 < f_out; o0 += kMr) {
    const long mr = std::min(kMr, f_out - o0);
    std::int32_t acc[kMr][kNr] = {};
    for (long k = 0; k < f_in; ++k) {
      const ColT* brow = xt + k * kNr;
      for (long i = 0; i < mr; ++i) {
        const std::int32_t av = wd[(o0 + i) * f_in + k];
        for (long j = 0; j < kNr; ++j)
          acc[i][j] += av * static_cast<std::int32_t>(brow[j]);
      }
    }
    for (long i = 0; i < mr; ++i) {
      const float requant = act_scale * scales[o0 + i];
      const float b = bd[o0 + i];
      for (long j = 0; j < nr; ++j)
        os[j * f_out + o0 + i] =
            static_cast<float>(acc[i][j]) * requant + b;
    }
  }
}

// --- sparse gather -----------------------------------------------------------

/// Gathers one sample row's nonzeros from its bit-packed spike words
/// (ascending index — the ctz scan order equals the naive accumulation
/// order); returns the count. VT widens int8 codes to the int32 vals the
/// sparse kernels consume.
template <typename T, typename VT>
long GatherRowWords(const T* xs, const std::uint64_t* words, long f_in,
                    std::int32_t* idx, VT* vals) {
  long m = 0;
  ForEachSetBit(words, SpikeWordCount(f_in), [&](long i) {
    idx[m] = static_cast<std::int32_t>(i);
    vals[m] = static_cast<VT>(xs[i]);
    ++m;
  });
  return m;
}

#if defined(__GNUC__) || defined(__clang__)
__attribute__((noinline))
#endif
void SparseRowF32(const float* __restrict wd, const float* __restrict bd,
                  const std::int32_t* __restrict idx,
                  const float* __restrict vals, long m, float* __restrict os,
                  long f_in, long f_out) {
  for (long o = 0; o < f_out; ++o) {
    const float* wr = wd + o * f_in;
    float acc = bd[o];
    for (long j = 0; j < m; ++j) acc += wr[idx[j]] * vals[j];
    os[o] = acc;
  }
}

#if defined(__GNUC__) || defined(__clang__)
__attribute__((noinline))
#endif
void SparseRowI32(const std::int8_t* __restrict wd,
                  const float* __restrict scales, float act_scale,
                  const float* __restrict bd,
                  const std::int32_t* __restrict idx,
                  const std::int32_t* __restrict vals, long m,
                  float* __restrict os, long f_in, long f_out) {
  for (long o = 0; o < f_out; ++o) {
    const std::int8_t* wr = wd + o * f_in;
    std::int32_t acc = 0;
    for (long j = 0; j < m; ++j)
      acc += static_cast<std::int32_t>(wr[idx[j]]) * vals[j];
    os[o] = static_cast<float>(acc) * (act_scale * scales[o]) + bd[o];
  }
}

// --- naive int8 (reference; moved verbatim from approx/int8_backend.cpp) -----

void Int8DenseNaive(const std::int8_t* xd, const std::int8_t* wd,
                    const float* ws, float act_scale, const float* bd,
                    float* od, long n, long f_in, long f_out) {
  runtime::ParallelFor(0, n, [&](long s) {
    const std::int8_t* xs = xd + s * f_in;
    float* os = od + s * f_out;
    for (long o = 0; o < f_out; ++o) {
      const std::int8_t* wr = wd + o * f_in;
      std::int32_t acc = 0;
      for (long i = 0; i < f_in; ++i)
        acc += static_cast<std::int32_t>(wr[i]) *
               static_cast<std::int32_t>(xs[i]);
      os[o] = static_cast<float>(acc) * (act_scale * ws[o]) + bd[o];
    }
  });
}

}  // namespace

// --- fp32 dispatcher ---------------------------------------------------------

void DenseForward(const Tensor& weight, const Tensor& bias, const Tensor& x,
                  Tensor& out, KernelMode mode, runtime::Workspace& scratch,
                  const PackedWords* packed) {
  const long f_out = weight.dim(0);
  const long f_in = weight.numel() / f_out;
  AXSNN_CHECK(x.numel() % f_in == 0, "DenseForward feature mismatch");
  const long n = x.numel() / f_in;
  AXSNN_CHECK(out.numel() == n * f_out, "DenseForward output not sized");

  const float* xd = x.data();
  const float* wd = weight.data();
  const float* bd = bias.data();
  float* od = out.data();

  const KernelPlan plan = PlanKernel(KernelFamily::kDenseF32, mode, xd, n,
                                     f_in, scratch, packed);
  mode = plan.mode;
  const long wps = SpikeWordCount(f_in);

  if (mode == KernelMode::kNaive) {
    DenseNaive(xd, wd, bd, od, n, f_in, f_out);
    return;
  }

  const long grain = runtime::DefaultGrain(n);
  const long chunks = runtime::NumChunks(n, grain);

  if (mode == KernelMode::kSimd) {
    // Contiguous rows in, contiguous rows out: the FMA microkernel needs
    // no packing scratch at all.
    runtime::ParallelForChunks(
        0, n,
        [&](long chunk, long lo, long hi) {
          (void)chunk;
          simd::DenseRowsF32(wd, bd, xd, od, lo, hi, f_in, f_out);
        },
        grain);
    return;
  }

  if (mode == KernelMode::kGemm) {
    Tensor& pack = scratch.Acquire(slots::kPack, chunks * f_in * kNr);
    float* pd = pack.data();
    runtime::ParallelForChunks(
        0, n,
        [&](long chunk, long lo, long hi) {
          float* xt = pd + chunk * f_in * kNr;
          for (long s0 = lo; s0 < hi; s0 += kNr) {
            const long nr = std::min(kNr, hi - s0);
            PackTransposed(xd + s0 * f_in, nr, f_in, xt);
            GemmBlockF32(wd, bd, xt, od + s0 * f_out, nr, f_in, f_out);
          }
        },
        grain);
    return;
  }

  // kSparse
  auto& idx =
      scratch.AcquireI32(slots::kRows, static_cast<std::size_t>(chunks * f_in));
  Tensor& vals = scratch.Acquire(slots::kSparseVals, chunks * f_in);
  std::int32_t* idx_d = idx.data();
  float* vals_d = vals.data();
  runtime::ParallelForChunks(
      0, n,
      [&](long chunk, long lo, long hi) {
        std::int32_t* c_idx = idx_d + chunk * f_in;
        float* c_vals = vals_d + chunk * f_in;
        for (long s = lo; s < hi; ++s) {
          const long m = GatherRowWords(
              xd + s * f_in, plan.words + s * wps, f_in, c_idx, c_vals);
          SparseRowF32(wd, bd, c_idx, c_vals, m, od + s * f_out, f_in, f_out);
        }
      },
      grain);
}

// --- int8 dispatcher ---------------------------------------------------------

void Int8DenseForward(const QuantizedTensor& weight, const Tensor& bias,
                      const std::int8_t* qact, float act_scale, long n,
                      Tensor& out, KernelMode mode,
                      runtime::Workspace& scratch,
                      const PackedWords* packed) {
  const long f_in = weight.row_size();
  const long f_out = weight.rows();
  AXSNN_CHECK(out.numel() == n * f_out, "Int8DenseForward output not sized");

  const std::int8_t* wd = weight.data();
  const float* ws = weight.scales().data();
  const float* bd = bias.data();
  float* od = out.data();

  const KernelPlan plan = PlanKernel(KernelFamily::kDenseI8, mode, qact, n,
                                     f_in, scratch, packed);
  mode = plan.mode;
  const long wps = SpikeWordCount(f_in);

  if (mode == KernelMode::kNaive) {
    Int8DenseNaive(qact, wd, ws, act_scale, bd, od, n, f_in, f_out);
    return;
  }

  const long grain = runtime::DefaultGrain(n);
  const long chunks = runtime::NumChunks(n, grain);

  if (mode == KernelMode::kSimd) {
    // Activation codes and weight rows are already contiguous int8: the
    // microkernel runs straight over them, no packing scratch.
    const bool vnni = plan.tier == SimdTier::kVnni;
    runtime::ParallelForChunks(
        0, n,
        [&](long chunk, long lo, long hi) {
          (void)chunk;
          simd::DenseRowsI8(wd, ws, act_scale, bd, qact, od, lo, hi, f_in,
                            f_out, vnni);
        },
        grain);
    return;
  }

  if (mode == KernelMode::kGemm) {
    // int8 transposed pack (was int32 — the packing-traffic regression,
    // see kernels/dispatch.hpp).
    auto& pack = scratch.AcquireI8(
        slots::kColI8, static_cast<std::size_t>(chunks * f_in * kNr));
    std::int8_t* pd = pack.data();
    runtime::ParallelForChunks(
        0, n,
        [&](long chunk, long lo, long hi) {
          std::int8_t* xt = pd + chunk * f_in * kNr;
          for (long s0 = lo; s0 < hi; s0 += kNr) {
            const long nr = std::min(kNr, hi - s0);
            PackTransposed(qact + s0 * f_in, nr, f_in, xt);
            GemmBlockI32(wd, ws, act_scale, bd, xt, od + s0 * f_out, nr, f_in,
                         f_out);
          }
        },
        grain);
    return;
  }

  // kSparse
  auto& idx =
      scratch.AcquireI32(slots::kRows, static_cast<std::size_t>(chunks * f_in));
  auto& vals = scratch.AcquireI32(slots::kQVals,
                                  static_cast<std::size_t>(chunks * f_in));
  std::int32_t* idx_d = idx.data();
  std::int32_t* vals_d = vals.data();
  runtime::ParallelForChunks(
      0, n,
      [&](long chunk, long lo, long hi) {
        std::int32_t* c_idx = idx_d + chunk * f_in;
        std::int32_t* c_vals = vals_d + chunk * f_in;
        for (long s = lo; s < hi; ++s) {
          const long m = GatherRowWords(
              qact + s * f_in, plan.words + s * wps, f_in, c_idx, c_vals);
          SparseRowI32(wd, ws, act_scale, bd, c_idx, c_vals, m,
                       od + s * f_out, f_in, f_out);
        }
      },
      grain);
}

}  // namespace axsnn::kernels
