#include "kernels/dense_kernels.hpp"

#include <algorithm>

#include "kernels/cpu_features.hpp"
#include "kernels/simd_kernels.hpp"
#include "kernels/spike_words.hpp"
#include "runtime/parallel_for.hpp"
#include "tensor/check.hpp"

namespace axsnn::kernels {

namespace {

/// Samples per transposed block: one 8-lane fp32 vector.
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

// --- transposed 8-sample blocks (the simd path's packed input) --------------

/// Packs a block of up to kNr sample rows transposed: xt[i * kNr + j] =
/// x[(s0 + j)][i]. The tail of a partial block is zero-filled so the tile
/// keeps fixed-width loads (its dead lanes are never written back).
void PackTransposed(const float* xs, long nr, long f_in, float* xt) {
  for (long i = 0; i < f_in; ++i) {
    float* row = xt + i * kNr;
    for (long j = 0; j < nr; ++j) row[j] = xs[j * f_in + i];
    for (long j = nr; j < kNr; ++j) row[j] = 0.0f;
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

  if (mode == KernelMode::kSimd) {
    // One transposed 8-sample block per chunk. The grain is a whole number
    // of blocks, so only a call's last block can carry dead lanes: at
    // DefaultGrain's 1-sample chunks every block would carry one live lane.
    const long grain = simd::RoundUp8(runtime::DefaultGrain(n));
    Tensor& pack = scratch.Acquire(
        slots::kPack, runtime::NumChunks(n, grain) * f_in * kNr);
    float* pd = pack.data();
    runtime::ParallelForChunks(
        0, n,
        [&](long chunk, long lo, long hi) {
          float* xt = pd + chunk * f_in * kNr;
          for (long s0 = lo; s0 < hi; s0 += kNr) {
            const long nr = std::min(kNr, hi - s0);
            PackTransposed(xd + s0 * f_in, nr, f_in, xt);
            simd::DenseBlockF32(wd, bd, xt, od + s0 * f_out, nr, f_in, f_out);
          }
        },
        grain);
    return;
  }

  // kSparse
  const long grain = runtime::DefaultGrain(n);
  const long chunks = runtime::NumChunks(n, grain);
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
