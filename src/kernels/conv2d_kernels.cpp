#include "kernels/conv2d_kernels.hpp"

#include <algorithm>
#include <cstring>

#include "kernels/cpu_features.hpp"
#include "kernels/simd_kernels.hpp"
#include "kernels/spike_words.hpp"
#include "runtime/parallel_for.hpp"
#include "tensor/check.hpp"

namespace axsnn::kernels {

namespace {

/// Derived sizes shared by every implementation.
struct Dims {
  long n = 0;      // flattened [T, B] prefix
  long c_in = 0;
  long h = 0;
  long w = 0;
  long c_out = 0;
  long kernel = 0;
  long pad = 0;
  long h_out = 0;
  long w_out = 0;
  long x_plane = 0;
  long x_sample = 0;
  long o_plane = 0;
  long o_sample = 0;
  long w_per_out = 0;  // im2col K axis: c_in * kernel * kernel
};

Dims MakeDims(long n, long h, long w, const Conv2dGeom& geom) {
  Dims d;
  d.c_in = geom.in_channels;
  d.h = h;
  d.w = w;
  d.n = n;
  d.c_out = geom.out_channels;
  d.kernel = geom.kernel;
  d.pad = geom.pad;
  d.h_out = d.h + 2 * d.pad - d.kernel + 1;
  d.w_out = d.w + 2 * d.pad - d.kernel + 1;
  d.x_plane = d.h * d.w;
  d.x_sample = d.c_in * d.x_plane;
  d.o_plane = d.h_out * d.w_out;
  d.o_sample = d.c_out * d.o_plane;
  d.w_per_out = d.c_in * d.kernel * d.kernel;
  AXSNN_CHECK(d.h_out > 0 && d.w_out > 0, "Conv2d kernel: empty output");
  return d;
}

/// Shape-tensor entry point: validates the trailing [C, H, W] dims against
/// the geometry, then delegates. The int8 dispatcher bypasses this (it is
/// handed bare extents — building a Shape would allocate on the hot path).
Dims MakeDims(long numel, const Shape& shape, const Conv2dGeom& geom) {
  const std::size_t r = shape.size();
  AXSNN_CHECK(r >= 3 && shape[r - 3] == geom.in_channels,
              "Conv2d kernel: channel mismatch");
  const long h = shape[r - 2];
  const long w = shape[r - 1];
  return MakeDims(numel / (geom.in_channels * h * w), h, w, geom);
}

// --- naive fp32 (reference; the seed repo's loops, retained verbatim) --------

/// Row-accumulation layout: the inner loop over ox is contiguous in both
/// input and output, so it auto-vectorizes. Border handling is hoisted into
/// the per-(ky, kx) column bounds. Parallelism runs over the flattened
/// (sample, out-channel) grid; each iteration owns one disjoint out plane.
void Conv2dNaive(const float* xd, const float* wd, const float* bd, float* od,
                 const Dims& d) {
  runtime::ParallelFor(0, d.n * d.c_out, [&](long idx) {
    const long s = idx / d.c_out;
    const long co = idx % d.c_out;
    const float* xs = xd + s * d.x_sample;
    const float* wf = wd + co * d.w_per_out;
    float* op = od + s * d.o_sample + co * d.o_plane;
    const float b = bd[co];
    for (long i = 0; i < d.o_plane; ++i) op[i] = b;
    for (long ci = 0; ci < d.c_in; ++ci) {
      const float* xp = xs + ci * d.x_plane;
      const float* wp = wf + ci * d.kernel * d.kernel;
      for (long ky = 0; ky < d.kernel; ++ky) {
        for (long kx = 0; kx < d.kernel; ++kx) {
          const float wv = wp[ky * d.kernel + kx];
          if (wv == 0.0f) continue;  // pruned connection: no work
          const long ox_lo = std::max(0L, d.pad - kx);
          const long ox_hi = std::min(d.w_out, d.w + d.pad - kx);
          for (long oy = 0; oy < d.h_out; ++oy) {
            const long iy = oy + ky - d.pad;
            if (iy < 0 || iy >= d.h) continue;
            const float* xrow = xp + iy * d.w + (kx - d.pad);
            float* orow = op + oy * d.w_out;
            for (long ox = ox_lo; ox < ox_hi; ++ox) orow[ox] += wv * xrow[ox];
          }
        }
      }
    }
  });
}

// --- naive fp32 Backward (reference; the seed repo's loops, retained verbatim)

/// Weight/bias gradients: parallelize over output channels so each
/// iteration owns a disjoint slice of dweight/dbias (no atomics needed).
/// The inner loop over ox is a contiguous dot product between a gradient
/// row and a shifted input row.
void Conv2dBackwardParamsNaive(const float* xd, const float* gd, float* gwd,
                               float* gbd, const Dims& d) {
  runtime::ParallelFor(0, d.c_out, [&](long co) {
    float* gw = gwd + co * d.w_per_out;
    double gb = 0.0;
    for (long s = 0; s < d.n; ++s) {
      const float* xs = xd + s * d.x_sample;
      const float* gp = gd + s * d.o_sample + co * d.o_plane;
      for (long i = 0; i < d.o_plane; ++i) gb += gp[i];
      for (long ci = 0; ci < d.c_in; ++ci) {
        const float* xp = xs + ci * d.x_plane;
        float* gwp = gw + ci * d.kernel * d.kernel;
        for (long ky = 0; ky < d.kernel; ++ky) {
          for (long kx = 0; kx < d.kernel; ++kx) {
            const long ox_lo = std::max(0L, d.pad - kx);
            const long ox_hi = std::min(d.w_out, d.w + d.pad - kx);
            float acc = 0.0f;
            for (long oy = 0; oy < d.h_out; ++oy) {
              const long iy = oy + ky - d.pad;
              if (iy < 0 || iy >= d.h) continue;
              const float* xrow = xp + iy * d.w + (kx - d.pad);
              const float* grow = gp + oy * d.w_out;
              for (long ox = ox_lo; ox < ox_hi; ++ox)
                acc += grow[ox] * xrow[ox];
            }
            gwp[ky * d.kernel + kx] += acc;
          }
        }
      }
    }
    gbd[co] += static_cast<float>(gb);
  });
}

/// Input gradient: parallelize over samples (disjoint grad_in slices);
/// contiguous saxpy over ox per (co, ci, ky, kx, oy). Each sample's slice
/// starts from zero.
void Conv2dBackwardInputNaive(const float* wd, const float* gd, float* gid,
                              const Dims& d) {
  runtime::ParallelFor(0, d.n, [&](long s) {
    const float* gs = gd + s * d.o_sample;
    float* gi = gid + s * d.x_sample;
    std::fill(gi, gi + d.x_sample, 0.0f);
    for (long co = 0; co < d.c_out; ++co) {
      const float* wf = wd + co * d.w_per_out;
      const float* gp = gs + co * d.o_plane;
      for (long ci = 0; ci < d.c_in; ++ci) {
        float* gip = gi + ci * d.x_plane;
        const float* wp = wf + ci * d.kernel * d.kernel;
        for (long ky = 0; ky < d.kernel; ++ky) {
          for (long kx = 0; kx < d.kernel; ++kx) {
            const float wv = wp[ky * d.kernel + kx];
            if (wv == 0.0f) continue;
            const long ox_lo = std::max(0L, d.pad - kx);
            const long ox_hi = std::min(d.w_out, d.w + d.pad - kx);
            for (long oy = 0; oy < d.h_out; ++oy) {
              const long iy = oy + ky - d.pad;
              if (iy < 0 || iy >= d.h) continue;
              float* grow_in = gip + iy * d.w + (kx - d.pad);
              const float* grow = gp + oy * d.w_out;
              for (long ox = ox_lo; ox < ox_hi; ++ox)
                grow_in[ox] += wv * grow[ox];
            }
          }
        }
      }
    }
  });
}

/// Copies a rows x cols plane (row stride `cols`) into the interior of a
/// zero-bordered plane: row r lands at dst + (r + border) * dst_stride +
/// border. The border is never written, so it keeps its zeros.
void CopyIntoPadded(const float* src, long rows, long cols, float* dst,
                    long dst_stride, long border) {
  for (long r = 0; r < rows; ++r)
    std::copy(src + r * cols, src + (r + 1) * cols,
              dst + (r + border) * dst_stride + border);
}

// --- im2col (the simd path's packed input) -----------------------------------

/// Writes one sample's im2col matrix: col[k][o] with k walking (ci, ky, kx)
/// in the naive loop order and o = oy * w_out + ox. Padding / out-of-range
/// positions pack as exact zeros, so the tile's extra terms are ±0 no-ops
/// on the accumulation (the bit-identity argument in the header).
void PackIm2col(const float* xs, float* col, const Dims& d) {
  long k = 0;
  for (long ci = 0; ci < d.c_in; ++ci) {
    const float* xp = xs + ci * d.x_plane;
    for (long ky = 0; ky < d.kernel; ++ky) {
      for (long kx = 0; kx < d.kernel; ++kx, ++k) {
        float* crow = col + k * d.o_plane;
        const long ox_lo = std::max(0L, d.pad - kx);
        const long ox_hi = std::min(d.w_out, d.w + d.pad - kx);
        const long x_off = kx - d.pad;
        for (long oy = 0; oy < d.h_out; ++oy) {
          const long iy = oy + ky - d.pad;
          float* dst = crow + oy * d.w_out;
          if (iy < 0 || iy >= d.h) {
            for (long ox = 0; ox < d.w_out; ++ox) dst[ox] = 0.0f;
            continue;
          }
          const float* xrow = xp + iy * d.w;
          for (long ox = 0; ox < ox_lo; ++ox) dst[ox] = 0.0f;
          for (long ox = ox_lo; ox < ox_hi; ++ox) dst[ox] = xrow[ox + x_off];
          for (long ox = ox_hi; ox < d.w_out; ++ox) dst[ox] = 0.0f;
        }
      }
    }
  }
}

// --- sparse-spike gather/scatter ---------------------------------------------

/// Gathers one sample's nonzeros from its bit-packed spike words
/// (spike_words.hpp): coordinates in rows/cols, values in vals, per-plane
/// boundaries in offs[0..c_in]. Returns the count. The ctz scan visits set
/// bits in ascending flat-index (row-major) order — exactly the old scalar
/// scan's order — so the scatter's per-output-element term order stays
/// equal to the naive (ci, ky, kx) order (header contract). An all-zero
/// 64-activation span now costs one 8-byte compare instead of 64 loads.
template <typename T>
long GatherNonzerosWords(const T* xs, const std::uint64_t* words,
                         const Dims& d, std::int32_t* offs,
                         std::int32_t* rows, std::int32_t* cols, T* vals) {
  long m = 0;
  long done = 0;  // planes whose end offset is already recorded
  offs[0] = 0;
  ForEachSetBit(words, SpikeWordCount(d.x_sample), [&](long i) {
    const long ci = i / d.x_plane;
    while (done < ci) {
      offs[done + 1] = static_cast<std::int32_t>(m);
      ++done;
    }
    const long rem = i - ci * d.x_plane;
    const long iy = rem / d.w;
    rows[m] = static_cast<std::int32_t>(iy);
    cols[m] = static_cast<std::int32_t>(rem - iy * d.w);
    vals[m] = xs[i];
    ++m;
  });
  while (done < d.c_in) {
    offs[done + 1] = static_cast<std::int32_t>(m);
    ++done;
  }
  return m;
}

/// Scatters one sample's nonzeros through one output channel's weight
/// block into `op` (already bias-initialized, o_plane floats). The (ky, kx)
/// bounds clamp the scatter to in-range output pixels, so no out-of-range
/// pointer is ever formed.
#if defined(__GNUC__) || defined(__clang__)
__attribute__((noinline))
#endif
void ScatterChannelF32(const float* __restrict wf,
                       const std::int32_t* __restrict offs,
                       const std::int32_t* __restrict rows,
                       const std::int32_t* __restrict cols,
                       const float* __restrict vals, float* __restrict op,
                       const Dims& d) {
  for (long ci = 0; ci < d.c_in; ++ci) {
    const float* wp = wf + ci * d.kernel * d.kernel;
    for (long j = offs[ci]; j < offs[ci + 1]; ++j) {
      const long iy = rows[j];
      const long ix = cols[j];
      const float v = vals[j];
      const long ky_lo = std::max(0L, iy + d.pad - d.h_out + 1);
      const long ky_hi = std::min(d.kernel - 1, iy + d.pad);
      const long kx_lo = std::max(0L, ix + d.pad - d.w_out + 1);
      const long kx_hi = std::min(d.kernel - 1, ix + d.pad);
      for (long ky = ky_lo; ky <= ky_hi; ++ky) {
        float* orow = op + (iy + d.pad - ky) * d.w_out;
        const float* wrow = wp + ky * d.kernel;
        const long obase = ix + d.pad;
        for (long kx = kx_lo; kx <= kx_hi; ++kx)
          orow[obase - kx] += wrow[kx] * v;
      }
    }
  }
}

/// Int32 sibling of ScatterChannelF32, accumulating into an int32 plane.
#if defined(__GNUC__) || defined(__clang__)
__attribute__((noinline))
#endif
void ScatterChannelI32(const std::int8_t* __restrict wf,
                       const std::int32_t* __restrict offs,
                       const std::int32_t* __restrict rows,
                       const std::int32_t* __restrict cols,
                       const std::int32_t* __restrict vals,
                       std::int32_t* __restrict ap, const Dims& d) {
  for (long ci = 0; ci < d.c_in; ++ci) {
    const std::int8_t* wp = wf + ci * d.kernel * d.kernel;
    for (long j = offs[ci]; j < offs[ci + 1]; ++j) {
      const long iy = rows[j];
      const long ix = cols[j];
      const std::int32_t v = vals[j];
      const long ky_lo = std::max(0L, iy + d.pad - d.h_out + 1);
      const long ky_hi = std::min(d.kernel - 1, iy + d.pad);
      const long kx_lo = std::max(0L, ix + d.pad - d.w_out + 1);
      const long kx_hi = std::min(d.kernel - 1, ix + d.pad);
      for (long ky = ky_lo; ky <= ky_hi; ++ky) {
        std::int32_t* arow = ap + (iy + d.pad - ky) * d.w_out;
        const std::int8_t* wrow = wp + ky * d.kernel;
        const long obase = ix + d.pad;
        for (long kx = kx_lo; kx <= kx_hi; ++kx)
          arow[obase - kx] += static_cast<std::int32_t>(wrow[kx]) * v;
      }
    }
  }
}

// --- naive int8 (reference; moved verbatim from approx/int8_backend.cpp) -----

/// Raw-argument core of the int8 convolution: one (sample, out-channel)
/// output plane per `idx` in [idx_lo, idx_hi), accumulated in `plane` — a
/// single h_out*w_out int32 buffer owned by this chunk and reused across
/// its planes (only one plane is live at a time). The noinline raw-pointer
/// boundary and the __restrict qualifiers both matter: inlined into the
/// pool lambda (where every pointer derives from Tensor/vector members)
/// GCC 12 stops hoisting across the plane loops, and without __restrict it
/// guards the vectorized MAC loop with per-row overlap checks whose cost
/// rivals the 4-lane SSE body at these row lengths. Together they are worth
/// ~25% kernel throughput at -O3 without -march.
#if defined(__GNUC__) || defined(__clang__)
__attribute__((noinline))
#endif
void Conv2dPlanes(long idx_lo, long idx_hi,
                  const std::int32_t* __restrict xd,
                  const std::int8_t* __restrict wd,
                  const float* __restrict scales,
                  const float* __restrict bd, float act_scale,
                  std::int32_t* __restrict plane, float* __restrict od,
                  long c_in, long h, long w, long co_n,
                  long kernel, long pad) {
  const long h_out = h + 2 * pad - kernel + 1;
  const long w_out = w + 2 * pad - kernel + 1;
  const long x_plane = h * w;
  const long x_sample = c_in * x_plane;
  const long o_plane = h_out * w_out;
  const long o_sample = co_n * o_plane;
  const long w_per_out = c_in * kernel * kernel;
  for (long idx = idx_lo; idx < idx_hi; ++idx) {
    const long s = idx / co_n;
    const long co = idx % co_n;
    const std::int32_t* xs = xd + s * x_sample;
    const std::int8_t* wf = wd + co * w_per_out;
    std::int32_t* ap = plane;
    for (long i = 0; i < o_plane; ++i) ap[i] = 0;
    for (long ci = 0; ci < c_in; ++ci) {
      const std::int32_t* xp = xs + ci * x_plane;
      const std::int8_t* wp = wf + ci * kernel * kernel;
      for (long ky = 0; ky < kernel; ++ky) {
        for (long kx = 0; kx < kernel; ++kx) {
          const std::int32_t wv = wp[ky * kernel + kx];
          if (wv == 0) continue;  // pruned connection: no work
          const long ox_lo = std::max(0L, pad - kx);
          const long ox_hi = std::min(w_out, w + pad - kx);
          // Index as xrow[ox + kx - pad] instead of pre-offsetting xrow:
          // ox >= ox_lo keeps the index non-negative, and a pre-start
          // pointer must not even be formed ([expr.add]).
          const long x_off = kx - pad;
          for (long oy = 0; oy < h_out; ++oy) {
            const long iy = oy + ky - pad;
            if (iy < 0 || iy >= h) continue;
            const std::int32_t* xrow = xp + iy * w;
            std::int32_t* arow = ap + oy * w_out;
            for (long ox = ox_lo; ox < ox_hi; ++ox)
              arow[ox] += wv * xrow[ox + x_off];
          }
        }
      }
    }
    // Requantize: accumulator counts are exact, the output lives at
    // act_scale * weight_scale[co]; bias stays float.
    const float requant = act_scale * scales[co];
    const float b = bd[co];
    float* op = od + s * o_sample + co * o_plane;
    for (long i = 0; i < o_plane; ++i)
      op[i] = static_cast<float>(ap[i]) * requant + b;
  }
}

}  // namespace

// --- fp32 dispatcher ---------------------------------------------------------

void Conv2dForward(const Tensor& weight, const Tensor& bias, const Tensor& x,
                   Tensor& out, const Conv2dGeom& geom, KernelMode mode,
                   runtime::Workspace& scratch, const PackedWords* packed) {
  AXSNN_CHECK(x.rank() >= 3, "Conv2dForward expects [*, C, H, W]");
  const Dims d = MakeDims(x.numel(), x.shape(), geom);
  AXSNN_CHECK(weight.numel() == d.c_out * d.w_per_out,
              "Conv2dForward weight shape mismatch");
  AXSNN_CHECK(out.numel() == d.n * d.o_sample, "Conv2dForward output not sized");

  const float* xd = x.data();
  const float* wd = weight.data();
  const float* bd = bias.data();
  float* od = out.data();

  const KernelPlan plan = PlanKernel(KernelFamily::kConvF32, mode, xd, d.n,
                                     d.x_sample, scratch, packed);
  mode = plan.mode;
  const long wps = SpikeWordCount(d.x_sample);

  if (mode == KernelMode::kNaive) {
    Conv2dNaive(xd, wd, bd, od, d);
    return;
  }

  if (mode == KernelMode::kSimd) {
    // One im2col matrix per chunk; a chunk's samples reuse it in turn. At
    // most 16 chunks (the grain depends only on n): each holds a whole
    // sample's im2col, and 64 of them raised peak RSS for no speed.
    const long grain = std::max(runtime::DefaultGrain(d.n), (d.n + 15) / 16);
    Tensor& pack = scratch.Acquire(
        slots::kPack, runtime::NumChunks(d.n, grain) * d.w_per_out * d.o_plane);
    float* pd = pack.data();
    runtime::ParallelForChunks(
        0, d.n,
        [&](long chunk, long lo, long hi) {
          float* col = pd + chunk * d.w_per_out * d.o_plane;
          for (long s = lo; s < hi; ++s) {
            PackIm2col(xd + s * d.x_sample, col, d);
            simd::ConvGemmF32(wd, bd, col, od + s * d.o_sample, d.c_out,
                              d.w_per_out, d.o_plane);
          }
        },
        grain);
    return;
  }

  // kSparse: per-chunk gather lists sized for one sample at a time.
  const long grain = runtime::DefaultGrain(d.n);
  const long chunks = runtime::NumChunks(d.n, grain);
  auto& offs = scratch.AcquireI32(
      slots::kOffsets, static_cast<std::size_t>(chunks * (d.c_in + 1)));
  auto& rows = scratch.AcquireI32(slots::kRows,
                                  static_cast<std::size_t>(chunks * d.x_sample));
  auto& cols = scratch.AcquireI32(slots::kCols,
                                  static_cast<std::size_t>(chunks * d.x_sample));
  Tensor& vals = scratch.Acquire(slots::kSparseVals, chunks * d.x_sample);
  std::int32_t* offs_d = offs.data();
  std::int32_t* rows_d = rows.data();
  std::int32_t* cols_d = cols.data();
  float* vals_d = vals.data();
  runtime::ParallelForChunks(
      0, d.n,
      [&](long chunk, long lo, long hi) {
        std::int32_t* c_offs = offs_d + chunk * (d.c_in + 1);
        std::int32_t* c_rows = rows_d + chunk * d.x_sample;
        std::int32_t* c_cols = cols_d + chunk * d.x_sample;
        float* c_vals = vals_d + chunk * d.x_sample;
        for (long s = lo; s < hi; ++s) {
          GatherNonzerosWords(xd + s * d.x_sample, plan.words + s * wps,
                              d, c_offs, c_rows, c_cols, c_vals);
          float* os = od + s * d.o_sample;
          for (long co = 0; co < d.c_out; ++co) {
            float* op = os + co * d.o_plane;
            const float b = bd[co];
            for (long i = 0; i < d.o_plane; ++i) op[i] = b;
            ScatterChannelF32(wd + co * d.w_per_out, c_offs, c_rows, c_cols,
                              c_vals, op, d);
          }
        }
      },
      grain);
}

// --- fp32 Backward dispatchers -----------------------------------------------

void Conv2dBackwardParams(const Tensor& x, const Tensor& grad_out,
                          Tensor& dweight, Tensor& dbias,
                          const Conv2dGeom& geom, KernelMode mode,
                          runtime::Workspace& scratch) {
  AXSNN_CHECK(x.rank() >= 3, "Conv2dBackwardParams expects [*, C, H, W]");
  const Dims d = MakeDims(x.numel(), x.shape(), geom);
  AXSNN_CHECK(grad_out.numel() == d.n * d.o_sample,
              "Conv2dBackwardParams gradient shape mismatch");
  AXSNN_CHECK(dweight.numel() == d.c_out * d.w_per_out &&
                  dbias.numel() == d.c_out,
              "Conv2dBackwardParams gradient buffers mismatch");
  const float* xd = x.data();
  const float* gd = grad_out.data();
  float* gwd = dweight.data();
  float* gbd = dbias.data();

  const KernelPlan plan = PlanKernel(KernelFamily::kConvDwF32, mode, xd, d.n,
                                     d.x_sample, scratch, nullptr);
  if (plan.mode == KernelMode::kNaive) {
    Conv2dBackwardParamsNaive(xd, gd, gwd, gbd, d);
    return;
  }

  // kSimd: tasks own disjoint weights — a block of 8 output channels (the
  // vector lanes) times a range of k = (ci, ky, kx) — and walk every sample
  // in ascending order, so each weight's per-sample sums reach it in the
  // naive order. Each task keeps its own scratch: the sample's gradient
  // rows transposed to [o][8], the input planes its k range reads,
  // zero-padded, and its weights' running sums as [k][8]. About 16 tasks,
  // k ranges a multiple of 8 (one full tile group) where kk allows.
  const long kk = d.w_per_out;
  const long kk2 = d.kernel * d.kernel;
  const long blocks = (d.c_out + 7) / 8;
  const long splits =
      std::max(1L, std::min((kk + 7) / 8, (16 + blocks - 1) / blocks));
  const long k_range = simd::RoundUp8((kk + splits - 1) / splits);
  const long ranges = (kk + k_range - 1) / k_range;
  const long hp = d.h + 2 * d.pad;
  const long wp = d.w + 2 * d.pad;
  const long max_ci = std::min(d.c_in, (k_range - 1) / kk2 + 2);
  const long gt_len = d.o_plane * 8;
  const long xp_len = max_ci * hp * wp;
  // Per-task slabs start on 64-byte boundaries: no false sharing.
  const long slab = (gt_len + xp_len + k_range * 8 + 15) & ~15L;
  const long tasks = blocks * ranges;
  float* pd = scratch.Acquire(slots::kDwPack, tasks * slab).data();
  runtime::ParallelFor(
      0, tasks,
      [&](long task) {
        const long co0 = (task / ranges) * 8;
        const long live = std::min(8L, d.c_out - co0);
        const long k_lo = (task % ranges) * k_range;
        const long k_hi = std::min(kk, k_lo + k_range);
        const long ci_lo = k_lo / kk2;
        const long ci_hi = (k_hi - 1) / kk2 + 1;
        float* gt = pd + task * slab;
        float* xp = gt + gt_len;
        float* dwt = xp + xp_len;
        std::fill(xp, xp + (ci_hi - ci_lo) * hp * wp, 0.0f);
        for (long k = k_lo; k < k_hi; ++k)
          for (long j = 0; j < 8; ++j)
            dwt[(k - k_lo) * 8 + j] = j < live ? gwd[(co0 + j) * kk + k] : 0.0f;
        double gb[8] = {};
        for (long s = 0; s < d.n; ++s) {
          simd::TransposeRows8F32(gd + s * d.o_sample + co0 * d.o_plane, live,
                                  d.o_plane, d.o_plane, gt);
          for (long ci = ci_lo; ci < ci_hi; ++ci)
            CopyIntoPadded(xd + s * d.x_sample + ci * d.x_plane, d.h, d.w,
                           xp + (ci - ci_lo) * hp * wp, wp, d.pad);
          simd::ConvDwTileF32(gt, xp, dwt, k_lo == 0 ? gb : nullptr, k_lo,
                              k_hi, ci_lo, d.kernel, hp, wp, d.h_out,
                              d.w_out);
        }
        for (long k = k_lo; k < k_hi; ++k)
          for (long j = 0; j < live; ++j)
            gwd[(co0 + j) * kk + k] = dwt[(k - k_lo) * 8 + j];
        if (k_lo == 0)
          for (long j = 0; j < live; ++j)
            gbd[co0 + j] += static_cast<float>(gb[j]);
      },
      /*grain=*/1);
}

void Conv2dBackwardInput(const Tensor& weight, const Tensor& grad_out,
                         Tensor& grad_in, const Conv2dGeom& geom,
                         KernelMode mode, runtime::Workspace& scratch) {
  AXSNN_CHECK(grad_in.rank() >= 3, "Conv2dBackwardInput expects [*, C, H, W]");
  const Dims d = MakeDims(grad_in.numel(), grad_in.shape(), geom);
  AXSNN_CHECK(weight.numel() == d.c_out * d.w_per_out,
              "Conv2dBackwardInput weight shape mismatch");
  AXSNN_CHECK(grad_out.numel() == d.n * d.o_sample,
              "Conv2dBackwardInput gradient shape mismatch");
  const float* wd = weight.data();
  const float* gd = grad_out.data();
  float* gid = grad_in.data();

  const KernelPlan plan = PlanKernel(KernelFamily::kConvDxF32, mode, gd, d.n,
                                     d.o_sample, scratch, nullptr);
  if (plan.mode == KernelMode::kNaive) {
    Conv2dBackwardInputNaive(wd, gd, gid, d);
    return;
  }

  // kSimd: per sample, each output channel's gradient plane is copied into
  // a zero-bordered plane (kernel-1-pad on every side, plus 8 floats the
  // last partial vector may read), and the tile adds that channel's terms
  // to every input pixel; channels run in ascending order. One plane per
  // chunk, at most 16 chunks (the forward simd path's cap).
  const long q = d.kernel - 1 - d.pad;
  const long gh = d.h + d.kernel - 1;
  const long gw = d.w + d.kernel - 1;
  const long plane = (gh * gw + 8 + 15) & ~15L;
  const long grain = std::max(runtime::DefaultGrain(d.n), (d.n + 15) / 16);
  float* pd = scratch
                  .Acquire(slots::kDxPack,
                           runtime::NumChunks(d.n, grain) * plane)
                  .data();
  runtime::ParallelForChunks(
      0, d.n,
      [&](long chunk, long lo, long hi) {
        float* gp = pd + chunk * plane;
        std::fill(gp, gp + plane, 0.0f);
        for (long s = lo; s < hi; ++s) {
          float* gi = gid + s * d.x_sample;
          std::fill(gi, gi + d.x_sample, 0.0f);
          for (long co = 0; co < d.c_out; ++co) {
            CopyIntoPadded(gd + s * d.o_sample + co * d.o_plane, d.h_out,
                           d.w_out, gp, gw, q);
            simd::ConvDxPlaneF32(wd + co * d.w_per_out, gp, gi, d.c_in, d.h,
                                 d.w, d.kernel);
          }
        }
      },
      grain);
}

// --- int8 dispatcher ---------------------------------------------------------

void Int8Conv2dForward(const QuantizedTensor& weight, const Tensor& bias,
                       const std::int32_t* qact, float act_scale, long n,
                       long h, long w, Tensor& out, const Conv2dGeom& geom,
                       KernelMode mode, runtime::Workspace& scratch,
                       const PackedWords* packed) {
  const Dims d = MakeDims(n, h, w, geom);
  AXSNN_CHECK(weight.rows() == d.c_out && weight.row_size() == d.w_per_out,
              "Int8Conv2dForward weight shape mismatch");
  AXSNN_CHECK(out.numel() == d.n * d.o_sample,
              "Int8Conv2dForward output not sized");

  const std::int8_t* wd = weight.data();
  const float* scales = weight.scales().data();
  const float* bd = bias.data();
  float* od = out.data();

  const KernelPlan plan = PlanKernel(KernelFamily::kConvI8, mode, qact, d.n,
                                     d.x_sample, scratch, packed);
  mode = plan.mode;
  const long wps = SpikeWordCount(d.x_sample);

  if (mode == KernelMode::kNaive) {
    // Same loop nest as the float Conv2dNaive: one disjoint output plane per
    // (sample, out-channel) index, contiguous inner loop over ox, chunks
    // fanned out on the runtime pool. One plane-sized accumulator per chunk
    // (each chunk's planes are processed one at a time) instead of a full
    // output-sized scratch.
    const long total = d.n * d.c_out;
    const long grain = runtime::DefaultGrain(total);
    auto& acc = scratch.AcquireI32(
        slots::kAcc, static_cast<std::size_t>(
                         runtime::NumChunks(total, grain) * d.o_plane));
    std::int32_t* ad = acc.data();
    runtime::ParallelForChunks(
        0, total,
        [&](long chunk, long lo, long hi) {
          Conv2dPlanes(lo, hi, qact, wd, scales, bd, act_scale,
                       ad + chunk * d.o_plane, od, d.c_in, d.h, d.w, d.c_out,
                       d.kernel, d.pad);
        },
        grain);
    return;
  }

  const long grain = runtime::DefaultGrain(d.n);
  const long chunks = runtime::NumChunks(d.n, grain);

  if (mode == KernelMode::kSimd) {
    // Weight rows staged once, zero-padded to the dword-group width; one
    // panel per chunk, rebuilt per sample (panels are pixel-blocked im2col,
    // int8-narrow).
    const long kk4 = simd::RoundUp4(d.w_per_out);
    const long panel_bytes = kk4 * simd::RoundUp8(d.o_plane);
    auto& wpad = scratch.AcquireI8(slots::kWpad,
                                   static_cast<std::size_t>(d.c_out * kk4));
    std::int8_t* wpad_d = wpad.data();
    for (long co = 0; co < d.c_out; ++co) {
      std::memcpy(wpad_d + co * kk4, wd + co * d.w_per_out,
                  static_cast<std::size_t>(d.w_per_out));
      for (long k = d.w_per_out; k < kk4; ++k) wpad_d[co * kk4 + k] = 0;
    }
    auto& panel = scratch.AcquireI8(
        slots::kPanel, static_cast<std::size_t>(chunks * panel_bytes));
    std::int8_t* panel_d = panel.data();
    const bool vnni = plan.tier == SimdTier::kVnni;
    runtime::ParallelForChunks(
        0, d.n,
        [&](long chunk, long lo, long hi) {
          std::int8_t* p = panel_d + chunk * panel_bytes;
          for (long s = lo; s < hi; ++s) {
            simd::PackConvPanelI8(qact + s * d.x_sample, p, d.c_in, d.h, d.w,
                                  d.w_out, d.kernel, d.pad, d.o_plane, kk4);
            simd::ConvPanelI8(wpad_d, scales, act_scale, bd, p,
                              od + s * d.o_sample, d.c_out, kk4, d.o_plane,
                              vnni);
          }
        },
        grain);
    return;
  }

  // kSparse: gather nonzero codes once per sample, scatter per channel into
  // a chunk-owned int32 plane, requantize on write-out.
  auto& offs = scratch.AcquireI32(
      slots::kOffsets, static_cast<std::size_t>(chunks * (d.c_in + 1)));
  auto& rows = scratch.AcquireI32(slots::kRows,
                                  static_cast<std::size_t>(chunks * d.x_sample));
  auto& cols = scratch.AcquireI32(slots::kCols,
                                  static_cast<std::size_t>(chunks * d.x_sample));
  auto& vals = scratch.AcquireI32(slots::kQVals,
                                  static_cast<std::size_t>(chunks * d.x_sample));
  auto& acc = scratch.AcquireI32(slots::kAcc,
                                 static_cast<std::size_t>(chunks * d.o_plane));
  std::int32_t* offs_d = offs.data();
  std::int32_t* rows_d = rows.data();
  std::int32_t* cols_d = cols.data();
  std::int32_t* vals_d = vals.data();
  std::int32_t* acc_d = acc.data();
  runtime::ParallelForChunks(
      0, d.n,
      [&](long chunk, long lo, long hi) {
        std::int32_t* c_offs = offs_d + chunk * (d.c_in + 1);
        std::int32_t* c_rows = rows_d + chunk * d.x_sample;
        std::int32_t* c_cols = cols_d + chunk * d.x_sample;
        std::int32_t* c_vals = vals_d + chunk * d.x_sample;
        std::int32_t* ap = acc_d + chunk * d.o_plane;
        for (long s = lo; s < hi; ++s) {
          GatherNonzerosWords(qact + s * d.x_sample, plan.words + s * wps,
                              d, c_offs, c_rows, c_cols, c_vals);
          float* os = od + s * d.o_sample;
          for (long co = 0; co < d.c_out; ++co) {
            for (long i = 0; i < d.o_plane; ++i) ap[i] = 0;
            ScatterChannelI32(wd + co * d.w_per_out, c_offs, c_rows, c_cols,
                              c_vals, ap, d);
            const float requant = act_scale * scales[co];
            const float b = bd[co];
            float* op = os + co * d.o_plane;
            for (long i = 0; i < d.o_plane; ++i)
              op[i] = static_cast<float>(ap[i]) * requant + b;
          }
        }
      },
      grain);
}

}  // namespace axsnn::kernels
