#include "kernels/dispatch.hpp"

#include <array>
#include <atomic>
#include <cstdlib>

#include "kernels/spike_words.hpp"
#include "runtime/parallel_for.hpp"
#include "runtime/workspace.hpp"
#include "tensor/check.hpp"

namespace axsnn::kernels {

const char* KernelModeName(KernelMode mode) {
  switch (mode) {
    case KernelMode::kAuto:
      return "auto";
    case KernelMode::kNaive:
      return "naive";
    case KernelMode::kGemm:
      return "gemm";
    case KernelMode::kSparse:
      return "sparse";
    case KernelMode::kSimd:
      return "simd";
  }
  return "?";
}

std::optional<KernelMode> ParseKernelMode(std::string_view name) {
  if (name == "auto") return KernelMode::kAuto;
  if (name == "naive") return KernelMode::kNaive;
  if (name == "sparse") return KernelMode::kSparse;
  if (name == "simd") return KernelMode::kSimd;
  return std::nullopt;
}

KernelMode KernelModeFromEnv(const char* value) {
  if (value == nullptr) return KernelMode::kAuto;
  const std::optional<KernelMode> mode = ParseKernelMode(value);
  AXSNN_CHECK(mode.has_value(),
              "AXSNN_KERNEL_MODE must be one of auto, naive, sparse, simd; "
              "got \"" << value << "\"");
  return *mode;
}

namespace {

std::atomic<KernelMode>& GlobalModeRef() {
  static std::atomic<KernelMode> mode{
      KernelModeFromEnv(std::getenv("AXSNN_KERNEL_MODE"))};
  return mode;
}

/// Shared chunked nonzero count: exact at any pool size (integer counting
/// is order-independent; the fixed-chunk shape keeps that self-evident).
template <typename T>
float DensityOf(const T* x, long n) {
  if (n <= 0) return 0.0f;
  const long grain = runtime::DefaultGrain(n);
  std::array<long, runtime::kMaxChunks> partials{};
  const long chunks = runtime::NumChunks(n, grain);
  runtime::ParallelForChunks(
      0, n,
      [&](long chunk, long lo, long hi) {
        long count = 0;
        for (long i = lo; i < hi; ++i) count += (x[i] != T{0}) ? 1 : 0;
        partials[static_cast<std::size_t>(chunk)] = count;
      },
      grain);
  long nonzero = 0;
  for (long c = 0; c < chunks; ++c)
    nonzero += partials[static_cast<std::size_t>(c)];
  return static_cast<float>(nonzero) / static_cast<float>(n);
}

}  // namespace

KernelMode GlobalKernelMode() {
  return GlobalModeRef().load(std::memory_order_relaxed);
}

void SetGlobalKernelMode(KernelMode mode) {
  GlobalModeRef().store(mode, std::memory_order_relaxed);
}

float Density(const float* x, long n) { return DensityOf(x, n); }
float Density(const std::int32_t* x, long n) { return DensityOf(x, n); }
float Density(const std::int8_t* x, long n) { return DensityOf(x, n); }

namespace {

/// Shared word packer: parallel over sample chunks (sample-padded word rows
/// make the chunks disjoint), per-chunk counts reduced deterministically.
template <typename T>
long PackWordsOf(const T* x, long n_samples, long sample_len,
                 std::uint64_t* words) {
  if (n_samples <= 0 || sample_len <= 0) return 0;
  const long wps = SpikeWordCount(sample_len);
  const long grain = runtime::DefaultGrain(n_samples);
  std::array<long, runtime::kMaxChunks> partials{};
  const long chunks = runtime::NumChunks(n_samples, grain);
  runtime::ParallelForChunks(
      0, n_samples,
      [&](long chunk, long lo, long hi) {
        long count = 0;
        for (long s = lo; s < hi; ++s)
          count += PackSpikeWords(x + s * sample_len, sample_len,
                                  words + s * wps);
        partials[static_cast<std::size_t>(chunk)] = count;
      },
      grain);
  long nonzero = 0;
  for (long c = 0; c < chunks; ++c)
    nonzero += partials[static_cast<std::size_t>(c)];
  return nonzero;
}

}  // namespace

long ParallelPackSpikeWords(const float* x, long n_samples, long sample_len,
                            std::uint64_t* words) {
  return PackWordsOf(x, n_samples, sample_len, words);
}
long ParallelPackSpikeWords(const std::int32_t* x, long n_samples,
                            long sample_len, std::uint64_t* words) {
  return PackWordsOf(x, n_samples, sample_len, words);
}
long ParallelPackSpikeWords(const std::int8_t* x, long n_samples,
                            long sample_len, std::uint64_t* words) {
  return PackWordsOf(x, n_samples, sample_len, words);
}

KernelMode ResolveKernelMode(KernelMode requested) {
  const KernelMode global = GlobalKernelMode();
  return global != KernelMode::kAuto ? global : requested;
}

KernelMode ChooseByDensity(KernelMode mode, float density, float sparse_max,
                           KernelMode dense_fallback) {
  if (mode != KernelMode::kAuto) return mode;
  return density <= sparse_max ? KernelMode::kSparse : dense_fallback;
}

namespace {

/// Each family's sparse threshold, indexed [KernelFamily][SIMD tier
/// active]. With a tier the int8 families' 32-MAC instructions lower the
/// sparse crossover; the fp32 thresholds do not depend on the tier. A
/// negative threshold marks a family without a sparse kernel: no density
/// is at or below it.
constexpr float kNoSparse = -1.0f;
constexpr float kSparseMax[6][2] = {
    /* conv fp32    */ {kConvSparseDensityMax, kConvSparseDensityMax},
    /* dense fp32   */ {kDenseSparseDensityMax, kDenseSparseDensityMax},
    /* conv int8    */ {kConvSparseDensityMax, kConvSparseDensityMaxI8Simd},
    /* dense int8   */ {kDenseSparseDensityMax, kDenseSparseDensityMaxI8Simd},
    /* conv dW fp32 */ {kNoSparse, kNoSparse},
    /* conv dX fp32 */ {kNoSparse, kNoSparse},
};

}  // namespace

bool HasSparseKernel(KernelFamily family) {
  return kSparseMax[static_cast<int>(family)][0] >= 0.0f;
}

KernelMode DecideKernelMode(KernelFamily family, KernelMode mode,
                            float density, SimdTier tier) {
  AXSNN_CHECK(mode != KernelMode::kGemm,
              "kernel mode gemm is retired; use one of auto, naive, sparse, "
              "simd");
  const bool simd = tier != SimdTier::kScalar;
  // No sparse kernel: a forced sparse takes the dense fallback, as auto does.
  if (mode == KernelMode::kSparse && !HasSparseKernel(family))
    mode = KernelMode::kAuto;
  mode = ChooseByDensity(mode, density,
                         kSparseMax[static_cast<int>(family)][simd],
                         KernelMode::kSimd);
  // simd without the tier, chosen or forced, runs the scalar reference.
  return mode == KernelMode::kSimd && !simd ? KernelMode::kNaive : mode;
}

template <typename T>
KernelPlan PlanKernel(KernelFamily family, KernelMode requested, const T* x,
                      long n_samples, long sample_len,
                      runtime::Workspace& scratch, const PackedWords* packed) {
  KernelPlan plan;
  const KernelMode mode = ResolveKernelMode(requested);
  float density = 0.0f;
  if (HasSparseKernel(family) &&
      (mode == KernelMode::kAuto || mode == KernelMode::kSparse)) {
    // Spike words serve the density probe (a popcount — the same count as
    // an elementwise probe) and the sparse gather.
    long nonzero;
    if (packed != nullptr) {
      plan.words = packed->words;
      nonzero = packed->nonzero;
    } else {
      auto& words = scratch.AcquireU64(
          slots::kWords,
          static_cast<std::size_t>(n_samples * SpikeWordCount(sample_len)));
      nonzero = ParallelPackSpikeWords(x, n_samples, sample_len, words.data());
      plan.words = words.data();
    }
    density = static_cast<float>(nonzero) /
              static_cast<float>(n_samples * sample_len);
  }
  plan.tier = ActiveSimdTier();
  plan.mode = DecideKernelMode(family, mode, density, plan.tier);
  return plan;
}

template KernelPlan PlanKernel(KernelFamily, KernelMode, const float*, long,
                               long, runtime::Workspace&, const PackedWords*);
template KernelPlan PlanKernel(KernelFamily, KernelMode, const std::int32_t*,
                               long, long, runtime::Workspace&,
                               const PackedWords*);
template KernelPlan PlanKernel(KernelFamily, KernelMode, const std::int8_t*,
                               long, long, runtime::Workspace&,
                               const PackedWords*);

}  // namespace axsnn::kernels
