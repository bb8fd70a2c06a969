// Sparsity-aware kernel dispatch: mode knob, density probe, slot map.
//
// SNN workloads guarantee one thing dense-ML kernels cannot assume: the
// activations flowing through Conv2d/Dense are overwhelmingly zero (binary
// spike trains, rate-encoded inputs, binned event frames), and Eq.-(1)
// pruning adds weight sparsity on top. The kernel subsystem therefore ships
// three implementations per (layer, precision) pair:
//
//   naive  — the original reference loops, retained verbatim. Every other
//            path is pinned against it by the differential equivalence
//            suite (tests/test_kernels.cpp).
//   sparse — scans each input's bit-packed spike words (spike_words.hpp)
//            and scatters weight rows per nonzero. Work is proportional to
//            the *nonzero* count, so it wins whenever spike density is
//            below the thresholds here.
//   simd   — explicit AVX2/AVX-VNNI microkernels (simd_kernels.hpp) behind
//            runtime CPUID detection (cpu_features.hpp), for dense
//            (mostly-nonzero) inputs: fp32 tiles over an im2col matrix or
//            transposed 8-sample blocks, int8 dot products over panels or
//            contiguous code rows.
//
// All three follow one numerics contract: bit-identical to naive (see
// simd_kernels.hpp for the SIMD half). Dispatch decisions therefore never
// change an experiment outcome — the golden determinism test pins that end
// to end — and auto may pick any path. Above the sparse threshold every
// family falls back to simd when the ISA probe reports an active tier and
// to naive otherwise. The thresholds were measured on the bench shapes
// (BENCH_runtime.json "kernel_dispatch"); re-calibrate with
// bench_micro_runtime when the kernels or target hardware change.
//
// Mode precedence for one kernel call:
//   1. a non-auto *global* mode (AXSNN_KERNEL_MODE env var, or
//      SetGlobalKernelMode) forces that path everywhere — the CI matrix and
//      the differential tests use this to pin each path;
//   2. otherwise a non-auto *layer/config* mode
//      (ApproxConfig::kernel_mode -> WeightLayer::set_kernel_mode);
//   3. otherwise (auto) a per-call density probe (a popcount over the
//      spike words) picks sparse at or below the density thresholds;
//   4. above them the dense fallback applies: simd with a SIMD tier
//      (ActiveSimdTier(), the ISA probe), naive without.
// A forced simd mode (rule 1 or 2) on a machine or build without the SIMD
// tier degrades to naive — always safe because simd is bit-identical;
// AXSNN_SIMD=off therefore exercises the scalar fallback everywhere without
// touching results. All four rules and the degrade are made in one place,
// PlanKernel, which every dispatcher calls.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

#include "kernels/cpu_features.hpp"

namespace axsnn::runtime {
class Workspace;
}  // namespace axsnn::runtime

namespace axsnn::kernels {

/// Kernel implementation selector; kAuto defers to the density probe.
/// kGemm is a retired mode: it keeps its value because grid digests hash
/// enumerator values, but no kernel call accepts it (DecideKernelMode
/// throws).
enum class KernelMode { kAuto, kNaive, kGemm, kSparse, kSimd };

/// "auto" / "naive" / "gemm" / "sparse" / "simd".
const char* KernelModeName(KernelMode mode);

/// Inverse of KernelModeName for the accepted modes; nullopt for unknown
/// names and for the retired "gemm".
std::optional<KernelMode> ParseKernelMode(std::string_view name);

/// Parses an AXSNN_KERNEL_MODE value (nullptr = unset = kAuto). Any other
/// value must be a KernelModeName spelling: an empty, miscased or unknown
/// one throws std::invalid_argument naming the variable, the value and the
/// accepted spellings, so a typo never silently runs the auto path.
KernelMode KernelModeFromEnv(const char* value);

/// Process-global mode, initialized on first use from the AXSNN_KERNEL_MODE
/// environment variable (KernelModeFromEnv: an unknown value throws from
/// that first use). A non-auto global mode overrides every per-layer
/// setting (precedence rule 1 above).
KernelMode GlobalKernelMode();

/// Overrides the global mode at runtime (tests, benchmarks). Not
/// thread-safe against concurrent kernel calls.
void SetGlobalKernelMode(KernelMode mode);

/// Scoped global-mode override: forces one path for the scope's duration
/// (winning over a CI-exported AXSNN_KERNEL_MODE too — precedence rule 1)
/// and restores the prior mode on exit. The differential equivalence
/// tests and the dispatch benchmarks pin each path with this.
class ScopedKernelMode {
 public:
  explicit ScopedKernelMode(KernelMode mode) : saved_(GlobalKernelMode()) {
    SetGlobalKernelMode(mode);
  }
  ~ScopedKernelMode() { SetGlobalKernelMode(saved_); }
  ScopedKernelMode(const ScopedKernelMode&) = delete;
  ScopedKernelMode& operator=(const ScopedKernelMode&) = delete;

 private:
  KernelMode saved_;
};

/// Density thresholds for the auto probe: the sparse path runs scalar MACs
/// on gathered nonzeros while the dense paths run vectorized MACs on
/// everything, so sparse wins once the nonzero fraction is below roughly
/// 1/vector-width with headroom. Measured on the bench_micro_runtime
/// shapes; see DESIGN.md "Kernel dispatch". The int8 thresholds are lower
/// than fp32's: the SIMD tier's 32-MAC int8 instructions raise the dense
/// paths' work rate ~4x over fp32, moving the crossover down. Calibrated
/// against the panel/dense microkernels on the bench shapes: conv sparse
/// stops winning near 4% nonzeros, dense near 1.5% (the int8 dense simd
/// path has no packing cost, so its crossover sits much lower).
inline constexpr float kConvSparseDensityMax = 0.15f;
inline constexpr float kDenseSparseDensityMax = 0.15f;
inline constexpr float kConvSparseDensityMaxI8Simd = 0.04f;
inline constexpr float kDenseSparseDensityMaxI8Simd = 0.015f;

/// Fraction of nonzero elements in [0, 1] (0 for n <= 0). Deterministic
/// chunked parallel count (exact — counting is order-independent).
float Density(const float* x, long n);
float Density(const std::int32_t* x, long n);
float Density(const std::int8_t* x, long n);

/// Packs per-sample spike-word rows (spike_words.hpp layout: sample i's
/// words at words + i * SpikeWordCount(sample_len)) for all n_samples
/// samples, parallel over sample chunks, and returns the total nonzero
/// count — exactly the count the scalar Density probe would produce, so
/// auto decisions are unchanged by the representation. The dispatchers
/// build this once per input (slot slots::kWords) and share it between the
/// density probe and the sparse gather.
long ParallelPackSpikeWords(const float* x, long n_samples, long sample_len,
                            std::uint64_t* words);
long ParallelPackSpikeWords(const std::int32_t* x, long n_samples,
                            long sample_len, std::uint64_t* words);
long ParallelPackSpikeWords(const std::int8_t* x, long n_samples,
                            long sample_len, std::uint64_t* words);

/// Pre-packed spike words handed to a dispatcher by a caller that already
/// owns the bit-packed representation (the event-driven temporal path:
/// SpikeStream step planes and the per-layer spike lanes). `words` holds
/// n_samples rows of SpikeWordCount(sample_len) words in the spike_words
/// layout; `nonzero` is their total popcount. When supplied, the
/// dispatchers skip their own AcquireU64 + ParallelPackSpikeWords pass and
/// feed these words to both the density decision and the sparse gather —
/// same counts, same scan order, so dispatch decisions and results are
/// unchanged; only the re-derivation cost disappears. For the int8
/// families the caller's words come from the *float* activations; on the
/// binary (spike) inputs the event path carries, the float and code
/// nonzero masks coincide, and any extra zero-code gather entries would be
/// exact int32 no-ops anyway.
struct PackedWords {
  const std::uint64_t* words = nullptr;
  long nonzero = 0;
};

/// Applies precedence rule 1: a non-auto global mode wins over `requested`.
KernelMode ResolveKernelMode(KernelMode requested);

/// Applies precedence rules 3-4: maps kAuto to kSparse at or below
/// `sparse_max`, to `dense_fallback` above it. Non-auto modes pass through
/// unchanged.
KernelMode ChooseByDensity(KernelMode mode, float density, float sparse_max,
                           KernelMode dense_fallback);

/// The weight-kernel families: layer type x weight precision for the
/// forward, plus the two halves of the fp32 conv Backward (kConvDwF32: the
/// weight and bias gradients; kConvDxF32: the input gradient).
enum class KernelFamily {
  kConvF32,
  kDenseF32,
  kConvI8,
  kDenseI8,
  kConvDwF32,
  kConvDxF32,
};

/// Whether `family` has a sparse kernel. The Backward families do not: the
/// gradient reaching a conv output is dense (the surrogate is never zero).
bool HasSparseKernel(KernelFamily family);

/// Rules 3-4 and the simd degrade of one call, as a pure function: `mode`
/// is the call's mode after rule 1, `density` the input's nonzero fraction
/// (read for kAuto only), `tier` the active SIMD tier. Each family's sparse
/// threshold comes from one table (dispatch.cpp, DESIGN.md "Dispatch
/// heuristics"); the int8 rows depend on the tier. The dense fallback is
/// simd with a tier, naive without; a family without a sparse kernel takes
/// it for kAuto and for a forced kSparse alike. Throws
/// std::invalid_argument for the retired kGemm.
KernelMode DecideKernelMode(KernelFamily family, KernelMode mode,
                            float density, SimdTier tier);

/// What one kernel call runs: the mode, the SIMD tier it was decided for,
/// and the input's spike words whenever the decision built or received
/// them (always for kSparse; spike_words layout, one row per sample).
struct KernelPlan {
  KernelMode mode = KernelMode::kNaive;
  SimdTier tier = SimdTier::kScalar;
  const std::uint64_t* words = nullptr;
};

/// The whole decision for one weight-kernel call over `n_samples` rows of
/// `sample_len` elements at `x` (float activations, or the int8 backend's
/// int32/int8 codes): rule 1 (ResolveKernelMode); for kAuto and kSparse
/// on a family with a sparse kernel, the spike words, taken from `packed`
/// or packed into `scratch` (slot slots::kWords); then DecideKernelMode
/// with their density and ActiveSimdTier(). The Backward families probe
/// nothing and never read `x`.
template <typename T>
KernelPlan PlanKernel(KernelFamily family, KernelMode requested, const T* x,
                      long n_samples, long sample_len,
                      runtime::Workspace& scratch, const PackedWords* packed);

/// Workspace slot map shared by the kernel implementations. Each
/// WeightLayer owns one scratch Workspace (runtime::LocalScratch), so slot
/// indices only need to be unique within one layer's kernel calls.
namespace slots {
// float slots (Workspace::Acquire)
inline constexpr std::size_t kPack = 0;        ///< im2col / transposed packs
inline constexpr std::size_t kSparseVals = 1;  ///< gathered nonzero values
inline constexpr std::size_t kDwPack = 2;  ///< conv dW: per-task tiles
inline constexpr std::size_t kDxPack = 3;  ///< conv dX: padded grad planes
// int32 slots (Workspace::AcquireI32)
inline constexpr std::size_t kOffsets = 0;  ///< per-plane nonzero offsets
inline constexpr std::size_t kRows = 1;     ///< nonzero row coords / indices
inline constexpr std::size_t kCols = 2;     ///< nonzero col coords
inline constexpr std::size_t kQAct = 3;     ///< conv activation codes
inline constexpr std::size_t kAcc = 4;      ///< int8 accumulator planes
inline constexpr std::size_t kQVals = 5;    ///< gathered nonzero codes
// int8 slots (Workspace::AcquireI8)
inline constexpr std::size_t kQActI8 = 0;  ///< dense activation codes
inline constexpr std::size_t kPanel = 1;   ///< SIMD conv int8 panels
inline constexpr std::size_t kWpad = 2;    ///< kk4-padded int8 weight rows
// uint64 slots (Workspace::AcquireU64)
inline constexpr std::size_t kWords = 0;  ///< bit-packed spike words
}  // namespace slots

}  // namespace axsnn::kernels
