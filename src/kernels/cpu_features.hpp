// Runtime CPU feature detection + SIMD tier selection for the kernel
// subsystem.
//
// The SIMD kernel tier (kernels/simd_kernels.*) ships hand-vectorized
// microkernels — AVX2 maddubs / AVX-VNNI vpdpbusd int8 dot products and
// 8-wide FMA fp32 tiles — that only exist when both the *compiler* emitted
// them (the TU is built with -mavx2 -mfma, guarded in CMakeLists) and the
// *CPU* executes them (CPUID + XGETBV at runtime). This module owns that
// double gate and exposes the result as a SimdTier, the last stage of the
// kernel-dispatch precedence chain (kernels/dispatch.hpp):
//
//   env/global mode > layer/config mode > density probe > ISA probe
//
// Tier semantics:
//   kScalar — no SIMD path; KernelMode::kSimd degrades to the naive
//             reference loops (bit-identical, so forcing "simd" on any
//             machine is always safe).
//   kAvx2   — 256-bit int8 dot products via maddubs+madd, 8-wide fp32 tiles.
//   kVnni   — same layouts, int8 inner loop uses vpdpbusd (AVX-VNNI).
//
// The AXSNN_SIMD environment variable caps the tier below what the hardware
// supports: "off"/"scalar"/"0" force kScalar (the CI scalar-fallback leg),
// "avx2" masks VNNI, anything else / unset means full auto-detection.
// ScopedSimdTier overrides the cap in-process for tests and benchmarks.
#pragma once

#include <string_view>

namespace axsnn::kernels {

/// SIMD instruction tiers in ascending capability order.
enum class SimdTier { kScalar = 0, kAvx2 = 1, kVnni = 2 };

/// "scalar" / "avx2" / "avx2-vnni".
const char* SimdTierName(SimdTier tier);

/// Raw CPU capability bits (x86 CPUID leaves 1 and 7, with the XGETBV
/// OS-support check for the ymm state; all false on non-x86 builds).
struct CpuFeatures {
  bool avx2 = false;
  bool fma = false;
  bool avx_vnni = false;     // leaf 7.1 eax[4] (VEX-encoded vpdpbusd)
  bool avx512_vnni = false;  // leaf 7.0 ecx[11] (reported, not yet targeted)
};

/// Detected capabilities of the executing CPU (cached after the first call).
const CpuFeatures& DetectCpuFeatures();

/// True when kernels/simd_kernels.cpp was compiled with AVX2+FMA codegen
/// (false when the compiler rejected the flags — e.g. a non-x86 target).
bool SimdKernelsCompiled();
/// True when the vpdpbusd microkernels were compiled (AVX-VNNI support).
bool SimdVnniCompiled();

/// The tier the process actually dispatches to:
///   min(compiled tier, CPUID tier, AXSNN_SIMD cap, scoped override).
SimdTier ActiveSimdTier();

/// Overrides the AXSNN_SIMD cap at runtime (tests, benchmarks). Pass the
/// cap to apply; the hardware/compiler gates still bound the result. Not
/// thread-safe against concurrent kernel calls.
void SetSimdTierCap(SimdTier cap);

/// The current cap (from AXSNN_SIMD at startup, or the last SetSimdTierCap).
SimdTier SimdTierCap();

/// Parses an AXSNN_SIMD-style value: "off"/"scalar"/"0" -> kScalar,
/// "avx2" -> kAvx2, "vnni"/"avx2-vnni"/"on"/"auto" -> kVnni (i.e. no cap).
/// Unrecognized values mean "no cap" so a typo never silently disables
/// detection below the full tier.
SimdTier ParseSimdCap(std::string_view value);

/// Scoped tier cap: forces at most `cap` for the scope's duration and
/// restores the prior cap on exit. The differential equivalence tests pin
/// the scalar-fallback path with ScopedSimdTier(SimdTier::kScalar).
class ScopedSimdTier {
 public:
  explicit ScopedSimdTier(SimdTier cap) : saved_(SimdTierCap()) {
    SetSimdTierCap(cap);
  }
  ~ScopedSimdTier() { SetSimdTierCap(saved_); }
  ScopedSimdTier(const ScopedSimdTier&) = delete;
  ScopedSimdTier& operator=(const ScopedSimdTier&) = delete;

 private:
  SimdTier saved_;
};

}  // namespace axsnn::kernels
