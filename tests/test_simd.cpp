// SIMD-tier subsystem tests: CPUID tier plumbing (kernels/cpu_features.*),
// bit-packed spike words (kernels/spike_words.*), and the runtime arena
// guarantees the microkernels rely on — 64-byte alignment of every
// Workspace arena and allocation-free steady state (the panels, padded
// weights and spike words all live in never-shrink slots), from one
// kernel call up to a whole Network::ForwardShared, Network::Backward and
// binned EventRunner::Run.
//
// The kernel-level differential sweeps live in test_kernels.cpp; this file
// covers the supporting machinery.
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "approx/int8_backend.hpp"
#include "data/dvs_gesture.hpp"
#include "data/event.hpp"
#include "kernels/cpu_features.hpp"
#include "kernels/dispatch.hpp"
#include "kernels/spike_stream.hpp"
#include "kernels/spike_words.hpp"
#include "runtime/aligned.hpp"
#include "runtime/thread_pool.hpp"
#include "runtime/workspace.hpp"
#include "snn/event_runner.hpp"
#include "snn/layer.hpp"
#include "snn/models.hpp"
#include "snn/weight_layer.hpp"
#include "tensor/quantized.hpp"
#include "tensor/random.hpp"
#include "tensor/tensor.hpp"

// --- allocation counting (this translation unit only) ------------------------
// Both the plain and the aligned overloads are replaced: the arenas allocate
// through AlignedAllocator's ::operator new(size, align_val_t), which the
// plain hook would miss.

namespace {
std::atomic<long> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void* operator new(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(align),
                                   (size + static_cast<std::size_t>(align) - 1) &
                                       ~(static_cast<std::size_t>(align) - 1)))
    return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace axsnn {
namespace {

using kernels::SimdTier;

bool Aligned64(const void* p) {
  return reinterpret_cast<std::uintptr_t>(p) % runtime::kArenaAlignment == 0;
}

// --- cpu features / tier plumbing --------------------------------------------

TEST(CpuFeaturesTest, ParseSimdCap) {
  EXPECT_EQ(kernels::ParseSimdCap("off"), SimdTier::kScalar);
  EXPECT_EQ(kernels::ParseSimdCap("scalar"), SimdTier::kScalar);
  EXPECT_EQ(kernels::ParseSimdCap("0"), SimdTier::kScalar);
  EXPECT_EQ(kernels::ParseSimdCap("avx2"), SimdTier::kAvx2);
  // No-cap values, including typos (a typo must never pin below detection).
  EXPECT_EQ(kernels::ParseSimdCap("vnni"), SimdTier::kVnni);
  EXPECT_EQ(kernels::ParseSimdCap("avx2-vnni"), SimdTier::kVnni);
  EXPECT_EQ(kernels::ParseSimdCap("auto"), SimdTier::kVnni);
  EXPECT_EQ(kernels::ParseSimdCap(""), SimdTier::kVnni);
  EXPECT_EQ(kernels::ParseSimdCap("avx512"), SimdTier::kVnni);
}

TEST(CpuFeaturesTest, TierNames) {
  EXPECT_STREQ(kernels::SimdTierName(SimdTier::kScalar), "scalar");
  EXPECT_STREQ(kernels::SimdTierName(SimdTier::kAvx2), "avx2");
  EXPECT_STREQ(kernels::SimdTierName(SimdTier::kVnni), "avx2-vnni");
}

TEST(CpuFeaturesTest, ScopedCapBoundsActiveTier) {
  {
    kernels::ScopedSimdTier scalar(SimdTier::kScalar);
    EXPECT_EQ(kernels::ActiveSimdTier(), SimdTier::kScalar);
  }
  {
    kernels::ScopedSimdTier avx2(SimdTier::kAvx2);
    EXPECT_LE(static_cast<int>(kernels::ActiveSimdTier()),
              static_cast<int>(SimdTier::kAvx2));
  }
  // With no cap, the active tier is exactly what the double gate
  // (compiled kernels + CPUID/XGETBV) supports.
  kernels::ScopedSimdTier full(SimdTier::kVnni);
  const kernels::CpuFeatures& f = kernels::DetectCpuFeatures();
  const bool avx2_ok =
      kernels::SimdKernelsCompiled() && f.avx2 && f.fma;
  EXPECT_EQ(kernels::ActiveSimdTier() != SimdTier::kScalar, avx2_ok);
  if (avx2_ok)
    EXPECT_EQ(kernels::ActiveSimdTier() == SimdTier::kVnni,
              f.avx_vnni && kernels::SimdVnniCompiled());
}

// --- spike words -------------------------------------------------------------

TEST(SpikeWordsTest, PackMatchesScalarScan) {
  // Lengths straddling the word boundaries, including the empty tail word
  // padding and multi-word rows.
  for (long n : {1L, 7L, 63L, 64L, 65L, 128L, 130L, 257L}) {
    Rng rng(100 + static_cast<unsigned>(n));
    std::vector<float> x(static_cast<std::size_t>(n));
    for (long i = 0; i < n; ++i)
      x[static_cast<std::size_t>(i)] =
          (i % 3 == 0) ? 0.0f : static_cast<float>(i);
    x[0] = -0.0f;  // negative zero must pack as zero (== comparison)

    std::vector<std::uint64_t> words(
        static_cast<std::size_t>(kernels::SpikeWordCount(n)), ~0ull);
    const long count = kernels::PackSpikeWords(x.data(), n, words.data());

    long expect = 0;
    for (long i = 0; i < n; ++i)
      if (x[static_cast<std::size_t>(i)] != 0.0f) ++expect;
    EXPECT_EQ(count, expect) << "n=" << n;
    EXPECT_EQ(kernels::CountSpikeWords(words.data(),
                                       kernels::SpikeWordCount(n)),
              expect);

    // ForEachSetBit visits exactly the nonzero indices, ascending.
    std::vector<long> visited;
    kernels::ForEachSetBit(words.data(), kernels::SpikeWordCount(n),
                           [&](long i) { visited.push_back(i); });
    ASSERT_EQ(static_cast<long>(visited.size()), expect);
    long prev = -1;
    for (long i : visited) {
      EXPECT_GT(i, prev);
      EXPECT_LT(i, n);
      EXPECT_NE(x[static_cast<std::size_t>(i)], 0.0f);
      prev = i;
    }
  }
}

TEST(SpikeWordsTest, IntegerOverloadsAgree) {
  const std::int32_t x32[] = {0, -5, 0, 0, 7, 1, 0, 64, 0};
  const std::int8_t x8[] = {0, -5, 0, 0, 7, 1, 0, 64, 0};
  std::uint64_t w32[1], w8[1];
  EXPECT_EQ(kernels::PackSpikeWords(x32, 9, w32), 4);
  EXPECT_EQ(kernels::PackSpikeWords(x8, 9, w8), 4);
  EXPECT_EQ(w32[0], w8[0]);
  EXPECT_EQ(w32[0], (1ull << 1) | (1ull << 4) | (1ull << 5) | (1ull << 7));
}

TEST(SpikeWordsTest, ParallelPackMatchesAndPadsPerSample) {
  // 3 samples x 70 elements: each sample's row is word-padded, so sample
  // boundaries never share a word.
  const long n = 3, len = 70;
  const long wps = kernels::SpikeWordCount(len);
  ASSERT_EQ(wps, 2);
  std::vector<std::int8_t> x(static_cast<std::size_t>(n * len), 0);
  x[0] = 1;                                        // sample 0, bit 0
  x[static_cast<std::size_t>(len + 69)] = 3;       // sample 1, word 1 bit 5
  x[static_cast<std::size_t>(2 * len + 64)] = -2;  // sample 2, word 1 bit 0
  std::vector<std::uint64_t> words(static_cast<std::size_t>(n * wps));
  EXPECT_EQ(kernels::ParallelPackSpikeWords(x.data(), n, len, words.data()),
            3);
  EXPECT_EQ(words[0], 1ull);
  EXPECT_EQ(words[1], 0ull);
  EXPECT_EQ(words[2], 0ull);
  EXPECT_EQ(words[3], 1ull << 5);
  EXPECT_EQ(words[4], 0ull);
  EXPECT_EQ(words[5], 1ull);
}

// --- arena alignment ---------------------------------------------------------

TEST(WorkspaceAlignment, AllArenasAre64ByteAligned) {
  runtime::Workspace ws;
  // Deliberately awkward sizes: alignment must come from the allocator, not
  // from size rounding.
  EXPECT_TRUE(Aligned64(ws.Acquire(0, 37).data()));
  EXPECT_TRUE(Aligned64(ws.Acquire(1, 1).data()));
  EXPECT_TRUE(Aligned64(ws.AcquireI32(0, 13).data()));
  EXPECT_TRUE(Aligned64(ws.AcquireI8(0, 3).data()));
  EXPECT_TRUE(Aligned64(ws.AcquireU64(0, 5).data()));
  // Regrowth keeps the alignment.
  EXPECT_TRUE(Aligned64(ws.Acquire(0, 4096 + 7).data()));
  EXPECT_TRUE(Aligned64(ws.AcquireI8(0, 4096 + 3).data()));
  EXPECT_TRUE(Aligned64(ws.AcquireU64(0, 1024 + 1).data()));
}

TEST(WorkspaceAlignment, TensorStorageIs64ByteAligned) {
  Tensor t({3, 5, 7});
  EXPECT_TRUE(Aligned64(t.data()));
  Tensor moved(std::move(t));
  EXPECT_TRUE(Aligned64(moved.data()));
}

// --- steady-state allocation freedom -----------------------------------------

/// Heap allocations made by one call of `fn`.
template <typename Fn>
long AllocationsOf(Fn&& fn) {
  const long before = g_allocations.load(std::memory_order_relaxed);
  fn();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

/// Runs one int8 conv forward through the full dispatcher (quantize +
/// kernels) and returns the number of heap allocations it performed.
long AllocationsForConvForward(const QuantizedTensor& qw, const Tensor& bias,
                               const Tensor& x, Tensor& out,
                               kernels::KernelMode mode,
                               runtime::Workspace& scratch) {
  kernels::ScopedKernelMode force(mode);
  return AllocationsOf([&] {
    approx::Int8Conv2dForward(qw, bias, x, out,
                              kernels::Conv2dGeom{2, 3, 3, 1}, mode, scratch);
  });
}

TEST(WorkspaceSteadyState, RepeatForwardsAllocateNothing) {
  runtime::SetGlobalThreads(2);
  Rng rng(7);
  Tensor w = Tensor::Normal({3, 2, 3, 3}, 0.0f, 0.5f, rng);
  QuantizedTensor qw = QuantizedTensor::QuantizeRowwise(w);
  Tensor bias = Tensor::Normal({3}, 0.0f, 0.1f, rng);
  Tensor x = Tensor::Uniform({4, 2, 9, 9}, 0.0f, 1.0f, rng);
  Tensor out({4, 3, 9, 9});
  runtime::Workspace scratch;

  for (kernels::KernelMode mode :
       {kernels::KernelMode::kAuto, kernels::KernelMode::kNaive,
        kernels::KernelMode::kSparse, kernels::KernelMode::kSimd}) {
    // First call may grow arenas (and spin up the pool); from the second
    // call on, the same shapes must be allocation-free.
    AllocationsForConvForward(qw, bias, x, out, mode, scratch);
    EXPECT_EQ(AllocationsForConvForward(qw, bias, x, out, mode, scratch), 0)
        << "mode " << kernels::KernelModeName(mode);
  }
  runtime::SetGlobalThreads(0);
}

TEST(WorkspaceSteadyState, NetworkForwardSharedAllocatesNothing) {
  Rng rng(123);
  const Tensor x = Tensor::Uniform({8, 16, 1, 16, 16}, 0.0f, 1.0f, rng);
  for (bool int8 : {false, true}) {
    for (int pool : {1, 4}) {
      SCOPED_TRACE(std::string(int8 ? "int8" : "fp32") +
                   " pool=" + std::to_string(pool));
      runtime::SetGlobalThreads(pool);
      snn::Network net = snn::BuildStaticNet({});
      if (int8) {
        for (std::size_t i = 0; i < net.size(); ++i)
          if (auto* w = dynamic_cast<snn::WeightLayer*>(&net.layer(i)))
            w->EnableInt8Kernel();
      }
      net.ForwardShared(x, false);  // warm-up sizes every slot and arena
      EXPECT_EQ(AllocationsOf([&] { net.ForwardShared(x, false); }), 0);
    }
  }
  runtime::SetGlobalThreads(0);
}

TEST(WorkspaceSteadyState, NetworkBackwardAllocatesNothing) {
  // Both nets, every request, after one warm-up Backward: the gradients
  // ping-pong through the forward's workspace slots, and the conv Backward
  // kernels keep their tiles in the layers' scratch.
  snn::DvsNetOptions dvs;
  dvs.height = 16;
  dvs.width = 16;
  Rng rng(321);
  const Tensor static_x = Tensor::Uniform({4, 8, 1, 16, 16}, 0.0f, 1.0f, rng);
  const Tensor dvs_x = Tensor::Uniform({4, 8, 2, 16, 16}, 0.0f, 1.0f, rng);
  for (int pool : {1, 4}) {
    runtime::SetGlobalThreads(pool);
    for (bool is_dvs : {false, true}) {
      snn::Network net =
          is_dvs ? snn::BuildDvsNet(dvs) : snn::BuildStaticNet({});
      const Tensor& x = is_dvs ? dvs_x : static_x;
      const Tensor& seq = net.ForwardShared(x, /*train=*/true);
      const Tensor g = Tensor::Uniform(seq.shape(), -1.0f, 1.0f, rng);
      for (snn::GradRequest request :
           {snn::GradRequest::kInput, snn::GradRequest::kParams,
            snn::GradRequest::kBoth}) {
        SCOPED_TRACE(std::string(is_dvs ? "dvs" : "static") + " pool=" +
                     std::to_string(pool) + " request=" +
                     std::to_string(static_cast<int>(request)));
        net.Backward(g, request);  // warm-up
        EXPECT_EQ(AllocationsOf([&] { net.Backward(g, request); }), 0);
      }
    }
  }
  runtime::SetGlobalThreads(0);
}

TEST(WorkspaceSteadyState, EventRunnerRunAllocatesNothing) {
  data::DvsGestureOptions dopts;
  dopts.count = 8;
  dopts.width = 16;
  dopts.height = 16;
  const data::EventDataset ds = data::MakeSyntheticDvsGesture(dopts);
  kernels::SpikeStream stream;

  for (int pool : {1, 4}) {
    SCOPED_TRACE("pool=" + std::to_string(pool));
    runtime::SetGlobalThreads(pool);
    snn::DvsNetOptions nopts;
    nopts.height = 16;
    nopts.width = 16;
    snn::Network net = snn::BuildDvsNet(nopts);
    snn::EventRunner runner(net);
    // Warm-up sizes the stream, every slot, lane and fill cache; binning
    // the batch is part of the measured steady state.
    data::BinRangePacked(ds, 0, ds.size(), /*bins=*/64, stream);
    runner.Run(stream);
    EXPECT_EQ(AllocationsOf([&] {
                data::BinRangePacked(ds, 0, ds.size(), /*bins=*/64, stream);
                runner.Run(stream);
              }),
              0);
  }
  runtime::SetGlobalThreads(0);
}

}  // namespace
}  // namespace axsnn
