// Tests for the batched serving front end (src/serve/):
//  * determinism rail: a batch-of-N served result is bit-identical to N
//    sequential single-sample forwards at every kernel mode and pool size;
//  * model hot-swap under sustained load drops and corrupts nothing — every
//    response matches the reference of the epoch that served it;
//  * steady-state serving performs zero heap allocations (per-TU
//    operator-new hooks, same technique as tests/test_simd.cpp);
//  * the adaptive micro-batcher actually coalesces bursts;
//  * a malformed request fails cleanly without poisoning its neighbors, and
//    a swap to a shape-incompatible model fails requests, not the server;
//  * destroying the server completes every request still queued.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <new>
#include <stdexcept>
#include <thread>
#include <vector>

#include "kernels/dispatch.hpp"
#include "runtime/thread_pool.hpp"
#include "serve/server.hpp"
#include "snn/loss.hpp"
#include "snn/models.hpp"
#include "tensor/random.hpp"

// --- allocation counting (this translation unit / binary only) ---------------

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
  const std::size_t al = static_cast<std::size_t>(align);
  if (void* p = std::aligned_alloc(al, (size + al - 1) & ~(al - 1))) return p;
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

constexpr long kTimeSteps = 6;

snn::Network MakeServeNet(std::uint64_t seed = 7) {
  snn::StaticNetOptions opts;
  opts.height = 16;
  opts.width = 16;
  opts.conv1_channels = 4;
  opts.conv2_channels = 8;
  opts.conv3_channels = 8;
  opts.hidden = 32;
  opts.seed = seed;
  return snn::BuildStaticNet(opts);
}

/// Fills `req.frames` with the deterministic encoding of a synthetic image.
void FillRequest(serve::InferRequest& req, std::uint64_t image_seed) {
  Rng rng(image_seed);
  Tensor image = Tensor::Uniform({1, 16, 16}, 0.0f, 1.0f, rng);
  serve::EncodeStaticRequest(req, image, kTimeSteps, snn::Encoding::kRate,
                             /*seed=*/image_seed * 31 + 1);
}

/// Reference: serve the request alone (batch of one) on `net`.
Tensor SequentialLogits(snn::Network& net, const Tensor& frames) {
  Shape batched = frames.shape();
  batched.insert(batched.begin() + 1, 1);  // [T, ...] -> [T, 1, ...]
  const Tensor& seq = net.ForwardShared(frames.Reshaped(batched), false);
  Tensor logits = snn::ReadoutMean(seq);  // [1, K]
  return logits.Reshaped({logits.dim(1)});
}

bool BitIdentical(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0;
}

// --- determinism rail --------------------------------------------------------

TEST(Serve, BatchedMatchesSequentialBitwiseAcrossKernelModesAndPools) {
  constexpr int kRequests = 16;
  const struct {
    kernels::KernelMode mode;
    const char* name;
  } kModes[] = {
      {kernels::KernelMode::kAuto, "auto"},
      {kernels::KernelMode::kNaive, "naive"},
      {kernels::KernelMode::kSparse, "sparse"},
      {kernels::KernelMode::kSimd, "simd"},
  };

  snn::Network model = MakeServeNet();
  for (const auto& m : kModes) {
    for (int pool_size : {1, 4}) {
      kernels::ScopedKernelMode scoped(m.mode);
      runtime::SetGlobalThreads(pool_size);

      // References first: N single-sample forwards on a private clone.
      snn::Network reference = model.Clone();
      std::vector<serve::InferRequest> requests(kRequests);
      std::vector<Tensor> expected;
      for (int i = 0; i < kRequests; ++i) {
        FillRequest(requests[i], 100 + static_cast<std::uint64_t>(i));
        expected.push_back(SequentialLogits(reference, requests[i].frames));
      }

      // Caps from no coalescing at all up to the whole burst in one batch.
      for (long max_batch : {1L, 8L, 16L}) {
        SCOPED_TRACE(std::string("mode=") + m.name +
                     " pool=" + std::to_string(pool_size) +
                     " max_batch=" + std::to_string(max_batch));
        serve::ServerOptions opts;
        opts.workers = 2;
        opts.max_batch = max_batch;
        opts.max_delay = std::chrono::microseconds(2000);
        serve::InferenceServer server(model, opts);
        for (auto& req : requests) server.Submit(req);
        for (auto& req : requests) req.Wait();
        server.Drain();  // synchronize with the batch-level stats update

        for (int i = 0; i < kRequests; ++i) {
          ASSERT_TRUE(requests[i].ok()) << "request " << i << " failed";
          EXPECT_TRUE(BitIdentical(requests[i].logits, expected[i]))
              << "request " << i << " diverged from its sequential forward";
        }
        const auto stats = server.stats();
        EXPECT_EQ(stats.completed, static_cast<std::uint64_t>(kRequests));
        EXPECT_EQ(stats.failed, 0u);
      }
    }
  }
  runtime::SetGlobalThreads(0);  // restore default for later tests
}

// --- hot swap under load -----------------------------------------------------

TEST(Serve, HotSwapUnderLoadDropsAndCorruptsNothing) {
  snn::Network model_a = MakeServeNet(/*seed=*/7);
  snn::Network model_b = MakeServeNet(/*seed=*/99);

  // Per-request reference logits under both models. Epoch 1 and every later
  // odd epoch serve model A; even epochs serve model B (swaps alternate).
  constexpr int kProducers = 2;
  constexpr int kSlots = 4;       // reusable requests per producer
  constexpr int kRounds = 12;     // submissions per slot
  snn::Network ref_a = model_a.Clone();
  snn::Network ref_b = model_b.Clone();
  Tensor expected_a[kProducers][kSlots];
  Tensor expected_b[kProducers][kSlots];
  serve::InferRequest requests[kProducers][kSlots];
  for (int p = 0; p < kProducers; ++p) {
    for (int s = 0; s < kSlots; ++s) {
      FillRequest(requests[p][s], static_cast<std::uint64_t>(p * 100 + s));
      expected_a[p][s] = SequentialLogits(ref_a, requests[p][s].frames);
      expected_b[p][s] = SequentialLogits(ref_b, requests[p][s].frames);
    }
  }

  serve::ServerOptions opts;
  opts.workers = 2;
  opts.max_batch = 4;
  opts.max_delay = std::chrono::microseconds(100);
  serve::InferenceServer server(model_a, opts);

  std::atomic<long> mismatches{0};
  std::atomic<long> served{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int round = 0; round < kRounds; ++round) {
        for (int s = 0; s < kSlots; ++s) server.Submit(requests[p][s]);
        for (int s = 0; s < kSlots; ++s) {
          auto& req = requests[p][s];
          req.Wait();
          if (!req.ok()) {
            mismatches.fetch_add(1);
            continue;
          }
          // Responses must match the model of the epoch that served them.
          const Tensor& want = (req.model_epoch() % 2 == 1)
                                   ? expected_a[p][s]
                                   : expected_b[p][s];
          if (!BitIdentical(req.logits, want)) mismatches.fetch_add(1);
          served.fetch_add(1);
        }
      }
    });
  }

  // ~10 swaps while the producers hammer the queue.
  for (int i = 0; i < 10; ++i) {
    server.SwapModel((i % 2 == 0) ? model_b : model_a);
    std::this_thread::sleep_for(std::chrono::milliseconds(3));
  }
  for (auto& t : producers) t.join();
  server.Drain();

  const auto stats = server.stats();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(served.load(), static_cast<long>(kProducers * kSlots * kRounds));
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.completed, stats.submitted);
  EXPECT_EQ(stats.model_swaps, 10u);
  EXPECT_EQ(server.model_epoch(), 11u);
}

// --- zero-allocation steady state --------------------------------------------

TEST(Serve, SteadyStateServesWithoutHeapAllocation) {
  runtime::SetGlobalThreads(2);
  snn::Network model = MakeServeNet();
  serve::ServerOptions opts;
  opts.workers = 1;
  opts.max_batch = 4;
  opts.max_delay = std::chrono::microseconds(0);  // greedy: no coalescing wait
  serve::InferenceServer server(model, opts);

  serve::InferRequest req;
  FillRequest(req, 5);  // the server never mutates frames; reuse them as-is

  // Warm-up: first passes size every workspace arena and the logits buffer.
  for (int i = 0; i < 5; ++i) {
    server.Submit(req);
    req.Wait();
    ASSERT_TRUE(req.ok());
  }

  const long before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 10; ++i) {
    server.Submit(req);
    req.Wait();
    ASSERT_TRUE(req.ok());
  }
  const long after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0)
      << "steady-state serving must not touch the heap";
  runtime::SetGlobalThreads(0);
}

// --- adaptive micro-batching -------------------------------------------------

TEST(Serve, BurstsAreCoalescedIntoMicroBatches) {
  snn::Network model = MakeServeNet();
  serve::ServerOptions opts;
  opts.workers = 1;
  opts.max_batch = 8;
  // Long enough that the whole burst lands inside one collection window.
  opts.max_delay = std::chrono::milliseconds(1000);
  serve::InferenceServer server(model, opts);

  constexpr int kBurst = 8;
  std::vector<serve::InferRequest> requests(kBurst);
  for (int i = 0; i < kBurst; ++i) {
    FillRequest(requests[i], static_cast<std::uint64_t>(i));
    ASSERT_TRUE(server.TrySubmit(requests[i]));
  }
  for (auto& req : requests) req.Wait();
  server.Drain();

  const auto stats = server.stats();
  EXPECT_EQ(stats.completed, static_cast<std::uint64_t>(kBurst));
  EXPECT_LT(stats.batches, static_cast<std::uint64_t>(kBurst))
      << "burst was served one request at a time";
  EXPECT_GT(stats.mean_batch(), 1.5);
}

// --- failure isolation -------------------------------------------------------

TEST(Serve, MalformedRequestFailsWithoutPoisoningNeighbors) {
  snn::Network model = MakeServeNet();
  serve::ServerOptions opts;
  opts.workers = 1;
  opts.max_batch = 4;
  opts.max_delay = std::chrono::microseconds(500);
  serve::InferenceServer server(model, opts);

  serve::InferRequest good_before, bad, good_after;
  FillRequest(good_before, 1);
  FillRequest(good_after, 2);
  // `bad` keeps its default empty frames tensor: rank 0, zero elements.

  server.Submit(good_before);
  server.Submit(bad);
  server.Submit(good_after);
  good_before.Wait();
  bad.Wait();
  good_after.Wait();
  server.Drain();

  EXPECT_TRUE(good_before.ok());
  EXPECT_TRUE(good_after.ok());
  EXPECT_TRUE(bad.done());
  EXPECT_FALSE(bad.ok());
  EXPECT_THROW(bad.RethrowIfFailed(), std::invalid_argument);

  const auto stats = server.stats();
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.failed, 1u);
}

TEST(Serve, SwapToShapeIncompatibleModelFailsRequestsNotTheServer) {
  snn::Network model = MakeServeNet();
  snn::StaticNetOptions small_opts;
  small_opts.height = 8;
  small_opts.width = 8;
  const snn::Network small = snn::BuildStaticNet(small_opts);

  serve::ServerOptions opts;
  opts.workers = 1;
  opts.max_batch = 4;
  opts.max_delay = std::chrono::microseconds(0);
  serve::InferenceServer server(model, opts);

  serve::InferRequest req;
  FillRequest(req, 3);  // 16x16 frames, which the 8x8 model cannot take
  snn::Network reference = model.Clone();
  const Tensor expected = SequentialLogits(reference, req.frames);

  server.SwapModel(small);
  server.Submit(req);
  req.Wait();
  EXPECT_FALSE(req.ok());
  EXPECT_EQ(req.model_epoch(), 2u);
  EXPECT_THROW(req.RethrowIfFailed(), std::invalid_argument);

  server.SwapModel(model);
  server.Submit(req);
  req.Wait();
  ASSERT_TRUE(req.ok());
  EXPECT_EQ(req.model_epoch(), 3u);
  EXPECT_TRUE(BitIdentical(req.logits, expected));

  server.Drain();
  const auto stats = server.stats();
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.failed, 1u);
}

TEST(Serve, DestructionCompletesEveryQueuedRequest) {
  constexpr int kRequests = 32;
  snn::Network model = MakeServeNet();
  // Declared before the server: the requests must outlive its drain.
  std::vector<serve::InferRequest> requests(kRequests);
  for (int i = 0; i < kRequests; ++i)
    FillRequest(requests[i], static_cast<std::uint64_t>(i));
  {
    serve::ServerOptions opts;
    opts.workers = 1;
    opts.max_batch = 2;
    serve::InferenceServer server(model, opts);
    for (auto& req : requests) server.Submit(req);
  }  // destroyed with most of the burst still queued
  for (int i = 0; i < kRequests; ++i) {
    EXPECT_TRUE(requests[i].done()) << "request " << i << " was dropped";
    EXPECT_TRUE(requests[i].ok()) << "request " << i << " failed";
  }
}

}  // namespace
}  // namespace axsnn
