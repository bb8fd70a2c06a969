// Micro-benchmark for the runtime subsystem:
//  1. ParallelFor scaling — one conv-forward-heavy workload timed at pool
//     sizes 1, 2, 4 and hardware_concurrency;
//  2. allocation behaviour — heap allocations per forward pass for the
//     allocating Network::Forward vs the workspace-backed ForwardShared
//     (steady state), counted with an operator-new hook local to this
//     binary;
//  3. kernel backends — fp32 vs int8 (per-output-channel scales, int32
//     accumulation) forward throughput of the Conv2d and Dense kernels;
//  4. kernel dispatch — naive vs sparse vs simd vs auto throughput at a
//     representative spike density (10% nonzeros), fp32 and int8, for the
//     sparsity-aware dispatch engine (src/kernels/). Also asserts the
//     dispatch contract that auto is never slower than naive in any kernel
//     family (within a 10% timing-noise margin) — the regression this
//     harness exists to catch; a violation fails the process;
//  4b. SIMD tier sweep — the same forced-simd workloads at every ISA tier
//      the machine supports (capped via ScopedSimdTier), recorded per tier
//      so BENCH_runtime.json baselines are comparable across runners;
//  5. scenario grids — wall-clock of a miniature fig2-style ScenarioGrid
//     on the engine (its store trains each structural cell once) vs a
//     hand-rolled loop that retrains per work unit (the model store is what
//     makes grids sharing structural cells cheap);
//  5b. distributed scenario execution — the same miniature grid cold
//      (empty artifact store), warm (fresh process image, artifacts on
//      disk) and resumed (journal replay). Asserts the distributed-
//      execution contract that warm and resumed runs recompute nothing
//      (0 trainings, 0 crafts); a violation fails the process. The
//      resume-vs-cold ratio is the checkpoint/resume value proposition;
//  6. event pipeline — DVS end-to-end (events -> binning -> predictions)
//     wall-clock of the dense [N, T, C, H, W] reference path vs the
//     compressed spike-stream event path, swept over the silent-timestep
//     fraction (events time-compressed into the head of the recording), with
//     the runner's skip-rate counters. The event path's value proposition is
//     the >= 2x speedup at >= 90% silent steps recorded here.
//
// Prints a human-readable table and emits BENCH_runtime.json next to the
// working directory so baselines can be recorded in-tree.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <new>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "data/dvs_gesture.hpp"
#include "data/event.hpp"
#include "kernels/cpu_features.hpp"
#include "kernels/dispatch.hpp"
#include "kernels/spike_stream.hpp"
#include "runtime/parallel_for.hpp"
#include "runtime/thread_pool.hpp"
#include "scenario/engine.hpp"
#include "scenario/store.hpp"
#include "snn/conv2d.hpp"
#include "snn/dense.hpp"
#include "snn/event_path.hpp"
#include "snn/event_runner.hpp"
#include "snn/inference.hpp"
#include "snn/models.hpp"
#include "tensor/random.hpp"
#include "tensor/tensor.hpp"

// --- allocation counting (this translation unit only) ------------------------

namespace {
std::atomic<long> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

// The workspace arenas allocate through the aligned overloads
// (runtime/aligned.hpp), which must be hooked too or their (first-pass)
// allocations would go uncounted.
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

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

snn::Network MakeBenchNet() {
  snn::StaticNetOptions opts;
  opts.height = 16;
  opts.width = 16;
  return snn::BuildStaticNet(opts);
}

/// One forward workload: [T=8, B=16, 1, 16, 16] through the static net.
Tensor MakeBenchInput() {
  Rng rng(123);
  return Tensor::Uniform({8, 16, 1, 16, 16}, 0.0f, 1.0f, rng);
}

struct ScalingPoint {
  int threads;
  double seconds_per_pass;
};

std::vector<ScalingPoint> RunScaling(int repeats) {
  std::vector<int> sizes = {1, 2, 4};
  const int hw = runtime::DefaultThreadCount();
  if (hw > 4) sizes.push_back(hw);

  std::vector<ScalingPoint> points;
  snn::Network net = MakeBenchNet();
  Tensor x = MakeBenchInput();
  for (int threads : sizes) {
    runtime::SetGlobalThreads(threads);
    net.ForwardShared(x, false);  // warm up workspace + pool
    const auto start = Clock::now();
    for (int r = 0; r < repeats; ++r) net.ForwardShared(x, false);
    points.push_back({threads, SecondsSince(start) / repeats});
  }
  runtime::SetGlobalThreads(0);
  return points;
}

struct AllocationCounts {
  long allocating_forward;
  long shared_first_pass;
  long shared_steady_state;
};

AllocationCounts CountAllocations() {
  // Pool size 1 keeps the count deterministic (no worker-thread allocs).
  runtime::SetGlobalThreads(1);
  snn::Network net = MakeBenchNet();
  Tensor x = MakeBenchInput();
  AllocationCounts counts{};

  long before = g_allocations.load();
  Tensor y = net.Forward(x, false);
  counts.allocating_forward = g_allocations.load() - before;

  snn::Network shared_net = MakeBenchNet();
  before = g_allocations.load();
  shared_net.ForwardShared(x, false);
  counts.shared_first_pass = g_allocations.load() - before;

  before = g_allocations.load();
  for (int r = 0; r < 10; ++r) shared_net.ForwardShared(x, false);
  counts.shared_steady_state = (g_allocations.load() - before) / 10;

  runtime::SetGlobalThreads(0);
  return counts;
}

struct KernelTimings {
  double conv_fp32_ms;
  double conv_int8_ms;
  double dense_fp32_ms;
  double dense_int8_ms;
};

/// Times one layer's forward pass, steady-state (warmed output buffer).
template <typename LayerT>
double MsPerForward(LayerT& layer, const Tensor& x, int repeats) {
  Tensor out;
  layer.ForwardInto(x, out, false);  // warm up
  const auto start = Clock::now();
  for (int r = 0; r < repeats; ++r) layer.ForwardInto(x, out, false);
  return SecondsSince(start) / repeats * 1e3;
}

/// fp32 vs int8 forward timings for the conv/dense kernel shapes that
/// dominate the sweep experiments.
KernelTimings RunKernelComparison(int repeats) {
  KernelTimings t{};
  Rng rng(7);
  snn::Conv2d conv("c", 8, 16, 3, 1, rng);
  Tensor cx = Tensor::Uniform({8, 16, 8, 16, 16}, 0.0f, 1.0f, rng);
  t.conv_fp32_ms = MsPerForward(conv, cx, repeats);
  conv.EnableInt8Kernel();
  t.conv_int8_ms = MsPerForward(conv, cx, repeats);

  snn::Dense fc("fc", 512, 128, rng);
  Tensor dx = Tensor::Uniform({16, 64, 512}, 0.0f, 1.0f, rng);
  t.dense_fp32_ms = MsPerForward(fc, dx, repeats);
  fc.EnableInt8Kernel();
  t.dense_int8_ms = MsPerForward(fc, dx, repeats);
  return t;
}

/// Per-mode timings for one layer/precision.
struct ModeTimings {
  double naive_ms;
  double sparse_ms;
  double simd_ms;  // forced kSimd (degrades to naive on scalar machines)
  double auto_ms;  // what the dispatcher actually picks
  double best_speedup() const {
    return naive_ms / std::min(sparse_ms, simd_ms);
  }
};

struct DispatchTimings {
  double density;
  ModeTimings conv_fp32;
  ModeTimings conv_int8;
  ModeTimings dense_fp32;
  ModeTimings dense_int8;
};

/// Forces each path via ScopedKernelMode (precedence rule 1), so the
/// comparison stays meaningful even when AXSNN_KERNEL_MODE is exported —
/// as the CI kernel-mode matrix does.
template <typename LayerT>
ModeTimings TimeModes(LayerT& layer, const Tensor& x, int repeats) {
  ModeTimings t{};
  {
    kernels::ScopedKernelMode force(kernels::KernelMode::kNaive);
    t.naive_ms = MsPerForward(layer, x, repeats);
  }
  {
    kernels::ScopedKernelMode force(kernels::KernelMode::kSparse);
    t.sparse_ms = MsPerForward(layer, x, repeats);
  }
  {
    kernels::ScopedKernelMode force(kernels::KernelMode::kSimd);
    t.simd_ms = MsPerForward(layer, x, repeats);
  }
  {
    kernels::ScopedKernelMode force(kernels::KernelMode::kAuto);
    t.auto_ms = MsPerForward(layer, x, repeats);
  }
  return t;
}

/// Sparsity-aware dispatch engine: naive vs sparse vs simd throughput on
/// the same conv/dense shapes as RunKernelComparison, but with spike-like
/// inputs at the representative SNN density of 10% nonzeros.
DispatchTimings RunDispatchComparison(int repeats) {
  DispatchTimings t{};
  t.density = 0.10;
  Rng rng(7);
  snn::Conv2d conv("c", 8, 16, 3, 1, rng);
  Tensor cx = bench::MakeSpikes({8, 16, 8, 16, 16},
                                static_cast<float>(t.density), rng);
  t.conv_fp32 = TimeModes(conv, cx, repeats);
  conv.EnableInt8Kernel();
  t.conv_int8 = TimeModes(conv, cx, repeats);

  snn::Dense fc("fc", 512, 128, rng);
  Tensor dx =
      bench::MakeSpikes({16, 64, 512}, static_cast<float>(t.density), rng);
  t.dense_fp32 = TimeModes(fc, dx, repeats);
  fc.EnableInt8Kernel();
  t.dense_int8 = TimeModes(fc, dx, repeats);
  return t;
}

/// Forced-simd timings at one ISA tier (the active tier after capping).
struct SimdTierPoint {
  const char* tier;
  double conv_fp32_ms;
  double conv_int8_ms;
  double dense_fp32_ms;
  double dense_int8_ms;
};

/// Times the RunDispatchComparison workloads with the kernel mode pinned to
/// simd at every tier this machine can run: the detected tier, each lower
/// cap, and scalar (where forced simd degrades to the naive reference).
/// One row per tier makes BENCH baselines comparable across runners whose
/// CPUs differ — a VNNI row from one machine lines up with the VNNI row of
/// another.
std::vector<SimdTierPoint> RunSimdTierSweep(int repeats) {
  using kernels::SimdTier;
  std::vector<SimdTierPoint> points;
  const int detected = static_cast<int>(kernels::ActiveSimdTier());
  for (SimdTier cap : {SimdTier::kVnni, SimdTier::kAvx2, SimdTier::kScalar}) {
    if (static_cast<int>(cap) > detected) continue;
    kernels::ScopedSimdTier scoped(cap);
    kernels::ScopedKernelMode force(kernels::KernelMode::kSimd);
    SimdTierPoint p{};
    p.tier = kernels::SimdTierName(kernels::ActiveSimdTier());
    Rng rng(7);
    snn::Conv2d conv("c", 8, 16, 3, 1, rng);
    Tensor cx = bench::MakeSpikes({8, 16, 8, 16, 16}, 0.10f, rng);
    p.conv_fp32_ms = MsPerForward(conv, cx, repeats);
    conv.EnableInt8Kernel();
    p.conv_int8_ms = MsPerForward(conv, cx, repeats);
    snn::Dense fc("fc", 512, 128, rng);
    Tensor dx = bench::MakeSpikes({16, 64, 512}, 0.10f, rng);
    p.dense_fp32_ms = MsPerForward(fc, dx, repeats);
    fc.EnableInt8Kernel();
    p.dense_int8_ms = MsPerForward(fc, dx, repeats);
    points.push_back(p);
  }
  return points;
}

struct ScenarioGridTimings {
  long cells = 0;
  long units = 0;
  double with_cache_s = 0.0;
  double without_cache_s = 0.0;
  long trained_with_cache = 0;
  long trained_without_cache = 0;
  long train_cache_hits = 0;
};

/// Times one miniature fig2-style grid (1 structural cell, PGD at two
/// epsilons, two approximation levels) on the engine, whose store trains
/// each structural cell once, and as a hand-rolled loop that retrains per
/// work unit (Train -> Craft -> EvaluateVariants, units on the pool with
/// grain 1). Training dominates, so the uncached loop pays it once per work
/// unit while the engine pays it once per structural cell — the wall-clock
/// ratio is the model store's whole value proposition for the fig4-fig7
/// heatmap grids (63 shared cells, 2 attacks each).
ScenarioGridTimings RunScenarioComparison() {
  core::StaticWorkbench workbench = bench::MiniFig2Workbench();

  scenario::ScenarioGrid grid;
  grid.v_thresholds = {0.25f};
  grid.time_steps = {8};
  grid.attacks = {scenario::AttackSpec{"PGD", {}}};
  grid.epsilons = {0.025, 0.05};
  grid.levels = {0.0, 0.01};

  ScenarioGridTimings t;
  t.cells = static_cast<long>(grid.CellCount());
  t.units = static_cast<long>(grid.epsilons.size());

  scenario::StaticScenarioEngine cached(workbench);
  const auto cached_out = cached.Run(grid);
  t.with_cache_s = cached_out.stats.wall_seconds;
  t.trained_with_cache = cached_out.stats.trained_models;
  t.train_cache_hits = cached_out.stats.train_cache_hits;

  std::vector<core::VariantSpec> variants;
  for (double level : grid.levels)
    variants.push_back({approx::Precision::kFp32, level, std::nullopt});
  const auto start = Clock::now();
  runtime::ParallelFor(
      0, t.units,
      [&](long unit) {
        const auto model =
            workbench.Train(grid.v_thresholds[0], grid.time_steps[0]);
        const Tensor adversarial = workbench.Craft(
            model, "PGD",
            static_cast<float>(grid.epsilons[static_cast<std::size_t>(unit)]));
        (void)workbench.EvaluateVariants(model, adversarial, variants);
      },
      /*grain=*/1);
  t.without_cache_s = SecondsSince(start);
  t.trained_without_cache = t.units;  // one training per work unit
  return t;
}

struct ScenarioDistTimings {
  long cells = 0;
  long units = 0;
  double cold_s = 0.0;    // empty store: train + craft + evaluate + journal
  double warm_s = 0.0;    // fresh engine, artifacts on disk: deserialize + eval
  double resume_s = 0.0;  // fresh engine, --resume: pure journal replay
  long cold_trained = 0;
  long cold_crafted = 0;
  long warm_trained = 0;
  long warm_crafted = 0;
  long warm_model_hits = 0;
  long warm_craft_hits = 0;
  long resume_trained = 0;
  long resume_crafted = 0;
  long resume_replayed = 0;
  /// The distributed-execution contract: warm and resumed runs never
  /// retrain or re-craft.
  bool zero_work_ok() const {
    return warm_trained == 0 && warm_crafted == 0 && resume_trained == 0 &&
           resume_crafted == 0;
  }
};

/// Times the RunScenarioComparison grid against a persistent artifact
/// store: cold (empty directory), then warm and resumed — each with a
/// fresh engine and a fresh store object, so nothing survives in memory
/// and the run models a restarted process. Warm reloads models/crafts and
/// re-evaluates; resume replays the unit journal outright and is the
/// headline restart speedup.
ScenarioDistTimings RunScenarioDist() {
  const std::string dir = "axsnn_dist_store.tmp";
  std::filesystem::remove_all(dir);
  core::StaticWorkbench workbench = bench::MiniFig2Workbench();

  scenario::ScenarioGrid grid;
  grid.v_thresholds = {0.25f};
  grid.time_steps = {8};
  grid.attacks = {scenario::AttackSpec{"PGD", {}}};
  grid.epsilons = {0.025, 0.05};
  grid.levels = {0.0, 0.01};

  ScenarioDistTimings t;
  t.cells = static_cast<long>(grid.CellCount());
  t.units = static_cast<long>(grid.epsilons.size());

  {
    scenario::StaticScenarioStore store(dir, workbench);
    scenario::StaticScenarioEngine engine(workbench);
    engine.set_store(&store);
    const auto out = engine.Run(grid);
    t.cold_s = out.stats.wall_seconds;
    t.cold_trained = out.stats.trained_models;
    t.cold_crafted = out.stats.crafted_sets;
  }
  {
    scenario::StaticScenarioStore store(dir, workbench);
    scenario::StaticScenarioEngine engine(workbench);
    engine.set_store(&store);
    const auto out = engine.Run(grid);
    t.warm_s = out.stats.wall_seconds;
    t.warm_trained = out.stats.trained_models;
    t.warm_crafted = out.stats.crafted_sets;
    t.warm_model_hits = out.stats.store_model_hits;
    t.warm_craft_hits = out.stats.store_craft_hits;
  }
  {
    scenario::StaticScenarioStore store(dir, workbench);
    scenario::StaticScenarioEngine engine(workbench);
    engine.set_store(&store);
    scenario::RunOptions options;
    options.resume = true;
    const auto out = engine.Run(grid, options);
    t.resume_s = out.stats.wall_seconds;
    t.resume_trained = out.stats.trained_models;
    t.resume_crafted = out.stats.crafted_sets;
    t.resume_replayed = out.stats.replayed_units;
  }
  std::filesystem::remove_all(dir);
  return t;
}

/// One silent-fraction sweep point of the DVS end-to-end comparison.
struct EventPipelinePoint {
  double silent_fraction_target = 0.0;  // requested fraction of silent steps
  double silent_fraction_actual = 0.0;  // measured from the packed stream
  long kernel_calls = 0;                // weight-layer kernels actually run
  long kernel_calls_skipped = 0;        // silent-step bias fills instead
  double dense_ms = 0.0;                // events -> BinDataset -> predictions
  double event_ms = 0.0;                // events -> BinRangePacked -> runner
  double speedup() const { return dense_ms / event_ms; }
};

/// DVS end-to-end wall-clock, dense vs event path, at several silent-step
/// fractions. Silence is induced physically: every event timestamp is
/// compressed into the first (1 - f) of the recording, so binning yields a
/// silent tail of ~f*T steps — the regime event cameras actually produce
/// (bursty motion, long stillness). Both paths compute bit-identical
/// predictions (pinned by tests/test_event_pipeline.cpp); only wall-clock
/// differs.
std::vector<EventPipelinePoint> RunEventPipeline(int repeats_arg) {
  const long kBins = 64;
  const long kBatch = 8;
  const int reps = std::max(2, repeats_arg / 10);  // whole-dataset passes

  data::DvsGestureOptions dopts;
  dopts.count = 16;
  dopts.width = 16;
  dopts.height = 16;
  dopts.seed = 909;
  const data::EventDataset base = data::MakeSyntheticDvsGesture(dopts);

  snn::DvsNetOptions nopts;
  nopts.height = 16;
  nopts.width = 16;
  snn::Network net = snn::BuildDvsNet(nopts);

  std::vector<EventPipelinePoint> points;
  for (double f : {0.0, 0.5, 0.9, 0.99}) {
    data::EventDataset ds = base;
    const float keep = static_cast<float>(1.0 - f);
    for (data::EventStream& s : ds.streams)
      for (data::Event& e : s.events) e.t *= keep;

    EventPipelinePoint p;
    p.silent_fraction_target = f;

    {  // dense reference: bin the whole dataset, predict over frames
      snn::ScopedEventPathMode scoped(snn::EventPathMode::kDense);
      Tensor frames = data::BinDataset(ds, kBins);  // warm-up pass
      snn::PredictTemporal(net, frames, kBatch);
      const auto start = Clock::now();
      for (int r = 0; r < reps; ++r) {
        Tensor pass_frames = data::BinDataset(ds, kBins);
        snn::PredictTemporal(net, pass_frames, kBatch);
      }
      p.dense_ms = SecondsSince(start) / reps * 1e3;
    }

    {  // event path: stream one packed batch at a time through the runner
      kernels::SpikeStream stream;
      snn::EventRunner runner(net);
      std::vector<int> preds;
      const auto one_pass = [&](bool record) {
        preds.clear();
        long silent = 0;
        for (long start = 0; start < ds.size(); start += kBatch) {
          const long count = std::min(kBatch, ds.size() - start);
          data::BinRangePacked(ds, start, start + count, kBins, stream);
          const Tensor& logits = runner.Run(stream);
          const long k = logits.dim(1);
          for (long i = 0; i < count; ++i) {
            const float* row = logits.data() + i * k;
            preds.push_back(
                static_cast<int>(std::max_element(row, row + k) - row));
          }
          if (record) {
            silent += runner.stats().silent_steps;
            p.kernel_calls += runner.stats().kernel_calls;
            p.kernel_calls_skipped += runner.stats().kernel_calls_skipped;
          }
        }
        if (record) {
          const long batches = (ds.size() + kBatch - 1) / kBatch;
          p.silent_fraction_actual =
              static_cast<double>(silent) / static_cast<double>(kBins * batches);
        }
      };
      one_pass(/*record=*/true);  // warm-up + counter capture
      const auto start = Clock::now();
      for (int r = 0; r < reps; ++r) one_pass(/*record=*/false);
      p.event_ms = SecondsSince(start) / reps * 1e3;
    }
    points.push_back(p);
  }
  return points;
}

}  // namespace
}  // namespace axsnn

int main(int argc, char** argv) {
  int repeats = 50;
  if (argc > 1) {
    // Full-string validation: "50x" or "" must not silently become 0 repeats.
    const auto parsed = axsnn::runtime::ParseLongStrict(argv[1]);
    if (!parsed || *parsed <= 0 || *parsed > 1000000) {
      std::fprintf(stderr,
                   "usage: %s [repeats]  (positive integer, got \"%s\")\n",
                   argv[0], argv[1]);
      return 2;
    }
    repeats = static_cast<int>(*parsed);
  }

  std::printf("== runtime micro-benchmark ==\n");
  std::printf("hardware threads: %d\n", axsnn::runtime::DefaultThreadCount());
  const auto& cpu = axsnn::kernels::DetectCpuFeatures();
  const char* simd_tier =
      axsnn::kernels::SimdTierName(axsnn::kernels::ActiveSimdTier());
  std::printf(
      "simd tier: %s (cpuid: avx2=%d fma=%d avx_vnni=%d avx512_vnni=%d)\n",
      simd_tier, cpu.avx2, cpu.fma, cpu.avx_vnni, cpu.avx512_vnni);

  const auto scaling = axsnn::RunScaling(repeats);
  const double base = scaling.front().seconds_per_pass;
  std::printf("\npool scaling (forward pass [8,16,1,16,16], %d repeats):\n",
              repeats);
  std::printf("  threads   ms/pass   speedup\n");
  for (const auto& p : scaling)
    std::printf("  %7d   %7.3f   %6.2fx\n", p.threads,
                p.seconds_per_pass * 1e3, base / p.seconds_per_pass);

  const auto counts = axsnn::CountAllocations();
  std::printf("\nheap allocations per forward pass:\n");
  std::printf("  Forward (allocating):        %ld\n",
              counts.allocating_forward);
  std::printf("  ForwardShared (first pass):  %ld\n",
              counts.shared_first_pass);
  std::printf("  ForwardShared (steady):      %ld\n",
              counts.shared_steady_state);

  const auto kernels = axsnn::RunKernelComparison(repeats);
  std::printf("\nkernel backends (forward, ms/pass):\n");
  std::printf("  conv2d  fp32 %7.3f   int8 %7.3f   speedup %5.2fx\n",
              kernels.conv_fp32_ms, kernels.conv_int8_ms,
              kernels.conv_fp32_ms / kernels.conv_int8_ms);
  std::printf("  dense   fp32 %7.3f   int8 %7.3f   speedup %5.2fx\n",
              kernels.dense_fp32_ms, kernels.dense_int8_ms,
              kernels.dense_fp32_ms / kernels.dense_int8_ms);

  const auto dispatch = axsnn::RunDispatchComparison(repeats);
  std::printf("\nkernel dispatch at %.0f%% spike density (ms/pass):\n",
              dispatch.density * 100.0);
  const auto print_modes = [](const char* name, const auto& m) {
    std::printf("  %-11s naive %7.3f   sparse %7.3f   simd %7.3f   "
                "auto %7.3f   best %5.2fx\n",
                name, m.naive_ms, m.sparse_ms, m.simd_ms, m.auto_ms,
                m.best_speedup());
  };
  print_modes("conv2d fp32", dispatch.conv_fp32);
  print_modes("conv2d int8", dispatch.conv_int8);
  print_modes("dense  fp32", dispatch.dense_fp32);
  print_modes("dense  int8", dispatch.dense_int8);

  // Dispatch contract: in every kernel family the auto mode must never lose
  // to the naive reference — a mis-calibrated threshold or a dense fallback
  // slower than naive is exactly what this harness guards. 10% margin
  // absorbs timer noise on shared runners.
  bool dispatch_ok = true;
  const auto check_auto = [&](const char* name, const auto& m) {
    const bool ok = m.auto_ms <= m.naive_ms * 1.10;
    if (!ok) dispatch_ok = false;
    std::printf("  assert %-11s auto %7.3f <= 1.10 * naive %7.3f : %s\n",
                name, m.auto_ms, m.naive_ms, ok ? "PASS" : "FAIL");
  };
  check_auto("conv2d fp32", dispatch.conv_fp32);
  check_auto("conv2d int8", dispatch.conv_int8);
  check_auto("dense  fp32", dispatch.dense_fp32);
  check_auto("dense  int8", dispatch.dense_int8);

  const auto tiers = axsnn::RunSimdTierSweep(repeats);
  std::printf("\nsimd tier sweep (forced simd, ms/pass, 10%% density):\n");
  for (const auto& p : tiers)
    std::printf("  %-9s conv fp32 %7.3f   conv int8 %7.3f   "
                "dense fp32 %7.3f   dense int8 %7.3f\n",
                p.tier, p.conv_fp32_ms, p.conv_int8_ms, p.dense_fp32_ms,
                p.dense_int8_ms);

  const auto scenario_grid = axsnn::RunScenarioComparison();
  std::printf("\nscenario grid (%ld cells, %ld work units sharing one "
              "structural cell):\n",
              scenario_grid.cells, scenario_grid.units);
  std::printf("  model cache on    %7.3f s   (%ld training runs, %ld hits)\n",
              scenario_grid.with_cache_s, scenario_grid.trained_with_cache,
              scenario_grid.train_cache_hits);
  std::printf("  model cache off   %7.3f s   (%ld training runs)\n",
              scenario_grid.without_cache_s,
              scenario_grid.trained_without_cache);
  std::printf("  cache speedup     %7.2fx\n",
              scenario_grid.without_cache_s / scenario_grid.with_cache_s);

  const auto dist = axsnn::RunScenarioDist();
  std::printf("\nscenario dist (%ld cells, %ld units; persistent store, "
              "fresh engine per run):\n",
              dist.cells, dist.units);
  std::printf("  cold   (empty store)  %7.3f s   (%ld trainings, %ld crafts)\n",
              dist.cold_s, dist.cold_trained, dist.cold_crafted);
  std::printf("  warm   (store reuse)  %7.3f s   (%ld trainings, %ld crafts; "
              "%ld model + %ld craft store hits)\n",
              dist.warm_s, dist.warm_trained, dist.warm_crafted,
              dist.warm_model_hits, dist.warm_craft_hits);
  std::printf("  resume (journal)      %7.3f s   (%ld trainings, %ld crafts; "
              "%ld units replayed)\n",
              dist.resume_s, dist.resume_trained, dist.resume_crafted,
              dist.resume_replayed);
  std::printf("  warm speedup   %7.2fx\n", dist.cold_s / dist.warm_s);
  std::printf("  resume speedup %7.2fx\n", dist.cold_s / dist.resume_s);
  std::printf("  assert warm+resume recompute nothing : %s\n",
              dist.zero_work_ok() ? "PASS" : "FAIL");

  const auto event_pipeline = axsnn::RunEventPipeline(repeats);
  std::printf("\nevent pipeline, DVS end-to-end (16 streams, 64 bins, "
              "2x16x16; ms/dataset pass):\n");
  std::printf("  silent%%  actual%%   dense      event     speedup   "
              "kernels run/skipped\n");
  for (const auto& p : event_pipeline)
    std::printf("  %6.0f   %6.1f   %8.3f   %8.3f   %6.2fx   %ld/%ld\n",
                p.silent_fraction_target * 100.0,
                p.silent_fraction_actual * 100.0, p.dense_ms, p.event_ms,
                p.speedup(), p.kernel_calls, p.kernel_calls_skipped);

  if (FILE* f = std::fopen("BENCH_runtime.json", "w")) {
    std::fprintf(f, "{\n  \"workload\": \"static_net_forward[8,16,1,16,16]\",\n");
    std::fprintf(f, "  \"repeats\": %d,\n", repeats);
    std::fprintf(f, "  \"simd_tier\": \"%s\",\n", simd_tier);
    std::fprintf(f, "  \"pool_scaling\": [\n");
    for (std::size_t i = 0; i < scaling.size(); ++i)
      std::fprintf(f, "    {\"threads\": %d, \"ms_per_pass\": %.4f}%s\n",
                   scaling[i].threads, scaling[i].seconds_per_pass * 1e3,
                   i + 1 < scaling.size() ? "," : "");
    std::fprintf(f, "  ],\n");
    std::fprintf(f, "  \"allocations_per_forward\": {\n");
    std::fprintf(f, "    \"forward_allocating\": %ld,\n",
                 counts.allocating_forward);
    std::fprintf(f, "    \"forward_shared_first_pass\": %ld,\n",
                 counts.shared_first_pass);
    std::fprintf(f, "    \"forward_shared_steady_state\": %ld\n",
                 counts.shared_steady_state);
    std::fprintf(f, "  },\n");
    std::fprintf(f, "  \"int8_kernels\": {\n");
    std::fprintf(f, "    \"conv2d_fp32_ms\": %.4f,\n", kernels.conv_fp32_ms);
    std::fprintf(f, "    \"conv2d_int8_ms\": %.4f,\n", kernels.conv_int8_ms);
    std::fprintf(f, "    \"conv2d_speedup\": %.3f,\n",
                 kernels.conv_fp32_ms / kernels.conv_int8_ms);
    std::fprintf(f, "    \"dense_fp32_ms\": %.4f,\n", kernels.dense_fp32_ms);
    std::fprintf(f, "    \"dense_int8_ms\": %.4f,\n", kernels.dense_int8_ms);
    std::fprintf(f, "    \"dense_speedup\": %.3f\n",
                 kernels.dense_fp32_ms / kernels.dense_int8_ms);
    std::fprintf(f, "  },\n");
    std::fprintf(f, "  \"kernel_dispatch\": {\n");
    std::fprintf(f, "    \"spike_density\": %.2f,\n", dispatch.density);
    const auto emit_modes = [f](const char* name, const auto& m,
                                const char* tail) {
      std::fprintf(f,
                   "    \"%s\": {\"naive_ms\": %.4f, \"sparse_ms\": %.4f, "
                   "\"simd_ms\": %.4f, \"auto_ms\": %.4f, "
                   "\"best_speedup\": %.3f}%s\n",
                   name, m.naive_ms, m.sparse_ms, m.simd_ms, m.auto_ms,
                   m.best_speedup(), tail);
    };
    emit_modes("conv2d_fp32", dispatch.conv_fp32, ",");
    emit_modes("conv2d_int8", dispatch.conv_int8, ",");
    emit_modes("dense_fp32", dispatch.dense_fp32, ",");
    emit_modes("dense_int8", dispatch.dense_int8, ",");
    std::fprintf(f, "    \"auto_never_slower_than_naive\": %s\n",
                 dispatch_ok ? "true" : "false");
    std::fprintf(f, "  },\n");
    std::fprintf(f, "  \"kernel_simd\": [\n");
    for (std::size_t i = 0; i < tiers.size(); ++i)
      std::fprintf(f,
                   "    {\"tier\": \"%s\", \"conv2d_fp32_ms\": %.4f, "
                   "\"conv2d_int8_ms\": %.4f, \"dense_fp32_ms\": %.4f, "
                   "\"dense_int8_ms\": %.4f}%s\n",
                   tiers[i].tier, tiers[i].conv_fp32_ms, tiers[i].conv_int8_ms,
                   tiers[i].dense_fp32_ms, tiers[i].dense_int8_ms,
                   i + 1 < tiers.size() ? "," : "");
    std::fprintf(f, "  ],\n");
    std::fprintf(f, "  \"scenario_grid\": {\n");
    std::fprintf(f, "    \"cells\": %ld,\n", scenario_grid.cells);
    std::fprintf(f, "    \"work_units\": %ld,\n", scenario_grid.units);
    std::fprintf(f, "    \"with_model_cache_s\": %.4f,\n",
                 scenario_grid.with_cache_s);
    std::fprintf(f, "    \"without_model_cache_s\": %.4f,\n",
                 scenario_grid.without_cache_s);
    std::fprintf(f, "    \"cache_speedup\": %.3f,\n",
                 scenario_grid.without_cache_s / scenario_grid.with_cache_s);
    std::fprintf(f, "    \"trained_with_cache\": %ld,\n",
                 scenario_grid.trained_with_cache);
    std::fprintf(f, "    \"trained_without_cache\": %ld\n",
                 scenario_grid.trained_without_cache);
    std::fprintf(f, "  },\n");
    std::fprintf(f, "  \"scenario_dist\": {\n");
    std::fprintf(f, "    \"cells\": %ld,\n", dist.cells);
    std::fprintf(f, "    \"work_units\": %ld,\n", dist.units);
    std::fprintf(f, "    \"cold_s\": %.4f,\n", dist.cold_s);
    std::fprintf(f, "    \"warm_s\": %.4f,\n", dist.warm_s);
    std::fprintf(f, "    \"resume_s\": %.4f,\n", dist.resume_s);
    std::fprintf(f, "    \"warm_speedup\": %.3f,\n", dist.cold_s / dist.warm_s);
    std::fprintf(f, "    \"resume_speedup\": %.3f,\n",
                 dist.cold_s / dist.resume_s);
    std::fprintf(f, "    \"cold_trained\": %ld,\n", dist.cold_trained);
    std::fprintf(f, "    \"cold_crafted\": %ld,\n", dist.cold_crafted);
    std::fprintf(f, "    \"warm_trained\": %ld,\n", dist.warm_trained);
    std::fprintf(f, "    \"warm_crafted\": %ld,\n", dist.warm_crafted);
    std::fprintf(f, "    \"resume_trained\": %ld,\n", dist.resume_trained);
    std::fprintf(f, "    \"resume_crafted\": %ld,\n", dist.resume_crafted);
    std::fprintf(f, "    \"resume_replayed_units\": %ld,\n",
                 dist.resume_replayed);
    std::fprintf(f, "    \"warm_and_resume_recompute_nothing\": %s\n",
                 dist.zero_work_ok() ? "true" : "false");
    std::fprintf(f, "  },\n");
    std::fprintf(f, "  \"event_pipeline\": {\n");
    std::fprintf(f, "    \"workload\": \"dvs_end_to_end[N=16,T=64,2x16x16]\",\n");
    std::fprintf(f, "    \"points\": [\n");
    double speedup_at_90 = 0.0;
    for (std::size_t i = 0; i < event_pipeline.size(); ++i) {
      const auto& p = event_pipeline[i];
      if (p.silent_fraction_target >= 0.9 && speedup_at_90 == 0.0)
        speedup_at_90 = p.speedup();
      std::fprintf(f,
                   "      {\"silent_fraction\": %.2f, "
                   "\"silent_fraction_actual\": %.4f, \"dense_ms\": %.4f, "
                   "\"event_ms\": %.4f, \"speedup\": %.3f, "
                   "\"kernel_calls\": %ld, \"kernel_calls_skipped\": %ld}%s\n",
                   p.silent_fraction_target, p.silent_fraction_actual,
                   p.dense_ms, p.event_ms, p.speedup(), p.kernel_calls,
                   p.kernel_calls_skipped,
                   i + 1 < event_pipeline.size() ? "," : "");
    }
    std::fprintf(f, "    ],\n");
    std::fprintf(f, "    \"speedup_at_90pct_silent\": %.3f\n", speedup_at_90);
    std::fprintf(f, "  }\n}\n");
    std::fclose(f);
    std::printf("\nwrote BENCH_runtime.json\n");
  }
  if (!dispatch_ok) {
    std::fprintf(stderr,
                 "FAIL: auto dispatch slower than naive (see table)\n");
    return 1;
  }
  if (!dist.zero_work_ok()) {
    std::fprintf(stderr,
                 "FAIL: warm/resumed scenario run recomputed work "
                 "(see scenario dist table)\n");
    return 1;
  }
  return 0;
}
