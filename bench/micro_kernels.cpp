// Micro-benchmarks (google-benchmark) for the SNN compute kernels: the
// per-layer costs that dominate every experiment in this repo. Useful for
// tracking kernel regressions independently of the experiment harnesses.
#include <benchmark/benchmark.h>

#include "bench_common.hpp"
#include "data/dvs_gesture.hpp"
#include "kernels/cpu_features.hpp"
#include "kernels/dispatch.hpp"
#include "snn/conv2d.hpp"
#include "snn/dense.hpp"
#include "snn/encoding.hpp"
#include "snn/lif_layer.hpp"
#include "snn/models.hpp"

namespace {

using namespace axsnn;

/// Spike-like activations at density_pct % (bench::MakeSpikes adapter for
/// google-benchmark's integer Args axis).
Tensor MakeSpikesPct(Shape shape, long density_pct, Rng& rng) {
  return bench::MakeSpikes(std::move(shape),
                           static_cast<float>(density_pct) / 100.0f, rng);
}

/// Mode axis for the dispatch benchmarks (KernelMode enumerator values).
constexpr long kModeNaive = static_cast<long>(kernels::KernelMode::kNaive);
constexpr long kModeSparse = static_cast<long>(kernels::KernelMode::kSparse);
constexpr long kModeSimd = static_cast<long>(kernels::KernelMode::kSimd);

/// Emitted once so benchmark logs say which ISA tier the simd rows ran on
/// (google-benchmark context lines prefix the output table).
const bool g_report_isa = [] {
  benchmark::AddCustomContext(
      "axsnn_simd_tier",
      kernels::SimdTierName(kernels::ActiveSimdTier()));
  return true;
}();

void BM_Conv2dForward(benchmark::State& state) {
  const long channels = state.range(0);
  Rng rng(1);
  snn::Conv2d conv("c", channels, channels * 2, 3, 1, rng);
  Tensor x = Tensor::Uniform({8, 8, channels, 16, 16}, 0.0f, 1.0f, rng);
  for (auto _ : state) {
    Tensor y = conv.Forward(x, false);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * x.numel());
}
BENCHMARK(BM_Conv2dForward)->Arg(4)->Arg(8)->Arg(16);

void BM_Conv2dForwardInt8(benchmark::State& state) {
  // Same workload as BM_Conv2dForward, executed on the int8 backend
  // (per-output-channel scales, int32 accumulation).
  const long channels = state.range(0);
  Rng rng(1);
  snn::Conv2d conv("c", channels, channels * 2, 3, 1, rng);
  conv.EnableInt8Kernel();
  Tensor x = Tensor::Uniform({8, 8, channels, 16, 16}, 0.0f, 1.0f, rng);
  for (auto _ : state) {
    Tensor y = conv.Forward(x, false);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * x.numel());
}
BENCHMARK(BM_Conv2dForwardInt8)->Arg(4)->Arg(8)->Arg(16);

void BM_Conv2dBackward(benchmark::State& state) {
  const long channels = state.range(0);
  Rng rng(2);
  snn::Conv2d conv("c", channels, channels * 2, 3, 1, rng);
  Tensor x = Tensor::Uniform({8, 8, channels, 16, 16}, 0.0f, 1.0f, rng);
  Tensor y = conv.Forward(x, true);
  Tensor g = Tensor::Uniform(y.shape(), -1.0f, 1.0f, rng);
  for (auto _ : state) {
    conv.ZeroGrad();
    Tensor gi = conv.Backward(g);
    benchmark::DoNotOptimize(gi.data());
  }
  state.SetItemsProcessed(state.iterations() * x.numel());
}
BENCHMARK(BM_Conv2dBackward)->Arg(4)->Arg(8);

void BM_LifForward(benchmark::State& state) {
  const long t_steps = state.range(0);
  Rng rng(3);
  snn::LifParams params;
  snn::LifLayer lif("l", params);
  Tensor x = Tensor::Uniform({t_steps, 32, 1024}, 0.0f, 2.0f, rng);
  for (auto _ : state) {
    Tensor s = lif.Forward(x, false);
    benchmark::DoNotOptimize(s.data());
  }
  state.SetItemsProcessed(state.iterations() * x.numel());
}
BENCHMARK(BM_LifForward)->Arg(16)->Arg(32)->Arg(80);

void BM_LifBackward(benchmark::State& state) {
  const long t_steps = state.range(0);
  Rng rng(4);
  snn::LifParams params;
  snn::LifLayer lif("l", params);
  Tensor x = Tensor::Uniform({t_steps, 32, 1024}, 0.0f, 2.0f, rng);
  lif.Forward(x, true);
  Tensor g = Tensor::Uniform(x.shape(), -1.0f, 1.0f, rng);
  for (auto _ : state) {
    Tensor gi = lif.Backward(g);
    benchmark::DoNotOptimize(gi.data());
  }
  state.SetItemsProcessed(state.iterations() * x.numel());
}
BENCHMARK(BM_LifBackward)->Arg(16)->Arg(32);

void BM_DenseForward(benchmark::State& state) {
  Rng rng(5);
  snn::Dense fc("fc", 256, 64, rng);
  Tensor x = Tensor::Uniform({16, 32, 256}, 0.0f, 1.0f, rng);
  for (auto _ : state) {
    Tensor y = fc.Forward(x, false);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * x.numel());
}
BENCHMARK(BM_DenseForward);

void BM_DenseForwardInt8(benchmark::State& state) {
  // Same workload as BM_DenseForward on the int8 backend.
  Rng rng(5);
  snn::Dense fc("fc", 256, 64, rng);
  fc.EnableInt8Kernel();
  Tensor x = Tensor::Uniform({16, 32, 256}, 0.0f, 1.0f, rng);
  for (auto _ : state) {
    Tensor y = fc.Forward(x, false);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * x.numel());
}
BENCHMARK(BM_DenseForwardInt8);

void BM_Conv2dDispatch(benchmark::State& state) {
  // Kernel-dispatch sweep: range(0) = kernel mode, range(1) = spike
  // density [%]. Pins one path globally so the axes stay meaningful under
  // the CI kernel-mode matrix.
  kernels::ScopedKernelMode force(
      static_cast<kernels::KernelMode>(state.range(0)));
  Rng rng(7);
  snn::Conv2d conv("c", 8, 16, 3, 1, rng);
  Tensor x = MakeSpikesPct({8, 16, 8, 16, 16}, state.range(1), rng);
  for (auto _ : state) {
    Tensor y = conv.Forward(x, false);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * x.numel());
}
BENCHMARK(BM_Conv2dDispatch)
    ->Args({kModeNaive, 10})
    ->Args({kModeSparse, 10})
    ->Args({kModeSimd, 10})
    ->Args({kModeNaive, 100})
    ->Args({kModeSparse, 100})
    ->Args({kModeSimd, 100});

void BM_Conv2dDispatchInt8(benchmark::State& state) {
  // Same sweep on the int8 backend.
  kernels::ScopedKernelMode force(
      static_cast<kernels::KernelMode>(state.range(0)));
  Rng rng(7);
  snn::Conv2d conv("c", 8, 16, 3, 1, rng);
  conv.EnableInt8Kernel();
  Tensor x = MakeSpikesPct({8, 16, 8, 16, 16}, state.range(1), rng);
  for (auto _ : state) {
    Tensor y = conv.Forward(x, false);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * x.numel());
}
BENCHMARK(BM_Conv2dDispatchInt8)
    ->Args({kModeNaive, 10})
    ->Args({kModeSparse, 10})
    ->Args({kModeSimd, 10})
    ->Args({kModeNaive, 100})
    ->Args({kModeSimd, 100});

void BM_DenseDispatch(benchmark::State& state) {
  kernels::ScopedKernelMode force(
      static_cast<kernels::KernelMode>(state.range(0)));
  Rng rng(7);
  snn::Dense fc("fc", 512, 128, rng);
  Tensor x = MakeSpikesPct({16, 64, 512}, state.range(1), rng);
  for (auto _ : state) {
    Tensor y = fc.Forward(x, false);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * x.numel());
}
BENCHMARK(BM_DenseDispatch)
    ->Args({kModeNaive, 10})
    ->Args({kModeSparse, 10})
    ->Args({kModeSimd, 10})
    ->Args({kModeNaive, 100})
    ->Args({kModeSimd, 100});

void BM_RateEncode(benchmark::State& state) {
  Rng rng(6);
  Tensor images = Tensor::Uniform({32, 1, 16, 16}, 0.0f, 1.0f, rng);
  for (auto _ : state) {
    Tensor spikes = snn::EncodeRate(images, 32, rng);
    benchmark::DoNotOptimize(spikes.data());
  }
  state.SetItemsProcessed(state.iterations() * images.numel() * 32);
}
BENCHMARK(BM_RateEncode);

void BM_DvsSimulation(benchmark::State& state) {
  data::DvsGestureOptions opts;
  Rng rng(7);
  for (auto _ : state) {
    data::EventStream s = data::SimulateGesture(0, opts, rng);
    benchmark::DoNotOptimize(s.events.data());
  }
}
BENCHMARK(BM_DvsSimulation);

void BM_EventBinning(benchmark::State& state) {
  data::DvsGestureOptions opts;
  Rng rng(8);
  data::EventStream s = data::SimulateGesture(3, opts, rng);
  for (auto _ : state) {
    Tensor frames = data::BinEvents(s, 24);
    benchmark::DoNotOptimize(frames.data());
  }
  state.SetItemsProcessed(state.iterations() * s.size());
}
BENCHMARK(BM_EventBinning);

void BM_StaticNetForward(benchmark::State& state) {
  snn::StaticNetOptions opts;
  snn::Network net = snn::BuildStaticNet(opts);
  Rng rng(9);
  Tensor x = Tensor::Uniform({12, 32, 1, 16, 16}, 0.0f, 1.0f, rng);
  for (auto _ : state) {
    Tensor y = net.Forward(x, false);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * 32);
}
BENCHMARK(BM_StaticNetForward);

}  // namespace

BENCHMARK_MAIN();
