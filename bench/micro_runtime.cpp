// The repository's one microbenchmark: a record of ratios for the runtime,
// kernel, event and gradient layers. perfbench/ measures the workloads end
// to end; this binary isolates the ratios the design work is judged by.
// Every timing is the median and min over repeats of one call, taken by
// TimeMs after an untimed warm-up call. Sections:
//  * pool_scaling — one static-net forward pass [T=8, B=16, 1, 16, 16] at
//    pool sizes 1, 2, 4 and hardware_concurrency;
//  * kernel_dispatch — naive vs sparse vs simd vs auto for one conv and one
//    dense layer, fp32 and int8, at 10% spike density, and for the conv's
//    two Backward halves (dX and dW, fed a dense gradient; no sparse
//    kernel, so sparse runs the dense fallback). Gate: in every family the
//    auto median is at most 1.10x the naive median, else the process exits
//    1 (the margin absorbs timer noise on shared runners);
//  * kernel_simd — the same kernels with simd forced at every ISA tier the
//    machine supports, so records from different CPUs line up tier by tier;
//  * event_pipeline — DVS end to end (events -> binning -> predictions),
//    dense [N, T, C, H, W] reference path vs packed spike-stream event
//    path, per silent-timestep fraction, at pool 1 and the default pool;
//  * backward — one training batch, ForwardShared(x, true) then
//    Network::Backward, on the static net [T=6, B=32] and the DVS net
//    [T=12, B=32], at pool 1 and the default pool, once per request the
//    callers make: the trainer's (parameter gradients) and the attacks'
//    (input gradient).
//
// Steady-state allocation freedom is a test (tests/test_simd.cpp,
// WorkspaceSteadyState), as are bit-identity across kernel modes and
// temporal paths and the scenario cache and resume contracts.
//
// Prints one table per section and writes BENCH_runtime.json into the
// working directory, headed by an environment block (nproc, default pool,
// SIMD tier, build type, repeats); each section records the pool it ran at.
//
// Usage: bench_micro_runtime [repeats]   (default 50)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "data/dvs_gesture.hpp"
#include "data/event.hpp"
#include "kernels/cpu_features.hpp"
#include "kernels/dispatch.hpp"
#include "kernels/spike_stream.hpp"
#include "runtime/thread_pool.hpp"
#include "snn/conv2d.hpp"
#include "snn/dense.hpp"
#include "snn/encoding.hpp"
#include "snn/event_path.hpp"
#include "snn/event_runner.hpp"
#include "snn/inference.hpp"
#include "snn/layer.hpp"
#include "snn/loss.hpp"
#include "snn/models.hpp"
#include "tensor/random.hpp"
#include "tensor/tensor.hpp"

namespace axsnn {
namespace {

using Clock = std::chrono::steady_clock;

struct Timing {
  double median_ms = 0.0;
  double min_ms = 0.0;
};

/// Runs `fn` once untimed (arenas sized, pool spun up), then `repeats`
/// timed times; one run is not a record, so callers get median and min.
template <typename Fn>
Timing TimeMs(int repeats, Fn&& fn) {
  fn();
  std::vector<double> ms(static_cast<std::size_t>(repeats));
  for (double& m : ms) {
    const auto start = Clock::now();
    fn();
    m = std::chrono::duration<double, std::milli>(Clock::now() - start)
            .count();
  }
  std::sort(ms.begin(), ms.end());
  const std::size_t mid = ms.size() / 2;
  const double median =
      ms.size() % 2 == 1 ? ms[mid] : 0.5 * (ms[mid - 1] + ms[mid]);
  return {median, ms.front()};
}

/// The one JSON writer behind BENCH_runtime.json: nested objects and
/// arrays, one member per line except inside containers opened `flat`.
class JsonWriter {
 public:
  explicit JsonWriter(std::FILE* f) : f_(f) {}

  /// Opens an object ('{') or array ('['); `key` is null inside arrays.
  void Open(const char* key, char bracket, bool flat = false) {
    Key(key);
    std::fputc(bracket, f_);
    const bool in_flat = !levels_.empty() && levels_.back().flat;
    levels_.push_back({bracket == '{' ? '}' : ']', flat || in_flat, true});
  }
  void Close() {
    const Level level = levels_.back();
    levels_.pop_back();
    if (!level.flat) NewLine();
    std::fputc(level.close, f_);
    if (levels_.empty()) std::fputc('\n', f_);
  }
  void Str(const char* key, const char* v) {
    Key(key);
    std::fprintf(f_, "\"%s\"", v);
  }
  void Int(const char* key, long v) {
    Key(key);
    std::fprintf(f_, "%ld", v);
  }
  void Num(const char* key, double v) {
    Key(key);
    std::fprintf(f_, "%.4g", v);
  }
  void Bool(const char* key, bool v) {
    Key(key);
    std::fputs(v ? "true" : "false", f_);
  }
  void Time(const char* key, const Timing& t) {
    Open(key, '{', /*flat=*/true);
    Num("median_ms", t.median_ms);
    Num("min_ms", t.min_ms);
    Close();
  }

 private:
  struct Level {
    char close;
    bool flat;
    bool empty;
  };

  void NewLine() {
    std::fputc('\n', f_);
    for (std::size_t i = 0; i < levels_.size(); ++i) std::fputs("  ", f_);
  }
  void Key(const char* key) {
    if (!levels_.empty()) {
      Level& level = levels_.back();
      if (!level.empty) std::fputc(',', f_);
      if (!level.flat)
        NewLine();
      else if (!level.empty)
        std::fputc(' ', f_);
      level.empty = false;
    }
    if (key != nullptr) std::fprintf(f_, "\"%s\": ", key);
  }

  std::FILE* f_;
  std::vector<Level> levels_;
};

/// The pools the pool-sensitive sections run at: 1 and the default pool.
std::vector<int> PoolSizes() {
  const int pool = runtime::DefaultThreadCount();
  if (pool == 1) return {1};
  return {1, pool};
}

constexpr float kSpikeDensity = 0.10f;

/// Calls fn(family, run) for the kernel families the kernel sections
/// compare, where run() makes one kernel call: a 3x3 conv 8 -> 16 on
/// [8, 16, 8, 16, 16] and a dense 512 -> 128 on [16, 64, 512], fp32 then
/// int8, on fresh layers fed spikes at the representative SNN density;
/// between them the conv's Backward halves (its fp32 weights), fed a dense
/// gradient as the surrogate makes it.
template <typename Fn>
void ForEachKernelFamily(Fn&& fn) {
  Rng rng(7);
  Tensor out;
  snn::Conv2d conv("c", 8, 16, 3, 1, rng);
  const Tensor cx = bench::MakeSpikes({8, 16, 8, 16, 16}, kSpikeDensity, rng);
  auto forward = [&](snn::Layer& layer, const Tensor& x) {
    return [&layer, &x, &out] { layer.ForwardInto(x, out, false); };
  };
  fn("conv2d_fp32", forward(conv, cx));
  // A training forward caches the input Backward reads.
  conv.ForwardInto(cx, out, true);
  const Tensor grad = Tensor::Uniform(out.shape(), -1.0f, 1.0f, rng);
  Tensor grad_in;
  fn("conv2d_dx_fp32",
     [&] { conv.BackwardInto(grad, grad_in, snn::GradRequest::kInput); });
  fn("conv2d_dw_fp32",
     [&] { conv.BackwardInto(grad, grad_in, snn::GradRequest::kParams); });
  conv.EnableInt8Kernel();
  fn("conv2d_int8", forward(conv, cx));
  snn::Dense fc("fc", 512, 128, rng);
  const Tensor dx = bench::MakeSpikes({16, 64, 512}, kSpikeDensity, rng);
  fn("dense_fp32", forward(fc, dx));
  fc.EnableInt8Kernel();
  fn("dense_int8", forward(fc, dx));
}

void PoolScaling(JsonWriter& json, int repeats) {
  std::vector<int> sizes = {1, 2, 4};
  const int hw = runtime::DefaultThreadCount();
  if (hw > 4) sizes.push_back(hw);
  snn::Network net = snn::BuildStaticNet({});
  Rng rng(123);
  const Tensor x = Tensor::Uniform({8, 16, 1, 16, 16}, 0.0f, 1.0f, rng);

  std::printf("\npool_scaling: static-net forward [8,16,1,16,16], %d repeats\n"
              "  pool   median ms   min ms   speedup\n",
              repeats);
  json.Open("pool_scaling", '{');
  json.Str("workload", "static_net_forward[8,16,1,16,16]");
  json.Int("repeats", repeats);
  json.Open("rows", '[');
  double base_ms = 0.0;
  for (int pool : sizes) {
    runtime::SetGlobalThreads(pool);
    const Timing t = TimeMs(repeats, [&] { net.ForwardShared(x, false); });
    if (base_ms == 0.0) base_ms = t.median_ms;
    std::printf("  %4d   %9.3f   %6.3f   %6.2fx\n", pool, t.median_ms,
                t.min_ms, base_ms / t.median_ms);
    json.Open(nullptr, '{', /*flat=*/true);
    json.Int("pool", pool);
    json.Time("forward", t);
    json.Num("speedup", base_ms / t.median_ms);
    json.Close();
  }
  json.Close();
  json.Close();
  runtime::SetGlobalThreads(0);
}

/// Returns whether auto stayed within the margin of naive in every family.
bool KernelDispatch(JsonWriter& json, int repeats) {
  using kernels::KernelMode;
  constexpr KernelMode kModes[] = {KernelMode::kNaive, KernelMode::kSparse,
                                   KernelMode::kSimd, KernelMode::kAuto};
  constexpr double kAutoMargin = 1.10;

  std::printf("\nkernel_dispatch at %.0f%% spike density, pool %d, median "
              "(min) ms:\n",
              kSpikeDensity * 100.0, runtime::DefaultThreadCount());
  json.Open("kernel_dispatch", '{');
  json.Int("pool", runtime::DefaultThreadCount());
  json.Int("repeats", repeats);
  json.Num("spike_density", kSpikeDensity);
  bool all_ok = true;
  ForEachKernelFamily(
      [&](const char* family, const std::function<void()>& run) {
        Timing t[4];
        for (int m = 0; m < 4; ++m) {
          // Forced through ScopedKernelMode (precedence rule 1), so the
          // comparison holds while AXSNN_KERNEL_MODE is exported, as in
          // the CI kernel-mode legs.
          kernels::ScopedKernelMode force(kModes[m]);
          t[m] = TimeMs(repeats, run);
        }
        const double naive = t[0].median_ms;
        const double auto_over_naive = t[3].median_ms / naive;
        const double best_speedup =
            naive / std::min(t[1].median_ms, t[2].median_ms);
        const bool ok = auto_over_naive <= kAutoMargin;
        all_ok = all_ok && ok;
        std::printf("  %-14s", family);
        for (int m = 0; m < 4; ++m)
          std::printf("  %s %6.3f (%6.3f)", kernels::KernelModeName(kModes[m]),
                      t[m].median_ms, t[m].min_ms);
        std::printf("  best %5.2fx  auto/naive %.2f <= %.2f : %s\n",
                    best_speedup, auto_over_naive, kAutoMargin,
                    ok ? "PASS" : "FAIL");
        json.Open(family, '{', /*flat=*/true);
        for (int m = 0; m < 4; ++m)
          json.Time(kernels::KernelModeName(kModes[m]), t[m]);
        json.Num("best_speedup", best_speedup);
        json.Num("auto_over_naive", auto_over_naive);
        json.Close();
      });
  json.Bool("auto_never_slower_than_naive", all_ok);
  json.Close();
  return all_ok;
}

/// Forced simd at the detected tier, each lower cap, and scalar (where
/// forced simd degrades to the naive reference).
void KernelSimd(JsonWriter& json, int repeats) {
  using kernels::SimdTier;
  std::printf("\nkernel_simd (forced simd, %.0f%% density, pool %d), median "
              "ms:\n",
              kSpikeDensity * 100.0, runtime::DefaultThreadCount());
  json.Open("kernel_simd", '{');
  json.Int("pool", runtime::DefaultThreadCount());
  json.Int("repeats", repeats);
  json.Open("tiers", '[');
  const int detected = static_cast<int>(kernels::ActiveSimdTier());
  for (SimdTier cap : {SimdTier::kVnni, SimdTier::kAvx2, SimdTier::kScalar}) {
    if (static_cast<int>(cap) > detected) continue;
    kernels::ScopedSimdTier scoped(cap);
    kernels::ScopedKernelMode force(kernels::KernelMode::kSimd);
    const char* tier = kernels::SimdTierName(kernels::ActiveSimdTier());
    std::printf("  %-9s", tier);
    json.Open(nullptr, '{', /*flat=*/true);
    json.Str("tier", tier);
    ForEachKernelFamily(
        [&](const char* family, const std::function<void()>& run) {
          const Timing t = TimeMs(repeats, run);
          std::printf("  %s %7.3f", family, t.median_ms);
          json.Time(family, t);
        });
    std::printf("\n");
    json.Close();
  }
  json.Close();
  json.Close();
}

/// DVS end to end, dense vs event path, at several silent-step fractions.
/// Silence is induced physically: every event timestamp is compressed into
/// the first (1 - f) of the recording, so binning yields a silent tail of
/// about f*T steps (bursty motion, long stillness). Both paths compute
/// bit-identical predictions (tests/test_event_pipeline.cpp); only
/// wall-clock differs.
void EventPipeline(JsonWriter& json, int repeats) {
  constexpr long kBins = 64;
  constexpr long kBatch = 8;
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

  std::printf("\nevent_pipeline: DVS end to end (16 streams, 64 bins, "
              "2x16x16), %d whole-dataset passes, median (min) ms:\n"
              "  pool  silent%%  actual%%        dense             event       "
              "speedup  kernels run/skipped\n",
              repeats);
  json.Open("event_pipeline", '{');
  json.Str("workload", "dvs_end_to_end[N=16,T=64,2x16x16]");
  json.Int("repeats", repeats);
  json.Open("pools", '[');
  for (int pool : PoolSizes()) {
    runtime::SetGlobalThreads(pool);
    json.Open(nullptr, '{');
    json.Int("pool", pool);
    json.Open("points", '[');
    for (double f : {0.0, 0.5, 0.9, 0.99}) {
      data::EventDataset ds = base;
      const float keep = static_cast<float>(1.0 - f);
      for (data::EventStream& s : ds.streams)
        for (data::Event& e : s.events) e.t *= keep;

      Timing dense;
      {  // dense reference: bin the whole dataset, predict over frames
        snn::ScopedEventPathMode scoped(snn::EventPathMode::kDense);
        dense = TimeMs(repeats, [&] {
          snn::PredictTemporal(net, data::BinDataset(ds, kBins), kBatch);
        });
      }

      // Event path: one packed batch at a time through the runner. The
      // counters are those of the last pass, on a warm runner.
      kernels::SpikeStream stream;
      snn::EventRunner runner(net);
      std::vector<int> preds;
      long silent = 0, run = 0, skipped = 0;
      const Timing event = TimeMs(repeats, [&] {
        preds.clear();
        silent = run = skipped = 0;
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
          silent += runner.stats().silent_steps;
          run += runner.stats().kernel_calls;
          skipped += runner.stats().kernel_calls_skipped;
        }
      });
      const long batches = (ds.size() + kBatch - 1) / kBatch;
      const double actual =
          static_cast<double>(silent) / static_cast<double>(kBins * batches);
      const double speedup = dense.median_ms / event.median_ms;

      std::printf("  %4d   %6.0f   %6.1f   %7.2f (%7.2f)   %7.2f (%7.2f)   "
                  "%5.2fx   %ld/%ld\n",
                  pool, f * 100.0, actual * 100.0, dense.median_ms,
                  dense.min_ms, event.median_ms, event.min_ms, speedup, run,
                  skipped);
      json.Open(nullptr, '{', /*flat=*/true);
      json.Num("silent_fraction", f);
      json.Num("silent_fraction_actual", actual);
      json.Time("dense", dense);
      json.Time("event", event);
      json.Num("speedup", speedup);
      json.Int("kernel_calls", run);
      json.Int("kernel_calls_skipped", skipped);
      json.Close();
    }
    json.Close();
    json.Close();
  }
  json.Close();
  json.Close();
  runtime::SetGlobalThreads(0);
}

/// One training batch, split into its forward (ForwardShared with train on,
/// which fills the Backward caches) and its Network::Backward, once for
/// the trainer's request (parameter gradients) and once for the attacks'
/// (input gradient). Backward reads only those caches, so repeating it
/// after one forward times the same work a training or crafting step does.
void Backward(JsonWriter& json, int repeats) {
  Rng rng(5);
  struct Case {
    const char* name;
    snn::Network net;
    Tensor x;  // [T, B, C, H, W]
  };
  data::DvsGestureOptions dopts;
  dopts.count = 32;
  Case cases[] = {
      {"static[T=6,B=32,1x16x16]", snn::BuildStaticNet({}),
       snn::EncodeRate(Tensor::Uniform({32, 1, 16, 16}, 0.0f, 1.0f, rng), 6,
                       rng)},
      {"dvs[T=12,B=32,2x32x32]", snn::BuildDvsNet({}),
       snn::TimeMajor(
           data::BinDataset(data::MakeSyntheticDvsGesture(dopts), 12))},
  };

  std::printf("\nbackward: one training batch, %d repeats, median (min) "
              "ms:\n"
              "  net                        pool  request       forward      "
              "   backward    backward/forward\n",
              repeats);
  json.Open("backward", '{');
  json.Int("repeats", repeats);
  json.Open("rows", '[');
  const struct {
    const char* name;
    snn::GradRequest request;
  } requests[] = {{"params", snn::GradRequest::kParams},
                  {"input", snn::GradRequest::kInput}};
  for (Case& c : cases) {
    const long t_steps = c.x.dim(0);
    const Tensor& seq = c.net.ForwardShared(c.x, true);
    const Tensor grad = snn::ReadoutMeanBackward(
        Tensor::Uniform({seq.dim(1), seq.dim(2)}, -1.0f, 1.0f, rng), t_steps);
    for (int pool : PoolSizes()) {
      runtime::SetGlobalThreads(pool);
      const Timing fwd =
          TimeMs(repeats, [&] { c.net.ForwardShared(c.x, true); });
      for (const auto& r : requests) {
        const Timing bwd =
            TimeMs(repeats, [&] { c.net.Backward(grad, r.request); });
        const double ratio = bwd.median_ms / fwd.median_ms;
        std::printf("  %-26s %4d  %-7s  %6.2f (%6.2f)   %6.2f (%6.2f)   "
                    "%5.2fx\n",
                    c.name, pool, r.name, fwd.median_ms, fwd.min_ms,
                    bwd.median_ms, bwd.min_ms, ratio);
        json.Open(nullptr, '{', /*flat=*/true);
        json.Str("net", c.name);
        json.Int("pool", pool);
        json.Str("request", r.name);
        json.Time("forward", fwd);
        json.Time("backward", bwd);
        json.Num("backward_over_forward", ratio);
        json.Close();
      }
    }
  }
  json.Close();
  json.Close();
  runtime::SetGlobalThreads(0);
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
  // Whole-pass sections (a dataset pass, a training batch) cost 10-100x a
  // layer forward; they take a fifth of the repeats, at least 3.
  const int pass_repeats = std::max(3, repeats / 5);

  std::FILE* f = std::fopen("BENCH_runtime.json", "w");
  if (f == nullptr) {
    std::perror("BENCH_runtime.json");
    return 2;
  }
  axsnn::JsonWriter json(f);

  const auto& cpu = axsnn::kernels::DetectCpuFeatures();
  const char* simd_tier =
      axsnn::kernels::SimdTierName(axsnn::kernels::ActiveSimdTier());
  const long nproc = static_cast<long>(std::thread::hardware_concurrency());
  const int pool = axsnn::runtime::DefaultThreadCount();
  std::printf("== runtime micro-benchmark ==\n"
              "nproc %ld, default pool %d, build %s, repeats %d (whole-pass "
              "sections %d)\n"
              "simd tier: %s (cpuid: avx2=%d fma=%d avx_vnni=%d "
              "avx512_vnni=%d)\n",
              nproc, pool, AXSNN_BUILD_TYPE, repeats, pass_repeats, simd_tier,
              cpu.avx2, cpu.fma, cpu.avx_vnni, cpu.avx512_vnni);
  json.Open(nullptr, '{');
  json.Open("environment", '{');
  json.Int("nproc", nproc);
  json.Int("pool", pool);
  json.Str("simd_tier", simd_tier);
  json.Str("build_type", AXSNN_BUILD_TYPE);
  json.Int("repeats", repeats);
  json.Close();

  axsnn::PoolScaling(json, repeats);
  const bool dispatch_ok = axsnn::KernelDispatch(json, repeats);
  axsnn::KernelSimd(json, repeats);
  axsnn::EventPipeline(json, pass_repeats);
  axsnn::Backward(json, pass_repeats);
  json.Close();
  std::fclose(f);
  std::printf("\nwrote BENCH_runtime.json\n");

  if (!dispatch_ok) {
    std::fprintf(stderr,
                 "FAIL: auto dispatch slower than naive (see table)\n");
    return 1;
  }
  return 0;
}
