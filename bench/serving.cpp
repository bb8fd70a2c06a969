// Serving front-end benchmark + CI smoke gate.
//
// Measures the batched InferenceServer (src/serve/) on the 16x16 static
// net: closed-loop producers drive the server at micro-batch caps
// 1/2/4/8/16 and the harness reports per-request p50/p99 latency, QPS and
// the realized mean batch size. Two correctness segments ride along and
// make the binary self-asserting (nonzero exit on violation), so CI runs
// it as a smoke leg:
//  * bit-identity: batched serving must match N sequential single-sample
//    forwards bit for bit at every kernel mode;
//  * hot-swap: sustained traffic across repeated SwapModel calls must see
//    zero dropped, zero failed and zero corrupted responses — every reply
//    bitwise matches the model of the epoch that served it.
//
// Results are merged into BENCH_runtime.json (cwd) as a "serving" section,
// replacing any previous one.
//
// Usage: bench_serving [requests_per_point] [producers]
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "kernels/dispatch.hpp"
#include "runtime/thread_pool.hpp"
#include "serve/server.hpp"
#include "snn/loss.hpp"
#include "snn/models.hpp"
#include "tensor/random.hpp"

namespace axsnn {
namespace {

using Clock = std::chrono::steady_clock;

constexpr long kTimeSteps = 6;
constexpr int kServeWorkers = 2;

snn::Network MakeServeNet(std::uint64_t seed = 7) {
  snn::StaticNetOptions opts;
  opts.height = 16;
  opts.width = 16;
  opts.seed = seed;
  return snn::BuildStaticNet(opts);
}

void FillRequest(serve::InferRequest& req, std::uint64_t image_seed) {
  Rng rng(image_seed);
  Tensor image = Tensor::Uniform({1, 16, 16}, 0.0f, 1.0f, rng);
  serve::EncodeStaticRequest(req, image, kTimeSteps, snn::Encoding::kRate,
                             /*seed=*/image_seed * 31 + 1);
}

/// Reference: the request served alone (batch of one) on `net`.
Tensor SequentialLogits(snn::Network& net, const Tensor& frames) {
  Shape batched = frames.shape();
  batched.insert(batched.begin() + 1, 1);
  const Tensor& seq = net.ForwardShared(frames.Reshaped(batched), false);
  Tensor logits = snn::ReadoutMean(seq);  // [1, K]
  return logits.Reshaped({logits.dim(1)});
}

bool BitIdentical(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0;
}

// --- latency / QPS vs micro-batch size --------------------------------------

struct LatencyPoint {
  long max_batch = 0;
  double qps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double mean_batch = 0.0;
};

LatencyPoint RunLatencyPoint(const snn::Network& model, long max_batch,
                             long requests, int producers) {
  serve::ServerOptions opts;
  opts.workers = kServeWorkers;
  opts.max_batch = max_batch;
  opts.max_delay = std::chrono::microseconds(100);
  serve::InferenceServer server(model, opts);

  // Closed loop with a pipeline: each producer keeps `depth` requests in
  // flight so total concurrency scales with the batch cap under test.
  const long depth = std::max<long>(1, max_batch);
  const long per_producer = (requests + producers - 1) / producers;
  const long rounds = (per_producer + depth - 1) / depth;

  std::vector<std::vector<double>> latencies(
      static_cast<std::size_t>(producers));
  std::vector<std::thread> threads;
  const auto wall_start = Clock::now();
  for (int p = 0; p < producers; ++p) {
    threads.emplace_back([&, p] {
      auto& lats = latencies[static_cast<std::size_t>(p)];
      lats.reserve(static_cast<std::size_t>(rounds * depth));
      std::vector<serve::InferRequest> reqs(static_cast<std::size_t>(depth));
      std::vector<Clock::time_point> submitted(
          static_cast<std::size_t>(depth));
      for (std::size_t d = 0; d < reqs.size(); ++d)
        FillRequest(reqs[d], static_cast<std::uint64_t>(p * 1000 + d));
      for (long r = 0; r < rounds; ++r) {
        for (std::size_t d = 0; d < reqs.size(); ++d) {
          submitted[d] = Clock::now();
          server.Submit(reqs[d]);
        }
        for (std::size_t d = 0; d < reqs.size(); ++d) {
          reqs[d].Wait();
          lats.push_back(std::chrono::duration<double, std::milli>(
                             Clock::now() - submitted[d])
                             .count());
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  const double wall_s =
      std::chrono::duration<double>(Clock::now() - wall_start).count();
  server.Drain();

  std::vector<double> all;
  for (auto& l : latencies) all.insert(all.end(), l.begin(), l.end());
  std::sort(all.begin(), all.end());

  LatencyPoint point;
  point.max_batch = max_batch;
  point.qps = static_cast<double>(all.size()) / wall_s;
  point.p50_ms = all[all.size() / 2];
  point.p99_ms = all[(all.size() * 99) / 100];
  point.mean_batch = server.stats().mean_batch();
  return point;
}

// --- bit-identity across kernel modes ----------------------------------------

struct ModeIdentity {
  const char* name;
  bool identical;
};

std::vector<ModeIdentity> RunBitIdentity(const snn::Network& model) {
  const struct {
    kernels::KernelMode mode;
    const char* name;
  } kModes[] = {
      {kernels::KernelMode::kAuto, "auto"},
      {kernels::KernelMode::kNaive, "naive"},
      {kernels::KernelMode::kSparse, "sparse"},
      {kernels::KernelMode::kSimd, "simd"},
  };
  constexpr int kRequests = 32;

  std::vector<ModeIdentity> results;
  for (const auto& m : kModes) {
    kernels::ScopedKernelMode scoped(m.mode);
    snn::Network reference = model.Clone();
    std::vector<serve::InferRequest> requests(kRequests);
    std::vector<Tensor> expected;
    for (int i = 0; i < kRequests; ++i) {
      FillRequest(requests[i], 500 + static_cast<std::uint64_t>(i));
      expected.push_back(SequentialLogits(reference, requests[i].frames));
    }

    serve::ServerOptions opts;
    opts.workers = kServeWorkers;
    opts.max_batch = 8;
    opts.max_delay = std::chrono::microseconds(500);
    serve::InferenceServer server(model, opts);
    for (auto& req : requests) server.Submit(req);
    for (auto& req : requests) req.Wait();

    bool identical = true;
    for (int i = 0; i < kRequests; ++i)
      identical &= requests[i].ok() &&
                   BitIdentical(requests[i].logits, expected[i]);
    results.push_back({m.name, identical});
  }
  return results;
}

// --- hot swap under sustained load -------------------------------------------

struct HotSwapResult {
  long requests = 0;
  long swaps = 0;
  long failed = 0;
  long dropped = 0;
  long mismatched = 0;
  long epochs_observed = 0;
};

HotSwapResult RunHotSwap(const snn::Network& model_a,
                         const snn::Network& model_b) {
  constexpr int kProducers = 2;
  constexpr int kSlots = 8;
  constexpr int kRounds = 16;
  constexpr int kSwaps = 8;

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
  opts.workers = kServeWorkers;
  opts.max_batch = 4;
  opts.max_delay = std::chrono::microseconds(100);
  serve::InferenceServer server(model_a, opts);

  std::atomic<long> mismatched{0};
  std::mutex epochs_mutex;
  std::set<std::uint64_t> epochs;
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int round = 0; round < kRounds; ++round) {
        for (int s = 0; s < kSlots; ++s) server.Submit(requests[p][s]);
        for (int s = 0; s < kSlots; ++s) {
          auto& req = requests[p][s];
          req.Wait();
          if (!req.ok()) continue;  // counted via server stats
          // Epoch 1 + odd epochs serve model A; swaps alternate to B first.
          const Tensor& want = (req.model_epoch() % 2 == 1)
                                   ? expected_a[p][s]
                                   : expected_b[p][s];
          if (!BitIdentical(req.logits, want)) mismatched.fetch_add(1);
          std::lock_guard<std::mutex> lock(epochs_mutex);
          epochs.insert(req.model_epoch());
        }
      }
    });
  }
  for (int i = 0; i < kSwaps; ++i) {
    server.SwapModel((i % 2 == 0) ? model_b : model_a);
    std::this_thread::sleep_for(std::chrono::milliseconds(3));
  }
  for (auto& t : producers) t.join();
  server.Drain();

  const auto stats = server.stats();
  HotSwapResult result;
  result.requests = static_cast<long>(stats.submitted);
  result.swaps = kSwaps;
  result.failed = static_cast<long>(stats.failed);
  result.dropped =
      static_cast<long>(stats.submitted - stats.completed - stats.failed);
  result.mismatched = mismatched.load();
  result.epochs_observed = static_cast<long>(epochs.size());
  return result;
}

// --- BENCH_runtime.json merge ------------------------------------------------

std::string ReadFileOrEmpty(const char* path) {
  std::string content;
  if (FILE* f = std::fopen(path, "rb")) {
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
      content.append(buf, n);
    std::fclose(f);
  }
  return content;
}

/// Inserts/replaces the top-level "serving" section. The file is our own
/// writer's output (micro_runtime.cpp emits it), so plain string surgery —
/// truncate before the existing "serving" key or the final brace — is safe.
void MergeServingSection(const std::string& section) {
  std::string existing = ReadFileOrEmpty("BENCH_runtime.json");
  std::string out;
  const std::size_t serving = existing.find("\"serving\"");
  if (serving != std::string::npos) {
    const std::size_t comma = existing.rfind(',', serving);
    out = existing.substr(0, comma != std::string::npos ? comma : serving);
  } else if (const std::size_t brace = existing.rfind('}');
             brace != std::string::npos) {
    out = existing.substr(0, brace);
    while (!out.empty() && (out.back() == '\n' || out.back() == ' '))
      out.pop_back();
  } else {
    out = "{";
  }
  out += ",\n  \"serving\": ";
  // A previously empty/missing file leaves a bare "{" — drop the comma.
  if (out.compare(0, 2, "{,") == 0) out.erase(1, 1);
  out += section;
  out += "\n}\n";
  if (FILE* f = std::fopen("BENCH_runtime.json", "w")) {
    std::fwrite(out.data(), 1, out.size(), f);
    std::fclose(f);
    std::printf("\nwrote BENCH_runtime.json (serving section)\n");
  }
}

}  // namespace
}  // namespace axsnn

int main(int argc, char** argv) {
  long requests_per_point = 256;
  int producers = 4;
  if (argc > 1) {
    const auto parsed = axsnn::runtime::ParseLongStrict(argv[1]);
    if (!parsed || *parsed <= 0) {
      std::fprintf(stderr,
                   "usage: %s [requests_per_point] [producers]  (positive "
                   "integers, got \"%s\")\n",
                   argv[0], argv[1]);
      return 2;
    }
    requests_per_point = *parsed;
  }
  if (argc > 2) {
    const auto parsed = axsnn::runtime::ParseLongStrict(argv[2]);
    if (!parsed || *parsed <= 0 || *parsed > 64) {
      std::fprintf(stderr,
                   "usage: %s [requests_per_point] [producers]  (producers in "
                   "[1, 64], got \"%s\")\n",
                   argv[0], argv[2]);
      return 2;
    }
    producers = static_cast<int>(*parsed);
  }

  std::printf("== serving benchmark ==\n");
  std::printf("workload: static_net[1x16x16, T=%ld], %d serving workers, %d "
              "producers, %ld requests/point\n",
              axsnn::kTimeSteps, axsnn::kServeWorkers, producers,
              requests_per_point);

  const axsnn::snn::Network model = axsnn::MakeServeNet();
  bool ok = true;

  std::printf("\nlatency / throughput vs micro-batch cap:\n");
  std::printf("  max_batch       qps    p50_ms    p99_ms   mean_batch\n");
  std::vector<axsnn::LatencyPoint> points;
  for (long max_batch : {1L, 2L, 4L, 8L, 16L}) {
    points.push_back(axsnn::RunLatencyPoint(model, max_batch,
                                            requests_per_point, producers));
    const auto& p = points.back();
    std::printf("  %9ld  %8.1f  %8.3f  %8.3f   %9.2f\n", p.max_batch, p.qps,
                p.p50_ms, p.p99_ms, p.mean_batch);
    if (!(p.qps > 0.0)) {
      std::printf("  ERROR: qps must be positive\n");
      ok = false;
    }
  }

  std::printf("\nbatched vs sequential bit-identity per kernel mode:\n");
  const auto identity = axsnn::RunBitIdentity(model);
  for (const auto& m : identity) {
    std::printf("  %-6s  %s\n", m.name, m.identical ? "identical" : "DIVERGED");
    ok &= m.identical;
  }

  std::printf("\nhot swap under sustained load:\n");
  const auto swap = axsnn::RunHotSwap(model, axsnn::MakeServeNet(99));
  std::printf(
      "  requests %ld  swaps %ld  failed %ld  dropped %ld  mismatched %ld  "
      "epochs_observed %ld\n",
      swap.requests, swap.swaps, swap.failed, swap.dropped, swap.mismatched,
      swap.epochs_observed);
  if (swap.failed != 0 || swap.dropped != 0 || swap.mismatched != 0) {
    std::printf("  ERROR: hot swap dropped/failed/corrupted responses\n");
    ok = false;
  }

  // --- JSON section ---------------------------------------------------------
  std::string section;
  char buf[256];
  section += "{\n    \"workload\": \"static_net[1x16x16,T=6] batched "
             "ForwardShared\",\n";
  std::snprintf(buf, sizeof(buf),
                "    \"producers\": %d,\n    \"requests_per_point\": %ld,\n"
                "    \"workers\": %d,\n",
                producers, requests_per_point, axsnn::kServeWorkers);
  section += buf;
  section += "    \"latency_qps\": [\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto& p = points[i];
    std::snprintf(buf, sizeof(buf),
                  "      {\"max_batch\": %ld, \"qps\": %.1f, \"p50_ms\": "
                  "%.4f, \"p99_ms\": %.4f, \"mean_batch\": %.2f}%s\n",
                  p.max_batch, p.qps, p.p50_ms, p.p99_ms, p.mean_batch,
                  i + 1 < points.size() ? "," : "");
    section += buf;
  }
  section += "    ],\n    \"bitwise_identical_modes\": {";
  for (std::size_t i = 0; i < identity.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "\"%s\": %s%s", identity[i].name,
                  identity[i].identical ? "true" : "false",
                  i + 1 < identity.size() ? ", " : "");
    section += buf;
  }
  std::snprintf(buf, sizeof(buf),
                "},\n    \"hot_swap\": {\"requests\": %ld, \"swaps\": %ld, "
                "\"failed\": %ld, \"dropped\": %ld, \"mismatched\": %ld, "
                "\"epochs_observed\": %ld}\n  }",
                swap.requests, swap.swaps, swap.failed, swap.dropped,
                swap.mismatched, swap.epochs_observed);
  section += buf;
  axsnn::MergeServingSection(section);

  if (!ok) {
    std::printf("\nFAILED: serving invariants violated\n");
    return 1;
  }
  std::printf("\nall serving invariants hold\n");
  return 0;
}
