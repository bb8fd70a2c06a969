// Tests for the runtime subsystem and its determinism contract:
//  * ThreadPool / ParallelFor execute every index exactly once, rethrow the
//    lowest-index failure, and let nested batches borrow idle workers;
//  * chunk partitioning and reductions are bit-identical at any pool size;
//  * full evaluation pipelines (AccuracyStatic / LogitsTemporal) produce
//    identical results with pools of size 1, 2 and hardware_concurrency;
//  * Network::Clone and StateDict/LoadStateDict round-trip weights exactly;
//  * Network::ForwardShared reuses its workspace (allocation-free steady
//    state) and matches the allocating Forward bit for bit.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "data/dvs_gesture.hpp"
#include "data/event.hpp"
#include "data/synthetic_mnist.hpp"
#include "runtime/parallel_for.hpp"
#include "runtime/thread_pool.hpp"
#include "runtime/workspace.hpp"
#include "snn/inference.hpp"
#include "snn/models.hpp"
#include "snn/trainer.hpp"

namespace axsnn {
namespace {

// --- ThreadPool basics ------------------------------------------------------

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  runtime::ThreadPool pool(4);
  constexpr long kTasks = 1000;
  std::vector<std::atomic<int>> hits(kTasks);
  pool.Run(kTasks, [&](long i) { hits[static_cast<std::size_t>(i)]++; });
  for (long i = 0; i < kTasks; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPool, SingleThreadPoolRunsInline) {
  runtime::ThreadPool pool(1);
  EXPECT_EQ(pool.thread_count(), 1);
  long sum = 0;  // no synchronization needed: everything runs inline
  pool.Run(100, [&](long i) { sum += i; });
  EXPECT_EQ(sum, 99 * 100 / 2);
}

TEST(ThreadPool, PropagatesTaskExceptions) {
  runtime::ThreadPool pool(2);
  EXPECT_THROW(pool.Run(8,
                        [&](long i) {
                          if (i == 3) throw std::runtime_error("boom");
                        }),
               std::runtime_error);
  // The pool stays usable after a failed batch.
  std::atomic<long> count{0};
  pool.Run(8, [&](long) { count++; });
  EXPECT_EQ(count.load(), 8);
}

// Every task fails or succeeds on its own: all 64 run exactly once, and the
// rethrown error is task 5's although task 40 throws first in time (task 5
// sleeps before throwing) — inline at pool 1, in parallel at pool 4, and
// inside a nested batch that may or may not borrow workers.
TEST(ThreadPool, RethrowsLowestIndexFailureAfterRunningEveryTask) {
  constexpr long kTasks = 64;
  for (const int threads : {1, 4}) {
    runtime::ThreadPool pool(threads);
    for (const bool nested : {false, true}) {
      for (int repeat = 0; repeat < 20; ++repeat) {
        std::vector<std::atomic<int>> hits(kTasks);
        auto batch = [&] {
          pool.Run(kTasks, [&](long i) {
            hits[static_cast<std::size_t>(i)]++;
            if (i == 5) {
              std::this_thread::sleep_for(std::chrono::microseconds(200));
              throw std::runtime_error("task 5");
            }
            if (i == 40) throw std::runtime_error("task 40");
          });
        };
        std::string message;
        try {
          if (nested)
            pool.Run(1, [&](long) { batch(); });
          else
            batch();
        } catch (const std::runtime_error& e) {
          message = e.what();
        }
        EXPECT_EQ(message, "task 5") << "pool " << threads << " nested "
                                     << nested << " repeat " << repeat;
        for (long i = 0; i < kTasks; ++i)
          ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1)
              << "task " << i << ", pool " << threads << " nested " << nested;
      }
    }
  }
}

// Runs one task per pool thread, each waiting until all have started, so
// every worker enters the batch; when Run returns, every worker is parked.
// Makes the nested-borrowing tests independent of worker start-up timing.
void ParkAllWorkers(runtime::ThreadPool& pool) {
  const long n = pool.thread_count();
  std::atomic<long> started{0};
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  pool.Run(n, [&](long) {
    started.fetch_add(1);
    while (started.load() < n && std::chrono::steady_clock::now() < deadline)
      std::this_thread::yield();
  });
  ASSERT_EQ(started.load(), n);
}

// Regression for the one-core training phase: a nested Run — from the only
// task of a one-task batch, or from each task of a two-task batch — used to
// execute inline, leaving the other workers idle. Parked workers must now
// share it: the nested work of Run(outer) reaches more threads than the
// outer batch alone could use. (Per nested batch of Run(2) is not asserted:
// the first one submitted may take both spare workers, and the second then
// correctly runs inline.)
TEST(ThreadPool, NestedRunBorrowsIdleWorkers) {
  runtime::ThreadPool pool(4);
  for (const long outer : {1L, 2L}) {
    ParkAllWorkers(pool);
    std::mutex mutex;
    std::set<std::thread::id> executors;
    std::atomic<long> inner_total{0};
    pool.Run(outer, [&](long) {
      pool.Run(32, [&](long) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        inner_total.fetch_add(1, std::memory_order_relaxed);
        std::lock_guard<std::mutex> lock(mutex);
        executors.insert(std::this_thread::get_id());
      });
    });
    EXPECT_EQ(inner_total.load(), 32 * outer);
    EXPECT_GE(executors.size(), static_cast<std::size_t>(outer) + 1)
        << "the nested batches of Run(" << outer << ") borrowed no worker";
  }
}

TEST(ThreadPool, NestedRunsCompleteAtEveryDepth) {
  runtime::ThreadPool pool(4);
  ParkAllWorkers(pool);
  std::atomic<long> level1{0}, level2{0}, level3{0};
  pool.Run(4, [&](long) {
    EXPECT_TRUE(runtime::ThreadPool::InParallelRegion());
    // Nested submissions must not deadlock and must still do all the work,
    // whether they borrow workers or run inline.
    pool.Run(5, [&](long) {
      EXPECT_TRUE(runtime::ThreadPool::InParallelRegion());
      pool.Run(6, [&](long) {
        EXPECT_TRUE(runtime::ThreadPool::InParallelRegion());
        level3++;
      });
      level2++;
    });
    level1++;
  });
  EXPECT_EQ(level1.load(), 4);
  EXPECT_EQ(level2.load(), 4 * 5);
  EXPECT_EQ(level3.load(), 4 * 5 * 6);
  EXPECT_FALSE(runtime::ThreadPool::InParallelRegion());

  // A task that throws on a borrowed worker inside a nested batch
  // propagates through both Runs.
  ParkAllWorkers(pool);
  std::atomic<long> borrowed_throws{0};
  std::string message;
  try {
    pool.Run(1, [&](long) {
      const std::thread::id submitter = std::this_thread::get_id();
      pool.Run(32, [&](long) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        if (std::this_thread::get_id() != submitter) {
          borrowed_throws++;
          throw std::runtime_error("borrowed worker failed");
        }
      });
    });
  } catch (const std::runtime_error& e) {
    message = e.what();
  }
  EXPECT_GT(borrowed_throws.load(), 0);
  EXPECT_EQ(message, "borrowed worker failed");

  // The pool stays usable afterwards, nested batches included.
  std::atomic<long> after{0};
  pool.Run(8, [&](long) { pool.Run(8, [&](long) { after++; }); });
  EXPECT_EQ(after.load(), 64);
}

// --- ThreadPool multi-producer Run ------------------------------------------

// Regression for the silent single-threaded degrade: a second thread calling
// Run while another batch was in flight used to execute its whole batch
// inline. With the FIFO batch queue, both submitters' batches must be
// executed by more than one thread.
TEST(ThreadPool, ConcurrentSubmittersBothSeePoolParallelism) {
  runtime::ThreadPool pool(4);
  constexpr int kSubmitters = 2;
  constexpr long kTasks = 32;

  std::mutex mutex;
  std::set<std::thread::id> executors[kSubmitters];
  std::atomic<long> counts[kSubmitters] = {};

  // Hand-rolled barrier so both Runs are in flight simultaneously.
  std::atomic<int> ready{0};
  std::vector<std::thread> submitters;
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&, s] {
      ready.fetch_add(1);
      while (ready.load() < kSubmitters) std::this_thread::yield();
      pool.Run(kTasks, [&, s](long) {
        // Long enough for the workers to wake up and claim shares of both
        // queued batches before any single thread finishes one alone.
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        counts[s].fetch_add(1, std::memory_order_relaxed);
        std::lock_guard<std::mutex> lock(mutex);
        executors[s].insert(std::this_thread::get_id());
      });
    });
  }
  for (auto& t : submitters) t.join();

  for (int s = 0; s < kSubmitters; ++s) {
    EXPECT_EQ(counts[s].load(), kTasks) << "submitter " << s;
    EXPECT_GE(executors[s].size(), 2u)
        << "submitter " << s << "'s batch ran single-threaded";
  }
}

TEST(ThreadPool, ConcurrentSubmittersStress) {
  // Many small racing batches from several threads: exactly-once execution
  // must hold for every batch (and TSan must stay quiet on the queue).
  runtime::ThreadPool pool(4);
  constexpr int kSubmitters = 4;
  constexpr int kRounds = 50;

  std::atomic<long> grand_total{0};
  std::vector<std::thread> submitters;
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&, s] {
      long expected = 0;
      std::atomic<long> mine{0};
      for (int r = 0; r < kRounds; ++r) {
        const long n = 1 + (s * 31 + r * 17) % 23;  // varied batch sizes
        expected += n;
        pool.Run(n, [&](long) { mine.fetch_add(1, std::memory_order_relaxed); });
      }
      EXPECT_EQ(mine.load(), expected) << "submitter " << s;
      grand_total.fetch_add(mine.load());
    });
  }
  for (auto& t : submitters) t.join();
  EXPECT_GT(grand_total.load(), 0);
}

// Regression for the SetGlobalThreads use-after-free: resizing the global
// pool used to destroy it while other threads were mid-Run on it. With
// refcounted epoch retirement, in-flight users keep their pool alive.
TEST(ThreadPool, SetGlobalThreadsWhileRunning) {
  std::atomic<bool> stop{false};
  std::atomic<long> executed{0};
  constexpr int kRunners = 2;

  std::vector<std::thread> runners;
  for (int r = 0; r < kRunners; ++r) {
    runners.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        auto pool = runtime::GlobalPool();  // hold across the whole Run
        pool->Run(16, [&](long) {
          executed.fetch_add(1, std::memory_order_relaxed);
        });
      }
    });
  }
  for (int i = 0; i < 20; ++i) {
    runtime::SetGlobalThreads(2 + (i & 1));
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  stop.store(true);
  for (auto& t : runners) t.join();
  runtime::SetGlobalThreads(0);  // restore default for later tests

  EXPECT_GT(executed.load(), 0);
  EXPECT_EQ(executed.load() % 16, 0) << "a Run lost or duplicated tasks";
}

// --- AXSNN_THREADS / strict integer parsing ---------------------------------

TEST(ThreadPool, ParseLongStrictValidatesWholeString) {
  EXPECT_EQ(runtime::ParseLongStrict("42").value_or(-1), 42);
  EXPECT_EQ(runtime::ParseLongStrict("-3").value_or(+1), -3);
  EXPECT_EQ(runtime::ParseLongStrict(" 7").value_or(-1), 7);  // strtol skip
  EXPECT_FALSE(runtime::ParseLongStrict("").has_value());
  EXPECT_FALSE(runtime::ParseLongStrict("4abc").has_value());
  EXPECT_FALSE(runtime::ParseLongStrict("abc").has_value());
  EXPECT_FALSE(runtime::ParseLongStrict("4 ").has_value());
  EXPECT_FALSE(runtime::ParseLongStrict("99999999999999999999").has_value());
}

TEST(ThreadPool, DefaultThreadCountRejectsGarbageEnv) {
  const char* saved = std::getenv("AXSNN_THREADS");
  const std::string saved_value = saved ? saved : "";

  ::setenv("AXSNN_THREADS", "4abc", 1);
  EXPECT_THROW(runtime::DefaultThreadCount(), std::invalid_argument);
  ::setenv("AXSNN_THREADS", "0", 1);
  EXPECT_THROW(runtime::DefaultThreadCount(), std::invalid_argument);
  ::setenv("AXSNN_THREADS", "-2", 1);
  EXPECT_THROW(runtime::DefaultThreadCount(), std::invalid_argument);
  ::setenv("AXSNN_THREADS", "4", 1);
  EXPECT_EQ(runtime::DefaultThreadCount(), 4);

  if (saved)
    ::setenv("AXSNN_THREADS", saved_value.c_str(), 1);
  else
    ::unsetenv("AXSNN_THREADS");
}

// --- ParallelFor determinism ------------------------------------------------

TEST(ParallelFor, ChunkBoundariesDependOnlyOnRange) {
  // Identical chunk sets at different pool sizes — the determinism backbone.
  const long grain = runtime::DefaultGrain(1000);
  for (int threads : {1, 3, 8}) {
    runtime::ThreadPool pool(threads);
    std::vector<std::pair<long, long>> chunks(
        static_cast<std::size_t>(runtime::NumChunks(1000, grain)));
    runtime::ParallelForChunks(
        0, 1000,
        [&](long c, long lo, long hi) {
          chunks[static_cast<std::size_t>(c)] = {lo, hi};
        },
        0, &pool);
    for (std::size_t c = 0; c < chunks.size(); ++c) {
      EXPECT_EQ(chunks[c].first, static_cast<long>(c) * grain);
      EXPECT_EQ(chunks[c].second,
                std::min<long>(1000, static_cast<long>(c + 1) * grain));
    }
  }
}

TEST(ParallelFor, SumIsBitIdenticalAcrossPoolSizes) {
  // A sum whose result depends on accumulation order when done naively.
  std::vector<double> values;
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) values.push_back(rng.Uniform(-1e6, 1e6));

  auto sum_with = [&](int threads) {
    runtime::ThreadPool pool(threads);
    return runtime::ParallelSum(
        0, static_cast<long>(values.size()),
        [&](long lo, long hi) {
          double s = 0.0;
          for (long i = lo; i < hi; ++i)
            s += values[static_cast<std::size_t>(i)];
          return s;
        },
        0, &pool);
  };
  const double serial = sum_with(1);
  EXPECT_EQ(serial, sum_with(2));
  EXPECT_EQ(serial, sum_with(5));
  EXPECT_EQ(serial, sum_with(16));
}

// --- Workspace --------------------------------------------------------------

TEST(Workspace, SlotReferencesAreStableAndStorageIsReused) {
  runtime::Workspace ws;
  Tensor& a = ws.Acquire(0, {4, 4});
  const float* data_a = a.data();
  Tensor& b = ws.Acquire(7, {2, 2});  // growing the arena must not move slot 0
  (void)b;
  EXPECT_EQ(&ws.Slot(0), &a);
  EXPECT_EQ(ws.slot_count(), 8u);
  // Shrinking then re-growing within capacity keeps the heap block.
  ws.Acquire(0, {2, 2});
  Tensor& a2 = ws.Acquire(0, {4, 4});
  EXPECT_EQ(a2.data(), data_a);
  EXPECT_EQ(a2.shape(), (Shape{4, 4}));
}

// --- End-to-end determinism across pool sizes -------------------------------

snn::Network MakeTinyStaticNet() {
  snn::StaticNetOptions opts;
  opts.height = 16;
  opts.width = 16;
  opts.conv1_channels = 4;
  opts.conv2_channels = 8;
  opts.conv3_channels = 8;
  opts.hidden = 32;
  return snn::BuildStaticNet(opts);
}

TEST(RuntimeDeterminism, AccuracyStaticIndependentOfPoolSize) {
  data::SyntheticMnistOptions d;
  d.count = 64;
  d.seed = 11;
  data::StaticDataset ds = data::MakeSyntheticMnist(d);

  std::vector<int> pool_sizes = {1, 2, runtime::DefaultThreadCount()};
  std::vector<float> accuracies;
  std::vector<std::vector<int>> predictions;
  for (int threads : pool_sizes) {
    runtime::SetGlobalThreads(threads);
    snn::Network net = MakeTinyStaticNet();
    accuracies.push_back(snn::AccuracyStatic(net, ds.images, ds.labels, 6,
                                             snn::Encoding::kRate, 42, 16));
    predictions.push_back(snn::PredictStatic(net, ds.images, 6,
                                             snn::Encoding::kRate, 42, 16));
  }
  runtime::SetGlobalThreads(0);  // restore default for later tests
  for (std::size_t i = 1; i < accuracies.size(); ++i) {
    EXPECT_EQ(accuracies[0], accuracies[i])
        << "pool size " << pool_sizes[i] << " changed the accuracy";
    EXPECT_EQ(predictions[0], predictions[i])
        << "pool size " << pool_sizes[i] << " changed the predictions";
  }
}

TEST(RuntimeDeterminism, LogitsTemporalIndependentOfPoolSize) {
  data::DvsGestureOptions d;
  d.count = 8;
  d.seed = 3;
  data::EventDataset ds = data::MakeSyntheticDvsGesture(d);
  Tensor frames = data::BinDataset(ds, 8);

  snn::DvsNetOptions opts;
  opts.height = ds.height;
  opts.width = ds.width;

  std::vector<int> pool_sizes = {1, 2, runtime::DefaultThreadCount()};
  std::vector<Tensor> logits;
  for (int threads : pool_sizes) {
    runtime::SetGlobalThreads(threads);
    snn::Network net = snn::BuildDvsNet(opts);
    logits.push_back(snn::LogitsTemporal(net, frames));
  }
  runtime::SetGlobalThreads(0);
  for (std::size_t i = 1; i < logits.size(); ++i) {
    ASSERT_EQ(logits[0].shape(), logits[i].shape());
    EXPECT_TRUE(logits[0].AllClose(logits[i], 0.0f))
        << "pool size " << pool_sizes[i] << " changed the logits";
  }
}

// --- Clone / StateDict round-trips ------------------------------------------

TEST(RuntimeDeterminism, CloneMatchesOriginalExactly) {
  data::SyntheticMnistOptions d;
  d.count = 32;
  d.seed = 21;
  data::StaticDataset ds = data::MakeSyntheticMnist(d);

  snn::Network net = MakeTinyStaticNet();
  snn::TrainConfig cfg;
  cfg.epochs = 1;
  cfg.batch_size = 16;
  cfg.time_steps = 4;
  snn::FitStatic(net, ds.images, ds.labels, cfg);

  snn::Network clone = net.Clone();
  Rng rng_a(5), rng_b(5);
  Tensor logits_a = snn::LogitsStatic(net, ds.images, 4,
                                      snn::Encoding::kDirect, rng_a);
  Tensor logits_b = snn::LogitsStatic(clone, ds.images, 4,
                                      snn::Encoding::kDirect, rng_b);
  EXPECT_TRUE(logits_a.AllClose(logits_b, 0.0f));
}

TEST(RuntimeDeterminism, StateDictRoundTripIsExact) {
  snn::Network net = MakeTinyStaticNet();
  auto state = net.StateDict();
  EXPECT_FALSE(state.empty());

  snn::Network rebuilt = MakeTinyStaticNet();
  // Perturb, then restore: LoadStateDict must reproduce every scalar.
  for (Tensor* p : rebuilt.Params()) p->Scale(1.5f);
  rebuilt.LoadStateDict(state);

  auto params = net.Params();
  auto restored = rebuilt.Params();
  ASSERT_EQ(params.size(), restored.size());
  for (std::size_t i = 0; i < params.size(); ++i) {
    ASSERT_EQ(params[i]->shape(), restored[i]->shape());
    for (long j = 0; j < params[i]->numel(); ++j)
      ASSERT_EQ((*params[i])[j], (*restored[i])[j])
          << "param " << i << " element " << j;
  }
}

// --- Allocation-free forward path -------------------------------------------

TEST(ForwardShared, MatchesAllocatingForwardBitwise) {
  snn::Network net = MakeTinyStaticNet();
  Rng rng(9);
  Tensor x = Tensor::Uniform({4, 2, 1, 16, 16}, 0.0f, 1.0f, rng);
  snn::Network net2 = net.Clone();
  Tensor via_forward = net.Forward(x, false);
  const Tensor& via_shared = net2.ForwardShared(x, false);
  EXPECT_TRUE(via_forward.AllClose(via_shared, 0.0f));
}

TEST(ForwardShared, ReusesWorkspaceBuffersInSteadyState) {
  snn::Network net = MakeTinyStaticNet();
  Rng rng(9);
  Tensor x = Tensor::Uniform({4, 2, 1, 16, 16}, 0.0f, 1.0f, rng);
  const Tensor& first = net.ForwardShared(x, false);
  const Tensor* out_ptr = &first;
  const float* data_ptr = first.data();
  for (int pass = 0; pass < 3; ++pass) {
    const Tensor& again = net.ForwardShared(x, false);
    EXPECT_EQ(&again, out_ptr) << "output slot changed between passes";
    EXPECT_EQ(again.data(), data_ptr) << "output storage was reallocated";
  }
}

}  // namespace
}  // namespace axsnn
