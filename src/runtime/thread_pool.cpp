#include "runtime/thread_pool.hpp"

#include <cerrno>
#include <cstdlib>
#include <limits>
#include <utility>

#include "tensor/check.hpp"

namespace axsnn::runtime {

namespace {

/// Set while the current thread is executing pool work; a nested Run
/// observes it and runs inline unless a worker is parked.
thread_local bool tls_in_parallel_region = false;

/// RAII guard for tls_in_parallel_region.
struct RegionGuard {
  RegionGuard() : saved(tls_in_parallel_region) {
    tls_in_parallel_region = true;
  }
  ~RegionGuard() { tls_in_parallel_region = saved; }
  bool saved;
};

}  // namespace

struct ThreadPool::Batch {
  Batch(long n, FunctionRef<void(long)> t) : task(t), total(n), remaining(n) {}
  FunctionRef<void(long)> task;
  long total;
  std::atomic<long> next{0};
  std::atomic<long> remaining;
  std::mutex error_mutex;
  // The lowest failing index and its exception, guarded by error_mutex.
  long error_index = std::numeric_limits<long>::max();
  std::exception_ptr error;
  // Queue linkage and retirement bookkeeping — all guarded by state_mutex_.
  Batch* next_queued = nullptr;
  bool linked = false;
  int active = 0;  // workers currently inside ProcessBatch for this batch

  /// Runs task(i), keeping the exception of the lowest failing index.
  void Execute(long i) {
    try {
      task(i);
    } catch (...) {
      std::lock_guard<std::mutex> lock(error_mutex);
      if (i < error_index) {
        error_index = i;
        error = std::current_exception();
      }
    }
  }
};

bool ThreadPool::InParallelRegion() { return tls_in_parallel_region; }

ThreadPool::ThreadPool(int threads) {
  if (threads <= 0) threads = DefaultThreadCount();
  thread_count_ = threads;
  workers_.reserve(static_cast<std::size_t>(threads - 1));
  for (int i = 0; i < threads - 1; ++i)
    workers_.emplace_back([this] { WorkerLoop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::ProcessBatch(Batch& batch, std::mutex& state_mutex,
                              std::condition_variable& done_cv) {
  RegionGuard region;
  while (true) {
    const long i = batch.next.fetch_add(1, std::memory_order_relaxed);
    if (i >= batch.total) break;
    batch.Execute(i);
    if (batch.remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      // Last task of the batch: wake the submitting thread. Taking the lock
      // (even empty) orders this notify after the waiter's predicate check.
      { std::lock_guard<std::mutex> lock(state_mutex); }
      done_cv.notify_all();
    }
  }
}

void ThreadPool::UnlinkLocked(Batch* b) {
  if (!b->linked) return;
  Batch* prev = nullptr;
  Batch* cur = head_;
  while (cur != b) {
    prev = cur;
    cur = cur->next_queued;
  }
  (prev != nullptr ? prev->next_queued : head_) = b->next_queued;
  if (tail_ == b) tail_ = prev;
  b->next_queued = nullptr;
  b->linked = false;
}

void ThreadPool::WorkerLoop() {
  std::unique_lock<std::mutex> lock(state_mutex_);
  while (true) {
    while (!stopping_ && head_ == nullptr) {
      ++parked_;
      work_cv_.wait(lock);
      --parked_;
    }
    if (stopping_) return;
    Batch* batch = head_;
    if (batch->next.load(std::memory_order_relaxed) >= batch->total) {
      // Every task already claimed: retire from the queue so the next
      // pending batch (another producer's) becomes visible.
      UnlinkLocked(batch);
      continue;
    }
    ++batch->active;  // Run cannot retire the batch until this drops to 0
    lock.unlock();
    ProcessBatch(*batch, state_mutex_, done_cv_);
    lock.lock();
    --batch->active;
    if (batch->next.load(std::memory_order_relaxed) >= batch->total)
      UnlinkLocked(batch);
    if (batch->active == 0) done_cv_.notify_all();
  }
}

void ThreadPool::Run(long num_tasks, FunctionRef<void(long)> task) {
  if (num_tasks <= 0) return;
  // The batch lives on this stack frame — dispatch performs no heap
  // allocation.
  Batch batch(num_tasks, task);
  if (workers_.empty() || num_tasks == 1 ||
      (tls_in_parallel_region && parked_.load() == 0)) {
    // Pool of one, nothing to fan out, or a nested submission no parked
    // worker could help with: run inline.
    RegionGuard region;
    for (long i = 0; i < num_tasks; ++i) batch.Execute(i);
    if (batch.error) std::rethrow_exception(batch.error);
    return;
  }
  // Concurrent producers — top-level or nested — each append their own
  // batch; workers drain the queue FIFO while every producer works on its
  // own batch, so a second submitter never degrades to inline
  // single-threaded execution. A nested producer waits below only on tasks
  // that running threads already claimed, so nesting cannot deadlock.
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    batch.linked = true;
    if (tail_ != nullptr)
      tail_->next_queued = &batch;
    else
      head_ = &batch;
    tail_ = &batch;
  }
  work_cv_.notify_all();
  ProcessBatch(batch, state_mutex_, done_cv_);  // caller works too
  {
    // Wait until the batch is drained AND every worker that entered it has
    // left ProcessBatch, then unlink it; only then is it safe to let the
    // stack storage die. Workers can only enter while the batch is linked
    // and they bump batch.active under this same mutex, so no worker can
    // slip in between the predicate holding and the unlink below.
    std::unique_lock<std::mutex> lock(state_mutex_);
    done_cv_.wait(lock, [&] {
      return batch.active == 0 &&
             batch.remaining.load(std::memory_order_acquire) == 0;
    });
    UnlinkLocked(&batch);
  }
  if (batch.error) std::rethrow_exception(batch.error);
}

std::optional<long> ParseLongStrict(const char* s) {
  if (s == nullptr || *s == '\0') return std::nullopt;
  errno = 0;
  char* end = nullptr;
  const long value = std::strtol(s, &end, 10);
  if (end == s || *end != '\0' || errno == ERANGE) return std::nullopt;
  return value;
}

int DefaultThreadCount() {
  if (const char* env = std::getenv("AXSNN_THREADS")) {
    const std::optional<long> n = ParseLongStrict(env);
    AXSNN_CHECK(n.has_value() && *n > 0 && *n <= 65536,
                "AXSNN_THREADS must be a positive integer, got \"" << env
                    << "\"");
    return static_cast<int>(*n);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

namespace {

// Global-pool state: a mutex-guarded shared_ptr so acquisition is safe
// against a concurrent SetGlobalThreads — a replaced pool is epoch-retired
// by refcount and destroyed (joining its workers) only when the last holder
// releases it, never under a live Run. A plain mutex rather than
// std::atomic<std::shared_ptr> because libstdc++'s lock-free-ish _Sp_atomic
// spin-bit protocol is opaque to ThreadSanitizer (false data-race reports on
// the guarded pointer swap); acquisition is once per Run, so the mutex is
// not on any hot path. The same mutex serializes lazy creation so
// concurrent first calls cannot construct two pools.
std::shared_ptr<ThreadPool> g_global_pool;
std::mutex g_global_pool_mutex;

}  // namespace

std::shared_ptr<ThreadPool> GlobalPool() {
  std::lock_guard<std::mutex> lock(g_global_pool_mutex);
  if (!g_global_pool)
    g_global_pool = std::make_shared<ThreadPool>(DefaultThreadCount());
  return g_global_pool;
}

void SetGlobalThreads(int threads) {
  AXSNN_CHECK(!ThreadPool::InParallelRegion(),
              "cannot resize the global pool from inside parallel work");
  std::shared_ptr<ThreadPool> fresh = std::make_shared<ThreadPool>(threads);
  std::shared_ptr<ThreadPool> retired;
  {
    std::lock_guard<std::mutex> lock(g_global_pool_mutex);
    retired = std::exchange(g_global_pool, std::move(fresh));
  }
  // The previous pool is now unreachable for new acquisitions; threads that
  // already hold it finish their Run and release it, and the last release
  // destroys it (joining its workers) — possibly right here if no Run is in
  // flight, outside the lock. No quiesce barrier is needed.
}

}  // namespace axsnn::runtime
