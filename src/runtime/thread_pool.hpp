// Shared worker-thread pool — the execution engine behind every parallel
// loop in the library.
//
// Design notes:
//  * One process-global pool (GlobalPool) executes all kernel-, scenario-
//    and serving-level parallelism. Parallelism is guaranteed by the build —
//    there is no dependence on an OpenMP flag — and the pool size is a
//    runtime knob (AXSNN_THREADS / SetGlobalThreads), not a compile option.
//  * The calling thread participates in every Run, so a pool of size N uses
//    N-1 background workers and a pool of size 1 owns no threads at all and
//    executes inline — handy for debugging and for determinism tests.
//  * Run is multi-producer: concurrent submissions from distinct threads
//    (e.g. several serving workers each fanning a batched forward out) are
//    queued FIFO and drained by the shared workers, each submitter helping
//    with its own batch. No submitter ever degrades to single-threaded
//    execution just because another batch is in flight.
//  * Nested submissions borrow idle workers: a task that itself calls Run
//    (e.g. a sweep cell whose conv kernels use ParallelFor, or the only task
//    of a one-task batch) publishes its batch to the same FIFO queue when at
//    least one worker is parked, and runs it inline only when none is. A
//    busy pool is therefore never oversubscribed, while one-cell phases and
//    sweep tails still get the idle cores. It stays deadlock-free because a
//    waiting submitter only waits on tasks that running threads have already
//    claimed, and a worker claims tasks only when it is running none.
//  * Determinism contract: Run(n, task) executes task(0..n-1) exactly once
//    each, on unspecified threads. Callers that need bit-identical results at
//    any thread count must make task bodies independent (disjoint writes) —
//    see runtime::ParallelFor, which adds fixed chunk partitioning on top.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace axsnn::runtime {

/// Non-owning reference to a callable — like std::function without the
/// allocation, for hot-path task dispatch. The referenced callable must
/// outlive the FunctionRef (always true here: ThreadPool::Run blocks).
template <typename Sig>
class FunctionRef;

template <typename R, typename... Args>
class FunctionRef<R(Args...)> {
 public:
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::remove_cvref_t<F>, FunctionRef>>>
  FunctionRef(F&& f)  // NOLINT(google-explicit-constructor)
      : obj_(const_cast<void*>(static_cast<const void*>(std::addressof(f)))),
        call_([](void* obj, Args... args) -> R {
          return (*static_cast<std::remove_reference_t<F>*>(obj))(
              std::forward<Args>(args)...);
        }) {}

  R operator()(Args... args) const {
    return call_(obj_, std::forward<Args>(args)...);
  }

 private:
  void* obj_;
  R (*call_)(void*, Args...);
};

/// Fixed-size worker pool executing indexed task batches.
class ThreadPool {
 public:
  /// Creates a pool of `threads` (0 = DefaultThreadCount()). The calling
  /// thread counts as one, so `threads - 1` workers are spawned.
  explicit ThreadPool(int threads = 0);

  /// Joins the workers. Must not race with a Run still in flight on another
  /// thread — the global pool guarantees this by refcounting (GlobalPool
  /// hands out shared_ptr owners; destruction waits for the last holder).
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of threads that can execute tasks concurrently (workers + the
  /// calling thread). Always >= 1.
  int thread_count() const { return thread_count_; }

  /// Runs task(i) for every i in [0, num_tasks), blocking until all have
  /// completed. The calling thread participates. Every task runs even when
  /// some throw; the exception of the lowest-index failing task is rethrown
  /// here after the batch drains, so the reported error does not depend on
  /// scheduling. Re-entrant calls (from inside a task) are queued like any
  /// other when a worker is parked and execute inline on the current thread
  /// otherwise. Concurrent calls from distinct threads are queued FIFO and
  /// share the workers — every submitter observes pool parallelism.
  void Run(long num_tasks, FunctionRef<void(long)> task);

  /// True while the current thread is executing a pool task; a Run made
  /// there borrows only parked workers.
  static bool InParallelRegion();

 private:
  /// Per-batch control block. Lives on the submitting thread's stack —
  /// Run is allocation-free. Lifetime is safe because workers only obtain
  /// the pointer under state_mutex_ while the batch is linked into the
  /// queue, each entry bumps the batch's active count, and Run unlinks the
  /// batch (under the same mutex) only after every task has finished and
  /// every worker that entered it has left — so no worker can reference
  /// the stack frame after Run returns.
  struct Batch;

  void WorkerLoop();
  static void ProcessBatch(Batch& batch,
                           std::mutex& state_mutex,
                           std::condition_variable& done_cv);
  /// Removes `b` from the FIFO queue if still linked. Requires state_mutex_.
  void UnlinkLocked(Batch* b);

  int thread_count_ = 1;
  std::vector<std::thread> workers_;

  std::mutex state_mutex_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  bool stopping_ = false;
  // Workers blocked waiting for work; a nested Run publishes its batch only
  // when this is nonzero. Read without the lock, so only a hint: a stale
  // value picks between two correct schedules.
  std::atomic<int> parked_{0};
  // FIFO queue of published batches (stack nodes, intrusively linked).
  // Workers always claim from the head; a submitter works on its own batch.
  Batch* head_ = nullptr;  // guarded by state_mutex_
  Batch* tail_ = nullptr;  // guarded by state_mutex_
};

/// Full-string strtol: the complete string must be one base-10 integer
/// (optionally signed, leading whitespace allowed as per strtol). Returns
/// nullopt on empty input, trailing garbage ("4abc") or overflow — the
/// validation the AXSNN_THREADS / bench repeat-count knobs parse with.
std::optional<long> ParseLongStrict(const char* s);

/// Returns the pool size the global pool is created with: the AXSNN_THREADS
/// environment variable when set, else hardware concurrency. A set but
/// malformed or non-positive AXSNN_THREADS throws std::invalid_argument —
/// garbage ("4abc") is rejected, never silently truncated.
int DefaultThreadCount();

/// The process-wide shared pool, created on first use. Returned as a
/// shared_ptr so a caller mid-Run keeps its pool alive across a concurrent
/// SetGlobalThreads — the old pool is epoch-retired by refcount, destroyed
/// only when the last in-flight user releases it. Hold the returned pointer
/// for the duration of use; do not cache the raw reference.
std::shared_ptr<ThreadPool> GlobalPool();

/// Replaces the global pool with one of `threads` threads (0 = default).
/// Safe against concurrent GlobalPool()/Run users: they finish on the pool
/// they acquired (which stays alive until they release it) and pick up the
/// new pool on their next acquisition. Must not be called from inside pool
/// work (checked).
void SetGlobalThreads(int threads);

}  // namespace axsnn::runtime
