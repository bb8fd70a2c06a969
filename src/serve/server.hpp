// Batched serving front end: multi-producer request queue -> adaptive
// micro-batcher -> batched forward -> per-request completion.
//
// Architecture (DESIGN.md "Serving front end" has the full protocol):
//  * Producers Submit() InferRequests into a bounded ring (multi-producer,
//    blocking; TrySubmit is the non-blocking admission-control variant).
//  * A fixed set of serving workers pops requests and coalesces them into
//    micro-batches: a worker drains any backlog immediately up to
//    max_batch, and only when the queue runs empty does it wait up to
//    max_delay for more arrivals — so a loaded server never trades latency
//    for batching it already has, and an idle one pays at most max_delay.
//  * Each worker owns a private clone of the model (Network workspaces are
//    single-threaded by contract) plus a packing Workspace; a batch of N
//    same-shaped requests is packed into one time-major [T, N, ...] tensor
//    and served by ONE ForwardShared call, so the batch dimension flows
//    through the im2col/GEMM/SIMD kernel tiles. Requests whose sample
//    shape differs are served as separate sub-batches, in order.
//  * Determinism contract: a batch-of-N result is bit-identical to N
//    sequential single-sample forwards at every kernel mode and pool size —
//    every kernel treats samples independently and the readout accumulates
//    per sample in ReadoutMean order (pinned by tests/test_serve.cpp at
//    micro-batch caps 1, 8 and 16).
//  * Model hot-swap: the served weights live in an immutable snapshot
//    behind a mutex-guarded shared_ptr. SwapModel
//    publishes a new snapshot with a bumped epoch; workers notice the epoch
//    change at their next batch boundary and re-clone. In-flight batches
//    finish on the epoch they started with — no torn reads, no dropped
//    responses; each request records the epoch that served it.
//  * Steady state performs no heap allocation: the ring is pre-sized,
//    batches pack into never-shrinking workspace tensors, request latches
//    reuse their storage. Allocations happen only on first use of a new
//    shape/batch size and when a swap makes a worker re-clone.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "runtime/workspace.hpp"
#include "serve/request.hpp"
#include "snn/encoding.hpp"
#include "snn/network.hpp"
#include "tensor/tensor.hpp"

namespace axsnn::serve {

/// Serving configuration, fixed at server construction.
struct ServerOptions {
  /// Serving worker threads. Each owns a model clone; kernel-level
  /// parallelism inside one forward still fans out on the global pool, so
  /// 1-2 workers already saturate a machine on batched traffic.
  int workers = 1;
  /// Micro-batch size cap (requests coalesced into one forward).
  long max_batch = 8;
  /// How long an idle worker waits for more arrivals before serving a
  /// partial batch. 0 disables coalescing waits entirely (serve greedily).
  std::chrono::microseconds max_delay{100};
  /// Bounded request-queue capacity; Submit blocks (TrySubmit refuses)
  /// when full — the server's admission control.
  std::size_t queue_capacity = 1024;
};

/// Monotonic serving counters (snapshot via InferenceServer::stats).
struct ServerStats {
  std::uint64_t submitted = 0;        ///< requests admitted into the queue
  std::uint64_t completed = 0;        ///< requests served successfully
  std::uint64_t failed = 0;           ///< requests completed with an error
  std::uint64_t rejected = 0;         ///< TrySubmit refusals (queue full)
  std::uint64_t batches = 0;          ///< forward calls issued
  std::uint64_t batched_samples = 0;  ///< sum of forward batch sizes
  std::uint64_t model_swaps = 0;      ///< SwapModel calls
  double mean_batch() const {
    return batches == 0 ? 0.0
                        : static_cast<double>(batched_samples) /
                              static_cast<double>(batches);
  }
};

/// Multi-producer batched inference server over one spiking network.
class InferenceServer {
 public:
  /// Snapshots `model` (deep clone) as epoch 1 and starts the workers.
  explicit InferenceServer(const snn::Network& model,
                           ServerOptions options = {});

  /// Drains every admitted request (zero dropped responses), then joins the
  /// workers. Must not race with concurrent Submit callers.
  ~InferenceServer();

  InferenceServer(const InferenceServer&) = delete;
  InferenceServer& operator=(const InferenceServer&) = delete;

  /// Enqueues `req` (which must outlive its completion and not be touched
  /// until done). Blocks while the queue is full; throws on a stopped
  /// server. Multi-producer safe.
  void Submit(InferRequest& req);

  /// Non-blocking Submit: returns false (and counts a rejection) when the
  /// queue is full or the server is stopping. The request is untouched on
  /// refusal and may be resubmitted.
  bool TrySubmit(InferRequest& req);

  /// Atomically publishes `model` (deep clone) as the new serving snapshot.
  /// Requests already being served finish on their old epoch; later batches
  /// pick the new one up at their next batch boundary. Safe under live
  /// traffic from any thread.
  void SwapModel(const snn::Network& model);

  /// Epoch of the currently published snapshot (1 = construction model).
  std::uint64_t model_epoch() const;

  /// Blocks until the queue is empty and no request is being served.
  void Drain();

  /// Counters land when a request's whole batch retires, which can be just
  /// after the request's own Wait() returns — Drain() first for an exact
  /// read over completed traffic.
  ServerStats stats() const;

  const ServerOptions& options() const { return options_; }

 private:
  /// Immutable served model + its epoch. Workers read the Network only to
  /// Clone() it (const), so one snapshot is safely shared by all workers.
  struct Snapshot {
    snn::Network net;
    std::uint64_t epoch;
  };

  /// Per-worker private state (each worker thread owns exactly one).
  struct WorkerState {
    snn::Network net;                     ///< private clone of the snapshot
    std::uint64_t epoch = 0;              ///< epoch `net` was cloned from
    runtime::Workspace ws;                ///< batch packing / readout arenas
    std::vector<InferRequest*> pending;   ///< coalesced batch (reused)
    Shape input_shape;                    ///< reused [T, B, ...] shape staging
  };

  void WorkerLoop(WorkerState& state);
  /// Pops one adaptive micro-batch into state.pending; returns its size
  /// (0 = stopping and fully drained).
  long CollectBatch(WorkerState& state);
  /// Serves `count` same-shaped requests with one batched forward; returns
  /// the number that completed successfully.
  long ServeGroup(WorkerState& state, InferRequest* const* requests,
                  long count, long* groups);

  ServerOptions options_;
  /// Published model snapshot. Guarded by its own mutex rather than
  /// std::atomic<std::shared_ptr> — libstdc++'s _Sp_atomic spin-bit
  /// protocol is opaque to ThreadSanitizer, and workers only reload once
  /// per batch, so the lock is off every hot path. SwapModel replaces the
  /// pointer under the lock; the old snapshot is retired by refcount when
  /// the last in-flight batch releases it.
  mutable std::mutex snapshot_mutex_;
  std::shared_ptr<const Snapshot> snapshot_;
  std::atomic<std::uint64_t> epoch_counter_{1};

  mutable std::mutex mutex_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::condition_variable idle_;
  std::vector<InferRequest*> ring_;  // fixed capacity, index arithmetic
  std::size_t head_ = 0;             // oldest pending request
  std::size_t size_ = 0;             // pending requests in the ring
  long in_flight_ = 0;               // popped but not yet completed
  bool stopping_ = false;
  ServerStats stats_;

  std::vector<std::unique_ptr<WorkerState>> worker_states_;
  std::vector<std::thread> threads_;
};

/// Encodes one static image [C, H, W] into `req.frames` [T, C, H, W] with a
/// per-request Rng(seed). Encoding a request independently of how it is
/// later batched is what extends the serving determinism contract to
/// stochastic (rate) encodings: the spike draw depends only on (image,
/// seed), never on batch composition. Reuses req.frames storage.
void EncodeStaticRequest(InferRequest& req, const Tensor& image,
                         long time_steps, snn::Encoding mode,
                         std::uint64_t seed);

}  // namespace axsnn::serve
