// Deterministic data-parallel loop primitives on top of runtime::ThreadPool.
//
// Determinism contract: the iteration range [begin, end) is split into fixed
// chunks whose boundaries depend only on the range size (and an optional
// explicit grain) — never on the thread count. Chunks are claimed by worker
// threads dynamically, but because each chunk's writes are disjoint (caller
// obligation) and reductions combine per-chunk partials sequentially in
// chunk order, results are bit-identical for any pool size, including 1.
//
// This replaces the seed repo's scattered OpenMP directives: parallelism is
// now guaranteed by the build (no compiler flag to forget) and thread-count
// independence is a testable property instead of a hope.
#pragma once

#include <algorithm>
#include <vector>

#include "runtime/thread_pool.hpp"

namespace axsnn::runtime {

/// Upper bound on the number of chunks a default-grained loop produces.
/// Fixed (not derived from the thread count) so chunk boundaries — and thus
/// reduction orders — are identical on every machine and pool size.
inline constexpr long kMaxChunks = 64;

/// Chunk size for an n-iteration loop when the caller does not pick one:
/// the smallest grain that keeps the chunk count at or below kMaxChunks.
inline long DefaultGrain(long n) {
  return std::max<long>(1, (n + kMaxChunks - 1) / kMaxChunks);
}

/// Number of chunks a loop over n iterations with grain g produces.
inline long NumChunks(long n, long grain) {
  return n <= 0 ? 0 : (n + grain - 1) / grain;
}

/// Runs body(chunk_index, lo, hi) for every fixed chunk [lo, hi) of
/// [begin, end). `grain` <= 0 selects DefaultGrain. Blocks until done;
/// nested calls from inside pool work borrow parked workers, else run inline
/// (ThreadPool::Run). Chunk boundaries are the same either way.
template <typename Body>
void ParallelForChunks(long begin, long end, Body&& body, long grain = 0,
                       ThreadPool* pool = nullptr) {
  const long n = end - begin;
  if (n <= 0) return;
  const long g = grain > 0 ? grain : DefaultGrain(n);
  const long chunks = NumChunks(n, g);
  auto task = [&](long c) {
    const long lo = begin + c * g;
    body(c, lo, std::min(end, lo + g));
  };
  if (pool != nullptr) {
    pool->Run(chunks, FunctionRef<void(long)>(task));
  } else {
    // Hold the shared_ptr for the whole Run: a concurrent SetGlobalThreads
    // then retires the pool instead of destroying it under our feet.
    GlobalPool()->Run(chunks, FunctionRef<void(long)>(task));
  }
}

/// Runs body(i) for every i in [begin, end), parallelized over fixed chunks.
/// The canonical replacement for an OpenMP parallel-for directive.
template <typename Body>
void ParallelFor(long begin, long end, Body&& body, long grain = 0,
                 ThreadPool* pool = nullptr) {
  ParallelForChunks(
      begin, end,
      [&](long /*chunk*/, long lo, long hi) {
        for (long i = lo; i < hi; ++i) body(i);
      },
      grain, pool);
}

/// Deterministic parallel sum: chunk_sum(lo, hi) returns the partial sum of
/// one fixed chunk; partials are combined sequentially in chunk order, so
/// the floating-point result is bit-identical at any thread count (and equal
/// to the serial left-to-right accumulation when chunk_sum accumulates
/// left-to-right).
template <typename ChunkSum>
double ParallelSum(long begin, long end, ChunkSum&& chunk_sum, long grain = 0,
                   ThreadPool* pool = nullptr) {
  const long n = end - begin;
  if (n <= 0) return 0.0;
  const long g = grain > 0 ? grain : DefaultGrain(n);
  std::vector<double> partials(static_cast<std::size_t>(NumChunks(n, g)));
  ParallelForChunks(
      begin, end,
      [&](long chunk, long lo, long hi) {
        partials[static_cast<std::size_t>(chunk)] = chunk_sum(lo, hi);
      },
      g, pool);
  double total = 0.0;
  for (double p : partials) total += p;
  return total;
}

}  // namespace axsnn::runtime
