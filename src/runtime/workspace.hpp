// Reusable tensor arena for allocation-free steady-state execution.
//
// A Workspace owns a set of scratch tensors addressed by stable slot index.
// Acquire(slot, shape) resizes the slot's tensor to `shape` without
// shrinking its capacity, so after the first pass over a given problem size
// every subsequent pass reuses the same heap blocks — Network::ForwardShared
// ping-pongs activations between two slots (and Network::Backward its
// gradients through the same two), the inference helpers stage
// batches/encodings in further slots, and the kernel dispatch engine
// (src/kernels/) keeps its im2col packing buffers, nonzero gather lists and
// int8 code/accumulator scratch in the typed arenas (AcquireI32/AcquireI8).
//
// Ownership rules (see DESIGN.md "Runtime subsystem"):
//  * A Workspace belongs to exactly one execution context (one Network, one
//    inference loop); it is not thread-safe and must not be shared across
//    concurrent sweep cells — clone the Network instead, which brings a
//    fresh Workspace.
//  * References returned by Acquire/Slot stay valid for the Workspace's
//    lifetime (slots live in a deque), but their *contents* are overwritten
//    by the next pass; callers that need to keep a result must copy it out.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>

#include "runtime/aligned.hpp"
#include "tensor/tensor.hpp"

namespace axsnn::runtime {

/// Indexed arena of reusable scratch tensors.
class Workspace {
 public:
  Workspace() = default;

  // Movable (a Network owns one); copying a scratch arena is never wanted.
  Workspace(Workspace&&) = default;
  Workspace& operator=(Workspace&&) = default;
  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;

  /// Returns slot `index` resized to `shape`. Contents are unspecified (the
  /// caller is expected to overwrite them fully). Never shrinks capacity, so
  /// steady-state reuse performs no heap allocation.
  Tensor& Acquire(std::size_t index, const Shape& shape);

  /// Returns slot `index` as-is, creating it empty when absent.
  Tensor& Slot(std::size_t index);

  /// 1-D variant of Acquire that avoids constructing a temporary Shape
  /// (and its heap allocation) when the slot already holds `size` elements
  /// — the kernel dispatchers call this every forward pass.
  Tensor& Acquire(std::size_t index, long size);

  /// Integer scratch arenas with the same contract as Acquire: resized to
  /// `size` elements without shrinking capacity, contents unspecified. The
  /// kernel subsystem stages activation codes, accumulator planes and
  /// nonzero gather lists here; slot indices are independent of the float
  /// slots (see kernels::slots for the shared map). Storage is 64-byte
  /// aligned (runtime/aligned.hpp) so SIMD loads never split cache lines.
  AlignedVector<std::int32_t>& AcquireI32(std::size_t index, std::size_t size);
  AlignedVector<std::int8_t>& AcquireI8(std::size_t index, std::size_t size);

  /// Bit-packed spike-word arena (64 events per word — see
  /// kernels/spike_words.hpp). Same contract and alignment as the other
  /// typed arenas.
  AlignedVector<std::uint64_t>& AcquireU64(std::size_t index,
                                           std::size_t size);

  /// Number of materialized float slots.
  std::size_t slot_count() const { return slots_.size(); }

  /// Releases all slot storage (capacity included), typed arenas too.
  void Clear() {
    slots_.clear();
    i32_slots_.clear();
    i8_slots_.clear();
    u64_slots_.clear();
  }

 private:
  std::deque<Tensor> slots_;  // deque: references stay valid as slots grow
  std::deque<AlignedVector<std::int32_t>> i32_slots_;
  std::deque<AlignedVector<std::int8_t>> i8_slots_;
  std::deque<AlignedVector<std::uint64_t>> u64_slots_;
};

/// Workspace holder for layers that own per-layer kernel scratch but must
/// stay copyable (Layer::Clone copy-constructs the layer): copying yields a
/// fresh empty workspace — scratch contents are never meaningful across
/// copies, and a clone must not share buffers with its source.
class LocalScratch {
 public:
  LocalScratch() = default;
  LocalScratch(LocalScratch&&) = default;
  LocalScratch& operator=(LocalScratch&&) = default;
  LocalScratch(const LocalScratch& /*other*/) {}  // copy = fresh scratch
  LocalScratch& operator=(const LocalScratch& /*other*/) { return *this; }

  Workspace& operator*() { return ws_; }
  Workspace* operator->() { return &ws_; }

 private:
  Workspace ws_;
};

}  // namespace axsnn::runtime
