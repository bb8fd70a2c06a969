// Event-driven temporal execution: one timestep at a time over a
// compressed spike stream.
//
// The dense path materializes the full [T, B, ...] activation between every
// pair of layers; EventRunner instead walks the stream step by step,
// carrying only one timestep of activations per layer plus the LIF membrane
// carries. Each layer's ForwardStep is required to reproduce exactly the
// corresponding time slice of its ForwardInto (see snn/layer.hpp), so the
// accumulated readout is bit-identical to
//
//   ReadoutMean(net.ForwardShared(dense_frames))
//
// while silent timesteps (per-step population count zero, read once from
// the stream — no per-kernel density probes) skip the conv/dense kernels
// entirely: weight layers write their cached bias fill, pooling/dropout
// write cached zeros, and only the LIF leak recursion still advances.
//
// Between layers the runner threads a pair of ping-ponged SpikePlanes
// lanes: each layer publishes its output's nonzero mask (bit-packed words +
// popcounts) so the next layer makes its silent decision from a shared
// popcount and feeds the words straight into the sparse gather
// (kernels::PackedWords) without re-deriving them from floats.
//
// Inference-only: stepped runs invalidate every Backward cache. One
// EventRunner owns its workspace and serves one network; clone the network
// (fresh runner) for concurrent sweep cells, as with Workspace.
#pragma once

#include <vector>

#include "kernels/spike_stream.hpp"
#include "runtime/workspace.hpp"
#include "snn/network.hpp"
#include "tensor/tensor.hpp"

namespace axsnn::snn {

/// Counters from the last Run (reset per call).
struct EventRunStats {
  long time_steps = 0;
  long batch = 0;
  long silent_steps = 0;          // stream steps with zero spikes
  long kernel_calls = 0;          // weight-layer kernel invocations
  long kernel_calls_skipped = 0;  // silent-step bias fills instead
};

/// Steps a network over a SpikeStream, accumulating mean-over-time logits.
class EventRunner {
 public:
  explicit EventRunner(Network& net) : net_(net) {}

  EventRunner(EventRunner&&) = default;
  EventRunner& operator=(EventRunner&&) = delete;
  EventRunner(const EventRunner&) = delete;
  EventRunner& operator=(const EventRunner&) = delete;

  /// Runs all timesteps of `stream` through the network and returns the
  /// mean-over-time logits [B, K] — bit-identical to ReadoutMean over the
  /// dense path's output sequence. The reference points into the runner's
  /// workspace and is valid until the next Run.
  const Tensor& Run(const kernels::SpikeStream& stream);

  const EventRunStats& stats() const { return stats_; }

 private:
  Network& net_;
  // Slot 0: the densified input step; slot i+1: layer i's output step.
  // Every layer owns a dedicated slot so its buffer (and therefore its
  // silent-fill cache) survives across timesteps.
  runtime::Workspace ws_;
  Shape in_shape_;  // [B, sample...] of slot 0, reused across runs
  Tensor logits_;
  SpikePlanes lanes_[2];  // inter-layer masks, ping-ponged per layer
  // Per-layer output plane sizes (elements per sample), learned on the
  // first timestep of the first run; lanes stay unconfigured until then.
  std::vector<long> planes_;
  bool planes_known_ = false;
  bool x0_zeroed_ = false;
  EventRunStats stats_;
};

}  // namespace axsnn::snn
