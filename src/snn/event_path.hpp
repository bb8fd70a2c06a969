// Event-path mode knob: dense reference frames vs compressed spike streams.
//
// The temporal inference path has two executions of the same arithmetic:
//
//   dense — densify events into a [N, T, C, H, W] frame tensor, transpose
//           to time-major and run Network::ForwardShared over the whole
//           sequence. The pinned reference; every golden report was
//           produced by it.
//   event — bin events straight into bit-packed per-timestep word planes
//           (kernels::SpikeStream), step the network one timestep at a
//           time (snn::EventRunner), skip conv/dense entirely on silent
//           steps and feed the packed words to the sparse/SIMD kernel
//           paths without re-deriving them from floats.
//
// Both paths are bit-identical by contract (tests/test_event_pipeline.cpp
// and the fig7b golden diff pin it); the knob exists so CI can run every
// suite in both paths and so a regression can be bisected to the
// representation in one rerun.
//
// Mode precedence for one temporal evaluation — deliberately the same
// scheme as kernels::KernelMode:
//   1. a non-auto *global* mode (AXSNN_EVENT_PATH env var, or
//      SetGlobalEventPathMode) wins everywhere — the CI event-path leg
//      exports AXSNN_EVENT_PATH=on over the full suite;
//   2. otherwise a non-auto *config* mode (ApproxConfig::event_path ->
//      Network::set_event_path, DvsWorkbench::Options::event_path);
//   3. otherwise (auto) the dense reference path runs. Event execution is
//      opt-in: it requires binary activations entering the first layer
//      (spikes / binned events), which the DVS path guarantees and
//      arbitrary rate-coded tensors do not.
#pragma once

#include <optional>
#include <string_view>

namespace axsnn::snn {

class Network;

/// Temporal execution selector; kAuto defers to the dense reference.
enum class EventPathMode { kAuto, kDense, kEvent };

/// "auto" / "dense" / "event".
const char* EventPathName(EventPathMode mode);

/// Inverse of EventPathName; also accepts the env spellings "on" (event)
/// and "off" (dense). nullopt for unknown names.
std::optional<EventPathMode> ParseEventPathMode(std::string_view name);

/// Parses an AXSNN_EVENT_PATH value (nullptr = unset = kAuto). Any other
/// value must be a ParseEventPathMode spelling: an empty, miscased or
/// unknown one throws std::invalid_argument naming the variable, the value
/// and the accepted spellings, so a typo never silently runs the default.
EventPathMode EventPathModeFromEnv(const char* value);

/// Process-global mode, initialized on first use from the AXSNN_EVENT_PATH
/// environment variable (EventPathModeFromEnv: an unknown value throws from
/// that first use). A non-auto global mode overrides every config setting
/// (precedence rule 1 above).
EventPathMode GlobalEventPathMode();

/// Overrides the global mode at runtime (tests, benchmarks). Not
/// thread-safe against concurrent temporal evaluations.
void SetGlobalEventPathMode(EventPathMode mode);

/// Scoped global-mode override, restoring the prior mode on exit. The
/// differential tests pin each path with this.
class ScopedEventPathMode {
 public:
  explicit ScopedEventPathMode(EventPathMode mode)
      : saved_(GlobalEventPathMode()) {
    SetGlobalEventPathMode(mode);
  }
  ~ScopedEventPathMode() { SetGlobalEventPathMode(saved_); }
  ScopedEventPathMode(const ScopedEventPathMode&) = delete;
  ScopedEventPathMode& operator=(const ScopedEventPathMode&) = delete;

 private:
  EventPathMode saved_;
};

/// Applies the precedence rules: a non-auto global mode wins over
/// `requested`; kAuto resolves to kDense (the reference path).
EventPathMode ResolveEventPathMode(EventPathMode requested);

/// The one event-vs-dense test of every temporal evaluation: true when
/// `net` has no post-layer (fault) hook — hooks fire on the dense chain
/// only — and its event_path() resolves to kEvent.
bool UsesEventPath(const Network& net);

}  // namespace axsnn::snn
