#include "snn/event_path.hpp"

#include <cstdlib>

#include "snn/network.hpp"
#include "tensor/check.hpp"

namespace axsnn::snn {
namespace {

EventPathMode& GlobalModeRef() {
  static EventPathMode mode =
      EventPathModeFromEnv(std::getenv("AXSNN_EVENT_PATH"));
  return mode;
}

}  // namespace

const char* EventPathName(EventPathMode mode) {
  switch (mode) {
    case EventPathMode::kAuto:
      return "auto";
    case EventPathMode::kDense:
      return "dense";
    case EventPathMode::kEvent:
      return "event";
  }
  return "auto";
}

std::optional<EventPathMode> ParseEventPathMode(std::string_view name) {
  if (name == "auto") return EventPathMode::kAuto;
  if (name == "dense" || name == "off") return EventPathMode::kDense;
  if (name == "event" || name == "on") return EventPathMode::kEvent;
  return std::nullopt;
}

EventPathMode EventPathModeFromEnv(const char* value) {
  if (value == nullptr) return EventPathMode::kAuto;
  const std::optional<EventPathMode> mode = ParseEventPathMode(value);
  AXSNN_CHECK(mode.has_value(),
              "AXSNN_EVENT_PATH must be one of auto, dense, event, off, on; "
              "got \"" << value << "\"");
  return *mode;
}

EventPathMode GlobalEventPathMode() { return GlobalModeRef(); }

void SetGlobalEventPathMode(EventPathMode mode) { GlobalModeRef() = mode; }

EventPathMode ResolveEventPathMode(EventPathMode requested) {
  const EventPathMode global = GlobalEventPathMode();
  if (global != EventPathMode::kAuto) return global;
  if (requested != EventPathMode::kAuto) return requested;
  return EventPathMode::kDense;
}

bool UsesEventPath(const Network& net) {
  return !net.has_post_layer_hook() &&
         ResolveEventPathMode(net.event_path()) == EventPathMode::kEvent;
}

}  // namespace axsnn::snn
