// Structural event log of the simulated kernel, and the recorder that fills it.
//
// Where TraceRecorder samples levels at a fixed period, the EventLog keeps the
// *edges* of the kernel's one observer stream (src/os/vm_hooks.h): fault
// spans, prefetch I/O, release decisions, daemon sweeps, memory waits, tier
// migrations and monitor samples, with their simulated timestamps and thread /
// address-space attribution. It keeps only the kinds it renders (RenderedName)
// and drops the rest. The Chrome trace export renders the run as a timeline
// loadable in about://tracing (or ui.perfetto.dev): span events (ph B/E or X)
// per simulated thread, instants for one-shot decisions, and counter events
// for free memory.
//
// EventRecorder is the sink Kernel::EnableObservability installs next to an
// attached checker: it appends to the log and derives the kernel's latency
// histograms (fault service, free-to-rescue distance) and free-memory gauge
// from the same events. Without it the kernel's emit point is one
// predicted-false branch.

#ifndef TMH_SRC_OS_EVENT_LOG_H_
#define TMH_SRC_OS_EVENT_LOG_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/os/vm_hooks.h"
#include "src/sim/metrics.h"

namespace tmh {

class EventLog {
 public:
  // ~48 MB of events at the default; the log stops (and counts drops) beyond.
  static constexpr size_t kDefaultCapacity = size_t{1} << 20;

  EventLog() = default;

  void Enable(size_t capacity = kDefaultCapacity) {
    enabled_ = true;
    capacity_ = capacity;
    events_.reserve(std::min(capacity, size_t{1} << 16));
  }
  [[nodiscard]] bool enabled() const { return enabled_; }

  // Appends `event` if the log is enabled and renders its kind.
  void Record(const VmHookEvent& event) {
    if (!enabled_ || RenderedName(event) == nullptr) {
      return;
    }
    if (events_.size() >= capacity_) {
      ++dropped_;
      return;
    }
    events_.push_back(event);
  }

  // Name `event` renders under in the Chrome trace (stable; exports and tests
  // rely on it), or nullptr for kinds the log does not keep. Rescues split by
  // their FreedBy payload; of the invalidations only the monitor's render.
  [[nodiscard]] static const char* RenderedName(const VmHookEvent& event);

  // Attribution names shown in the Chrome trace (thread rows, "as" args).
  void SetThreadName(int32_t tid, const std::string& name) { thread_names_[tid] = name; }
  void SetAddressSpaceName(AsId as, const std::string& name) { as_names_[as] = name; }

  [[nodiscard]] const std::vector<VmHookEvent>& events() const { return events_; }
  [[nodiscard]] size_t dropped() const { return dropped_; }
  [[nodiscard]] size_t Count(VmHookOp op) const;

  // Renders the Chrome tracing JSON object ({"traceEvents": [...]}).
  [[nodiscard]] std::string ToChromeTrace() const;

  // Writes the Chrome trace JSON to `path`. Returns false on I/O failure.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  bool enabled_ = false;
  size_t capacity_ = 0;
  size_t dropped_ = 0;
  std::vector<VmHookEvent> events_;
  std::map<int32_t, std::string> thread_names_;
  std::map<AsId, std::string> as_names_;
};

class EventRecorder {
 public:
  EventRecorder();

  void OnVmEvent(const VmHookEvent& event);

  [[nodiscard]] EventLog& log() { return log_; }
  [[nodiscard]] MetricsRegistry& metrics() { return metrics_; }

 private:
  EventLog log_;
  MetricsRegistry metrics_;
  // Handles resolved once at construction.
  Histogram* fault_service_;
  Histogram* rescue_release_;
  Histogram* rescue_daemon_;
  Gauge* free_pages_;
  // When each free frame entered the free list (rescue-distance measurement).
  std::unordered_map<FrameId, SimTime> free_since_;
};

}  // namespace tmh

#endif  // TMH_SRC_OS_EVENT_LOG_H_
