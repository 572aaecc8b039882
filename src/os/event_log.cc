#include "src/os/event_log.h"

#include <cstdio>

#include "src/vm/frame_table.h"
#include "src/vm/page_table.h"

namespace tmh {
namespace {

// Per-kind rendering in the Chrome trace ("ph" phase letters: B/E open and
// close a nested span on one thread row, X is a self-contained span with an
// explicit duration, i an instant marker, C a counter track). A null name
// marks a kind the log does not keep.
struct ChromePhase {
  char ph;
  const char* name;
  const char* category;
};

ChromePhase PhaseOf(const VmHookEvent& e) {
  switch (e.op) {
    case VmHookOp::kFaultBegin: return {'B', "hard_fault", "fault"};
    case VmHookOp::kFaultEnd: return {'E', "hard_fault", "fault"};
    case VmHookOp::kMemoryWaitBegin: return {'B', "memory_wait", "fault"};
    case VmHookOp::kMemoryWaitEnd: return {'E', "memory_wait", "fault"};
    case VmHookOp::kPrefetchIssue: return {'B', "prefetch_io", "prefetch"};
    case VmHookOp::kPrefetchComplete: return {'E', "prefetch_io", "prefetch"};
    case VmHookOp::kPrefetchDrop: return {'i', "prefetch_drop", "prefetch"};
    case VmHookOp::kReleaseEnqueue: return {'i', "release_enqueue", "release"};
    case VmHookOp::kReleaseFree: return {'i', "release_free", "release"};
    case VmHookOp::kRescue:
      return e.a == static_cast<int64_t>(FreedBy::kDaemon)
                 ? ChromePhase{'i', "daemon_rescue", "daemon"}
                 : ChromePhase{'i', "release_rescue", "release"};
    case VmHookOp::kDaemonSweep: return {'X', "daemon_sweep", "daemon"};
    case VmHookOp::kReleaserBatch: return {'X', "releaser_batch", "release"};
    case VmHookOp::kRuntimeDrain: return {'i', "runtime_drain", "runtime"};
    case VmHookOp::kFreePagesSample: return {'C', "free_pages", "memory"};
    case VmHookOp::kDemote: return {'i', "demote", "tier"};
    case VmHookOp::kPromote: return {'i', "promote", "tier"};
    case VmHookOp::kTierEvict: return {'i', "tier_evict", "tier"};
    case VmHookOp::kInvalidate:  // the monitor's sample arming; not the daemon's
      return e.a == static_cast<int64_t>(InvalidReason::kMonitorSampled)
                 ? ChromePhase{'i', "monitor_sample", "monitor"}
                 : ChromePhase{'i', nullptr, nullptr};
    default: return {'i', nullptr, nullptr};
  }
}

void AppendEscaped(std::string& out, const std::string& s) {
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

}  // namespace

const char* EventLog::RenderedName(const VmHookEvent& event) { return PhaseOf(event).name; }

size_t EventLog::Count(VmHookOp op) const {
  size_t n = 0;
  for (const VmHookEvent& e : events_) {
    n += (e.op == op) ? 1 : 0;
  }
  return n;
}

std::string EventLog::ToChromeTrace() const {
  std::string out = "{\"traceEvents\":[\n";
  out +=
      "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":0,"
      "\"args\":{\"name\":\"tmh simulated kernel\"}}";
  char buf[256];
  for (const auto& [tid, name] : thread_names_) {
    std::snprintf(buf, sizeof(buf),
                  ",\n{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":0,\"tid\":%d,"
                  "\"args\":{\"name\":\"",
                  tid);
    out += buf;
    AppendEscaped(out, name);
    out += "\"}}";
  }
  for (const VmHookEvent& e : events_) {
    const ChromePhase phase = PhaseOf(e);
    // Chrome timestamps are microseconds; three decimals keep ns precision.
    const double ts_us = static_cast<double>(e.when) / 1e3;
    std::snprintf(buf, sizeof(buf),
                  ",\n{\"ph\":\"%c\",\"name\":\"%s\",\"cat\":\"%s\",\"pid\":0,"
                  "\"tid\":%d,\"ts\":%.3f",
                  phase.ph, phase.name, phase.category, e.tid, ts_us);
    out += buf;
    if (phase.ph == 'X') {  // batch spans: a = pages, b = CPU cost
      std::snprintf(buf, sizeof(buf), ",\"dur\":%.3f", static_cast<double>(e.b) / 1e3);
      out += buf;
    }
    if (phase.ph == 'i') {
      out += ",\"s\":\"t\"";  // instant scoped to its thread
    }
    if (phase.ph == 'C') {
      std::snprintf(buf, sizeof(buf), ",\"args\":{\"free_pages\":%lld}",
                    static_cast<long long>(e.a));
      out += buf;
    } else if (phase.ph != 'E') {  // E events inherit the B event's args
      out += ",\"args\":{";
      bool first = true;
      if (e.as != kNoAs) {
        out += "\"as\":\"";
        const auto it = as_names_.find(e.as);
        AppendEscaped(out, it != as_names_.end() ? it->second : std::to_string(e.as));
        out += '"';
        first = false;
      }
      if (phase.ph == 'X' || e.vpage != kNoVPage) {
        std::snprintf(buf, sizeof(buf), "%s\"%s\":%lld", first ? "" : ",",
                      phase.ph == 'X' ? "pages" : "vpage",
                      static_cast<long long>(phase.ph == 'X' ? e.a : e.vpage));
        out += buf;
        first = false;
      }
      if (e.op == VmHookOp::kRuntimeDrain) {
        std::snprintf(buf, sizeof(buf), "%s\"issued\":%lld", first ? "" : ",",
                      static_cast<long long>(e.a));
        out += buf;
      }
      out += '}';
    }
    out += '}';
  }
  out += "\n]}\n";
  return out;
}

bool EventLog::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  const std::string json = ToChromeTrace();
  const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  return std::fclose(f) == 0 && ok;
}

EventRecorder::EventRecorder() {
  log_.Enable();
  log_.SetThreadName(kKernelTid, "kernel");
  // 1 us .. ~34 s exponential bounds cover every latency this machine produces.
  const std::vector<double> bounds = ExponentialBounds(1000.0, 2.0, 26);
  fault_service_ = metrics_.GetHistogram("kernel.fault_service_ns", bounds);
  rescue_release_ =
      metrics_.GetHistogram("kernel.rescue_distance_ns", bounds, {{"freed_by", "releaser"}});
  rescue_daemon_ =
      metrics_.GetHistogram("kernel.rescue_distance_ns", bounds, {{"freed_by", "daemon"}});
  free_pages_ = metrics_.GetGauge("kernel.free_pages");
}

void EventRecorder::OnVmEvent(const VmHookEvent& event) {
  switch (event.op) {
    case VmHookOp::kAlloc:
      free_since_.erase(event.frame);  // handed out, not rescued
      break;
    case VmHookOp::kFreePushHead:
    case VmHookOp::kFreePushTail:
      free_since_[event.frame] = event.when;
      break;
    case VmHookOp::kRescue:
      if (const auto it = free_since_.find(event.frame); it != free_since_.end()) {
        (event.a == static_cast<int64_t>(FreedBy::kDaemon) ? rescue_daemon_ : rescue_release_)
            ->Add(static_cast<double>(event.when - it->second));
        free_since_.erase(it);
      }
      break;
    case VmHookOp::kIoWake:
      if (event.b == 0) {  // application threads only
        fault_service_->Add(static_cast<double>(event.a));
      }
      break;
    case VmHookOp::kFreePagesSample:
      free_pages_->Set(static_cast<double>(event.a));
      break;
    default:
      break;
  }
  log_.Record(event);
}

}  // namespace tmh
