// Tests for the observability layer: MetricsRegistry semantics, EventLog
// recording and capacity behavior, the Chrome-trace JSON export (validated by
// an embedded JSON parser plus span-pairing checks on a real observed run),
// zero-cost disabled mode, and determinism of the event stream.

#include "src/sim/metrics.h"

#include <gtest/gtest.h>

#include <cctype>
#include <map>
#include <string>
#include <vector>

#include "src/core/experiment.h"
#include "src/os/event_log.h"
#include "src/workloads/workloads.h"

namespace tmh {
namespace {

// --- MetricsRegistry ---------------------------------------------------------

TEST(MetricsRegistryTest, CounterFindOrCreateIsStable) {
  MetricsRegistry reg;
  Counter* a = reg.GetCounter("kernel.hard_faults");
  Counter* b = reg.GetCounter("kernel.hard_faults");
  EXPECT_EQ(a, b);
  a->Inc();
  a->Inc(4);
  EXPECT_EQ(b->value(), 5u);
  b->Set(42);
  EXPECT_EQ(a->value(), 42u);
  EXPECT_EQ(reg.size(), 1u);
}

TEST(MetricsRegistryTest, LabelsDistinguishMetrics) {
  MetricsRegistry reg;
  Counter* hog = reg.GetCounter("as.pages_released", {{"as", "hog"}});
  Counter* other = reg.GetCounter("as.pages_released", {{"as", "interactive"}});
  EXPECT_NE(hog, other);
  hog->Inc();
  EXPECT_EQ(other->value(), 0u);
  EXPECT_EQ(MetricsRegistry::Key("as.pages_released", {{"as", "hog"}}),
            "as.pages_released{as=\"hog\"}");
  EXPECT_EQ(MetricsRegistry::Key("x", {}), "x");
}

TEST(MetricsRegistryTest, GaugeSetAndAdd) {
  MetricsRegistry reg;
  Gauge* g = reg.GetGauge("kernel.free_pages");
  g->Set(100);
  g->Add(-25);
  EXPECT_DOUBLE_EQ(g->value(), 75.0);
  EXPECT_EQ(reg.GetGauge("kernel.free_pages"), g);
}

TEST(MetricsRegistryTest, HistogramBoundsFixedAtFirstRegistration) {
  MetricsRegistry reg;
  Histogram* h = reg.GetHistogram("lat", {10.0, 100.0});
  Histogram* again = reg.GetHistogram("lat", {99.0});  // bounds ignored
  EXPECT_EQ(h, again);
  EXPECT_EQ(h->bounds().size(), 2u);
  h->Add(5);
  h->Add(50);
  h->Add(5000);  // overflow bucket
  EXPECT_EQ(h->total(), 3u);
}

TEST(MetricsRegistryTest, TextDumpCarriesEveryKind) {
  MetricsRegistry reg;
  reg.GetCounter("b.count")->Set(7);
  reg.GetCounter("a.count", {{"as", "hog"}})->Set(3);
  reg.GetGauge("level")->Set(1.5);
  Histogram* h = reg.GetHistogram("wait_ns", ExponentialBounds(1000.0, 2.0, 8));
  h->Add(1500.0);
  h->Add(3000.0);
  const std::string dump = reg.TextDump();
  EXPECT_NE(dump.find("# tmh-metrics-v1"), std::string::npos);
  EXPECT_NE(dump.find("counter a.count{as=\"hog\"} 3"), std::string::npos);
  EXPECT_NE(dump.find("counter b.count 7"), std::string::npos);
  EXPECT_NE(dump.find("gauge level 1.5"), std::string::npos);
  EXPECT_NE(dump.find("histogram wait_ns total=2"), std::string::npos);
  // Sorted within each kind: the labeled a.count precedes b.count.
  EXPECT_LT(dump.find("a.count"), dump.find("b.count"));
}

// --- EventLog ----------------------------------------------------------------

VmHookEvent Event(SimTime when, VmHookOp op, int64_t a = 0) {
  return VmHookEvent{when, op, /*tid=*/1, /*as=*/0, kNoFrame, /*vpage=*/42, a};
}

TEST(EventLogTest, DisabledRecordIsANoOp) {
  EventLog log;
  log.Record(Event(100, VmHookOp::kFaultBegin));
  EXPECT_TRUE(log.events().empty());
  EXPECT_EQ(log.dropped(), 0u);
}

TEST(EventLogTest, CapacityDropsAndCounts) {
  EventLog log;
  log.Enable(/*capacity=*/3);
  for (int i = 0; i < 5; ++i) {
    log.Record(Event(i, VmHookOp::kReleaseEnqueue));
  }
  EXPECT_EQ(log.events().size(), 3u);
  EXPECT_EQ(log.dropped(), 2u);
  EXPECT_EQ(log.Count(VmHookOp::kReleaseEnqueue), 3u);
  EXPECT_EQ(log.Count(VmHookOp::kFaultBegin), 0u);
}

TEST(EventLogTest, KeepsOnlyRenderedKinds) {
  EventLog log;
  log.Enable();
  log.Record(Event(1, VmHookOp::kAlloc));
  log.Record(Event(2, VmHookOp::kIoWake));
  log.Record(Event(3, VmHookOp::kInvalidate,
                   static_cast<int64_t>(InvalidReason::kDaemonInvalidated)));
  log.Record(Event(4, VmHookOp::kInvalidate,
                   static_cast<int64_t>(InvalidReason::kMonitorSampled)));
  ASSERT_EQ(log.events().size(), 1u);
  EXPECT_EQ(log.events()[0].when, 4);
  EXPECT_EQ(log.dropped(), 0u);
}

TEST(EventLogTest, EventNamesAreStable) {
  const auto name = [](VmHookOp op, int64_t a = 0) {
    return EventLog::RenderedName(Event(0, op, a));
  };
  EXPECT_STREQ(name(VmHookOp::kFaultBegin), "hard_fault");
  EXPECT_STREQ(name(VmHookOp::kDaemonSweep), "daemon_sweep");
  EXPECT_STREQ(name(VmHookOp::kFreePagesSample), "free_pages");
  EXPECT_STREQ(name(VmHookOp::kRescue, static_cast<int64_t>(FreedBy::kReleaser)),
               "release_rescue");
  EXPECT_STREQ(name(VmHookOp::kRescue, static_cast<int64_t>(FreedBy::kDaemon)),
               "daemon_rescue");
  EXPECT_STREQ(name(VmHookOp::kInvalidate, static_cast<int64_t>(InvalidReason::kMonitorSampled)),
               "monitor_sample");
  EXPECT_EQ(name(VmHookOp::kMap), nullptr);
}

// --- A minimal JSON parser (no third-party dependency) -----------------------
// Enough of RFC 8259 to round-trip the Chrome trace export: objects, arrays,
// strings with escapes, numbers, true/false/null. Parse failures fail the test.

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0;
  std::string str;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  bool Parse(JsonValue* out) {
    const bool ok = ParseValue(out);
    SkipSpace();
    return ok && pos_ == text_.size();
  }

 private:
  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ParseValue(JsonValue* out) {
    SkipSpace();
    if (pos_ >= text_.size()) {
      return false;
    }
    const char c = text_[pos_];
    if (c == '{') {
      return ParseObject(out);
    }
    if (c == '[') {
      return ParseArray(out);
    }
    if (c == '"') {
      out->kind = JsonValue::Kind::kString;
      return ParseString(&out->str);
    }
    if (text_.compare(pos_, 4, "true") == 0) {
      out->kind = JsonValue::Kind::kBool;
      out->boolean = true;
      pos_ += 4;
      return true;
    }
    if (text_.compare(pos_, 5, "false") == 0) {
      out->kind = JsonValue::Kind::kBool;
      pos_ += 5;
      return true;
    }
    if (text_.compare(pos_, 4, "null") == 0) {
      out->kind = JsonValue::Kind::kNull;
      pos_ += 4;
      return true;
    }
    return ParseNumber(out);
  }

  bool ParseObject(JsonValue* out) {
    out->kind = JsonValue::Kind::kObject;
    if (!Consume('{')) {
      return false;
    }
    if (Consume('}')) {
      return true;
    }
    while (true) {
      std::string key;
      SkipSpace();
      if (!ParseString(&key)) {
        return false;
      }
      if (!Consume(':')) {
        return false;
      }
      JsonValue value;
      if (!ParseValue(&value)) {
        return false;
      }
      out->object.emplace(std::move(key), std::move(value));
      if (Consume(',')) {
        continue;
      }
      return Consume('}');
    }
  }

  bool ParseArray(JsonValue* out) {
    out->kind = JsonValue::Kind::kArray;
    if (!Consume('[')) {
      return false;
    }
    if (Consume(']')) {
      return true;
    }
    while (true) {
      JsonValue value;
      if (!ParseValue(&value)) {
        return false;
      }
      out->array.push_back(std::move(value));
      if (Consume(',')) {
        continue;
      }
      return Consume(']');
    }
  }

  bool ParseString(std::string* out) {
    if (pos_ >= text_.size() || text_[pos_] != '"') {
      return false;
    }
    ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') {
        return true;
      }
      if (c == '\\') {
        if (pos_ >= text_.size()) {
          return false;
        }
        const char esc = text_[pos_++];
        switch (esc) {
          case '"': *out += '"'; break;
          case '\\': *out += '\\'; break;
          case '/': *out += '/'; break;
          case 'b': *out += '\b'; break;
          case 'f': *out += '\f'; break;
          case 'n': *out += '\n'; break;
          case 'r': *out += '\r'; break;
          case 't': *out += '\t'; break;
          case 'u': {
            if (pos_ + 4 > text_.size()) {
              return false;
            }
            pos_ += 4;       // control characters only in our exporter;
            *out += '?';     // the exact code point does not matter here
            break;
          }
          default:
            return false;
        }
      } else {
        *out += c;
      }
    }
    return false;  // unterminated
  }

  bool ParseNumber(JsonValue* out) {
    const size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) {
      return false;
    }
    out->kind = JsonValue::Kind::kNumber;
    out->number = std::stod(text_.substr(start, pos_ - start));
    return true;
  }

  const std::string& text_;
  size_t pos_ = 0;
};

// --- Chrome trace export on a real observed run -------------------------------

ExperimentResult RunObservedMatvec(AppVersion version) {
  ExperimentSpec spec;
  spec.machine.user_memory_bytes = static_cast<int64_t>(7.5 * 1024 * 1024);
  spec.workload = MakeMatvec(0.1);
  spec.version = version;
  spec.observe = true;
  return RunExperiment(spec);
}

// Parses `log`'s Chrome trace export and checks its structure: valid JSON,
// every B closed by a properly nested E of the same name on its thread,
// timestamps monotone per thread, and a duration on every X span. Counts the
// non-metadata records per name into `names`.
void CheckChromeTrace(const EventLog& log, std::map<std::string, size_t>* names) {
  const std::string json = log.ToChromeTrace();
  JsonValue root;
  ASSERT_TRUE(JsonParser(json).Parse(&root)) << "export is not valid JSON";
  ASSERT_EQ(root.kind, JsonValue::Kind::kObject);
  const auto events_it = root.object.find("traceEvents");
  ASSERT_NE(events_it, root.object.end());
  ASSERT_EQ(events_it->second.kind, JsonValue::Kind::kArray);
  const std::vector<JsonValue>& events = events_it->second.array;
  ASSERT_GT(events.size(), 2u);

  std::map<int, std::vector<std::string>> open_spans;
  std::map<int, double> last_ts;
  size_t metadata = 0;
  size_t spans_closed = 0;
  for (const JsonValue& e : events) {
    ASSERT_EQ(e.kind, JsonValue::Kind::kObject);
    const auto ph_it = e.object.find("ph");
    ASSERT_NE(ph_it, e.object.end());
    const std::string& ph = ph_it->second.str;
    ASSERT_NE(e.object.find("name"), e.object.end());
    ASSERT_NE(e.object.find("pid"), e.object.end());
    if (ph == "M") {
      ++metadata;
      continue;
    }
    const auto tid_it = e.object.find("tid");
    const auto ts_it = e.object.find("ts");
    ASSERT_NE(tid_it, e.object.end());
    ASSERT_NE(ts_it, e.object.end());
    const int tid = static_cast<int>(tid_it->second.number);
    const double ts = ts_it->second.number;
    EXPECT_GE(ts, last_ts[tid]) << "timestamps not monotone on tid " << tid;
    last_ts[tid] = ts;
    const std::string& name = e.object.find("name")->second.str;
    ++(*names)[name];
    if (ph == "B") {
      open_spans[tid].push_back(name);
    } else if (ph == "E") {
      ASSERT_FALSE(open_spans[tid].empty())
          << "E '" << name << "' with no open span on tid " << tid;
      EXPECT_EQ(open_spans[tid].back(), name) << "mismatched span nesting";
      open_spans[tid].pop_back();
      ++spans_closed;
    } else if (ph == "X") {
      ASSERT_NE(e.object.find("dur"), e.object.end());
    } else {
      EXPECT_TRUE(ph == "i" || ph == "C") << "unexpected phase " << ph;
    }
  }
  for (const auto& [tid, stack] : open_spans) {
    EXPECT_TRUE(stack.empty()) << stack.size() << " unclosed span(s) on tid " << tid;
  }
  EXPECT_GT(metadata, 1u);  // process_name + at least one thread_name
  EXPECT_GT(spans_closed, 0u);
}

TEST(ChromeTraceTest, ExportParsesAndSpansPair) {
  const ExperimentResult result = RunObservedMatvec(AppVersion::kBuffered);
  ASSERT_TRUE(result.completed);
  ASSERT_FALSE(result.event_log.events().empty());
  EXPECT_EQ(result.event_log.dropped(), 0u);
  std::map<std::string, size_t> names;
  ASSERT_NO_FATAL_FAILURE(CheckChromeTrace(result.event_log, &names));

  // The B run must show the release pipeline end to end.
  const EventLog& log = result.event_log;
  EXPECT_GT(log.Count(VmHookOp::kFaultBegin), 0u);
  EXPECT_EQ(log.Count(VmHookOp::kFaultBegin), log.Count(VmHookOp::kFaultEnd));
  EXPECT_GT(log.Count(VmHookOp::kPrefetchIssue), 0u);
  EXPECT_GT(log.Count(VmHookOp::kReleaseEnqueue), 0u);
  EXPECT_GT(log.Count(VmHookOp::kReleaseFree), 0u);
  EXPECT_GT(log.Count(VmHookOp::kFreePagesSample), 0u);

  // The metrics dump came along and carries both counters and histograms.
  EXPECT_NE(result.metrics_text.find("# tmh-metrics-v1"), std::string::npos);
  EXPECT_NE(result.metrics_text.find("counter kernel.hard_faults"), std::string::npos);
  EXPECT_NE(result.metrics_text.find("histogram kernel.fault_service_ns"), std::string::npos);
  EXPECT_NE(result.metrics_text.find("prefetch.queue_wait_ns"), std::string::npos);
}

TEST(ChromeTraceTest, TierMigrationsAndMonitorSamplesAppear) {
  // Three tiers (DRAM plus two small slow tiers, so they overflow and cascade)
  // with the access monitor on: every tier migration and every monitor
  // sample is a state change the timeline must show.
  ExperimentSpec spec;
  spec.machine.user_memory_bytes = static_cast<int64_t>(7.5 * 1024 * 1024);
  spec.machine.tiers.push_back(TierSpec{});  // tiers[0] = DRAM
  for (const int64_t frames : {128, 64}) {
    TierSpec tier;
    tier.frames = frames;
    spec.machine.tiers.push_back(tier);
  }
  spec.workload = MakeMatvec(0.1);
  spec.version = AppVersion::kRelease;
  spec.monitor = true;
  spec.observe = true;
  const ExperimentResult result = RunExperiment(spec);
  ASSERT_TRUE(result.completed);
  EXPECT_EQ(result.event_log.dropped(), 0u);
  std::map<std::string, size_t> names;
  ASSERT_NO_FATAL_FAILURE(CheckChromeTrace(result.event_log, &names));

  EXPECT_EQ(names["demote"], result.kernel.tier_demotions);
  EXPECT_EQ(names["promote"], result.kernel.tier_promotions);
  EXPECT_EQ(names["tier_evict"], result.kernel.tier_evictions);
  EXPECT_EQ(names["monitor_sample"], result.kernel.monitor_invalidations);
  EXPECT_GT(names["demote"], 0u);
  EXPECT_GT(names["promote"], 0u);
  EXPECT_GT(names["tier_evict"], 0u);
  EXPECT_GT(names["monitor_sample"], 0u);
}

TEST(ChromeTraceTest, DisabledRunRecordsNothing) {
  ExperimentSpec spec;
  spec.machine.user_memory_bytes = static_cast<int64_t>(7.5 * 1024 * 1024);
  spec.workload = MakeMatvec(0.1);
  spec.version = AppVersion::kBuffered;
  spec.observe = false;
  const ExperimentResult result = RunExperiment(spec);
  ASSERT_TRUE(result.completed);
  EXPECT_TRUE(result.event_log.events().empty());
  EXPECT_TRUE(result.metrics_text.empty());
}

TEST(ChromeTraceTest, EventStreamIsDeterministic) {
  const ExperimentResult a = RunObservedMatvec(AppVersion::kRelease);
  const ExperimentResult b = RunObservedMatvec(AppVersion::kRelease);
  ASSERT_TRUE(a.completed);
  ASSERT_TRUE(b.completed);
  ASSERT_EQ(a.event_log.events().size(), b.event_log.events().size());
  EXPECT_TRUE(a.event_log.events() == b.event_log.events());
  EXPECT_EQ(a.metrics_text, b.metrics_text);
  EXPECT_EQ(a.event_log.ToChromeTrace(), b.event_log.ToChromeTrace());
}

}  // namespace
}  // namespace tmh
