#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/error.h"
#include "core/smartflux.h"
#include "datastore/client.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "wms/engine.h"

namespace smartflux::obs {
namespace {

// ---------------------------------------------------------------------------
// Minimal recursive-descent JSON parser: enough to verify that exporter
// output is well-formed and to pull out scalar fields. Throws on any
// malformed input, which is exactly what the round-trip tests need.
// ---------------------------------------------------------------------------

struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  const JsonValue& at(const std::string& key) const {
    auto it = object.find(key);
    if (it == object.end()) throw std::runtime_error("missing key: " + key);
    return it->second;
  }
};

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  JsonValue parse() {
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) throw std::runtime_error("trailing characters");
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\n' || text_[pos_] == '\t' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) throw std::runtime_error("unexpected end");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) throw std::runtime_error(std::string("expected ") + c);
    ++pos_;
  }

  JsonValue parse_value() {
    skip_ws();
    switch (peek()) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': {
        JsonValue v;
        v.type = JsonValue::Type::kString;
        v.string = parse_string();
        return v;
      }
      case 't': return parse_literal("true", true);
      case 'f': return parse_literal("false", false);
      case 'n': {
        JsonValue v = parse_literal("null", false);
        v.type = JsonValue::Type::kNull;
        return v;
      }
      default: return parse_number();
    }
  }

  JsonValue parse_literal(std::string_view lit, bool value) {
    if (text_.substr(pos_, lit.size()) != lit) throw std::runtime_error("bad literal");
    pos_ += lit.size();
    JsonValue v;
    v.type = JsonValue::Type::kBool;
    v.boolean = value;
    return v;
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) || text_[pos_] == '-' ||
            text_[pos_] == '+' || text_[pos_] == '.' || text_[pos_] == 'e' ||
            text_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) throw std::runtime_error("bad number");
    JsonValue v;
    v.type = JsonValue::Type::kNumber;
    v.number = std::stod(std::string(text_.substr(start, pos_ - start)));
    return v;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) throw std::runtime_error("unterminated string");
      char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= text_.size()) throw std::runtime_error("bad escape");
        char e = text_[pos_++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u':
            if (pos_ + 4 > text_.size()) throw std::runtime_error("bad \\u escape");
            // Decoded value unused by the tests; validate hex digits only.
            for (int k = 0; k < 4; ++k) {
              if (!std::isxdigit(static_cast<unsigned char>(text_[pos_ + k]))) {
                throw std::runtime_error("bad \\u escape");
              }
            }
            pos_ += 4;
            out += '?';
            break;
          default: throw std::runtime_error("bad escape");
        }
      } else {
        out += c;
      }
    }
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue v;
    v.type = JsonValue::Type::kArray;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.array.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue v;
    v.type = JsonValue::Type::kObject;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      v.object.emplace(std::move(key), parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Instruments
// ---------------------------------------------------------------------------

TEST(Counter, IncrementAndDelta) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(Gauge, SetAndAdd) {
  Gauge g;
  g.set(1.5);
  g.add(2.0);
  EXPECT_DOUBLE_EQ(g.value(), 3.5);
  g.set(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), -1.0);
}

TEST(Histogram, BucketBoundariesUseLeSemantics) {
  Histogram h({1.0, 2.0, 4.0});
  // A sample equal to an upper bound belongs to that bucket (le semantics).
  h.observe(0.5);   // bucket 0 (le 1)
  h.observe(1.0);   // bucket 0 (le 1) — boundary
  h.observe(1.001); // bucket 1 (le 2)
  h.observe(2.0);   // bucket 1 (le 2) — boundary
  h.observe(4.0);   // bucket 2 (le 4) — boundary
  h.observe(4.001); // +Inf overflow
  const auto counts = h.bucket_counts();
  ASSERT_EQ(counts.size(), 4u);
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 2u);
  EXPECT_EQ(counts[2], 1u);
  EXPECT_EQ(counts[3], 1u);
  EXPECT_EQ(h.count(), 6u);
  EXPECT_NEAR(h.sum(), 0.5 + 1.0 + 1.001 + 2.0 + 4.0 + 4.001, 1e-9);
}

TEST(Histogram, RejectsBadBounds) {
  EXPECT_THROW(Histogram({}), smartflux::InvalidArgument);
  EXPECT_THROW(Histogram({1.0, 1.0}), smartflux::InvalidArgument);
  EXPECT_THROW(Histogram({2.0, 1.0}), smartflux::InvalidArgument);
}

TEST(Histogram, BucketHelpers) {
  const auto lin = linear_buckets(0.0, 10.0, 4);
  EXPECT_EQ(lin, (std::vector<double>{0.0, 10.0, 20.0, 30.0}));
  const auto exp = exponential_buckets(1.0, 2.0, 4);
  EXPECT_EQ(exp, (std::vector<double>{1.0, 2.0, 4.0, 8.0}));
  const auto dur = duration_buckets();
  EXPECT_EQ(dur.size(), 12u);
  EXPECT_DOUBLE_EQ(dur.front(), 1e-6);
}

TEST(HistogramSnapshot, QuantileInterpolatesWithinBucket) {
  Histogram h(linear_buckets(10.0, 10.0, 10));  // 10, 20, ..., 100
  for (int i = 1; i <= 100; ++i) h.observe(static_cast<double>(i));
  MetricsRegistry reg;  // snapshot via a registry-shaped copy
  HistogramSnapshot snap;
  snap.bounds = h.bounds();
  snap.counts = h.bucket_counts();
  snap.sum = h.sum();
  snap.count = h.count();
  // Uniform 1..100: the q-quantile estimate should land near 100q.
  EXPECT_NEAR(snap.quantile(0.5), 50.0, 10.0);
  EXPECT_NEAR(snap.quantile(0.9), 90.0, 10.0);
  EXPECT_LE(snap.quantile(1.0), 100.0);
  EXPECT_DOUBLE_EQ(HistogramSnapshot{}.quantile(0.5), 0.0);
}

TEST(HistogramSnapshot, OverflowSamplesClampToLargestBound) {
  Histogram h({1.0});
  h.observe(100.0);  // +Inf bucket
  HistogramSnapshot snap;
  snap.bounds = h.bounds();
  snap.counts = h.bucket_counts();
  snap.count = h.count();
  EXPECT_DOUBLE_EQ(snap.quantile(0.99), 1.0);
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

TEST(MetricsRegistry, SameSeriesReturnsSameInstrument) {
  MetricsRegistry reg;
  Counter& a = reg.counter("sf_test_total", {{"k", "v"}});
  Counter& b = reg.counter("sf_test_total", {{"k", "v"}});
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(reg.series_count(), 1u);
}

TEST(MetricsRegistry, LabelOrderDoesNotSplitSeries) {
  MetricsRegistry reg;
  Counter& a = reg.counter("sf_test_total", {{"a", "1"}, {"b", "2"}});
  Counter& b = reg.counter("sf_test_total", {{"b", "2"}, {"a", "1"}});
  EXPECT_EQ(&a, &b);
}

TEST(MetricsRegistry, KindMismatchThrows) {
  MetricsRegistry reg;
  reg.counter("sf_test_total");
  EXPECT_THROW(reg.gauge("sf_test_total"), smartflux::InvalidArgument);
  EXPECT_THROW(reg.histogram("sf_test_total", {1.0}), smartflux::InvalidArgument);
}

TEST(MetricsRegistry, HistogramBoundsMismatchThrows) {
  MetricsRegistry reg;
  reg.histogram("sf_test_seconds", {1.0, 2.0});
  EXPECT_NO_THROW(reg.histogram("sf_test_seconds", {1.0, 2.0}, {{"k", "v"}}));
  EXPECT_THROW(reg.histogram("sf_test_seconds", {1.0, 3.0}, {{"k", "w"}}),
               smartflux::InvalidArgument);
}

TEST(MetricsRegistry, RejectsInvalidNamesAndLabels) {
  MetricsRegistry reg;
  EXPECT_THROW(reg.counter(""), smartflux::InvalidArgument);
  EXPECT_THROW(reg.counter("1starts_with_digit"), smartflux::InvalidArgument);
  EXPECT_THROW(reg.counter("has space"), smartflux::InvalidArgument);
  EXPECT_THROW(reg.counter("ok_name", {{"bad key", "v"}}), smartflux::InvalidArgument);
  EXPECT_THROW(reg.counter("ok_name", {{"k", "a"}, {"k", "b"}}), smartflux::InvalidArgument);
  EXPECT_NO_THROW(reg.counter("ok_name", {{"k", "any value is fine \"\\"}}));
}

TEST(MetricsRegistry, SnapshotIsSortedAndIsolated) {
  MetricsRegistry reg;
  Counter& c = reg.counter("sf_b_total", {}, "b help");
  reg.gauge("sf_a_value");
  c.inc(3);
  MetricsSnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.metrics.size(), 2u);
  EXPECT_EQ(snap.metrics[0].name, "sf_a_value");
  EXPECT_EQ(snap.metrics[1].name, "sf_b_total");
  EXPECT_EQ(snap.metrics[1].counter_value, 3u);
  c.inc(100);  // the snapshot must not move
  EXPECT_EQ(snap.metrics[1].counter_value, 3u);
  EXPECT_EQ(snap.help.at("sf_b_total"), "b help");
}

TEST(MetricsRegistry, ConcurrentCounterIncrements) {
  MetricsRegistry reg;
  Counter& c = reg.counter("sf_concurrent_total");
  Histogram& h = reg.histogram("sf_concurrent_seconds", {0.5});
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&c, &h] {
      for (int i = 0; i < kPerThread; ++i) {
        c.inc();
        h.observe(i % 2 == 0 ? 0.1 : 1.0);
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  const auto counts = h.bucket_counts();
  EXPECT_EQ(counts[0], static_cast<std::uint64_t>(kThreads) * kPerThread / 2);
}

// ---------------------------------------------------------------------------
// Exporters
// ---------------------------------------------------------------------------

TEST(PrometheusExport, EscapesLabelValues) {
  EXPECT_EQ(prometheus_escape("plain"), "plain");
  EXPECT_EQ(prometheus_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(prometheus_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(prometheus_escape("a\nb"), "a\\nb");
}

TEST(PrometheusExport, RendersCounterGaugeAndHelp) {
  MetricsRegistry reg;
  reg.counter("sf_events_total", {{"step", "agg\"x"}}, "Event count").inc(7);
  reg.gauge("sf_rate", {}, "A rate").set(0.25);
  const std::string text = to_prometheus(reg.snapshot());
  EXPECT_NE(text.find("# HELP sf_events_total Event count"), std::string::npos);
  EXPECT_NE(text.find("# TYPE sf_events_total counter"), std::string::npos);
  EXPECT_NE(text.find("sf_events_total{step=\"agg\\\"x\"} 7"), std::string::npos);
  EXPECT_NE(text.find("# TYPE sf_rate gauge"), std::string::npos);
  EXPECT_NE(text.find("sf_rate 0.25"), std::string::npos);
}

TEST(PrometheusExport, HistogramBucketsAreCumulativeWithInf) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("sf_lat_seconds", {1.0, 2.0}, {}, "Latency");
  h.observe(0.5);
  h.observe(1.5);
  h.observe(99.0);
  const std::string text = to_prometheus(reg.snapshot());
  EXPECT_NE(text.find("# TYPE sf_lat_seconds histogram"), std::string::npos);
  EXPECT_NE(text.find("sf_lat_seconds_bucket{le=\"1\"} 1"), std::string::npos);
  EXPECT_NE(text.find("sf_lat_seconds_bucket{le=\"2\"} 2"), std::string::npos);
  EXPECT_NE(text.find("sf_lat_seconds_bucket{le=\"+Inf\"} 3"), std::string::npos);
  EXPECT_NE(text.find("sf_lat_seconds_count 3"), std::string::npos);
  EXPECT_NE(text.find("sf_lat_seconds_sum 101"), std::string::npos);
}

TEST(JsonExport, ParsesBackAndPreservesValues) {
  MetricsRegistry reg;
  reg.counter("sf_events_total", {{"step", "a\\b\"c"}}).inc(5);
  reg.gauge("sf_rate").set(1.5);
  reg.histogram("sf_lat_seconds", {1.0}).observe(0.5);
  const std::string text = to_json(reg.snapshot());
  const JsonValue root = JsonParser(text).parse();
  const auto& metrics = root.at("metrics").array;
  ASSERT_EQ(metrics.size(), 3u);
  bool saw_counter = false;
  for (const auto& m : metrics) {
    if (m.at("name").string == "sf_events_total") {
      saw_counter = true;
      EXPECT_DOUBLE_EQ(m.at("value").number, 5.0);
      EXPECT_EQ(m.at("labels").at("step").string, "a\\b\"c");
    }
  }
  EXPECT_TRUE(saw_counter);
}

TEST(ChromeTraceExport, RoundTripsThroughJsonParser) {
  Tracer tracer;
  {
    Span wave = tracer.span("wave:1", "wms");
    Span step = tracer.span("step:agg", "wms", wave.id());
  }
  const auto spans = tracer.snapshot();
  ASSERT_EQ(spans.size(), 2u);
  const std::string text = to_chrome_trace(spans);
  const JsonValue root = JsonParser(text).parse();
  const auto& events = root.at("traceEvents").array;
  ASSERT_EQ(events.size(), 2u);
  for (const auto& ev : events) {
    EXPECT_EQ(ev.at("ph").string, "X");
    EXPECT_GE(ev.at("ts").number, 0.0);
    EXPECT_GE(ev.at("dur").number, 0.0);
    EXPECT_EQ(ev.at("pid").number, 1.0);
  }
  // The step span (inner) finished first, so it precedes the wave record.
  EXPECT_EQ(events[0].at("name").string, "step:agg");
  EXPECT_EQ(events[1].at("name").string, "wave:1");
  EXPECT_DOUBLE_EQ(events[0].at("args").at("parent").number,
                   events[1].at("args").at("id").number);
}

TEST(Exporters, EmptySnapshotsAreValid) {
  MetricsRegistry reg;
  EXPECT_EQ(to_prometheus(reg.snapshot()), "");
  EXPECT_NO_THROW(JsonParser(to_json(reg.snapshot())).parse());
  EXPECT_NO_THROW(JsonParser(to_chrome_trace({})).parse());
}

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

TEST(Tracer, DropsWhenFullAndKeepsHead) {
  Tracer tracer(2);
  tracer.span("a", "t");
  tracer.span("b", "t");
  tracer.span("c", "t");  // dropped
  EXPECT_EQ(tracer.size(), 2u);
  EXPECT_EQ(tracer.dropped(), 1u);
  const auto spans = tracer.snapshot();
  EXPECT_EQ(spans[0].name, "a");
  EXPECT_EQ(spans[1].name, "b");
  tracer.clear();
  EXPECT_EQ(tracer.size(), 0u);
  EXPECT_EQ(tracer.dropped(), 0u);
}

TEST(Tracer, NullSafeStartSpanIsInert) {
  Span s = start_span(nullptr, "x", "t");
  EXPECT_FALSE(s.active());
  EXPECT_EQ(s.id(), 0u);
  s.finish();  // no-op, no crash
}

TEST(Tracer, MovedSpanRecordsOnce) {
  Tracer tracer;
  {
    Span a = tracer.span("only", "t");
    Span b = std::move(a);
    a.finish();  // moved-from: inert
  }
  EXPECT_EQ(tracer.size(), 1u);
}

// ---------------------------------------------------------------------------
// End-to-end: instrumented engine, datastore, middleware, ml
// ---------------------------------------------------------------------------

wms::WorkflowSpec ramp_spec(double bound = 2.5) {
  wms::StepSpec src;
  src.id = "src";
  src.outputs = {ds::ContainerRef::whole_table("in")};
  src.fn = [](wms::StepContext& ctx) {
    ctx.client.put("in", "r", "v", 200.0 + static_cast<double>(ctx.wave));
  };
  wms::StepSpec agg;
  agg.id = "agg";
  agg.predecessors = {"src"};
  agg.inputs = {ds::ContainerRef::whole_table("in")};
  agg.outputs = {ds::ContainerRef::whole_table("out")};
  agg.max_error = bound;
  agg.fn = [](wms::StepContext& ctx) {
    ctx.client.put("out", "r", "v", ctx.client.get("in", "r", "v").value_or(0.0));
  };
  return wms::WorkflowSpec("ramp", {src, agg});
}

std::uint64_t counter_value(const MetricsSnapshot& snap, const std::string& name,
                            const Labels& labels = {}) {
  for (const auto& m : snap.metrics) {
    if (m.name == name && (labels.empty() || m.labels == labels)) return m.counter_value;
  }
  ADD_FAILURE() << "metric not found: " << name;
  return 0;
}

TEST(EngineObservability, CountsWavesStatusesAndDurations) {
  MetricsRegistry reg;
  Tracer tracer;
  ds::DataStore store;
  wms::WorkflowEngine::Options options;
  options.metrics = &reg;
  options.tracer = &tracer;
  wms::WorkflowEngine engine(ramp_spec(), store, options);
  wms::SyncController sync;
  engine.run_waves(1, 5, sync);

  const MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(counter_value(snap, "sf_wms_waves_total"), 5u);
  EXPECT_EQ(counter_value(snap, "sf_wms_step_status_total",
                          {{"status", "executed"}, {"step", "agg"}, {"workflow", "ramp"}}),
            5u);
  bool saw_step_duration = false;
  for (const auto& m : snap.metrics) {
    if (m.name == "sf_wms_step_duration_seconds" && m.kind == MetricKind::kHistogram) {
      saw_step_duration = true;
      EXPECT_GT(m.histogram.count, 0u);
    }
  }
  EXPECT_TRUE(saw_step_duration);

  // Tracing: one wave span per wave, one step span per attempted step,
  // parented to its wave.
  const auto spans = tracer.snapshot();
  std::size_t wave_spans = 0, step_spans = 0;
  for (const auto& s : spans) {
    if (s.name.rfind("wave:", 0) == 0) ++wave_spans;
    if (s.name.rfind("step:", 0) == 0) {
      ++step_spans;
      EXPECT_NE(s.parent, 0u);
    }
  }
  EXPECT_EQ(wave_spans, 5u);
  EXPECT_EQ(step_spans, 10u);
}

TEST(EngineObservability, DisabledOptionsRecordNothing) {
  ds::DataStore store;
  wms::WorkflowEngine engine(ramp_spec(), store);  // defaults: no sinks
  wms::SyncController sync;
  EXPECT_NO_THROW(engine.run_waves(1, 3, sync));
}

TEST(DataStoreObservability, CountsOpsAndTimesScans) {
  MetricsRegistry reg;
  Tracer tracer;
  ds::DataStore store;
  store.set_instrumentation(&reg, &tracer, /*latency_sample_shift=*/0);  // time every op
  store.put("t", "r", "c", 1, 1.0);
  store.put("t", "r", "c", 2, 2.0);
  store.get("t", "r", "c");
  store.get_previous("t", "r", "c");
  store.erase("t", "r", "c", 3);
  store.snapshot_flat(ds::ContainerRef::whole_table("t"));  // one scan

  const MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(counter_value(snap, "sf_ds_ops_total", {{"op", "put"}}), 2u);
  EXPECT_EQ(counter_value(snap, "sf_ds_ops_total", {{"op", "get"}}), 2u);
  EXPECT_EQ(counter_value(snap, "sf_ds_ops_total", {{"op", "erase"}}), 1u);
  EXPECT_EQ(counter_value(snap, "sf_ds_ops_total", {{"op", "scan"}}), 1u);
  bool saw_scan_latency = false;
  for (const auto& m : snap.metrics) {
    if (m.name == "sf_ds_op_duration_seconds" && m.labels == Labels{{"op", "scan"}}) {
      saw_scan_latency = true;
      EXPECT_EQ(m.histogram.count, 1u);
    }
  }
  EXPECT_TRUE(saw_scan_latency);

  const auto spans = tracer.snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].name, "ds_scan:t");
  EXPECT_EQ(spans[0].category, "ds");

  store.set_instrumentation(nullptr);  // detach: further ops uncounted
  store.put("t", "r", "c", 4, 4.0);
  EXPECT_EQ(counter_value(reg.snapshot(), "sf_ds_ops_total", {{"op", "put"}}), 2u);
}

TEST(DataStoreObservability, AsOfSnapshotIsCountedTimedAndTraced) {
  // Steps read through Client::snapshot (as of their wave): each read must
  // show up in the scan counter, the scan latency and the trace like a
  // latest-version snapshot does.
  MetricsRegistry reg;
  Tracer tracer;
  ds::DataStore store;
  store.set_instrumentation(&reg, &tracer, /*latency_sample_shift=*/0);
  store.put("t", "r", "c", 1, 1.0);
  store.put("t", "r", "c", 2, 2.0);
  const ds::Client client(store, 1);
  const ds::FlatSnapshot snapshot = client.snapshot(ds::ContainerRef::whole_table("t"));
  ASSERT_EQ(snapshot.size(), 1u);
  EXPECT_EQ(snapshot.entries()[0].value, 1.0);

  const MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(counter_value(snap, "sf_ds_ops_total", {{"op", "scan"}}), 1u);
  std::size_t scan_samples = 0;
  for (const auto& m : snap.metrics) {
    if (m.name == "sf_ds_op_duration_seconds" && m.labels == Labels{{"op", "scan"}}) {
      scan_samples = m.histogram.count;
    }
  }
  EXPECT_EQ(scan_samples, 1u);
  const auto spans = tracer.snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].name, "ds_scan:t");
  EXPECT_EQ(spans[0].category, "ds");
}

TEST(SmartFluxObservability, RecordsDecisionsPhasesAndTraining) {
  MetricsRegistry reg;
  Tracer tracer;
  ds::DataStore store;
  wms::WorkflowEngine::Options engine_options;
  engine_options.metrics = &reg;
  engine_options.tracer = &tracer;
  wms::WorkflowEngine engine(ramp_spec(), store, engine_options);

  core::SmartFluxOptions options;
  options.monitor.error = core::ErrorKind::kRmse;
  options.monitor.rmse_value_range = 1.0;
  options.metrics = &reg;
  options.tracer = &tracer;
  core::SmartFluxEngine sf(engine, options);
  sf.train(1, 30);
  sf.build_model();
  sf.run(31, 10);

  const MetricsSnapshot snap = reg.snapshot();
  const std::uint64_t skipped = counter_value(snap, "sf_smartflux_steps_skipped_total");
  const std::uint64_t executed = counter_value(snap, "sf_smartflux_steps_executed_total");
  EXPECT_EQ(skipped + executed, 10u);  // one tolerant step, ten adaptive waves
  EXPECT_EQ(skipped, sf.controller().skipped_count());
  EXPECT_EQ(counter_value(snap, "sf_smartflux_phase_transitions_total",
                          {{"phase", "training"}}),
            1u);
  EXPECT_EQ(counter_value(snap, "sf_smartflux_phase_transitions_total",
                          {{"phase", "application"}}),
            1u);
  // Phase gauge tracks the current phase.
  for (const auto& m : snap.metrics) {
    if (m.name == "sf_smartflux_phase") {
      EXPECT_DOUBLE_EQ(m.gauge_value,
                       static_cast<double>(core::SmartFluxEngine::Phase::kApplication));
    }
  }

  // The forest reported training through the propagated registry.
  bool saw_train = false, saw_trees = false, saw_build_span = false;
  for (const auto& m : snap.metrics) {
    if (m.name == "sf_ml_train_duration_seconds") {
      saw_train = true;
      EXPECT_GT(m.histogram.count, 0u);
    }
    if (m.name == "sf_ml_forest_trees") saw_trees = true;
  }
  for (const auto& s : tracer.snapshot()) {
    if (s.name == "build_model") saw_build_span = true;
  }
  EXPECT_TRUE(saw_train);
  EXPECT_TRUE(saw_trees);
  EXPECT_TRUE(saw_build_span);
}

TEST(SmartFluxObservability, AuditWavesReportOutcomesAndRate) {
  MetricsRegistry reg;
  ds::DataStore store;
  wms::WorkflowEngine engine(ramp_spec(), store);
  core::SmartFluxOptions options;
  options.monitor.error = core::ErrorKind::kRmse;
  options.monitor.rmse_value_range = 1.0;
  options.metrics = &reg;
  options.audit.audit_every = 3;
  core::SmartFluxEngine sf(engine, options);
  sf.train(1, 30);
  sf.build_model();
  sf.run(31, 12);  // every third wave audits

  const MetricsSnapshot snap = reg.snapshot();
  const std::uint64_t clean =
      counter_value(snap, "sf_smartflux_audit_waves_total", {{"outcome", "clean"}});
  const std::uint64_t violation =
      counter_value(snap, "sf_smartflux_audit_waves_total", {{"outcome", "violation"}});
  EXPECT_EQ(clean + violation, sf.audit_stats().audits_run);
  EXPECT_GT(sf.audit_stats().audits_run, 0u);
  bool saw_rate = false;
  for (const auto& m : snap.metrics) {
    if (m.name == "sf_smartflux_false_negative_rate") {
      saw_rate = true;
      EXPECT_GE(m.gauge_value, 0.0);
      EXPECT_LE(m.gauge_value, 1.0);
    }
  }
  EXPECT_TRUE(saw_rate);
}

TEST(Export, WriteTextFileRoundTripsAndSurfacesFailure) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "sf_export_test.txt").string();
  write_text_file(path, "hello\n");
  std::ifstream in(path);
  std::string content((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  EXPECT_EQ(content, "hello\n");
  std::filesystem::remove(path);

  // An unwritable path must throw, not silently drop the export.
  EXPECT_THROW(write_text_file("/nonexistent-dir/sf/export.txt", "x"), smartflux::Error);
}

}  // namespace
}  // namespace smartflux::obs
