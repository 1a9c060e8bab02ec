// Unit tests for the obs layer: the logical span clock, capture isolation,
// the metrics primitives (counter/gauge/histogram edge cases), and the
// Chrome trace-event exporter against its independent validator.
#include <cmath>
#include <limits>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/trace_validate.h"
#include "timing/timing.h"

namespace certkit::obs {
namespace {

// Every test that enables tracing restores the global switch so test order
// never matters.
class TracingGuard {
 public:
  TracingGuard() { SetTracingEnabled(true); }
  ~TracingGuard() { SetTracingEnabled(false); }
};

TEST(SpanCaptureTest, LogicalClockNestsExactly) {
  TracingGuard guard;
  SpanCapture capture;
  {
    Span outer("outer", "t");
    { Span inner("inner", "t"); }
  }
  const auto events = capture.Take();
  ASSERT_EQ(events.size(), 2u);
  // Spans complete inner-first; the clock ticks once per begin and per end.
  EXPECT_EQ(events[0].name, "inner");
  EXPECT_EQ(events[0].ts, 1);
  EXPECT_EQ(events[0].dur, 1);
  EXPECT_EQ(events[1].name, "outer");
  EXPECT_EQ(events[1].ts, 0);
  EXPECT_EQ(events[1].dur, 3);
  // The child's interval lies strictly inside the parent's.
  EXPECT_GT(events[0].ts, events[1].ts);
  EXPECT_LT(events[0].ts + events[0].dur, events[1].ts + events[1].dur);
}

TEST(SpanCaptureTest, SequentialSpansAreDisjoint) {
  TracingGuard guard;
  SpanCapture capture;
  { Span a("a", "t"); }
  { Span b("b", "t"); }
  const auto events = capture.Take();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].ts, 0);
  EXPECT_EQ(events[0].dur, 1);
  EXPECT_EQ(events[1].ts, 2);
  EXPECT_EQ(events[1].dur, 1);
}

TEST(SpanCaptureTest, EachCaptureClockStartsAtZero) {
  TracingGuard guard;
  {
    SpanCapture first;
    { Span a("a", "t"); }
    EXPECT_EQ(first.Take()[0].ts, 0);
  }
  {
    SpanCapture second;
    { Span b("b", "t"); }
    // A fresh capture restarts at 0 no matter what ran before.
    EXPECT_EQ(second.Take()[0].ts, 0);
  }
}

TEST(SpanCaptureTest, InnerCaptureShadowsOuter) {
  TracingGuard guard;
  SpanCapture outer;
  { Span a("outer-span", "t"); }
  {
    SpanCapture inner;
    { Span b("inner-span", "t"); }
    const auto inner_events = inner.Take();
    ASSERT_EQ(inner_events.size(), 1u);
    EXPECT_EQ(inner_events[0].name, "inner-span");
    EXPECT_EQ(inner_events[0].ts, 0);
  }
  { Span c("outer-span-2", "t"); }
  const auto outer_events = outer.Take();
  ASSERT_EQ(outer_events.size(), 2u);
  EXPECT_EQ(outer_events[0].name, "outer-span");
  EXPECT_EQ(outer_events[1].name, "outer-span-2");
}

TEST(SpanCaptureTest, CapturesArePerThread) {
  TracingGuard guard;
  SpanCapture main_capture;
  std::vector<SpanEvent> worker_events;
  std::thread worker([&worker_events] {
    SpanCapture capture;
    { Span w("worker-span", "t"); }
    worker_events = capture.Take();
  });
  worker.join();
  ASSERT_EQ(worker_events.size(), 1u);
  EXPECT_EQ(worker_events[0].name, "worker-span");
  EXPECT_EQ(worker_events[0].ts, 0);
  // Nothing leaked into the main thread's capture.
  EXPECT_TRUE(main_capture.Take().empty());
}

TEST(SpanCaptureTest, WorkerWithoutCaptureRecordsNothing) {
  TracingGuard guard;
  SpanCapture main_capture;
  std::thread worker([] {
    Span w("uncaptured", "t");  // no capture on this thread: inert
  });
  worker.join();
  EXPECT_TRUE(main_capture.Take().empty());
}

TEST(SpanTest, InertWhenTracingDisabled) {
  SetTracingEnabled(false);
  SpanCapture capture;
  { Span a("a", "t"); }
  EXPECT_TRUE(capture.Take().empty());
}

TEST(SpanTest, FeedsTimerAndHistogramEvenWithoutCapture) {
  SetTracingEnabled(false);
  auto& timer =
      timing::TimerRegistry::Instance().GetOrCreate("obs_test/span_timer");
  const std::int64_t before = timer.GetStats().count;
  Histogram hist({1.0});
  { Span a("a", "t", &timer, &hist); }
  EXPECT_EQ(timer.GetStats().count, before + 1);
  EXPECT_EQ(hist.count(), 1);
}

TEST(TraceRecorderTest, TrackIdsAreDenseInCallOrder) {
  TraceRecorder& recorder = TraceRecorder::Instance();
  recorder.Clear();
  EXPECT_EQ(recorder.AddTrack("first", {}), 0);
  EXPECT_EQ(recorder.AddTrack("second", {}), 1);
  const auto tracks = recorder.Snapshot();
  ASSERT_EQ(tracks.size(), 2u);
  EXPECT_EQ(tracks[0].label, "first");
  EXPECT_EQ(tracks[1].label, "second");
  EXPECT_EQ(recorder.track_count(), 2);
  recorder.Clear();
  EXPECT_EQ(recorder.track_count(), 0);
}

TEST(CounterTest, AddValueReset) {
  Counter c;
  EXPECT_EQ(c.value(), 0);
  c.Add();
  c.Add(41);
  EXPECT_EQ(c.value(), 42);
  c.Reset();
  EXPECT_EQ(c.value(), 0);
}

TEST(GaugeTest, SetValueReset) {
  Gauge g;
  EXPECT_EQ(g.value(), 0.0);
  g.Set(3.5);
  EXPECT_EQ(g.value(), 3.5);
  g.Reset();
  EXPECT_EQ(g.value(), 0.0);
}

TEST(HistogramTest, BucketBoundariesAreInclusiveUpperBounds) {
  Histogram h({1.0, 2.0});
  h.Record(0.5);   // below the first bound -> bucket 0
  h.Record(1.0);   // exactly on a bound -> that bucket (inclusive)
  h.Record(std::nextafter(1.0, 2.0));  // just above -> next bucket
  h.Record(2.0);   // on the last bound -> last bounded bucket
  h.Record(2.5);   // above every bound -> overflow bucket
  const auto buckets = h.BucketCounts();
  ASSERT_EQ(buckets.size(), 3u);  // two bounds + overflow
  EXPECT_EQ(buckets[0], 2);
  EXPECT_EQ(buckets[1], 2);
  EXPECT_EQ(buckets[2], 1);
  EXPECT_EQ(h.count(), 5);
}

TEST(HistogramTest, NegativeSamplesLandInFirstBucket) {
  Histogram h({1.0});
  h.Record(-5.0);
  EXPECT_EQ(h.BucketCounts()[0], 1);
  EXPECT_EQ(h.min(), -5.0);
}

TEST(HistogramTest, NonFiniteSamplesAreDroppedEntirely) {
  Histogram h({1.0});
  h.Record(std::numeric_limits<double>::quiet_NaN());
  h.Record(std::numeric_limits<double>::infinity());
  h.Record(-std::numeric_limits<double>::infinity());
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.sum(), 0.0);
  for (const auto b : h.BucketCounts()) EXPECT_EQ(b, 0);
}

TEST(HistogramTest, SumMinMaxAndReset) {
  Histogram h({10.0});
  h.Record(1.0);
  h.Record(4.0);
  h.Record(2.0);
  EXPECT_EQ(h.count(), 3);
  EXPECT_DOUBLE_EQ(h.sum(), 7.0);
  EXPECT_EQ(h.min(), 1.0);
  EXPECT_EQ(h.max(), 4.0);
  h.Reset();
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.min(), 0.0);
  EXPECT_EQ(h.max(), 0.0);
}

TEST(MetricsRegistryTest, ReferencesSurviveResetAll) {
  auto& registry = MetricsRegistry::Instance();
  Counter& c = registry.GetCounter("obs_test/stable_ref");
  c.Add(7);
  registry.ResetAll();
  EXPECT_EQ(c.value(), 0);  // zeroed, not invalidated
  c.Add(1);
  EXPECT_EQ(registry.GetCounter("obs_test/stable_ref").value(), 1);
}

TEST(MetricsRegistryTest, HistogramBoundsFixedOnFirstRegistration) {
  auto& registry = MetricsRegistry::Instance();
  Histogram& h = registry.GetHistogram("obs_test/bounds_once", {1.0, 2.0});
  Histogram& again = registry.GetHistogram("obs_test/bounds_once", {99.0});
  EXPECT_EQ(&h, &again);
  EXPECT_EQ(again.bounds().size(), 2u);
}

TEST(MetricsJsonTest, TimingFieldsAreGated) {
  auto& registry = MetricsRegistry::Instance();
  registry.GetCounter("obs_test/json_counter").Add(3);
  registry.GetHistogram("obs_test/json_hist", {1.0}).Record(0.5);
  const auto snapshot = registry.Snapshot();
  const std::string lean = MetricsJson(snapshot, /*include_timing=*/false);
  EXPECT_NE(lean.find("\"obs_test/json_counter\":3"), std::string::npos);
  EXPECT_NE(lean.find("\"count\":1"), std::string::npos);
  EXPECT_EQ(lean.find("\"buckets\""), std::string::npos);
  EXPECT_EQ(lean.find("\"sum\""), std::string::npos);
  const std::string full = MetricsJson(snapshot, /*include_timing=*/true);
  EXPECT_NE(full.find("\"buckets\""), std::string::npos);
  EXPECT_NE(full.find("\"sum\""), std::string::npos);
}

TEST(ChromeTraceJsonTest, ExportValidatesWithAndWithoutTiming) {
  TracingGuard guard;
  SpanCapture capture;
  {
    Span outer("outer", "t");
    { Span inner("inner \"quoted\"\n", "t"); }  // exercises escaping
  }
  std::vector<TraceTrack> tracks;
  tracks.push_back(TraceTrack{"track \\0", capture.Take()});
  std::string error;
  EXPECT_TRUE(ValidateChromeTrace(ChromeTraceJson(tracks, false), &error))
      << error;
  EXPECT_TRUE(ValidateChromeTrace(ChromeTraceJson(tracks, true), &error))
      << error;
}

TEST(ChromeTraceJsonTest, EmptyTrackListStillValidates) {
  std::string error;
  EXPECT_TRUE(ValidateChromeTrace(ChromeTraceJson({}, false), &error))
      << error;
}

TEST(TraceValidateTest, RejectsMalformedJson) {
  std::string error;
  EXPECT_FALSE(ValidateChromeTrace("{\"traceEvents\":[", &error));
  EXPECT_FALSE(ValidateChromeTrace("not json at all", &error));
  EXPECT_FALSE(ValidateChromeTrace("{\"noTraceEvents\":[]}", &error));
}

TEST(TraceValidateTest, DistinguishesMalformedNumbersFromOutOfRange) {
  // Regression for the numeric-literal path: the validator converts with
  // std::from_chars (no exceptions, no locale), and a syntactically broken
  // literal must produce a different diagnosis than a well-formed one that
  // overflows a double — "1.2.3" is a formatting bug in an exporter,
  // "1e999" is a value bug, and a triager needs to know which.
  std::string error;
  EXPECT_FALSE(ValidateChromeTrace(
      "{\"traceEvents\":[{\"name\":\"a\",\"ph\":\"X\",\"ts\":1.2.3,"
      "\"dur\":1,\"pid\":0,\"tid\":0}]}",
      &error));
  EXPECT_NE(error.find("malformed number"), std::string::npos) << error;

  error.clear();
  EXPECT_FALSE(ValidateChromeTrace(
      "{\"traceEvents\":[{\"name\":\"a\",\"ph\":\"X\",\"ts\":1e999,"
      "\"dur\":1,\"pid\":0,\"tid\":0}]}",
      &error));
  EXPECT_NE(error.find("out of range"), std::string::npos) << error;

  // Dangling exponents and double signs are malformed, not out of range.
  error.clear();
  EXPECT_FALSE(ValidateChromeTrace("{\"traceEvents\":[{\"ts\":1e}]}", &error));
  EXPECT_NE(error.find("malformed number"), std::string::npos) << error;
}

TEST(TraceValidateTest, RejectsSchemaViolations) {
  std::string error;
  // Missing name.
  EXPECT_FALSE(ValidateChromeTrace(
      "{\"traceEvents\":[{\"ph\":\"X\",\"ts\":0,\"dur\":1,"
      "\"pid\":0,\"tid\":0}]}",
      &error));
  // Zero duration on a complete event.
  EXPECT_FALSE(ValidateChromeTrace(
      "{\"traceEvents\":[{\"name\":\"a\",\"ph\":\"X\",\"ts\":0,\"dur\":0,"
      "\"pid\":0,\"tid\":0}]}",
      &error));
  // Negative timestamp.
  EXPECT_FALSE(ValidateChromeTrace(
      "{\"traceEvents\":[{\"name\":\"a\",\"ph\":\"X\",\"ts\":-1,\"dur\":1,"
      "\"pid\":0,\"tid\":0}]}",
      &error));
  // Unsupported phase.
  EXPECT_FALSE(ValidateChromeTrace(
      "{\"traceEvents\":[{\"name\":\"a\",\"ph\":\"Q\",\"pid\":0,"
      "\"tid\":0}]}",
      &error));
  // Metadata event without args.
  EXPECT_FALSE(ValidateChromeTrace(
      "{\"traceEvents\":[{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,"
      "\"tid\":0}]}",
      &error));
}

TEST(TraceValidateTest, RejectsPartiallyOverlappingSpans) {
  // [0, 2) and [1, 3) on the same tid partially overlap — a logical-clock
  // bug the validator must catch even though each event is well-formed.
  TraceTrack track;
  track.label = "bad";
  track.events.push_back(SpanEvent{"a", "t", 0, 2, 0.0});
  track.events.push_back(SpanEvent{"b", "t", 1, 2, 0.0});
  std::string error;
  EXPECT_FALSE(ValidateChromeTrace(ChromeTraceJson({track}, false), &error));
  EXPECT_NE(error.find("overlap"), std::string::npos) << error;
}

TEST(TraceValidateTest, RejectsSpansEndingPastInt64) {
  // Regression: the span end ts + dur was computed in double and cast to
  // int64, which is undefined past 2^63 (x86 wraps it to INT64_MIN). These
  // two spans partially overlap, [2^62, 2^63) and [2^62 + 2^40,
  // 2^63 + 2^40), yet the wrapped ends let them pass.
  std::string error;
  EXPECT_FALSE(ValidateChromeTrace(
      "{\"traceEvents\":["
      "{\"name\":\"a\",\"ph\":\"X\",\"ts\":4611686018427387904,"
      "\"dur\":4611686018427387904,\"pid\":0,\"tid\":0},"
      "{\"name\":\"b\",\"ph\":\"X\",\"ts\":4611687117939015680,"
      "\"dur\":4611686018427387904,\"pid\":0,\"tid\":0}]}",
      &error));
  EXPECT_NE(error.find("overflow"), std::string::npos) << error;

  // A timestamp no int64 holds is not an integer timestamp.
  error.clear();
  EXPECT_FALSE(ValidateChromeTrace(
      "{\"traceEvents\":[{\"name\":\"a\",\"ph\":\"X\",\"ts\":1e300,"
      "\"dur\":1,\"pid\":0,\"tid\":0}]}",
      &error));
  EXPECT_NE(error.find("integer ts"), std::string::npos) << error;
}

TEST(TraceValidateTest, AcceptsSameTidOnDifferentTracksIndependently) {
  // Disjoint and nested intervals are both fine.
  TraceTrack track;
  track.label = "good";
  track.events.push_back(SpanEvent{"child", "t", 1, 1, 0.0});
  track.events.push_back(SpanEvent{"parent", "t", 0, 3, 0.0});
  track.events.push_back(SpanEvent{"later", "t", 4, 2, 0.0});
  std::string error;
  EXPECT_TRUE(ValidateChromeTrace(ChromeTraceJson({track}, false), &error))
      << error;
}

}  // namespace
}  // namespace certkit::obs
