// certkit obs: deterministic tracing for the AD pipeline, the safety stack,
// the campaign fleet, and the analysis driver.
//
// The paper's Observation 1 argues that Apollo-scale complexity "challenges
// the functional verification of the code as well as its timing analysis";
// ISO 26262-6 Tables 4/10 ask for temporal monitoring and evidence of
// execution behavior. This module is that evidence substrate: RAII Spans
// record where a tick spends its time, which monitor fired when, and how the
// fleet schedules work — and the export is byte-identical for any --jobs at
// a fixed --seed.
//
// Determinism contract (mirrors cov::ThreadCapture and the campaign JSON):
//
//  * Timestamps are LOGICAL: every SpanCapture owns a sequence clock that
//    starts at 0 and advances by one at each span begin and each span end.
//    Nesting is therefore exact (a child's [ts, ts+dur] interval lies
//    strictly inside its parent's) and independent of wall clock, thread
//    count, and scheduling.
//  * Capture is per thread: a fleet worker captures exactly the spans the
//    candidate it is evaluating fires, like cov::ThreadCapture. Captures
//    nest (an inner capture shadows the outer one on the same thread), so
//    the campaign's control spans and its candidates' spans never mix even
//    when the caller drains pool iterations itself.
//  * The global TraceRecorder is only ever appended to from serial merge
//    sections, in deterministic order; each AddTrack call becomes one
//    Chrome trace-event thread (tid).
//  * Wall-clock durations are still measured (they feed the
//    timing::ExecutionTimer/WCET machinery and the per-stage duration
//    histograms) but appear in the export only when timing is requested,
//    matching the campaign-JSON --timing convention.
#ifndef CERTKIT_OBS_TRACE_H_
#define CERTKIT_OBS_TRACE_H_

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace certkit::timing {
class ExecutionTimer;
}

namespace certkit::obs {

class Histogram;

// Global span-recording switch. Off by default: Span construction is inert
// (no clock read, no allocation) unless both tracing is enabled and the
// calling thread has an active SpanCapture. Timers/histograms passed to a
// Span are always fed, so enabling tracing never changes WCET statistics.
void SetTracingEnabled(bool enabled);
bool TracingEnabled();

// One completed span, in capture-local logical time.
struct SpanEvent {
  std::string name;
  std::string cat;
  std::int64_t ts = 0;        // logical begin (sequence clock)
  std::int64_t dur = 0;       // logical duration (>= 1)
  double wall_seconds = 0.0;  // measured; exported only with timing
};

// One horizontal row of the exported trace (a Chrome trace-event tid).
struct TraceTrack {
  std::string label;
  std::vector<SpanEvent> events;
};

// Captures every span the *calling thread* completes between construction
// and Take()/destruction. The capture owns the logical clock, so each
// capture's events start at ts 0 regardless of what ran before — this is
// what makes a fleet candidate's track a pure function of the candidate.
// Captures nest per thread: constructing a second capture shadows the first
// until the inner one is destroyed (LIFO; enforced).
class SpanCapture {
 public:
  SpanCapture();
  ~SpanCapture();
  SpanCapture(const SpanCapture&) = delete;
  SpanCapture& operator=(const SpanCapture&) = delete;

  // Returns everything captured so far and clears the buffer.
  std::vector<SpanEvent> Take();

 private:
  friend class Span;
  std::vector<SpanEvent> events_;
  std::int64_t clock_ = 0;
  SpanCapture* prev_ = nullptr;  // enclosing capture on this thread
};

// RAII span. Construction marks the logical begin, destruction the logical
// end; the completed event is appended to the innermost SpanCapture of the
// constructing thread (if tracing is enabled). The optional sinks are
// always fed with the measured wall-clock duration:
//   * `timer`     — the timing::ExecutionTimer whose WCET/pWCET estimates
//                   should include this region (one instrumentation point,
//                   both analyses);
//   * `histogram` — a fixed-bucket duration histogram (seconds).
// Must be destroyed on the constructing thread, in LIFO order.
class Span {
 public:
  explicit Span(const char* name, const char* cat = "",
                timing::ExecutionTimer* timer = nullptr,
                Histogram* histogram = nullptr);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  // Wall-clock seconds since construction; 0 for a span that measures no
  // wall time (no sink and no capture).
  double ElapsedSeconds() const;

 private:
  const char* name_;
  const char* cat_;
  timing::ExecutionTimer* timer_;
  Histogram* histogram_;
  SpanCapture* capture_;  // capture active at construction (may be null)
  std::int64_t begin_ = 0;
  std::chrono::steady_clock::time_point wall_start_;
  bool measure_wall_ = false;
};

// Process-wide ordered collection of finished tracks. Appended to only from
// serial merge sections (the campaign's per-candidate merge loop, the
// driver's path-ordered reduce, a CLI drive), so track ids — assigned in
// call order — are deterministic.
class TraceRecorder {
 public:
  static TraceRecorder& Instance();

  // Appends a track; returns its tid (dense from 0, in call order).
  // Empty tracks are recorded too: a track with no events is still evidence
  // that the producer ran.
  std::int64_t AddTrack(std::string label, std::vector<SpanEvent> events);

  std::vector<TraceTrack> Snapshot() const;
  std::int64_t track_count() const;
  void Clear();

 private:
  TraceRecorder() = default;
  mutable std::mutex mu_;
  std::vector<TraceTrack> tracks_;
};

// Renders tracks as a Chrome trace-event JSON document (an object with a
// "traceEvents" array), loadable in chrome://tracing and Perfetto. Each
// track becomes one tid with a thread_name metadata record; each span an
// "X" (complete) event with logical ts/dur. When `include_timing` is set,
// every X event additionally carries args.wall_us — the only
// nondeterministic field. Schema documented in DESIGN.md.
std::string ChromeTraceJson(const std::vector<TraceTrack>& tracks,
                            bool include_timing);

}  // namespace certkit::obs

#endif  // CERTKIT_OBS_TRACE_H_
