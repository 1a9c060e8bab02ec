#include "obs/trace.h"

#include <atomic>
#include <cstdio>
#include <sstream>
#include <utility>

#include "obs/metrics.h"
#include "support/check.h"
#include "timing/timing.h"

namespace certkit::obs {

namespace {

std::atomic<bool> g_tracing{false};

thread_local SpanCapture* t_capture = nullptr;

// JSON string escaping for span/track names (control chars, quotes,
// backslashes; everything else passes through).
void AppendEscaped(std::ostringstream& out, const std::string& s) {
  for (const char c : s) {
    switch (c) {
      case '"':
        out << "\\\"";
        break;
      case '\\':
        out << "\\\\";
        break;
      case '\n':
        out << "\\n";
        break;
      case '\t':
        out << "\\t";
        break;
      case '\r':
        out << "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out << buf;
        } else {
          out << c;
        }
    }
  }
}

}  // namespace

void SetTracingEnabled(bool enabled) {
  g_tracing.store(enabled, std::memory_order_relaxed);
}

bool TracingEnabled() { return g_tracing.load(std::memory_order_relaxed); }

SpanCapture::SpanCapture() : prev_(t_capture) { t_capture = this; }

SpanCapture::~SpanCapture() {
  CERTKIT_CHECK_MSG(t_capture == this,
                    "SpanCapture destroyed out of LIFO order or off-thread");
  t_capture = prev_;
}

std::vector<SpanEvent> SpanCapture::Take() {
  std::vector<SpanEvent> out;
  out.swap(events_);
  return out;
}

Span::Span(const char* name, const char* cat, timing::ExecutionTimer* timer,
           Histogram* histogram)
    : name_(name),
      cat_(cat),
      timer_(timer),
      histogram_(histogram),
      capture_(TracingEnabled() ? t_capture : nullptr) {
  measure_wall_ = timer_ != nullptr || histogram_ != nullptr ||
                  capture_ != nullptr;
  if (measure_wall_) wall_start_ = std::chrono::steady_clock::now();
  if (capture_ != nullptr) begin_ = capture_->clock_++;
}

double Span::ElapsedSeconds() const {
  if (!measure_wall_) return 0.0;
  const double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - wall_start_)
                          .count();
  return wall < 0.0 ? 0.0 : wall;  // steady_clock paranoia on odd platforms
}

Span::~Span() {
  const double wall = ElapsedSeconds();
  if (timer_ != nullptr) timer_->Record(wall);
  if (histogram_ != nullptr) histogram_->Record(wall);
  if (capture_ != nullptr) {
    CERTKIT_CHECK_MSG(t_capture == capture_,
                      "Span outlived the SpanCapture it was recorded under");
    const std::int64_t end = capture_->clock_++;
    capture_->events_.push_back(
        SpanEvent{name_, cat_, begin_, end - begin_, wall});
  }
}

TraceRecorder& TraceRecorder::Instance() {
  static TraceRecorder* recorder = new TraceRecorder();
  return *recorder;
}

std::int64_t TraceRecorder::AddTrack(std::string label,
                                     std::vector<SpanEvent> events) {
  std::lock_guard<std::mutex> lock(mu_);
  tracks_.push_back(TraceTrack{std::move(label), std::move(events)});
  return static_cast<std::int64_t>(tracks_.size()) - 1;
}

std::vector<TraceTrack> TraceRecorder::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return tracks_;
}

std::int64_t TraceRecorder::track_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<std::int64_t>(tracks_.size());
}

void TraceRecorder::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  tracks_.clear();
}

std::string ChromeTraceJson(const std::vector<TraceTrack>& tracks,
                            bool include_timing) {
  std::ostringstream out;
  out << "{\"traceEvents\":[";
  out << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,"
         "\"args\":{\"name\":\"certkit\"}}";
  for (std::size_t t = 0; t < tracks.size(); ++t) {
    out << ",{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":" << t
        << ",\"args\":{\"name\":\"";
    AppendEscaped(out, tracks[t].label);
    out << "\"}}";
    for (const SpanEvent& ev : tracks[t].events) {
      out << ",{\"name\":\"";
      AppendEscaped(out, ev.name);
      out << "\",\"cat\":\"";
      AppendEscaped(out, ev.cat.empty() ? "certkit" : ev.cat);
      out << "\",\"ph\":\"X\",\"ts\":" << ev.ts << ",\"dur\":" << ev.dur
          << ",\"pid\":0,\"tid\":" << t;
      if (include_timing) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), ",\"args\":{\"wall_us\":%.3f}",
                      ev.wall_seconds * 1e6);
        out << buf;
      }
      out << "}";
    }
  }
  out << "],\"displayTimeUnit\":\"ms\"}";
  return out.str();
}

}  // namespace certkit::obs
