// In-memory spans of the traced run and their Chrome trace export.
#include <algorithm>
#include <cmath>
#include <fstream>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "ledger.h"
#include "obs/trace_validate.h"
#include "support/json.h"

namespace ledger {

namespace {

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct SpanRecord {
  const char* name;
  std::int64_t op;
};

// A span boundary in the order the thread crossed it. Program order on one
// thread is time order, so the export can keep nesting exact.
struct Boundary {
  std::int64_t ns;
  std::uint32_t span;  // index into ThreadLog::spans
  bool end;
};

struct Open {
  std::int64_t begin_ns;
  std::int64_t child_ns;
  const char* name;
  std::int64_t span;  // index into ThreadLog::spans, -1 when not exported
};

// Written only by its own thread; read after that thread has been joined.
struct ThreadLog {
  int tid = 0;
  std::vector<Open> stack;
  std::vector<SpanRecord> spans;
  std::vector<Boundary> boundaries;
  std::unordered_map<const char*, SpanTotal> totals;
};

// Spans of operations with an id below this go to the Chrome trace; the
// rest only count towards the totals, which keeps the file small.
constexpr std::int64_t kExportOps = 64;

std::mutex g_mu;
std::vector<std::unique_ptr<ThreadLog>> g_logs;  // guarded by g_mu
bool g_enabled = false;

ThreadLog& Local() {
  thread_local ThreadLog* log = nullptr;
  if (log == nullptr) {
    std::lock_guard<std::mutex> lock(g_mu);
    g_logs.push_back(std::make_unique<ThreadLog>());
    log = g_logs.back().get();
    log->tid = static_cast<int>(g_logs.size());
  }
  return *log;
}

}  // namespace

void EnableSpans() { g_enabled = true; }

Span::Span(const char* name, std::int64_t op) {
  if (!g_enabled || op < 0) return;
  active_ = true;
  ThreadLog& log = Local();
  std::int64_t span = -1;
  const std::int64_t now = NowNs();
  if (op < kExportOps) {
    span = static_cast<std::int64_t>(log.spans.size());
    log.spans.push_back(SpanRecord{name, op});
    log.boundaries.push_back(
        Boundary{now, static_cast<std::uint32_t>(span), false});
  }
  log.stack.push_back(Open{now, 0, name, span});
}

Span::~Span() {
  if (!active_) return;
  const std::int64_t now = NowNs();
  ThreadLog& log = Local();
  const Open open = log.stack.back();
  log.stack.pop_back();
  const std::int64_t dur = now - open.begin_ns;
  SpanTotal& total = log.totals[open.name];
  total.seconds += static_cast<double>(dur) * 1e-9;
  total.self_seconds += static_cast<double>(dur - open.child_ns) * 1e-9;
  total.count += 1;
  if (!log.stack.empty()) log.stack.back().child_ns += dur;
  if (open.span >= 0) {
    log.boundaries.push_back(
        Boundary{now, static_cast<std::uint32_t>(open.span), true});
  }
}

SpanTotal SpanTotalOf(const std::string& name) {
  std::lock_guard<std::mutex> lock(g_mu);
  SpanTotal sum;
  for (const auto& log : g_logs) {
    for (const auto& [key, total] : log->totals) {
      if (name != key) continue;
      sum.seconds += total.seconds;
      sum.self_seconds += total.self_seconds;
      sum.count += total.count;
    }
  }
  return sum;
}

bool WriteChromeTrace(const std::string& path, std::string* error) {
  using certkit::support::JsonEscape;
  std::string json = "{\"traceEvents\":[";
  bool first = true;
  auto append = [&](const std::string& event) {
    if (!first) json += ",\n";
    first = false;
    json += event;
  };
  std::lock_guard<std::mutex> lock(g_mu);
  std::int64_t origin = INT64_MAX;
  for (const auto& log : g_logs) {
    if (!log->boundaries.empty()) {
      origin = std::min(origin, log->boundaries.front().ns);
    }
  }
  for (const auto& log : g_logs) {
    if (log->spans.empty()) continue;
    const std::string tid = std::to_string(log->tid);
    append("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" + tid +
           ",\"args\":{\"name\":" +
           JsonEscape("ledger thread " + tid) + "}}");
    // Integer microseconds, strictly increasing along the thread's
    // boundary sequence: nesting and disjointness survive the rounding and
    // every span lasts at least 1 us. A burst of sub-microsecond spans
    // borrows a few microseconds and the clock resyncs after it.
    std::vector<std::int64_t> begin_us(log->spans.size());
    std::vector<std::int64_t> end_us(log->spans.size());
    std::int64_t last = -1;
    for (const Boundary& b : log->boundaries) {
      const std::int64_t us = std::max(
          static_cast<std::int64_t>(
              std::llround(static_cast<double>(b.ns - origin) / 1000.0)),
          last + 1);
      last = us;
      (b.end ? end_us : begin_us)[b.span] = us;
    }
    for (std::size_t i = 0; i < log->spans.size(); ++i) {
      append("{\"name\":" + JsonEscape(log->spans[i].name) +
             ",\"cat\":\"ledger\",\"ph\":\"X\",\"pid\":1,\"tid\":" + tid +
             ",\"ts\":" + std::to_string(begin_us[i]) +
             ",\"dur\":" + std::to_string(end_us[i] - begin_us[i]) +
             ",\"args\":{\"op\":" + std::to_string(log->spans[i].op) + "}}");
    }
  }
  json += "]}\n";
  if (!certkit::obs::ValidateChromeTrace(json, error)) return false;
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  file << json;
  file.close();
  if (!file) {
    *error = "cannot write " + path;
    return false;
  }
  return true;
}

}  // namespace ledger
