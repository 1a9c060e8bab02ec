// certkit obs: structural validation of exported Chrome trace-event JSON.
//
// The exporter (ChromeTraceJson) and this validator are deliberately
// independent: the exporter escapes and formats with its own code, and the
// validator re-parses the bytes with support::ParseJson (the one JSON reader)
// and checks the trace-event schema plus the invariants our logical clock
// guarantees, so a formatting or sequencing bug in the exporter cannot
// hide. tools/trace_lint wraps this for CI; the obs tests run it on every
// export they produce.
//
// Accepted shape (the subset of the trace-event format certkit emits, which
// chrome://tracing and Perfetto both load):
//   * top level: an object with a "traceEvents" array, or a bare array;
//   * every event: an object with string "name" and "ph", integer "pid"
//     and "tid" (integers are exact int64 literals: no fraction, exponent
//     or out-of-range value);
//   * "X" (complete) events: integer "ts" and "dur" with ts >= 0, dur >= 1,
//     and ts + dur within int64;
//   * "M" (metadata) events: an "args" object;
//   * per tid, "X" events must be properly nested — any two intervals are
//     disjoint or one contains the other (partial overlap would render as
//     a corrupted stack and indicates a logical-clock bug).
#ifndef CERTKIT_OBS_TRACE_VALIDATE_H_
#define CERTKIT_OBS_TRACE_VALIDATE_H_

#include <string>

namespace certkit::obs {

// Returns true when `json` is a well-formed trace-event document per the
// rules above; otherwise false with a one-line diagnosis in *error.
bool ValidateChromeTrace(const std::string& json, std::string* error);

}  // namespace certkit::obs

#endif  // CERTKIT_OBS_TRACE_VALIDATE_H_
