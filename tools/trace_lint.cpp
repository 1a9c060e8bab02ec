// trace_lint — standalone validator for certkit's observability exports.
//
//   trace_lint <file.json> [more.json ...]
//
// Two document kinds, dispatched on the root key:
//
//  * Chrome trace-event exports ({"traceEvents": [...]}): checked against
//    the subset certkit emits (see DESIGN.md) — events are either "X"
//    (complete, with integer ts >= 0 and dur >= 1) or "M" (metadata), plus
//    the structural invariant the logical clock guarantees — within one
//    tid, span intervals either nest or are disjoint; a partial overlap
//    means the exporter's sequence clock is broken.
//
//  * Flight-recorder dumps ({"flight_dump": {...}}): schema version,
//    well-formed trigger, per-thread event ordering strictly monotone in
//    the sequence clock, known event/stage/monitor/state vocabulary, and a
//    well-formed metrics snapshot (bucket arrays of length bounds+1 that
//    sum to the count; quantiles numeric or "+inf").
//
// Both validators are independent of the emitters (they parse with
// support::ParseJson, while the emitters escape and format with their own
// code, and the invariant checks are their own), so emitter bugs cannot
// hide behind shared code.
//
// Exit status: 0 when every file validates, 1 otherwise (CI-friendly).
#include <cstdio>
#include <string>

#include "obs/flight_validate.h"
#include "obs/trace_validate.h"
#include "support/io.h"

int main(int argc, char** argv) {
  if (argc < 2) {
    std::printf("usage: trace_lint <file.json> [more.json ...]\n");
    return 1;
  }
  int failures = 0;
  for (int i = 1; i < argc; ++i) {
    auto content = certkit::support::ReadFile(argv[i]);
    if (!content.ok()) {
      std::printf("%s: error: %s\n", argv[i],
                  content.status().ToString().c_str());
      ++failures;
      continue;
    }
    // Dispatch on the root key: a flight dump opens with "flight_dump",
    // a trace with "traceEvents".
    const bool is_flight =
        content.value().find("\"flight_dump\"") != std::string::npos;
    std::string error;
    const bool ok =
        is_flight
            ? certkit::obs::ValidateFlightDump(content.value(), &error)
            : certkit::obs::ValidateChromeTrace(content.value(), &error);
    if (ok) {
      std::printf("%s: OK (%s, %zu bytes)\n", argv[i],
                  is_flight ? "flight dump" : "trace", content.value().size());
    } else {
      std::printf("%s: INVALID: %s\n", argv[i], error.c_str());
      ++failures;
    }
  }
  return failures == 0 ? 0 : 1;
}
