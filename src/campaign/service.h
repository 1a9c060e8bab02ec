// certkit campaign: the `certkit serve` request loop.
//
// A warm certkit process amortizes its startup (probe declaration, tuning
// caches, the analysis artifact cache) across many requests: `certkit
// serve` reads a batch of campaign/analysis requests, fans them out over a
// support::ThreadPool, and emits one response line per request in request
// order. Each campaign request runs with jobs=1 *inside* the request — the
// service pool is the only fan-out — so every candidate evaluation happens
// under that request's own cov::ThreadCapture and coverage attribution is
// per-request by construction: a request's reported cover facts/digest
// equal a solo run of the same configuration, no matter how many requests
// share the process.
//
// Observability: `service/queue_depth` (gauge) is set to the batch size
// when processing starts and decremented as each request retires — it
// settles to 0 deterministically because gauge adds commute — and
// `service/requests_served` (counter) counts retirements.
//
// Request schema (JSON array or NDJSON; DESIGN.md has the full contract):
//   {"id":"r1","kind":"campaign","seed":7,"population":3,
//    "generations":1,"ticks":6}
//   {"id":"r2","kind":"analyze","dir":"src/nn"}
//   {"id":"r3","kind":"stats"}       — live telemetry snapshot
//   {"id":"r4","kind":"shutdown"}    — ends a --stdin loop (no-op in batch)
//
// Long-lived mode: `certkit serve --stdin` runs RunServeLoop — one request
// line in, one response line out, until EOF or a `shutdown` request — so a
// warm server can be observed (`stats`) and retired without SIGKILL. The
// per-request caps are identical in both modes.
#ifndef CERTKIT_CAMPAIGN_SERVICE_H_
#define CERTKIT_CAMPAIGN_SERVICE_H_

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "campaign/runner.h"
#include "support/flags.h"
#include "support/thread_pool.h"

namespace certkit::campaign {

// Caps keep a single request from monopolizing a shared server.
inline constexpr int kServeMaxPopulation = 64;
inline constexpr int kServeMaxGenerations = 16;
inline constexpr int kServeMaxTicks = 120;
// The longest request line `serve --stdin` reads; a longer one is answered
// with one error and skipped to its newline without being stored whole.
inline constexpr std::size_t kServeMaxLineBytes = std::size_t{1} << 20;

struct ServiceRequest {
  std::string id;    // [A-Za-z0-9_.-]+, unique within a batch
  std::string kind;  // "campaign" | "analyze" | "stats" | "shutdown"
  CampaignConfig campaign;  // kind == "campaign"; jobs forced to 1
  std::string dir;          // kind == "analyze": source tree to analyze
};

struct ServiceResponse {
  std::string id;
  bool ok = false;
  std::string error;  // when !ok
  std::string body;   // response payload JSON (campaign JSON / analysis row)
  // Per-request coverage attribution: probe facts this request's own
  // evaluations produced, and the FNV digest of its cover set.
  std::int64_t cover_facts = 0;
  std::uint64_t cover_digest = 0;
};

// Parses a request batch: either one JSON array of request objects, or
// NDJSON (one object per non-empty line). Validates ids, kinds, and the
// campaign caps; false names the offending request in *error.
bool ParseServiceRequests(std::string_view text,
                          std::vector<ServiceRequest>* out,
                          std::string* error);

// One response line (stable key order, deterministic for fixed inputs).
std::string ServiceResponseJson(const ServiceResponse& response);

// The `stats` response body: flight-recorder occupancy plus the full
// metrics snapshot (counters/gauges/histograms/timers, same inner schema
// as MetricsJson). `include_timing` follows the --timing convention: it
// adds histogram buckets/extrema/quantiles, timer statistics, and the
// live ring count (all wall-clock- or scheduling-derived).
std::string ServiceStatsJson(bool include_timing);

class CampaignService {
 public:
  // `jobs` is the service fan-out (<= 0 selects hardware concurrency). The
  // calling thread drains the queue too, so jobs=N means N concurrent
  // requests. `include_timing` applies to `stats` responses only; request
  // bodies always run with timing off (determinism contract).
  explicit CampaignService(int jobs, bool include_timing = false);

  // Fans the batch out over the pool; response i corresponds to request i
  // (ParallelMap's slot contract), so output order never depends on
  // scheduling. Requests that fail (bad dir, internal error) produce
  // ok=false responses, never abort the batch.
  std::vector<ServiceResponse> Process(
      const std::vector<ServiceRequest>& requests);

 private:
  support::ThreadPool pool_;
  bool include_timing_ = false;
};

struct ServeLoopResult {
  std::int64_t requests = 0;  // lines answered (including malformed ones)
  std::int64_t failed = 0;    // ok=false responses emitted
  bool shutdown = false;      // loop ended by a shutdown request (vs EOF)
};

// The long-lived `certkit serve --stdin` loop: reads one request per line
// (a single request object; a multi-request array on one line is rejected
// as malformed), processes it through `service`, and writes one response,
// flushed, before reading the next. Malformed lines, and lines longer than
// kServeMaxLineBytes, produce an ok=false response with id "-" and do not
// end the loop; a `shutdown` request is answered and then ends it. Request
// ids only need to be unique per line here — a long-lived client may reuse
// ids across lines.
ServeLoopResult RunServeLoop(std::istream& in, std::ostream& out,
                             CampaignService* service);

// Shared CLI-flag -> CampaignConfig translation for `certkit campaign`:
// parses/validates --seed/--jobs/--population/--generations/--ticks/
// --timing/--artifact-dir/--checkpoint-dir/--shard/--stop-after. On
// success, *shard_mode says whether --shard was given (config.shard_index/
// shard_count populated). False sets a user-facing *error: malformed
// numbers, --shard without --checkpoint-dir or with --artifact-dir,
// --stop-after without --checkpoint-dir, a --checkpoint-dir path that
// exists but is not a directory, or out-of-range shard/population values.
bool BuildCampaignConfig(const support::FlagParser& flags,
                         CampaignConfig* config, bool* shard_mode,
                         std::string* error);

}  // namespace certkit::campaign

#endif  // CERTKIT_CAMPAIGN_SERVICE_H_
