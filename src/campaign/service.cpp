#include "campaign/service.h"

#include <exception>
#include <filesystem>
#include <istream>
#include <ostream>
#include <set>
#include <sstream>
#include <streambuf>
#include <string>
#include <utility>

#include "campaign/checkpoint.h"
#include "campaign/corpus_store.h"
#include "campaign/replay.h"
#include "coverage/coverage.h"
#include "driver/analysis_driver.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "support/json.h"

namespace certkit::campaign {

namespace fs = std::filesystem;

using support::JsonValue;

namespace {

bool ValidRequestId(const std::string& id) {
  if (id.empty()) return false;
  for (char c : id) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
    if (!ok) return false;
  }
  return true;
}

bool RangeInt(const JsonValue& obj, const std::string& key, int fallback,
              int min, int max, int* out, std::string* error) {
  if (obj.Find(key) == nullptr) {
    *out = fallback;
    return true;
  }
  if (!support::JsonGetInt(obj, key, out, error)) return false;
  if (*out < min || *out > max) {
    *error = "field '" + key + "': " + std::to_string(*out) +
             " out of range [" + std::to_string(min) + ", " +
             std::to_string(max) + "]";
    return false;
  }
  return true;
}

bool ParseOneRequest(const JsonValue& v, ServiceRequest* out,
                     std::string* error) {
  if (v.kind != JsonValue::Kind::kObject) {
    *error = "request is not an object";
    return false;
  }
  if (!support::JsonGetString(v, "id", &out->id, error)) return false;
  if (!ValidRequestId(out->id)) {
    *error = "field 'id': '" + out->id +
             "' must match [A-Za-z0-9_.-]+ and be non-empty";
    return false;
  }
  if (!support::JsonGetString(v, "kind", &out->kind, error)) return false;
  if (out->kind == "campaign") {
    std::uint64_t seed = 1;
    if (v.Find("seed") != nullptr &&
        !support::JsonGetU64(v, "seed", &seed, error)) {
      return false;
    }
    out->campaign.seed = seed;
    // Requests always run serially inside the process-wide service pool.
    out->campaign.jobs = 1;
    out->campaign.include_timing = false;
    if (!RangeInt(v, "population", 4, 1, kServeMaxPopulation,
                  &out->campaign.population, error) ||
        !RangeInt(v, "generations", 1, 1, kServeMaxGenerations,
                  &out->campaign.generations, error) ||
        !RangeInt(v, "ticks", 10, 1, kServeMaxTicks, &out->campaign.ticks,
                  error)) {
      return false;
    }
    return true;
  }
  if (out->kind == "analyze") {
    if (!support::JsonGetString(v, "dir", &out->dir, error)) return false;
    if (out->dir.empty()) {
      *error = "field 'dir': must be a non-empty source directory";
      return false;
    }
    return true;
  }
  // Control kinds carry no payload beyond the id.
  if (out->kind == "stats" || out->kind == "shutdown") return true;
  *error = "field 'kind': '" + out->kind +
           "' is not a known request kind (campaign, analyze, stats, "
           "shutdown)";
  return false;
}

bool AppendRequest(const JsonValue& v, std::vector<ServiceRequest>* out,
                   std::set<std::string>* ids, std::string* error) {
  ServiceRequest request;
  if (!ParseOneRequest(v, &request, error)) {
    *error = "request " + std::to_string(out->size() + 1) + ": " + *error;
    return false;
  }
  if (!ids->insert(request.id).second) {
    *error = "request " + std::to_string(out->size() + 1) + ": duplicate id '" +
             request.id + "'";
    return false;
  }
  out->push_back(std::move(request));
  return true;
}

ServiceResponse HandleCampaign(const ServiceRequest& request) {
  ServiceResponse response;
  response.id = request.id;
  CampaignConfig config = request.campaign;
  config.jobs = 1;  // the service pool is the only fan-out
  config.include_timing = false;
  CampaignRunner runner(config);
  const CampaignResult result = runner.Run();
  response.ok = true;
  response.body = CampaignJson(result);
  response.cover_facts = CoverFacts(result.merged);
  response.cover_digest = CoverDigest(result.merged);
  return response;
}

ServiceResponse HandleAnalyze(const ServiceRequest& request) {
  ServiceResponse response;
  response.id = request.id;
  // Attribute any probe the analysis fires on this request's threads to
  // this request alone; uninstrumented trees legitimately report 0 facts.
  cov::ThreadCapture capture;
  driver::DriverOptions options;
  options.jobs = 1;
  driver::AnalysisDriver analysis_driver(options);
  auto analysis = analysis_driver.AnalyzeTree(request.dir);
  const cov::CoverSet cover = capture.Take();
  if (!analysis.ok()) {
    response.error = analysis.status().ToString();
    return response;
  }
  const driver::CodebaseAnalysis& a = analysis.value();
  std::int64_t functions = 0;
  std::int64_t misra_findings = 0;
  for (const auto& file : a.files) {
    functions += static_cast<std::int64_t>(file.functions.size());
    misra_findings += static_cast<std::int64_t>(file.misra.findings.size());
  }
  std::ostringstream body;
  body << "{\"modules\":" << a.modules.size() << ",\"files\":" << a.files.size()
       << ",\"functions\":" << functions
       << ",\"misra_findings\":" << misra_findings
       << ",\"skipped\":" << a.skipped.size() << "}";
  response.ok = true;
  response.body = body.str();
  response.cover_facts = CoverFacts(cover);
  response.cover_digest = CoverDigest(cover);
  return response;
}

ServiceResponse HandleStats(const ServiceRequest& request,
                            bool include_timing) {
  ServiceResponse response;
  response.id = request.id;
  response.ok = true;
  response.body = ServiceStatsJson(include_timing);
  return response;
}

ServiceResponse HandleShutdown(const ServiceRequest& request) {
  // The loop (RunServeLoop) ends after this response; in batch mode the
  // acknowledgement is a no-op, documented as such.
  ServiceResponse response;
  response.id = request.id;
  response.ok = true;
  response.body = "{\"status\":\"shutdown\"}";
  return response;
}

ServiceResponse HandleRequest(const ServiceRequest& request,
                              bool include_timing) {
  try {
    if (request.kind == "campaign") return HandleCampaign(request);
    if (request.kind == "analyze") return HandleAnalyze(request);
    if (request.kind == "stats") return HandleStats(request, include_timing);
    if (request.kind == "shutdown") return HandleShutdown(request);
    ServiceResponse response;
    response.id = request.id;
    response.error = "unknown request kind '" + request.kind + "'";
    return response;
  } catch (const std::exception& e) {
    ServiceResponse response;
    response.id = request.id;
    response.error = std::string("internal error: ") + e.what();
    return response;
  }
}

// Reads the next line into *line like std::getline, but stores at most
// kServeMaxLineBytes of it: the rest, up to the newline, is consumed and
// dropped, and *too_long says so. False at the end of the input.
bool ReadCappedLine(std::istream& in, std::string* line, bool* too_long) {
  using Traits = std::char_traits<char>;
  line->clear();
  *too_long = false;
  std::streambuf* buf = in.rdbuf();
  int c = buf->sbumpc();
  const bool any = c != Traits::eof();
  for (; c != Traits::eof() && c != '\n'; c = buf->sbumpc()) {
    if (line->size() < kServeMaxLineBytes) {
      line->push_back(Traits::to_char_type(c));
    } else {
      *too_long = true;
    }
  }
  return any;
}

// The response to one line of the stdin loop; *shutdown is set when the
// line was a shutdown request that succeeded.
ServiceResponse AnswerLine(const std::string& line, bool too_long,
                           CampaignService* service, bool* shutdown) {
  ServiceResponse response;
  response.id = "-";
  std::vector<ServiceRequest> batch;
  std::string error;
  if (too_long) {
    response.error = "request line longer than " +
                     std::to_string(kServeMaxLineBytes) + " bytes";
  } else if (!ParseServiceRequests(line, &batch, &error) ||
             batch.size() != 1) {
    response.error = error.empty()
                         ? "expected exactly one request object per line"
                         : error;
  } else {
    response = service->Process(batch)[0];
    *shutdown = response.ok && batch[0].kind == "shutdown";
  }
  return response;
}

}  // namespace

bool ParseServiceRequests(std::string_view text,
                          std::vector<ServiceRequest>* out,
                          std::string* error) {
  out->clear();
  std::set<std::string> ids;
  const std::size_t first = text.find_first_not_of(" \t\r\n");
  if (first == std::string_view::npos) {
    *error = "empty request batch";
    return false;
  }
  if (text[first] == '[') {
    JsonValue root;
    if (!support::ParseJson(text, &root, error)) return false;
    if (root.kind != JsonValue::Kind::kArray) {
      *error = "request batch is not an array";
      return false;
    }
    for (const JsonValue& v : root.items) {
      if (!AppendRequest(v, out, &ids, error)) return false;
    }
  } else {
    // NDJSON: one request object per non-empty line.
    std::size_t pos = 0;
    while (pos <= text.size()) {
      std::size_t end = text.find('\n', pos);
      if (end == std::string_view::npos) end = text.size();
      std::string_view line = text.substr(pos, end - pos);
      pos = end + 1;
      const std::size_t start = line.find_first_not_of(" \t\r");
      if (start == std::string_view::npos) continue;
      JsonValue v;
      if (!support::ParseJson(line, &v, error)) {
        *error = "request " + std::to_string(out->size() + 1) + ": " + *error;
        return false;
      }
      if (!AppendRequest(v, out, &ids, error)) return false;
    }
  }
  if (out->empty()) {
    *error = "empty request batch";
    return false;
  }
  return true;
}

std::string ServiceResponseJson(const ServiceResponse& response) {
  std::ostringstream out;
  out << "{\"id\":" << support::JsonEscape(response.id)
      << ",\"ok\":" << (response.ok ? "true" : "false");
  if (!response.ok) {
    out << ",\"error\":" << support::JsonEscape(response.error) << "}";
    return out.str();
  }
  out << ",\"cover_facts\":" << response.cover_facts << ",\"cover_digest\":"
      << support::JsonEscape(HexU64(response.cover_digest))
      << ",\"body\":" << response.body << "}";
  return out.str();
}

std::string ServiceStatsJson(bool include_timing) {
  const obs::FlightRecorderStats recorder = obs::GetFlightRecorderStats();
  std::ostringstream out;
  out << "{\"stats\":{\"recorder\":{\"events\":" << recorder.events
      << ",\"dropped\":" << recorder.dropped
      << ",\"ring_capacity\":" << recorder.ring_capacity;
  // The live ring count is a function of which pool threads have recorded
  // so far — scheduling-derived, so gated like every wall-clock field.
  if (include_timing) out << ",\"rings\":" << recorder.rings_in_use;
  out << "},";
  // Splice the MetricsJson inner content ("metrics":{...}) in as a sibling
  // of "recorder", so stats and the post-run export share one schema.
  const std::string metrics = obs::MetricsJson(
      obs::MetricsRegistry::Instance().Snapshot(), include_timing);
  out << metrics.substr(1, metrics.size() - 2) << "}}";
  return out.str();
}

CampaignService::CampaignService(int jobs, bool include_timing)
    : pool_(support::ThreadPool::ResolveJobs(jobs) - 1),
      include_timing_(include_timing) {}

std::vector<ServiceResponse> CampaignService::Process(
    const std::vector<ServiceRequest>& requests) {
  auto& registry = obs::MetricsRegistry::Instance();
  auto& queue_depth = registry.GetGauge("service/queue_depth");
  auto& requests_served = registry.GetCounter("service/requests_served");
  queue_depth.Set(static_cast<double>(requests.size()));
  const bool include_timing = include_timing_;
  return support::ParallelMap<ServiceResponse>(
      pool_, requests.size(), [&](std::size_t i) {
        obs::RecordFlightEvent(obs::FlightEventType::kServeBegin, 0, 0,
                               static_cast<std::int64_t>(i));
        ServiceResponse response = HandleRequest(requests[i], include_timing);
        obs::RecordFlightEvent(obs::FlightEventType::kServeEnd,
                               response.ok ? 1u : 0u, 0,
                               static_cast<std::int64_t>(i));
        queue_depth.Add(-1.0);
        requests_served.Add(1);
        return response;
      });
}

ServeLoopResult RunServeLoop(std::istream& in, std::ostream& out,
                             CampaignService* service) {
  ServeLoopResult result;
  std::string line;
  bool too_long = false;
  while (!result.shutdown && ReadCappedLine(in, &line, &too_long)) {
    if (!too_long && line.find_first_not_of(" \t\r") == std::string::npos) {
      continue;
    }
    const ServiceResponse response =
        AnswerLine(line, too_long, service, &result.shutdown);
    out << ServiceResponseJson(response) << "\n" << std::flush;
    ++result.requests;
    if (!response.ok) ++result.failed;
  }
  return result;
}

bool BuildCampaignConfig(const support::FlagParser& flags,
                         CampaignConfig* config, bool* shard_mode,
                         std::string* error) {
  *shard_mode = false;
  const auto seed = flags.GetInt("seed", 1);
  const auto jobs = flags.GetInt("jobs", 0);
  const auto population = flags.GetInt("population", 12);
  const auto generations = flags.GetInt("generations", 4);
  const auto ticks = flags.GetInt("ticks", 25);
  const auto stop_after = flags.GetInt("stop-after", 0);
  if (!seed || !jobs || !population || !generations || !ticks || !stop_after) {
    *error = "campaign flags must be integers";
    return false;
  }
  if (*population < 1) {
    *error = "--population must be >= 1, got " + std::to_string(*population);
    return false;
  }
  if (*generations < 1) {
    *error = "--generations must be >= 1, got " + std::to_string(*generations);
    return false;
  }
  if (*ticks < 1) {
    *error = "--ticks must be >= 1, got " + std::to_string(*ticks);
    return false;
  }
  if (*stop_after < 0) {
    *error = "--stop-after must be >= 0, got " + std::to_string(*stop_after);
    return false;
  }
  config->seed = static_cast<std::uint64_t>(*seed);
  config->jobs = static_cast<int>(*jobs);
  config->population = static_cast<int>(*population);
  config->generations = static_cast<int>(*generations);
  config->ticks = static_cast<int>(*ticks);
  config->stop_after_generations = static_cast<int>(*stop_after);
  config->include_timing = flags.GetBool("timing");
  config->artifact_dir = flags.GetOr("artifact-dir", "");
  config->checkpoint_dir = flags.GetOr("checkpoint-dir", "");
  if (!config->checkpoint_dir.empty()) {
    std::error_code ec;
    if (fs::exists(config->checkpoint_dir, ec) &&
        !fs::is_directory(config->checkpoint_dir, ec)) {
      *error = "--checkpoint-dir '" + config->checkpoint_dir +
               "' exists but is not a directory";
      return false;
    }
  }
  const auto shard = flags.Get("shard");
  if (shard.has_value()) {
    if (!ParseShardSpec(*shard, &config->shard_index, &config->shard_count,
                        error)) {
      return false;
    }
    *shard_mode = true;
    if (config->checkpoint_dir.empty()) {
      *error = "--shard requires --checkpoint-dir (shard deltas and the "
               "merged checkpoint live there)";
      return false;
    }
    if (!config->artifact_dir.empty()) {
      *error = "--shard is incompatible with --artifact-dir; export "
               "artifacts from the merged (unsharded or merge-corpus) run";
      return false;
    }
  }
  if (config->stop_after_generations > 0 && config->checkpoint_dir.empty()) {
    *error = "--stop-after requires --checkpoint-dir (the checkpoint is how "
             "the next invocation continues)";
    return false;
  }
  return true;
}

}  // namespace certkit::campaign
