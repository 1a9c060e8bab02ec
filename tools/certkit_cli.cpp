// certkit — the command-line front end of the assessment toolkit.
//
//   certkit metrics <dir> [--csv]          Figure-3-style module table
//   certkit misra <dir> [--max N]          MISRA-subset findings
//   certkit style <dir> [--max N]          style-guide findings
//   certkit assess <dir> [--asil D]        the three ISO 26262-6 tables +
//                                          gap list at the target ASIL
//   certkit traceability <dir>             requirement traceability
//   certkit campaign [--seed N] [--jobs N] coverage-guided scenario campaign
//   certkit replay <artifact> [--diff]     re-execute a finding artifact
//                                          bit-identically; differential
//                                          oracle + ddmin repro shrinking
//   certkit trace [--trace-out F]          instrumented pilot drive + mini
//                                          campaign; Chrome trace + metrics
//   certkit dump [--out F] [--ticks N]     instrumented pilot drive, then an
//                                          explicit flight-recorder dump
//
// All commands accept --jobs N: N threads in all, the calling thread
// included (default: one per core). Output is bit-identical for every N —
// analysis merges per-file artifacts in stable path order, and the campaign
// merges candidate results in stable seed order. `trace` extends the
// contract to its exports: span timestamps are logical sequence numbers, so
// the trace and metrics files are byte-identical for any --jobs at a fixed
// --seed (wall-clock fields appear only under --timing).
//
// Exit status: 0 on success; 1 on usage/input errors; for `assess`, 2 when
// the codebase does not meet the target ASIL (CI-friendly); for `replay`,
// 2 when the re-execution or the differential oracle diverges.
#include <cstdio>
#include <iostream>
#include <string>

#include "ad/pipeline.h"
#include "campaign/checkpoint.h"
#include "campaign/minimize.h"
#include "campaign/replay.h"
#include "campaign/runner.h"
#include "campaign/service.h"
#include "driver/analysis_driver.h"
#include "metrics/halstead.h"
#include "obs/flight_recorder.h"
#include "obs/flight_validate.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/trace_validate.h"
#include "report/renderers.h"
#include "report/table.h"
#include "rules/assessor.h"
#include "support/flags.h"
#include "support/io.h"
#include "support/strings.h"

namespace {

using certkit::driver::AnalysisDriver;
using certkit::driver::CodebaseAnalysis;
using certkit::driver::DriverOptions;
using certkit::support::FlagParser;

int Usage() {
  std::printf(
      "usage: certkit <command> <source-dir> [flags]\n"
      "commands:\n"
      "  metrics <dir> [--csv]   per-module LOC/functions/complexity\n"
      "  functions <dir>         per-function metrics CSV (Lizard-style)\n"
      "  misra <dir> [--max N]   MISRA-subset findings (default N=25)\n"
      "  style <dir> [--max N]   style-guide findings\n"
      "  assess <dir> [--asil X] ISO 26262-6 tables + ASIL gap list\n"
      "  traceability <dir>      requirement-to-code traceability\n"
      "  campaign [--seed N] [--population N] [--generations N] [--timing]\n"
      "           [--artifact-dir DIR] [--checkpoint-dir DIR]\n"
      "           [--stop-after N] [--shard i/N]\n"
      "                          coverage-guided scenario campaign (JSON);\n"
      "                          --artifact-dir exports every kept finding\n"
      "                          as a replay artifact; --checkpoint-dir\n"
      "                          persists checkpoint + corpus store and\n"
      "                          resumes bit-identically; --stop-after N\n"
      "                          checkpoints and exits after N generations;\n"
      "                          --shard i/N evaluates one slice of one\n"
      "                          generation and writes a delta\n"
      "  merge-corpus --checkpoint-dir DIR [campaign flags]\n"
      "                          fold one generation of shard deltas into\n"
      "                          the checkpoint; byte-identical to the\n"
      "                          unsharded run; prints the campaign JSON\n"
      "                          when the final generation merges\n"
      "  serve --requests F | --stdin [--jobs N] [--timing]\n"
      "                          warm-process request loop: JSON-array or\n"
      "                          NDJSON campaign/analyze/stats requests,\n"
      "                          one response line each, in request order;\n"
      "                          --stdin answers one request per input line\n"
      "                          until EOF or a shutdown request; exit 2 if\n"
      "                          any request failed\n"
      "  replay <artifact.json> [--diff] [--minimize] [--out F]\n"
      "                          re-execute a finding bit-identically (FNV\n"
      "                          digest gate; exit 2 on divergence); --diff\n"
      "                          re-runs it across all backends and\n"
      "                          quantized-vs-fp32; --minimize shrinks the\n"
      "                          repro via delta debugging and writes the\n"
      "                          smallest artifact to F\n"
      "  trace [--trace-out F] [--metrics-out F] [--seed N] [--ticks N]\n"
      "        [--population N] [--generations N] [--timing]\n"
      "                          traced pilot drive + mini campaign; writes\n"
      "                          Chrome trace-event JSON (chrome://tracing)\n"
      "  dump [--out F] [--ticks N] [--timing]\n"
      "                          instrumented pilot drive, then an explicit\n"
      "                          flight-recorder dump (validated before\n"
      "                          writing; trace_lint checks it too)\n"
      "common flags:\n"
      "  --jobs N                threads, the calling one included\n"
      "                          (default: one per core)\n"
      "  --cache-dir DIR         reuse per-file analysis artifacts across\n"
      "                          runs; only changed files are re-analyzed\n"
      "  --no-cache              ignore --cache-dir for this run\n"
      "  --cache-stats           print cache hit/miss counts to stderr\n"
      "  --cache-gc              prune cache entries this run did not use\n"
      "  --flight-dump F         black-box dump file for campaign/serve\n"
      "                          (default certkit_flight_dump.json); when\n"
      "                          given explicitly, also arms a dump on the\n"
      "                          first safe-stop oracle verdict\n");
  return 1;
}

certkit::support::Result<CodebaseAnalysis> Load(const FlagParser& flags) {
  if (flags.positional().size() < 2) {
    return certkit::support::InvalidArgumentError("missing <source-dir>");
  }
  const auto jobs = flags.GetInt("jobs", 0);
  if (!jobs.has_value()) {
    return certkit::support::InvalidArgumentError("--jobs must be an integer");
  }
  DriverOptions options;
  options.jobs = static_cast<int>(*jobs);
  if (!flags.GetBool("no-cache")) {
    options.cache_dir = flags.GetOr("cache-dir", "");
    options.cache_gc = flags.GetBool("cache-gc");
  }
  AnalysisDriver driver(options);
  auto analysis = driver.AnalyzeTree(flags.positional()[1]);
  if (flags.GetBool("cache-stats")) {
    // stderr so every command's stdout stays byte-identical with and
    // without the cache.
    auto& reg = certkit::obs::MetricsRegistry::Instance();
    std::fprintf(stderr, "cache: %lld hits, %lld misses\n",
                 static_cast<long long>(
                     reg.GetCounter("driver/cache_hits").value()),
                 static_cast<long long>(
                     reg.GetCounter("driver/cache_misses").value()));
    if (options.cache_gc) {
      std::fprintf(
          stderr, "cache-gc: %lld stale entries removed\n",
          static_cast<long long>(
              reg.GetCounter("driver/cache_gc_removed").value()));
    }
  }
  return analysis;
}

int CmdMetrics(const FlagParser& flags) {
  auto analysis = Load(flags);
  if (!analysis.ok()) {
    std::printf("error: %s\n", analysis.status().ToString().c_str());
    return 1;
  }
  const auto rows = analysis.value().ModuleMetricsRows();
  if (flags.GetBool("csv")) {
    certkit::report::Table table(
        {"module", "loc", "nloc", "functions", "cc_over10", "cc_over20",
         "cc_over50", "max_cc"});
    for (const auto& m : rows) {
      table.AddRow({m.name, std::to_string(m.loc), std::to_string(m.nloc),
                    std::to_string(m.function_count),
                    std::to_string(m.FunctionsOverCc(10)),
                    std::to_string(m.FunctionsOverCc(20)),
                    std::to_string(m.FunctionsOverCc(50)),
                    std::to_string(m.max_cc)});
    }
    std::printf("%s", table.ToCsv().c_str());
  } else {
    std::printf("%s",
                certkit::report::RenderModuleComplexity(rows).c_str());
  }
  return 0;
}

int PrintFindings(const std::vector<certkit::rules::Finding>& findings,
                  long long max_shown) {
  long long shown = 0;
  for (const auto& f : findings) {
    if (shown++ >= max_shown) {
      std::printf("  ... and %zu more (raise --max to see them)\n",
                  findings.size() - static_cast<std::size_t>(max_shown));
      break;
    }
    std::printf("  %s:%d [%s] %s\n", f.file.c_str(), f.line,
                f.rule_id.c_str(), f.message.c_str());
  }
  std::printf("total findings: %zu\n", findings.size());
  return 0;
}

// Per-function metrics in Lizard-style CSV: the raw data behind Figure 3.
// The metrics themselves are precomputed by the driver; only the
// maintainability index (which needs the parsed model) is derived here.
int CmdFunctions(const FlagParser& flags) {
  auto analysis = Load(flags);
  if (!analysis.ok()) {
    std::printf("error: %s\n", analysis.status().ToString().c_str());
    return 1;
  }
  const CodebaseAnalysis& cb = analysis.value();
  certkit::report::Table table({"module", "function", "cc", "nloc",
                                "params", "returns", "tokens", "mi"});
  for (const auto& file_indices : cb.files_by_module) {
    for (const std::size_t fi : file_indices) {
      const auto& fa = cb.files[fi];
      const auto& model =
          cb.modules[fa.module_index].files[fa.file_index];
      for (std::size_t k = 0; k < fa.functions.size(); ++k) {
        const auto& m = fa.functions[k];
        const double mi = certkit::metrics::FunctionMaintainabilityIndex(
            model, model.functions[k]);
        table.AddRow({fa.module, m.qualified_name,
                      std::to_string(m.cyclomatic_complexity),
                      std::to_string(m.nloc), std::to_string(m.param_count),
                      std::to_string(m.return_count),
                      std::to_string(m.token_count),
                      certkit::support::FormatDouble(mi, 1)});
      }
    }
  }
  std::printf("%s", table.ToCsv().c_str());
  return 0;
}

int CmdMisra(const FlagParser& flags) {
  auto analysis = Load(flags);
  if (!analysis.ok()) {
    std::printf("error: %s\n", analysis.status().ToString().c_str());
    return 1;
  }
  const auto max_shown = flags.GetInt("max", 25);
  if (!max_shown.has_value()) {
    std::printf("error: --max must be an integer\n");
    return 1;
  }
  std::vector<certkit::rules::Finding> findings;
  for (const auto& file_indices : analysis.value().files_by_module) {
    for (const std::size_t fi : file_indices) {
      const auto& report = analysis.value().files[fi].misra;
      findings.insert(findings.end(), report.findings.begin(),
                      report.findings.end());
    }
  }
  return PrintFindings(findings, *max_shown);
}

int CmdStyle(const FlagParser& flags) {
  auto analysis = Load(flags);
  if (!analysis.ok()) {
    std::printf("error: %s\n", analysis.status().ToString().c_str());
    return 1;
  }
  const auto max_shown = flags.GetInt("max", 25);
  if (!max_shown.has_value()) {
    std::printf("error: --max must be an integer\n");
    return 1;
  }
  std::vector<certkit::rules::Finding> findings;
  for (const auto& file_indices : analysis.value().files_by_module) {
    for (const std::size_t fi : file_indices) {
      const auto& report = analysis.value().files[fi].style.report;
      findings.insert(findings.end(), report.findings.begin(),
                      report.findings.end());
    }
  }
  return PrintFindings(findings, *max_shown);
}

int CmdAssess(const FlagParser& flags) {
  auto analysis = Load(flags);
  if (!analysis.ok()) {
    std::printf("error: %s\n", analysis.status().ToString().c_str());
    return 1;
  }
  const std::string asil_name = flags.GetOr("asil", "D");
  certkit::rules::Asil asil;
  if (asil_name == "A") {
    asil = certkit::rules::Asil::kA;
  } else if (asil_name == "B") {
    asil = certkit::rules::Asil::kB;
  } else if (asil_name == "C") {
    asil = certkit::rules::Asil::kC;
  } else if (asil_name == "D") {
    asil = certkit::rules::Asil::kD;
  } else {
    std::printf("error: --asil must be one of A, B, C, D\n");
    return 1;
  }

  const CodebaseAnalysis& cb = analysis.value();
  certkit::rules::Assessor assessor(cb.MakeAssessorInputs());
  struct Entry {
    const certkit::rules::TechniqueTable* table;
    certkit::rules::TableAssessment assessment;
  };
  std::vector<Entry> entries;
  entries.push_back({&certkit::rules::CodingGuidelinesTable(),
                     assessor.AssessCodingGuidelines()});
  entries.push_back({&certkit::rules::ArchitecturalDesignTable(),
                     assessor.AssessArchitecture()});
  entries.push_back(
      {&certkit::rules::UnitDesignTable(), assessor.AssessUnitDesign()});

  int gaps = 0;
  for (const auto& e : entries) {
    std::printf("%s\n", certkit::report::RenderTechniqueAssessment(
                            *e.table, e.assessment)
                            .c_str());
    for (std::size_t i = 0; i < e.table->techniques.size(); ++i) {
      if (!certkit::rules::Satisfies(e.assessment.assessments[i].verdict,
                                     e.table->techniques[i].At(asil))) {
        ++gaps;
        std::printf("ASIL-%s gap: %s — %s\n", asil_name.c_str(),
                    e.table->techniques[i].name.c_str(),
                    e.assessment.assessments[i].evidence.c_str());
      }
    }
  }
  std::printf("\n%d technique(s) below the ASIL-%s recommendation\n", gaps,
              asil_name.c_str());
  return gaps == 0 ? 0 : 2;
}

int CmdTraceability(const FlagParser& flags) {
  auto analysis = Load(flags);
  if (!analysis.ok()) {
    std::printf("error: %s\n", analysis.status().ToString().c_str());
    return 1;
  }
  const auto trace = analysis.value().MergedTrace();
  for (const auto& link : trace.links) {
    std::printf("  %-16s %s:%d -> %s\n", link.requirement.c_str(),
                link.file.c_str(), link.comment_line,
                link.function.empty() ? "(dangling)" : link.function.c_str());
  }
  std::printf("requirements: %zu distinct; traced functions: %.1f%% "
              "(%lld of %lld untraced)\n",
              trace.Requirements().size(), 100.0 * trace.TraceabilityRatio(),
              static_cast<long long>(trace.untraced_functions.size()),
              static_cast<long long>(trace.functions_total));
  return 0;
}

// Coverage-guided scenario campaign over the in-repo AD pipeline. Unlike
// the analysis commands this needs no <source-dir>: the subject is the
// instrumented detector compiled into the binary. With --checkpoint-dir the
// campaign persists (checkpoint + corpus store) and resumes bit-identically;
// with --shard i/N it evaluates one slice of one generation and writes a
// delta for `certkit merge-corpus`.
int CmdCampaign(const FlagParser& flags) {
  namespace campaign = certkit::campaign;
  campaign::CampaignConfig config;
  bool shard_mode = false;
  std::string error;
  if (!campaign::BuildCampaignConfig(flags, &config, &shard_mode, &error)) {
    std::printf("error: %s\n", error.c_str());
    return 1;
  }

  // Arm the black box: a fatal signal mid-campaign dumps the flight
  // recorder through a pre-opened fd, so `kill -ABRT` leaves a post-mortem
  // naming the last completed tick stage and safety state. An explicit
  // --flight-dump additionally arms the oracle trigger (first safe-stop).
  const std::string flight_path =
      flags.GetOr("flight-dump", "certkit_flight_dump.json");
  certkit::obs::SetFlightWallClock(config.include_timing);
  if (!certkit::obs::InstallFlightSignalHandlers(flight_path)) {
    std::printf("error: cannot open --flight-dump '%s'\n",
                flight_path.c_str());
    return 1;
  }
  if (flags.Get("flight-dump").has_value()) {
    certkit::obs::ArmFlightOracleDump(flight_path);
  }

  campaign::CampaignState state = campaign::CampaignRunner::FreshState(config);
  if (!config.checkpoint_dir.empty()) {
    const auto load = campaign::LoadCampaignCheckpoint(config.checkpoint_dir,
                                                       config, &state, &error);
    if (load == campaign::CheckpointLoad::kMismatch ||
        load == campaign::CheckpointLoad::kCorrupt) {
      std::printf("error: %s\n",
                  campaign::CheckpointDiagnostic(load, config.checkpoint_dir,
                                                 error)
                      .c_str());
      return 1;
    }
  }

  campaign::CampaignRunner runner(config);
  if (shard_mode) {
    if (state.next_generation >= config.generations) {
      std::printf("{\"shard\":\"%d/%d\",\"status\":\"complete\","
                  "\"next_generation\":%d}\n",
                  config.shard_index, config.shard_count,
                  state.next_generation);
      return 0;
    }
    const campaign::ShardDelta delta = runner.RunShardGeneration(&state);
    const auto status =
        campaign::WriteShardDelta(config.checkpoint_dir, config, delta);
    if (!status.ok()) {
      std::printf("error: %s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("{\"shard\":\"%d/%d\",\"generation\":%d,\"evaluated\":%zu,"
                "\"delta\":%s}\n",
                delta.shard_index, delta.shard_count, delta.generation,
                delta.evals.size(),
                certkit::support::JsonEscape(
                    campaign::ShardDeltaPath(config.checkpoint_dir,
                                             delta.generation,
                                             delta.shard_index,
                                             delta.shard_count))
                    .c_str());
    return 0;
  }

  const auto result = runner.RunFrom(&state);
  if (!result.complete) {
    std::printf("{\"status\":\"checkpointed\",\"next_generation\":%d,"
                "\"generations\":%d,\"evaluated_total\":%lld}\n",
                result.next_generation, config.generations,
                static_cast<long long>(result.evaluated_total));
    return 0;
  }
  std::printf("%s\n", campaign::CampaignJson(result).c_str());
  return 0;
}

// Folds one generation of shard deltas (written by `certkit campaign
// --shard i/N`) into the shared checkpoint, exactly as the unsharded serial
// merge would have — the merged campaign is byte-identical to a run that
// never sharded. Prints the full campaign JSON once the final generation
// merges; a progress line otherwise.
int CmdMergeCorpus(const FlagParser& flags) {
  namespace campaign = certkit::campaign;
  campaign::CampaignConfig config;
  bool shard_mode = false;
  std::string error;
  if (!campaign::BuildCampaignConfig(flags, &config, &shard_mode, &error)) {
    std::printf("error: %s\n", error.c_str());
    return 1;
  }
  if (shard_mode) {
    std::printf("error: merge-corpus takes the campaign flags, not --shard\n");
    return 1;
  }
  if (config.checkpoint_dir.empty()) {
    std::printf("error: merge-corpus requires --checkpoint-dir\n");
    return 1;
  }

  campaign::CampaignState state = campaign::CampaignRunner::FreshState(config);
  const auto load = campaign::LoadCampaignCheckpoint(config.checkpoint_dir,
                                                     config, &state, &error);
  if (load == campaign::CheckpointLoad::kMismatch ||
      load == campaign::CheckpointLoad::kCorrupt) {
    std::printf("error: %s\n",
                campaign::CheckpointDiagnostic(load, config.checkpoint_dir,
                                               error)
                    .c_str());
    return 1;
  }
  if (state.next_generation >= config.generations) {
    std::printf("%s\n",
                campaign::CampaignJson(campaign::CampaignRunner::Finalize(
                                           config, state))
                    .c_str());
    return 0;
  }

  std::vector<campaign::ShardDelta> deltas;
  if (!campaign::LoadShardDeltas(config.checkpoint_dir, config,
                                 state.next_generation, &deltas, &error)) {
    std::printf("error: %s\n", error.c_str());
    return 1;
  }
  campaign::CampaignRunner runner(config);
  const int merged_generation = state.next_generation;
  if (!runner.MergeShardDeltas(deltas, &state, &error)) {
    std::printf("error: %s\n", error.c_str());
    return 1;
  }
  const auto status = campaign::WriteCampaignCheckpoint(config.checkpoint_dir,
                                                        config, state);
  if (!status.ok()) {
    std::printf("error: %s\n", status.ToString().c_str());
    return 1;
  }
  campaign::RemoveShardDeltas(config.checkpoint_dir, merged_generation);
  if (state.next_generation >= config.generations) {
    std::printf("%s\n",
                campaign::CampaignJson(campaign::CampaignRunner::Finalize(
                                           config, state))
                    .c_str());
    return 0;
  }
  std::printf("{\"status\":\"merged\",\"generation\":%d,"
              "\"next_generation\":%d,\"generations\":%d}\n",
              merged_generation, state.next_generation, config.generations);
  return 0;
}

// Warm-process request loop: reads a batch of campaign/analysis requests
// (JSON array or NDJSON), fans them out over the service pool, and prints
// one response line per request in request order. Exit 0 when every request
// succeeded, 2 when any returned ok=false, 1 on usage/parse errors.
int CmdServe(const FlagParser& flags) {
  namespace campaign = certkit::campaign;
  const std::string requests_path = flags.GetOr("requests", "");
  const bool use_stdin = flags.GetBool("stdin");
  if (requests_path.empty() && !use_stdin) {
    std::printf("error: serve needs --requests <file> (JSON array or "
                "NDJSON of request objects) or --stdin\n");
    return 1;
  }
  const auto jobs = flags.GetInt("jobs", 0);
  if (!jobs) {
    std::printf("error: --jobs must be an integer\n");
    return 1;
  }
  const bool timing = flags.GetBool("timing");
  // Same black-box arming as `certkit campaign`: a long-lived server is
  // exactly the process whose death needs a post-mortem.
  const std::string flight_path =
      flags.GetOr("flight-dump", "certkit_flight_dump.json");
  certkit::obs::SetFlightWallClock(timing);
  if (!certkit::obs::InstallFlightSignalHandlers(flight_path)) {
    std::printf("error: cannot open --flight-dump '%s'\n",
                flight_path.c_str());
    return 1;
  }
  if (flags.Get("flight-dump").has_value()) {
    certkit::obs::ArmFlightOracleDump(flight_path);
  }
  if (use_stdin) {
    campaign::CampaignService service(static_cast<int>(*jobs), timing);
    const campaign::ServeLoopResult result =
        campaign::RunServeLoop(std::cin, std::cout, &service);
    return result.failed > 0 ? 2 : 0;
  }
  const auto text = certkit::support::ReadFile(requests_path);
  if (!text.ok()) {
    std::printf("error: %s\n", text.status().ToString().c_str());
    return 1;
  }
  std::vector<campaign::ServiceRequest> requests;
  std::string error;
  if (!campaign::ParseServiceRequests(text.value(), &requests, &error)) {
    std::printf("error: %s: %s\n", requests_path.c_str(), error.c_str());
    return 1;
  }
  campaign::CampaignService service(static_cast<int>(*jobs), timing);
  const auto responses = service.Process(requests);
  bool any_failed = false;
  for (const auto& response : responses) {
    std::printf("%s\n", campaign::ServiceResponseJson(response).c_str());
    if (!response.ok) any_failed = true;
  }
  return any_failed ? 2 : 0;
}

// Replays a finding artifact: re-executes its candidate and gates on the
// recorded TickReport digest. --diff adds the differential oracle (every
// other backend + quantized-vs-fp32); --minimize delta-debugs the candidate
// down to the smallest one that still reproduces the divergence (or, when
// nothing diverges, the recorded oracle outcome) and writes it as a new
// artifact. Exit 0 = bit-identical and no differential divergence; 2 = some
// divergence; 1 = usage/parse errors.
int CmdReplay(const FlagParser& flags) {
  namespace campaign = certkit::campaign;
  if (flags.positional().size() < 2) {
    std::printf("error: replay needs an <artifact.json>\n");
    return 1;
  }
  const std::string path = flags.positional()[1];
  const auto text = certkit::support::ReadFile(path);
  if (!text.ok()) {
    std::printf("error: %s\n", text.status().ToString().c_str());
    return 1;
  }
  campaign::ReplayArtifact artifact;
  std::string error;
  if (!campaign::ParseReplayArtifact(text.value(), &artifact, &error)) {
    std::printf("error: %s: %s\n", path.c_str(), error.c_str());
    return 1;
  }

  const campaign::ReplayOutcome replay = campaign::ExecuteReplay(artifact);
  std::printf("replay: candidate %lld (%d ticks, backend %s%s)\n",
              static_cast<long long>(artifact.candidate.id),
              artifact.candidate.ticks,
              campaign::BackendTag(artifact.candidate.backend),
              artifact.candidate.quantized ? ", quantized" : "");
  std::printf("digest: recorded %s, replayed %s — %s\n",
              campaign::HexU64(artifact.report_digest).c_str(),
              campaign::HexU64(replay.report_digest).c_str(),
              replay.digest_matches ? "bit-identical" : "DIVERGED");
  if (!replay.digest_matches && replay.divergence.diverged) {
    std::printf("divergence: first at tick %lld in stream '%s'\n",
                static_cast<long long>(replay.divergence.tick),
                replay.divergence.stream.c_str());
  }
  if (!replay.verdict_matches) {
    std::printf("verdict: outcome changed (recorded %s)\n",
                artifact.outcome.c_str());
  }

  bool diverged = !replay.digest_matches || !replay.verdict_matches;
  // The divergence the minimizer should preserve, when one exists.
  const campaign::VariantSpec* to_minimize = nullptr;
  campaign::DifferentialReport diff;
  if (flags.GetBool("diff") || flags.GetBool("minimize")) {
    diff = campaign::RunDifferential(artifact.candidate);
    if (flags.GetBool("diff")) {
      std::printf("%s\n", campaign::DifferentialReportJson(diff).c_str());
    }
    for (const campaign::DifferentialArm& arm : diff.arms) {
      if (arm.divergence.diverged || !arm.outcome_matches) {
        if (to_minimize == nullptr) to_minimize = &arm.spec;
        std::printf("differential: variant '%s' %s (tick %lld, stream %s)\n",
                    arm.spec.name.c_str(),
                    arm.outcome_matches ? "stream diverged"
                                        : "outcome diverged",
                    static_cast<long long>(arm.divergence.tick),
                    arm.divergence.diverged ? arm.divergence.stream.c_str()
                                            : "-");
      }
    }
    if (diff.divergent > 0) diverged = true;
  }

  if (flags.GetBool("minimize")) {
    const campaign::ReplayPredicate keeps =
        to_minimize != nullptr
            ? campaign::DivergencePredicate(*to_minimize)
            : campaign::OutcomePredicate(artifact.outcome);
    std::printf("minimize: preserving %s\n",
                to_minimize != nullptr ? to_minimize->name.c_str()
                                       : "oracle outcome");
    const campaign::MinimizeResult shrunk =
        campaign::Minimize(artifact.candidate, keeps);
    std::printf("minimize: cost %lld -> %lld (%d moves, %d probes)\n",
                static_cast<long long>(shrunk.initial_cost),
                static_cast<long long>(shrunk.final_cost),
                shrunk.accepted_moves, shrunk.probes);
    const std::string out_path = flags.GetOr("out", path + ".min.json");
    const campaign::EvalResult eval =
        campaign::CampaignRunner::Evaluate(shrunk.candidate);
    const std::string json = campaign::ReplayArtifactJson(
        campaign::MakeArtifact(shrunk.candidate, eval));
    const auto status = certkit::support::WriteFile(out_path, json + "\n");
    if (!status.ok()) {
      std::printf("error: %s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("minimize: wrote %s\n", out_path.c_str());
  }

  return diverged ? 2 : 0;
}

// Observability demo: run a traced pilot drive (covering every pipeline
// stage plus the safety block) and a small traced campaign, then export the
// Chrome trace-event file and a metrics snapshot. Exports are validated
// before they are written, and — the core contract — byte-identical for any
// --jobs at a fixed --seed; --timing opts into wall-clock fields.
int CmdObsTrace(const FlagParser& flags) {
  namespace obs = certkit::obs;
  const auto seed = flags.GetInt("seed", 1);
  const auto jobs = flags.GetInt("jobs", 1);
  const auto ticks = flags.GetInt("ticks", 40);
  const auto population = flags.GetInt("population", 4);
  const auto generations = flags.GetInt("generations", 2);
  if (!seed || !jobs || !ticks || !population || !generations) {
    std::printf("error: trace flags must be integers\n");
    return 1;
  }
  const bool timing = flags.GetBool("timing");
  const std::string trace_out = flags.GetOr("trace-out", "certkit_trace.json");
  const std::string metrics_out = flags.GetOr("metrics-out", "");

  obs::SetTracingEnabled(true);

  // Solo pilot drive on this thread: one track with every stage span.
  {
    obs::SpanCapture capture;
    adpilot::PilotConfig cfg;
    cfg.safety.tick_deadline = 5.0;
    adpilot::ApolloPilot pilot(cfg);
    for (int t = 0; t < static_cast<int>(*ticks); ++t) pilot.Tick();
    obs::TraceRecorder::Instance().AddTrack("pilot drive", capture.Take());
  }

  // Mini campaign: fleet candidate tracks + the control track.
  certkit::campaign::CampaignConfig config;
  config.seed = static_cast<std::uint64_t>(*seed);
  config.jobs = static_cast<int>(*jobs);
  config.population = static_cast<int>(*population);
  config.generations = static_cast<int>(*generations);
  config.ticks = static_cast<int>(*ticks);
  config.include_timing = timing;
  certkit::campaign::CampaignRunner runner(config);
  const auto campaign_result = runner.Run();

  const std::string trace_json =
      obs::ChromeTraceJson(obs::TraceRecorder::Instance().Snapshot(), timing);
  std::string error;
  if (!obs::ValidateChromeTrace(trace_json, &error)) {
    std::printf("error: generated trace failed validation: %s\n",
                error.c_str());
    return 1;
  }
  auto status = certkit::support::WriteFile(trace_out, trace_json);
  if (!status.ok()) {
    std::printf("error: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("trace: %s (%lld tracks, %zu bytes) — load in "
              "chrome://tracing or Perfetto\n",
              trace_out.c_str(),
              static_cast<long long>(
                  obs::TraceRecorder::Instance().track_count()),
              trace_json.size());

  if (!metrics_out.empty()) {
    const std::string metrics_json = obs::MetricsJson(
        obs::MetricsRegistry::Instance().Snapshot(), timing);
    status = certkit::support::WriteFile(metrics_out, metrics_json);
    if (!status.ok()) {
      std::printf("error: %s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("metrics: %s (%zu bytes)\n", metrics_out.c_str(),
                metrics_json.size());
  }
  std::printf("campaign: evaluated %lld candidates over %d generations\n",
              static_cast<long long>(campaign_result.evaluated_total),
              config.generations);
  return 0;
}

// Explicit flight-recorder dump: run a short instrumented pilot drive (so
// the rings hold real stage/safety events), then drain the black box into
// one validated JSON document — the same writer the fatal-signal and
// oracle triggers use.
int CmdDump(const FlagParser& flags) {
  namespace obs = certkit::obs;
  const auto ticks = flags.GetInt("ticks", 25);
  if (!ticks || *ticks < 1) {
    std::printf("error: --ticks must be a positive integer\n");
    return 1;
  }
  const bool timing = flags.GetBool("timing");
  const std::string out = flags.GetOr("out", "certkit_flight_dump.json");
  obs::SetFlightWallClock(timing);
  {
    adpilot::PilotConfig cfg;
    cfg.safety.tick_deadline = 5.0;
    adpilot::ApolloPilot pilot(cfg);
    for (int t = 0; t < static_cast<int>(*ticks); ++t) pilot.Tick();
  }
  const std::string dump =
      obs::FlightDumpString(obs::FlightDumpTrigger::kExplicit);
  std::string error;
  if (!obs::ValidateFlightDump(dump, &error)) {
    std::printf("error: generated dump failed validation: %s\n",
                error.c_str());
    return 1;
  }
  const auto status = certkit::support::WriteFile(out, dump);
  if (!status.ok()) {
    std::printf("error: %s\n", status.ToString().c_str());
    return 1;
  }
  const obs::FlightRecorderStats stats = obs::GetFlightRecorderStats();
  std::printf("flight dump: %s (%lld events recorded, %lld dropped, "
              "%zu bytes)\n",
              out.c_str(), static_cast<long long>(stats.events),
              static_cast<long long>(stats.dropped), dump.size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags(argc, argv);
  if (flags.positional().empty()) return Usage();
  const std::string command = flags.positional()[0];
  if (command == "campaign") return CmdCampaign(flags);
  if (command == "merge-corpus") return CmdMergeCorpus(flags);
  if (command == "serve") return CmdServe(flags);
  if (command == "replay") return CmdReplay(flags);
  if (command == "metrics") return CmdMetrics(flags);
  if (command == "functions") return CmdFunctions(flags);
  if (command == "misra") return CmdMisra(flags);
  if (command == "style") return CmdStyle(flags);
  if (command == "assess") return CmdAssess(flags);
  if (command == "traceability") return CmdTraceability(flags);
  if (command == "trace") return CmdObsTrace(flags);
  if (command == "dump") return CmdDump(flags);
  std::printf("unknown command '%s'\n", command.c_str());
  return Usage();
}
