#include "driver/analysis_driver.h"

#include <algorithm>
#include <filesystem>
#include <map>
#include <optional>
#include <utility>

#include "driver/artifact_cache.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rules/defensive.h"
#include "support/io.h"
#include "support/strings.h"
#include "support/thread_pool.h"

namespace certkit::driver {

namespace fs = std::filesystem;

namespace {

// The module of the files directly under `root`: the root directory's own
// name, however the path is spelled ("dir", "dir/", "dir/.", ".").
std::string RootModuleName(const std::string& root) {
  fs::path dir = fs::absolute(root).lexically_normal();
  if (!dir.has_filename()) dir = dir.parent_path();  // a trailing separator
  return dir.filename().string();
}

bool IsHeaderPath(const std::string& path) {
  return support::EndsWith(path, ".h") || support::EndsWith(path, ".hpp") ||
         support::EndsWith(path, ".cuh");
}

// What one worker produces for one file. The model travels separately from
// the public FileAnalysis because it is moved into the owning ModuleAnalysis
// at merge time.
struct WorkerResult {
  bool ok = false;
  FileAnalysis analysis;
  ast::SourceFileModel model;
  // HashBytes of the file bytes — computed once per file when the artifact
  // cache is enabled, reused for the store and the per-module phase key.
  std::uint64_t content_hash = 0;
  // Spans this file's analysis fired (tracing enabled only) — captured on
  // the worker thread, merged into the TraceRecorder in stable path order.
  std::vector<obs::SpanEvent> spans;
};

// The per-file map step: parse + every per-file pass, computed exactly once
// per (content, options) thanks to the artifact cache — a hit skips the lex,
// parse, and every rule pass, returning the stored result bit-identically.
WorkerResult AnalyzeOneFile(std::string path, std::string module,
                            std::string text, const DriverOptions& options,
                            const ArtifactCache& cache) {
  WorkerResult out;
  if (cache.enabled()) {
    out.content_hash = HashBytes(text);
    if (cache.Load(path, module, text, out.content_hash, &out.analysis,
                   &out.model)) {
      out.ok = true;
      obs::MetricsRegistry::Instance().GetCounter("driver/cache_hits").Add();
      return out;
    }
  }
  std::optional<obs::SpanCapture> trace_capture;
  if (obs::TracingEnabled()) trace_capture.emplace();
  {
    obs::Span file_span("analyze_file", "driver");
    ast::ParseOptions parse_opts;
    parse_opts.lex_options.keep_comments = options.keep_comments;
    auto model = [&] {
      obs::Span span("parse", "driver");
      return ast::ParseSource(path, text, parse_opts);
    }();
    if (!model.ok()) {
      out.analysis.path = std::move(path);
      obs::MetricsRegistry::Instance()
          .GetCounter("driver/files_skipped")
          .Add();
    } else {
      out.model = std::move(model).value();

      FileAnalysis& fa = out.analysis;
      fa.path = std::move(path);
      fa.module = std::move(module);
      {
        obs::Span span("metrics", "driver");
        fa.functions = metrics::ComputeFileFunctionMetrics(out.model);
      }
      {
        obs::Span span("traceability", "driver");
        fa.trace = rules::AnalyzeTraceability(out.model);
      }
      {
        obs::Span span("misra", "driver");
        fa.misra = rules::CheckMisra(out.model, options.misra);
      }
      {
        obs::Span span("style", "driver");
        rules::StyleOptions style_opts;
        style_opts.max_line_length = options.style_max_line_length;
        style_opts.is_header = IsHeaderPath(fa.path);
        fa.style = rules::CheckStyle(out.model, text, style_opts);
      }
      for (const auto& f : fa.style.report.findings) {
        if (support::StartsWith(f.rule_id, "STYLE-") &&
            support::Contains(f.rule_id, "NAME")) {
          ++fa.naming_violations;
        }
      }
      fa.naming_entities = static_cast<std::int64_t>(
          out.model.types.size() + out.model.functions.size() +
          out.model.globals.size() + out.model.macros.size());
      fa.explicit_casts = static_cast<std::int64_t>(out.model.casts.size());
      fa.text = std::move(text);
      out.ok = true;
      obs::MetricsRegistry::Instance()
          .GetCounter("driver/files_analyzed")
          .Add();
      if (cache.enabled()) {
        obs::MetricsRegistry::Instance()
            .GetCounter("driver/cache_misses")
            .Add();
        cache.Store(out.content_hash, out.analysis, out.model);
      }
    }
  }
  if (trace_capture.has_value()) out.spans = trace_capture->Take();
  return out;
}

// The ordered reduce: folds per-file worker results (already in stable path
// order) into the merged artifact, then runs the per-module phase on the
// pool. Deterministic for any pool size: every output slot is indexed.
CodebaseAnalysis MergeResults(std::vector<WorkerResult> results,
                              support::ThreadPool& pool,
                              const ArtifactCache& cache, bool cache_gc) {
  CodebaseAnalysis out;

  // Results arrive in sorted path order, so registering each file's span
  // track here (serially, before grouping) keeps the trace byte-identical
  // for any --jobs count.
  if (obs::TracingEnabled()) {
    for (WorkerResult& r : results) {
      if (!r.spans.empty()) {
        obs::TraceRecorder::Instance().AddTrack(r.analysis.path,
                                                std::move(r.spans));
      }
    }
  }

  // Group by module key; std::map gives stable name order.
  std::map<std::string, std::vector<std::size_t>> by_module;
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (!results[i].ok) {
      out.skipped.push_back(results[i].analysis.path);
      continue;
    }
    by_module[results[i].analysis.module].push_back(i);
  }

  // Per-module (path, content-hash) lists, in merge order — the key inputs
  // of the cached per-module phase (cache enabled only).
  std::vector<std::vector<std::pair<std::string, std::uint64_t>>>
      module_file_hashes;
  for (auto& [module, indices] : by_module) {
    const std::size_t module_index = out.modules.size();
    std::vector<ast::SourceFileModel> models;
    std::vector<std::vector<metrics::FunctionMetrics>> file_functions;
    std::vector<std::size_t> file_ids;
    std::vector<std::pair<std::string, std::uint64_t>> file_hashes;
    models.reserve(indices.size());
    file_functions.reserve(indices.size());
    for (std::size_t file_index = 0; file_index < indices.size();
         ++file_index) {
      WorkerResult& r = results[indices[file_index]];
      r.analysis.module_index = module_index;
      r.analysis.file_index = file_index;
      models.push_back(std::move(r.model));
      // ModuleAnalysis::functions wants its own copy (it outlives reshuffles
      // of `files`); FileAnalysis keeps the per-file view.
      file_functions.push_back(r.analysis.functions);
      file_ids.push_back(out.files.size());
      if (cache.enabled()) {
        file_hashes.emplace_back(r.analysis.path, r.content_hash);
      }
      out.files.push_back(std::move(r.analysis));
    }
    out.modules.push_back(metrics::MergeModule(module, std::move(models),
                                               std::move(file_functions)));
    out.files_by_module.push_back(std::move(file_ids));
    module_file_hashes.push_back(std::move(file_hashes));
  }

  // Per-module phase: unit design and defensive analysis, in parallel,
  // stored by module index (stable regardless of scheduling). With the
  // artifact cache enabled the phase result itself is cached, keyed by the
  // member files' content hashes — on a warm run nothing walks the tokens.
  out.unit_design.resize(out.modules.size());
  out.defensive.resize(out.modules.size());
  std::vector<std::uint64_t> module_keys(out.modules.size(), 0);
  pool.ParallelFor(out.modules.size(), [&](std::size_t m) {
    std::uint64_t key = 0;
    if (cache.enabled()) {
      key = cache.ModulePhaseKey(out.modules[m].name, module_file_hashes[m]);
      module_keys[m] = key;
      if (cache.LoadModulePhase(key, &out.unit_design[m],
                                &out.defensive[m])) {
        return;
      }
    }
    out.unit_design[m] = rules::AnalyzeUnitDesign(out.modules[m]);
    out.defensive[m] = rules::AnalyzeDefensive(out.modules[m].files);
    if (cache.enabled()) {
      cache.StoreModulePhase(key, out.unit_design[m], out.defensive[m]);
    }
  });

  // Optional cache pruning: this run's entries are exactly the live set —
  // every (path, module, hash) that merged plus every module-phase key —
  // so anything else in the directory is an orphan from an earlier state
  // of the tree.
  if (cache.enabled() && cache_gc) {
    std::vector<std::string> live;
    for (std::size_t m = 0; m < out.modules.size(); ++m) {
      for (const auto& [path, hash] : module_file_hashes[m]) {
        live.push_back(
            cache.EntryPathForHash(path, out.modules[m].name, hash));
      }
      live.push_back(cache.ModulePhaseEntryPath(module_keys[m]));
    }
    const int removed = cache.GarbageCollect(live);
    obs::MetricsRegistry::Instance()
        .GetCounter("driver/cache_gc_removed")
        .Add(removed);
  }
  return out;
}

}  // namespace

rules::AssessorInputs CodebaseAnalysis::MakeAssessorInputs() const {
  rules::AssessorInputs in;
  in.modules = &modules;
  in.unit_design = unit_design;
  for (std::size_t m = 0; m < modules.size(); ++m) {
    in.total_functions += modules[m].metrics.function_count;
    in.total_nloc += modules[m].metrics.nloc;
    for (std::size_t id : files_by_module[m]) {
      const FileAnalysis& fa = files[id];
      in.total_casts += fa.explicit_casts;
      in.misra_reports.push_back(fa.misra);
      in.style_total.lines_checked += fa.style.stats.lines_checked;
      in.style_total.violations += fa.style.stats.violations;
      in.naming_total.lines_checked += fa.naming_entities;
      in.naming_total.violations += fa.naming_violations;
    }
  }
  for (const auto& dr : defensive) {
    rules::MergeDefensive(dr, &in.defensive);
  }
  return in;
}

rules::TraceReport CodebaseAnalysis::MergedTrace() const {
  std::vector<rules::TraceReport> reports;
  reports.reserve(files.size());
  for (const auto& fa : files) reports.push_back(fa.trace);
  return rules::MergeTraceReports(reports);
}

std::vector<metrics::ModuleMetrics> CodebaseAnalysis::ModuleMetricsRows()
    const {
  std::vector<metrics::ModuleMetrics> rows;
  rows.reserve(modules.size());
  for (const auto& m : modules) rows.push_back(m.metrics);
  return rows;
}

AnalysisDriver::AnalysisDriver(const DriverOptions& options)
    : options_(options) {}

support::Result<CodebaseAnalysis> AnalysisDriver::AnalyzeSources(
    std::vector<SourceInput> sources) const {
  std::sort(sources.begin(), sources.end(),
            [](const SourceInput& a, const SourceInput& b) {
              return a.path < b.path;
            });
  support::ThreadPool pool(support::ThreadPool::ResolveJobs(options_.jobs) - 1);
  const ArtifactCache cache(options_.cache_dir, OptionsFingerprint(options_));
  std::vector<WorkerResult> results(sources.size());
  pool.ParallelFor(sources.size(), [&](std::size_t i) {
    const fs::path p(sources[i].path);
    const std::string module = p.has_parent_path()
                                   ? p.begin()->string()
                                   : options_.default_module;
    results[i] = AnalyzeOneFile(sources[i].path, module,
                                std::move(sources[i].content), options_,
                                cache);
  });
  return MergeResults(std::move(results), pool, cache, options_.cache_gc);
}

support::Result<CodebaseAnalysis> AnalysisDriver::AnalyzeTree(
    const std::string& root) const {
  const std::string dir = fs::path(root).lexically_normal().string();
  auto files = support::ListFiles(dir, options_.extensions);
  if (!files.ok()) return files.status();
  const std::vector<std::string>& paths = files.value();

  support::ThreadPool pool(support::ThreadPool::ResolveJobs(options_.jobs) - 1);
  const ArtifactCache cache(options_.cache_dir, OptionsFingerprint(options_));
  const std::string root_module = RootModuleName(dir);
  std::vector<WorkerResult> results(paths.size());
  pool.ParallelFor(paths.size(), [&](std::size_t i) {
    const fs::path rel = fs::relative(paths[i], dir);
    const std::string module =
        rel.has_parent_path() ? rel.begin()->string() : root_module;
    auto content = support::ReadFile(paths[i]);
    if (!content.ok()) {
      results[i].analysis.path = paths[i];  // ok == false -> skipped
      return;
    }
    results[i] = AnalyzeOneFile(paths[i], module,
                                std::move(content).value(), options_,
                                cache);
  });
  return MergeResults(std::move(results), pool, cache, options_.cache_gc);
}

}  // namespace certkit::driver
