// certkit driver: the parallel single-pass analysis front end.
//
// Every consumer of the toolkit — the CLI, the examples, the benches, the
// corpus pipeline — needs the same artifacts from a set of source files:
// the parsed model, per-function metrics, the traceability report, MISRA
// and style findings, and the per-module unit-design/defensive statistics.
// Before this driver existed each consumer re-read, re-lexed, and re-parsed
// the tree serially and the Assessor re-walked every model; now each file
// is analyzed exactly once, by a worker thread, into an immutable
// FileAnalysis artifact, and the artifacts are merged in stable path order
// so the result is bit-identical regardless of thread count.
//
// Pipeline:  file --worker--> FileAnalysis --merge--> CodebaseAnalysis
//            (parallel map)                (ordered reduce, main thread)
// followed by a second parallel phase over modules (unit design, defensive
// analysis), also merged in module order.
#ifndef CERTKIT_DRIVER_ANALYSIS_DRIVER_H_
#define CERTKIT_DRIVER_ANALYSIS_DRIVER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "ast/parser.h"
#include "metrics/module_metrics.h"
#include "rules/assessor.h"
#include "rules/misra.h"
#include "rules/style.h"
#include "rules/traceability.h"
#include "rules/unit_design.h"
#include "support/record.h"
#include "support/status.h"

namespace certkit::driver {

struct DriverOptions {
  // Threads for the per-file and per-module phases, the calling thread
  // included; <= 0 selects one per core. 1 runs everything on the caller.
  int jobs = 0;
  // File extensions scanned by AnalyzeTree.
  std::vector<std::string> extensions = {".cc", ".cpp", ".cxx", ".h",
                                         ".hpp",  ".cu",  ".cuh"};
  // Comments are retained by default so the traceability pass sees REQ tags.
  bool keep_comments = true;
  // Module assigned to files whose path has no directory component (only
  // reachable via AnalyzeSources; AnalyzeTree derives it from the root).
  std::string default_module = "main";
  rules::MisraOptions misra;
  int style_max_line_length = 80;
  // Directory for the content-hash artifact cache (see artifact_cache.h).
  // Empty disables caching; otherwise files whose bytes, module key, and
  // options fingerprint match a stored artifact are not re-lexed or
  // re-analyzed — the artifact is loaded and merged as if freshly computed.
  std::string cache_dir;
  // Prune cache entries this run did not touch (ArtifactCache::
  // GarbageCollect after the merge). Off by default: a cache shared by
  // several checkouts or option sets would evict each other's entries.
  bool cache_gc = false;
};

// One file's complete analysis — produced by exactly one worker thread,
// immutable afterwards. The parsed SourceFileModel itself is moved into the
// owning metrics::ModuleAnalysis during the merge (module/file indices below
// point at it); everything derived from it lives here.
struct FileAnalysis {
  std::string path;
  std::string module;  // module key (first-level directory)
  std::string text;    // raw source text, exactly as analyzed
  std::vector<metrics::FunctionMetrics> functions;
  rules::TraceReport trace;
  rules::CheckReport misra;
  rules::StyleResult style;
  std::int64_t naming_entities = 0;    // named declarations checked
  std::int64_t naming_violations = 0;  // STYLE-*NAME* findings
  std::int64_t explicit_casts = 0;
  // Location of the parsed model: modules[module_index].files[file_index].
  std::size_t module_index = 0;
  std::size_t file_index = 0;

  // What the artifact cache persists (support/record.h): no indices, and
  // the text only as Elided, since every reader holds it.
  template <class Io, class Self>
  static void Fields(Io& io, Self& a) {
    io("path", a.path);
    io("module", a.module);
    io("text", support::Elided{a.text});
    io("functions", a.functions);
    io("trace", a.trace);
    io("misra", a.misra);
    io("style_stats", a.style.stats);
    io("style", a.style.report);
    io("naming_entities", a.naming_entities);
    io("naming_violations", a.naming_violations);
    io("explicit_casts", a.explicit_casts);
  }
};

// The merged artifact for a whole source tree. All vectors are in stable
// order — modules by name, files by path — so downstream output never
// depends on scheduling or filesystem iteration order.
struct CodebaseAnalysis {
  std::vector<metrics::ModuleAnalysis> modules;  // sorted by module name
  std::vector<FileAnalysis> files;               // sorted by path
  // files[i] for each module, in path order: files_by_module[m] indexes
  // into `files` for modules[m].
  std::vector<std::vector<std::size_t>> files_by_module;
  std::vector<rules::UnitDesignResult> unit_design;  // one per module
  std::vector<rules::DefensiveResult> defensive;     // one per module
  std::vector<std::string> skipped;  // unreadable/unparseable, sorted

  // Assembles the precomputed inputs the rules::Assessor consumes (the one
  // way to build them). The returned struct points at `modules`; this
  // CodebaseAnalysis must outlive any Assessor built from it.
  rules::AssessorInputs MakeAssessorInputs() const;

  // Merges the per-file traceability reports.
  rules::TraceReport MergedTrace() const;

  std::vector<metrics::ModuleMetrics> ModuleMetricsRows() const;
};

// An in-memory source file (used for generated corpora and snippets).
struct SourceInput {
  std::string path;
  std::string content;
};

class AnalysisDriver {
 public:
  explicit AnalysisDriver(const DriverOptions& options = {});

  // Analyzes in-memory sources. Module keys come from the first directory
  // component of each path (options.default_module when there is none).
  // Unparseable inputs are recorded in `skipped`, never fatal.
  support::Result<CodebaseAnalysis> AnalyzeSources(
      std::vector<SourceInput> sources) const;

  // Recursively analyzes every matching file under `root`; files are read
  // by the worker threads. File paths start with the lexically normal form
  // of `root`, so every spelling of one directory ("dir", "dir/.", "./dir",
  // "dir/sub/..") reports the same paths and shares cache entries. Module
  // keys are first-level directories; files directly under `root` form a
  // module named after the root directory. NotFound if the directory does
  // not exist.
  support::Result<CodebaseAnalysis> AnalyzeTree(const std::string& root) const;

  const DriverOptions& options() const { return options_; }

 private:
  DriverOptions options_;
};

}  // namespace certkit::driver

#endif  // CERTKIT_DRIVER_ANALYSIS_DRIVER_H_
