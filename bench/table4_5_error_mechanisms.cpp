// Experiment — ISO 26262-6 Tables 4 & 5 (error detection / error handling
// mechanisms at the software architectural level), the normative context of
// the paper's §3.1.4 (defensive implementation) and §3.1.5 ("the code
// properly uses C++ exception handling in most of the cases").
//
// Two subjects are assessed side by side:
//   1. the Apollo-like corpus (calibrated to the paper: defensive
//      mechanisms absent);
//   2. this repository's own AD stack (src/ad + src/nn, when run from the
//      repository root) — which carries contracts, checksums, and an
//      emergency-stop degradation path.
#include <benchmark/benchmark.h>

#include <filesystem>
#include <string>

#include "bench/bench_util.h"
#include "driver/analysis_driver.h"
#include "report/renderers.h"
#include "rules/error_handling.h"
#include "support/flags.h"

namespace {

// Locates this repository's AD stack. Honors --root (path to the source
// tree to assess); otherwise tries the working directory, then the repo
// layout relative to the benchmark binary (build/bench/<exe> -> ../../src/ad)
// so the bench also works when not launched from the repository root.
std::string ResolveOwnStackRoot(const certkit::support::FlagParser& flags,
                                const char* argv0) {
  if (const auto root = flags.Get("root"); root.has_value()) return *root;
  namespace fs = std::filesystem;
  std::error_code ec;
  if (fs::is_directory("src/ad", ec)) return "src/ad";
  const fs::path relative_to_exe =
      fs::path(argv0).parent_path() / ".." / ".." / "src" / "ad";
  if (fs::is_directory(relative_to_exe, ec)) {
    return relative_to_exe.lexically_normal().string();
  }
  return "src/ad";
}

certkit::rules::ErrorHandlingStats CorpusStats() {
  std::vector<certkit::rules::ErrorHandlingStats> parts;
  for (const auto& mod : benchutil::Corpus().modules) {
    for (const auto& file : mod.files) {
      parts.push_back(certkit::rules::AnalyzeErrorHandling(file));
    }
  }
  return certkit::rules::MergeErrorHandling(parts);
}

void BM_ErrorHandlingCensus(benchmark::State& state) {
  for (auto _ : state) {
    auto stats = CorpusStats();
    benchmark::DoNotOptimize(stats.functions_total);
  }
}
BENCHMARK(BM_ErrorHandlingCensus)->Unit(benchmark::kMillisecond);

void PrintSubject(const char* label,
                  const certkit::rules::ErrorHandlingStats& stats) {
  benchutil::PrintHeader(label);
  std::printf(
      "  functions %lld | try %lld | catch %lld (%lld catch-all) | throw "
      "%lld\n  assertions %lld (%.2f/function) | status-returning %lld | "
      "checksum %lld | degradation %lld\n\n",
      static_cast<long long>(stats.functions_total),
      static_cast<long long>(stats.try_blocks),
      static_cast<long long>(stats.catch_handlers),
      static_cast<long long>(stats.catch_all_handlers),
      static_cast<long long>(stats.throw_sites),
      static_cast<long long>(stats.assertion_sites),
      stats.AssertionDensityPerFunction(),
      static_cast<long long>(stats.status_returning_functions),
      static_cast<long long>(stats.checksum_sites),
      static_cast<long long>(stats.degradation_sites));
  std::printf("%s\n", certkit::report::RenderTechniqueAssessment(
                          certkit::rules::ErrorDetectionTable(),
                          certkit::rules::AssessErrorDetection(stats))
                          .c_str());
  std::printf("%s\n", certkit::report::RenderTechniqueAssessment(
                          certkit::rules::ErrorHandlingTable(),
                          certkit::rules::AssessErrorHandling(stats))
                          .c_str());
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  const certkit::support::FlagParser flags(argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  PrintSubject(
      "Tables 4 & 5 — subject 1: the Apollo-like corpus (paper calibration)",
      CorpusStats());

  // Subject 2: this repository's AD stack, if its sources are reachable.
  const std::string own_root = ResolveOwnStackRoot(flags, argv[0]);
  auto own = certkit::driver::AnalysisDriver().AnalyzeTree(own_root);
  if (own.ok() && !own.value().modules.empty()) {
    std::vector<certkit::rules::ErrorHandlingStats> parts;
    for (const auto& mod : own.value().modules) {
      for (const auto& file : mod.files) {
        parts.push_back(certkit::rules::AnalyzeErrorHandling(file));
      }
    }
    PrintSubject(("Tables 4 & 5 — subject 2: this repository's AD stack (" +
                  own_root + ")")
                     .c_str(),
                 certkit::rules::MergeErrorHandling(parts));
  } else {
    std::printf("(%s not reachable — pass --root <dir> or run from the "
                "repository root to assess the AD stack)\n",
                own_root.c_str());
  }
  std::printf(
      "Paper context: Observation 6 — AD frameworks do not implement\n"
      "defensive programming; §3.1.5 — C++ exception handling is properly\n"
      "used in most cases. The corpus reproduces the former; the adpilot\n"
      "stack shows what the mechanisms look like when present (contracts,\n"
      "weight checksums, the REQ-PLAN-002 emergency-stop degradation).\n");
  return 0;
}
