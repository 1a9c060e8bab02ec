// Tests for the parallel single-pass analysis driver: artifact shape and the
// bit-identical-for-any-thread-count determinism contract.
#include "driver/analysis_driver.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "corpus/analyze.h"
#include "corpus/generator.h"
#include "obs/metrics.h"
#include "support/io.h"

namespace certkit::driver {
namespace {

namespace fs = std::filesystem;

// A small multi-module corpus exercising every per-file pass: complexity
// bands, casts, globals, gotos, multi-exit functions, CUDA kernels.
std::vector<corpus::ModuleSpec> SmallSpec() {
  std::vector<corpus::ModuleSpec> spec(3);
  spec[0].name = "perception";
  spec[0].num_files = 4;
  spec[0].functions_low = 20;
  spec[0].functions_moderate = 5;
  spec[0].functions_risky = 2;
  spec[0].mutable_globals = 12;
  spec[0].casts = 15;
  spec[0].multi_exit_fraction = 0.4;
  spec[0].cuda_kernels = 2;
  spec[0].target_loc = 900;
  spec[1].name = "planning";
  spec[1].num_files = 3;
  spec[1].functions_low = 15;
  spec[1].gotos = 2;
  spec[1].recursive_functions = 1;
  spec[1].target_loc = 700;
  spec[2].name = "control";
  spec[2].num_files = 2;
  spec[2].functions_low = 10;
  spec[2].uninitialized_locals = 3;
  spec[2].target_loc = 500;
  return spec;
}

std::vector<SourceInput> SmallCorpusInputs() {
  return corpus::CorpusSourceInputs(
      corpus::GenerateCorpus(SmallSpec(), /*seed=*/26262));
}

// Serializes every scheduling-sensitive artifact of an analysis. Two runs
// are considered identical iff their fingerprints match byte-for-byte.
std::string Fingerprint(const CodebaseAnalysis& cb) {
  std::ostringstream out;
  for (const auto& m : cb.modules) {
    out << "module " << m.name << " files=" << m.metrics.file_count
        << " loc=" << m.metrics.loc << " nloc=" << m.metrics.nloc
        << " fns=" << m.metrics.function_count
        << " cc=" << m.metrics.cc_low << '/' << m.metrics.cc_moderate << '/'
        << m.metrics.cc_risky << '/' << m.metrics.cc_unstable
        << " max=" << m.metrics.max_cc << " mean=" << m.metrics.mean_cc
        << '\n';
    for (const auto& fn : m.functions) {
      out << "  fn " << fn.qualified_name << " cc=" << fn.cyclomatic_complexity
          << " nloc=" << fn.nloc << " tokens=" << fn.token_count << '\n';
    }
  }
  for (const auto& fa : cb.files) {
    out << "file " << fa.path << " module=" << fa.module << " idx=("
        << fa.module_index << ',' << fa.file_index << ')'
        << " fns=" << fa.functions.size()
        << " casts=" << fa.explicit_casts
        << " naming=" << fa.naming_violations << '/' << fa.naming_entities
        << " style=" << fa.style.stats.violations << '/'
        << fa.style.stats.lines_checked << '\n';
    for (const auto& f : fa.misra.findings) {
      out << "  misra " << f.file << ':' << f.line << ' ' << f.rule_id << '\n';
    }
    for (const auto& f : fa.style.report.findings) {
      out << "  style " << f.file << ':' << f.line << ' ' << f.rule_id << '\n';
    }
    for (const auto& link : fa.trace.links) {
      out << "  trace " << link.requirement << ' ' << link.file << ':'
          << link.comment_line << "->" << link.function << '\n';
    }
  }
  for (const auto& ud : cb.unit_design) {
    out << "unit " << ud.stats.module << " total=" << ud.stats.functions_total
        << " multiexit=" << ud.stats.functions_multi_exit
        << " alloc=" << ud.stats.dynamic_alloc_sites
        << " uninit=" << ud.stats.uninitialized_locals
        << " shadow=" << ud.stats.shadowing_decls << '\n';
  }
  for (const auto& d : cb.defensive) {
    out << "defensive params=" << d.stats.functions_with_params
        << " validating=" << d.stats.functions_validating_inputs
        << " calls=" << d.stats.call_sites_checked
        << " discarded=" << d.stats.discarded_results
        << " asserts=" << d.stats.assertion_sites
        << " findings=" << d.report.findings.size() << '\n';
  }
  for (const auto& s : cb.skipped) out << "skipped " << s << '\n';

  const auto trace = cb.MergedTrace();
  out << "trace reqs=" << trace.Requirements().size()
      << " ratio=" << trace.TraceabilityRatio() << '\n';

  rules::Assessor assessor(cb.MakeAssessorInputs());
  const std::vector<rules::TableAssessment> tables = {
      assessor.AssessCodingGuidelines(), assessor.AssessArchitecture(),
      assessor.AssessUnitDesign()};
  for (const auto& table : tables) {
    for (const auto& a : table.assessments) {
      out << "verdict " << a.technique_id << ' '
          << static_cast<int>(a.verdict) << ' ' << a.evidence << '\n';
    }
  }
  return out.str();
}

// A fresh directory under the temp dir, named after the running test: ctest
// runs the cases as parallel processes, so they must not share one.
std::string ScratchRoot() {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  const std::string root = (fs::temp_directory_path() /
                            (std::string("certkit_driver_") + info->name()))
                               .string();
  fs::remove_all(root);
  return root;
}

void WriteTree(const std::string& root, const std::vector<SourceInput>& tree) {
  for (const auto& f : tree) {
    ASSERT_TRUE(support::WriteFile(root + "/" + f.path, f.content).ok());
  }
}

std::vector<std::string> ModuleNames(const CodebaseAnalysis& cb) {
  std::vector<std::string> names;
  for (const auto& m : cb.modules) names.push_back(m.name);
  return names;
}

CodebaseAnalysis AnalyzeWithJobs(int jobs) {
  DriverOptions options;
  options.jobs = jobs;
  AnalysisDriver driver(options);
  auto analyzed = driver.AnalyzeSources(SmallCorpusInputs());
  EXPECT_TRUE(analyzed.ok()) << analyzed.status().ToString();
  return std::move(analyzed).value();
}

TEST(AnalysisDriverTest, ArtifactShape) {
  const auto cb = AnalyzeWithJobs(2);
  ASSERT_EQ(cb.modules.size(), 3u);
  EXPECT_EQ(cb.modules[0].name, "control");  // sorted by name
  EXPECT_EQ(cb.modules[1].name, "perception");
  EXPECT_EQ(cb.modules[2].name, "planning");
  ASSERT_EQ(cb.files_by_module.size(), cb.modules.size());
  ASSERT_EQ(cb.unit_design.size(), cb.modules.size());
  ASSERT_EQ(cb.defensive.size(), cb.modules.size());
  EXPECT_TRUE(cb.skipped.empty());

  // Files are globally path-sorted and the indices are self-consistent.
  for (std::size_t i = 1; i < cb.files.size(); ++i) {
    EXPECT_LT(cb.files[i - 1].path, cb.files[i].path);
  }
  std::size_t indexed = 0;
  for (std::size_t m = 0; m < cb.files_by_module.size(); ++m) {
    for (std::size_t file_index = 0;
         file_index < cb.files_by_module[m].size(); ++file_index) {
      const FileAnalysis& fa = cb.files[cb.files_by_module[m][file_index]];
      EXPECT_EQ(fa.module_index, m);
      EXPECT_EQ(fa.file_index, file_index);
      EXPECT_EQ(fa.module, cb.modules[m].name);
      // The per-file metrics line up with the model stored in the module.
      ASSERT_LT(fa.file_index, cb.modules[m].files.size());
      EXPECT_EQ(fa.functions.size(),
                cb.modules[m].files[fa.file_index].functions.size());
      EXPECT_EQ(fa.path, cb.modules[m].files[fa.file_index].path);
      ++indexed;
    }
  }
  EXPECT_EQ(indexed, cb.files.size());
}

TEST(AnalysisDriverTest, ModuleAggregatesMatchSerialAnalyzeModule) {
  const auto cb = AnalyzeWithJobs(4);
  const auto generated = corpus::GenerateCorpus(SmallSpec(), /*seed=*/26262);
  for (const auto& gm : generated) {
    auto serial = corpus::AnalyzeGeneratedModule(gm);
    ASSERT_TRUE(serial.ok());
    for (const auto& m : cb.modules) {
      if (m.name != gm.spec.name) continue;
      EXPECT_EQ(m.metrics.loc, serial.value().metrics.loc);
      EXPECT_EQ(m.metrics.function_count,
                serial.value().metrics.function_count);
      EXPECT_EQ(m.metrics.max_cc, serial.value().metrics.max_cc);
      EXPECT_DOUBLE_EQ(m.metrics.mean_cc, serial.value().metrics.mean_cc);
    }
  }
}

TEST(AnalysisDriverTest, DeterministicAcrossJobCounts) {
  const std::string baseline = Fingerprint(AnalyzeWithJobs(1));
  EXPECT_FALSE(baseline.empty());
  for (const int jobs : {2, 4, 8}) {
    EXPECT_EQ(baseline, Fingerprint(AnalyzeWithJobs(jobs)))
        << "analysis changed with --jobs " << jobs;
  }
}

TEST(AnalysisDriverTest, TreeAnalysisMatchesInMemoryAnalysis) {
  const std::string root = ScratchRoot();
  WriteTree(root, SmallCorpusInputs());

  DriverOptions serial, eight;
  serial.jobs = 1;
  eight.jobs = 8;
  auto a = AnalysisDriver(serial).AnalyzeTree(root);
  auto b = AnalysisDriver(eight).AnalyzeTree(root);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(Fingerprint(a.value()), Fingerprint(b.value()));
  // Same modules and totals as the in-memory run (paths differ by the
  // root prefix, so compare aggregates rather than fingerprints).
  const auto in_memory = AnalyzeWithJobs(1);
  ASSERT_EQ(a.value().modules.size(), in_memory.modules.size());
  for (std::size_t m = 0; m < in_memory.modules.size(); ++m) {
    EXPECT_EQ(a.value().modules[m].name, in_memory.modules[m].name);
    EXPECT_EQ(a.value().modules[m].metrics.nloc,
              in_memory.modules[m].metrics.nloc);
    EXPECT_EQ(a.value().modules[m].metrics.function_count,
              in_memory.modules[m].metrics.function_count);
  }
  fs::remove_all(root);
}

TEST(AnalysisDriverTest, UnparseableSourceIsSkippedNotFatal) {
  DriverOptions options;
  options.jobs = 2;
  AnalysisDriver driver(options);
  auto analyzed = driver.AnalyzeSources(
      {{"mod/good.cc", "void Good() {}\n"},
       {"mod/bad.cc", "/* unterminated comment\n"}});
  ASSERT_TRUE(analyzed.ok());
  ASSERT_EQ(analyzed.value().skipped.size(), 1u);
  EXPECT_EQ(analyzed.value().skipped[0], "mod/bad.cc");
  ASSERT_EQ(analyzed.value().files.size(), 1u);
  EXPECT_EQ(analyzed.value().files[0].path, "mod/good.cc");
}

TEST(AnalysisDriverTest, TreeModulesExtensionsAndTraces) {
  const std::string root = ScratchRoot();
  WriteTree(root, {{"alpha/a.cc", "void AlphaFn() {}\n"},
                   {"alpha/b.cc", "void AlphaFn2() {}\n"},
                   {"beta/c.cc", "// REQ-T-1: do it\nvoid DoThing() {}\n"},
                   {"beta/bad.cc", "/* unterminated comment\n"},
                   {"beta/d.inc", "void IncFn() {}\n"},
                   {"root_file.cc", "void RootFn() {}\n"},
                   {"notes.txt", "not source\n"}});

  auto analyzed = AnalysisDriver().AnalyzeTree(root);
  ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
  const CodebaseAnalysis& cb = analyzed.value();
  // One module per first-level directory; files directly under the root
  // form a module named after it ("certkit_driver_…" sorts after "beta").
  ASSERT_EQ(ModuleNames(cb), (std::vector<std::string>{
                                 "alpha", "beta",
                                 fs::path(root).filename().string()}));
  EXPECT_EQ(cb.modules[0].metrics.function_count, 2);
  EXPECT_EQ(cb.modules[1].metrics.function_count, 1);
  EXPECT_EQ(cb.modules[2].metrics.function_count, 1);
  // notes.txt and d.inc are not scanned; the unparseable file is skipped,
  // not fatal.
  EXPECT_EQ(cb.files.size(), 4u);
  ASSERT_EQ(cb.skipped.size(), 1u);
  EXPECT_EQ(fs::path(cb.skipped[0]).filename(), "bad.cc");
  // Comments are kept, so the REQ tag traces to the function below it.
  const rules::TraceReport trace = cb.MergedTrace();
  ASSERT_EQ(trace.links.size(), 1u);
  EXPECT_EQ(trace.links[0].requirement, "REQ-T-1");
  EXPECT_EQ(trace.links[0].function, "DoThing");

  DriverOptions inc_only;
  inc_only.extensions = {".inc"};
  auto inc = AnalysisDriver(inc_only).AnalyzeTree(root);
  ASSERT_TRUE(inc.ok());
  ASSERT_EQ(ModuleNames(inc.value()), std::vector<std::string>{"beta"});
  EXPECT_EQ(inc.value().modules[0].metrics.function_count, 1);
  EXPECT_TRUE(inc.value().skipped.empty());
  fs::remove_all(root);
}

TEST(AnalysisDriverTest, RootModuleIsNamedForAnySpellingOfTheRoot) {
  const std::string root = ScratchRoot();
  WriteTree(root, {{"top.cc", "void Top() {}\n"},
                   {"sub/a.cc", "void A() {}\n"}});
  std::vector<std::string> expected = {"sub",
                                       fs::path(root).filename().string()};
  std::sort(expected.begin(), expected.end());
  for (const std::string& spelling : {root, root + "/", root + "/."}) {
    auto analyzed = AnalysisDriver().AnalyzeTree(spelling);
    ASSERT_TRUE(analyzed.ok()) << spelling;
    EXPECT_EQ(ModuleNames(analyzed.value()), expected) << spelling;
  }
  fs::remove_all(root);
}

std::int64_t Counter(const char* name) {
  return obs::MetricsRegistry::Instance().GetCounter(name).value();
}

std::vector<std::string> SortedFilePaths(const CodebaseAnalysis& cb) {
  std::vector<std::string> paths;
  for (const auto& f : cb.files) paths.push_back(f.path);
  std::sort(paths.begin(), paths.end());
  return paths;
}

TEST(AnalysisDriverTest, RootSpellingsShareCacheEntries) {
  const std::string root = ScratchRoot();
  WriteTree(root, {{"top.cc", "void Top() {}\n"},
                   {"sub/a.cc", "void A() {}\n"}});
  DriverOptions options;
  options.jobs = 1;
  options.cache_dir = root + "_cache";
  fs::remove_all(options.cache_dir);
  const AnalysisDriver driver(options);
  auto first = driver.AnalyzeTree(root);
  ASSERT_TRUE(first.ok());
  const std::vector<std::string> expected = {root + "/sub/a.cc",
                                             root + "/top.cc"};
  ASSERT_EQ(SortedFilePaths(first.value()), expected);
  for (const std::string& spelling :
       {root + "/", root + "/.", root + "/sub/.."}) {
    const std::int64_t hits0 = Counter("driver/cache_hits");
    const std::int64_t misses0 = Counter("driver/cache_misses");
    auto analyzed = driver.AnalyzeTree(spelling);
    ASSERT_TRUE(analyzed.ok()) << spelling;
    EXPECT_EQ(SortedFilePaths(analyzed.value()), expected) << spelling;
    EXPECT_EQ(Counter("driver/cache_hits") - hits0, 2) << spelling;
    EXPECT_EQ(Counter("driver/cache_misses") - misses0, 0) << spelling;
  }
  fs::remove_all(options.cache_dir);
  fs::remove_all(root);
}

TEST(AnalysisDriverTest, MissingTreeIsNotFound) {
  auto analyzed = AnalysisDriver().AnalyzeTree(ScratchRoot() + "/nope");
  EXPECT_FALSE(analyzed.ok());
  EXPECT_EQ(analyzed.status().code(), support::StatusCode::kNotFound);
}

TEST(AnalysisDriverTest, DefaultModuleForBarePaths) {
  DriverOptions options;
  options.jobs = 1;
  options.default_module = "snippet";
  AnalysisDriver driver(options);
  auto analyzed = driver.AnalyzeSources({{"lone.cc", "void Lone() {}\n"}});
  ASSERT_TRUE(analyzed.ok());
  ASSERT_EQ(analyzed.value().modules.size(), 1u);
  EXPECT_EQ(analyzed.value().modules[0].name, "snippet");
}

}  // namespace
}  // namespace certkit::driver
