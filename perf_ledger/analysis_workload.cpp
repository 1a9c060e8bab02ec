// analysis_corpus: AnalysisDriver at jobs = nproc over the calibrated
// 220k-LOC Apollo-like corpus generated from the seed, with the artifact
// cache in the run's scratch directory. Each round runs three passes:
//   cold   empty cache: every file is analysed and stored (writes);
//   warm   every file is a cache hit (reads);
//   dirty  one seeded file is edited, so that file misses and its module
//          phase is recomputed.
//
// Untraced, the ledger times AnalysisDriver::AnalyzeSources. Traced, it also
// runs each pass at one job, and a composition that calls, per file, what
// the driver's worker calls and, per module, the module phase, with
// ArtifactCache::Load/Store called directly.
#include <algorithm>
#include <filesystem>
#include <map>

#include "ast/parser.h"
#include "corpus/analyze.h"
#include "corpus/generator.h"
#include "driver/analysis_driver.h"
#include "driver/artifact_cache.h"
#include "ledger.h"
#include "lex/lexer.h"
#include "metrics/module_metrics.h"
#include "obs/metrics.h"
#include "rules/defensive.h"
#include "support/rng.h"
#include "support/strings.h"

namespace ledger {

namespace {

namespace fs = std::filesystem;
using certkit::corpus::GeneratedModule;
using certkit::driver::AnalysisDriver;
using certkit::driver::ArtifactCache;
using certkit::driver::DriverOptions;
using certkit::driver::SourceInput;


enum Pass { kCold = 0, kWarm, kDirty, kNumPasses };
const char* const kPassNames[kNumPasses] = {"cold", "warm", "dirty"};

std::int64_t Counter(const char* name) {
  return certkit::obs::MetricsRegistry::Instance().GetCounter(name).value();
}

DriverOptions Options(int jobs, const std::string& cache_dir) {
  DriverOptions opts;
  opts.jobs = jobs;
  opts.cache_dir = cache_dir;
  return opts;
}

void ClearDir(const std::string& dir) {
  std::error_code ec;
  fs::remove_all(dir, ec);
}

std::int64_t DirBytes(const std::string& dir) {
  std::int64_t bytes = 0;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (entry.is_regular_file()) {
      bytes += static_cast<std::int64_t>(entry.file_size());
    }
  }
  return bytes;
}

// One seeded edit: a new function appended to one file, so the file's
// artifact and its module's phase entry both miss.
struct Edit {
  std::size_t module = 0;
  std::size_t file = 0;
  std::string text;
};

Edit NextEdit(const std::vector<GeneratedModule>& corpus,
              certkit::support::Xoshiro256* rng, std::size_t module) {
  Edit e;
  e.module = module;
  e.file = static_cast<std::size_t>(rng->UniformInt(
      0, static_cast<std::int64_t>(corpus[module].files.size()) - 1));
  const std::string n = std::to_string(rng->UniformInt(1, 999));
  e.text = "\nint LedgerEdit" + n + "(int value) {\n  if (value > " + n +
           ") {\n    return value - " + n + ";\n  }\n  return value;\n}\n";
  return e;
}

std::string& EditedContent(std::vector<GeneratedModule>* corpus,
                           const Edit& e) {
  return (*corpus)[e.module].files[e.file].content;
}

// One real pass through the driver.
struct PassRun {
  double seconds = 0.0;
  double cpu_seconds = 0.0;  // user + system, all threads
  std::uint64_t digest = 0;
  bool skipped_any = false;
  std::int64_t hits = 0, misses = 0, bytes_lexed = 0;
};

PassRun RunPass(const std::vector<GeneratedModule>& corpus,
                const DriverOptions& opts, std::vector<double>* setup) {
  PassRun r;
  const auto t_setup = Clock::now();
  const AnalysisDriver driver(opts);
  std::vector<SourceInput> inputs = certkit::corpus::CorpusSourceInputs(corpus);
  if (setup != nullptr) setup->push_back(SecondsSince(t_setup));
  const std::int64_t hits0 = Counter("driver/cache_hits");
  const std::int64_t misses0 = Counter("driver/cache_misses");
  const std::int64_t lexed0 = Counter("lexer/bytes_lexed");
  double user0 = 0.0, sys0 = 0.0, user1 = 0.0, sys1 = 0.0;
  CpuSeconds(&user0, &sys0);
  const auto t0 = Clock::now();
  auto analyzed = driver.AnalyzeSources(std::move(inputs));
  r.seconds = SecondsSince(t0);
  CpuSeconds(&user1, &sys1);
  r.cpu_seconds = (user1 - user0) + (sys1 - sys0);
  r.hits = Counter("driver/cache_hits") - hits0;
  r.misses = Counter("driver/cache_misses") - misses0;
  r.bytes_lexed = Counter("lexer/bytes_lexed") - lexed0;
  if (analyzed.ok()) {
    r.digest = certkit::driver::DigestAnalysis(analyzed.value());
    r.skipped_any = !analyzed.value().skipped.empty();
  }
  return r;
}

std::uint64_t NoCacheDigest(const std::vector<GeneratedModule>& corpus,
                            int jobs) {
  return RunPass(corpus, Options(jobs, ""), nullptr).digest;
}

// The three passes of one round, starting from an emptied cache.
struct Round {
  PassRun pass[kNumPasses];
};

Round RunRound(std::vector<GeneratedModule>* corpus, const Edit& edit,
               const DriverOptions& opts, std::vector<double>* setup) {
  Round round;
  ClearDir(opts.cache_dir);
  round.pass[kCold] = RunPass(*corpus, opts, setup);
  round.pass[kWarm] = RunPass(*corpus, opts, nullptr);
  std::string& content = EditedContent(corpus, edit);
  const std::size_t original = content.size();
  content += edit.text;
  round.pass[kDirty] = RunPass(*corpus, opts, nullptr);
  content.resize(original);
  return round;
}

// Checks one round against the reference digests and the cache counters.
void CheckRound(const Round& round, std::uint64_t base_digest,
                std::uint64_t dirty_digest, std::int64_t files,
                const std::string& label, Outcome* out) {
  out->attempted += kNumPasses;
  const PassRun& cold = round.pass[kCold];
  const PassRun& warm = round.pass[kWarm];
  const PassRun& dirty = round.pass[kDirty];
  if (cold.digest != base_digest || cold.misses != files || cold.skipped_any) {
    out->Fail(1, label + ": cold pass differs from the reference analysis");
  }
  if (warm.digest != base_digest || warm.hits != files || warm.bytes_lexed) {
    out->Fail(1, label + ": warm pass is not an all-hit copy of cold");
  }
  if (dirty.digest != dirty_digest || dirty.misses != 1 ||
      dirty.hits != files - 1) {
    out->Fail(1, label + ": dirty pass differs from a no-cache analysis");
  }
}

std::vector<double> PassSeconds(const std::vector<Round>& rounds, Pass p) {
  std::vector<double> s;
  for (const Round& r : rounds) s.push_back(r.pass[p].seconds);
  return s;
}

std::int64_t CorpusFiles(const std::vector<GeneratedModule>& corpus) {
  std::int64_t files = 0;
  for (const auto& m : corpus) {
    files += static_cast<std::int64_t>(m.files.size());
  }
  return files;
}

// One seeded edit per module (the seed picks the file and the text), with
// the digest of a no-cache analysis of each edited corpus (untimed, once
// per run). A block of rounds applies every edit once, so every seed
// recomputes the module phase of every module, small and large alike.
struct EditRef {
  Edit edit;
  std::uint64_t digest = 0;
};

std::vector<EditRef> Edits(std::vector<GeneratedModule>* corpus,
                           std::uint64_t seed, int jobs) {
  certkit::support::Xoshiro256 rng(seed ^ 0xED17ULL);
  std::vector<EditRef> edits;
  for (std::size_t m = 0; m < corpus->size(); ++m) {
    EditRef e;
    e.edit = NextEdit(*corpus, &rng, m);
    std::string& content = EditedContent(corpus, e.edit);
    const std::size_t original = content.size();
    content += e.edit.text;
    e.digest = NoCacheDigest(*corpus, jobs);
    content.resize(original);
    edits.push_back(std::move(e));
  }
  return edits;
}

void RunUntraced(const Args& args, std::vector<GeneratedModule> corpus,
                 Outcome* out) {
  const std::int64_t files = CorpusFiles(corpus);
  const std::uint64_t base_digest = NoCacheDigest(corpus, 1);
  const std::vector<EditRef> edits = Edits(&corpus, args.seed, kJobs);
  const DriverOptions opts = Options(kJobs, args.out_dir + "/cache");
  // Per edit, one round per block, with its set-up and timed seconds.
  std::vector<std::vector<Round>> rounds(edits.size());
  std::vector<std::vector<double>> setup_s(edits.size()), seconds(edits.size());
  Budget budget(args.seconds);
  for (int block = 0; budget.More(); ++block) {
    for (std::size_t e = 0; e < edits.size(); ++e) {
      std::vector<double> setup;
      const Round round = RunRound(&corpus, edits[e].edit, opts, &setup);
      double timed = setup.front();
      for (const PassRun& p : round.pass) timed += p.seconds;
      budget.Spend(timed);
      CheckRound(round, base_digest, edits[e].digest, files,
                 "block " + std::to_string(block) + " module " +
                     std::to_string(edits[e].edit.module),
                 out);
      rounds[e].push_back(round);
      setup_s[e].push_back(setup.front());
      seconds[e].push_back(timed);
    }
  }
  ClearDir(opts.cache_dir);

  std::vector<Round> fast;
  std::vector<double> fast_setup_s;
  for (std::size_t e = 0; e < edits.size(); ++e) {
    fast.push_back(rounds[e][Fastest(seconds[e])]);
    fast_setup_s.push_back(setup_s[e][Fastest(setup_s[e])]);
  }
  std::vector<double> all_ms;
  for (int p = 0; p < kNumPasses; ++p) {
    const std::vector<double> s = PassSeconds(fast, static_cast<Pass>(p));
    out->Add(std::string("analyze_") + kPassNames[p] + "_ms",
             Quantile(s, 0.5) * 1e3, "ms", static_cast<std::int64_t>(s.size()));
    for (double v : s) all_ms.push_back(v * 1e3);
  }
  const auto n = static_cast<std::int64_t>(all_ms.size());
  out->Add("op_p50_ms", Quantile(all_ms, 0.5), "ms", n);
  out->Add("op_p90_ms", Quantile(all_ms, 0.9), "ms", n);
  out->Add("work_per_s",
           static_cast<double>(files * n) / (Sum(all_ms) / 1e3), "1/s", n);
  out->Add("setup_s", Quantile(fast_setup_s, 0.5), "s",
           static_cast<std::int64_t>(fast_setup_s.size()));
  out->Add("blocks", static_cast<double>(rounds.front().size()), "count");
}

// --- traced composition ----------------------------------------------------

// The composed pass's stages; together they should cover the pass span.
const char* const kStages[] = {
    "driver.sort",       "driver.hash",        "driver.cache_load",
    "ast.parse",         "metrics.functions",  "rules.traceability",
    "rules.misra",       "rules.style",        "driver.cache_store",
    "metrics.merge_module", "rules.unit_design", "rules.defensive"};

std::map<std::string, double> StageSeconds() {
  std::map<std::string, double> s;
  for (const char* stage : kStages) s[stage] = SpanTotalOf(stage).seconds;
  for (const char* extra : {"lex.lex", "driver.pass"}) {
    s[extra] = SpanTotalOf(extra).seconds;
  }
  return s;
}

bool IsHeader(const std::string& path) {
  using certkit::support::EndsWith;
  return EndsWith(path, ".h") || EndsWith(path, ".hpp") ||
         EndsWith(path, ".cuh");
}

// What the driver's worker does for one file that missed the cache.
certkit::driver::FileAnalysis AnalyzeFile(const SourceInput& in,
                                          const std::string& module,
                                          const DriverOptions& opts,
                                          std::int64_t op,
                                          certkit::ast::SourceFileModel* model) {
  namespace rules = certkit::rules;
  certkit::ast::ParseOptions parse_opts;
  parse_opts.lex_options.keep_comments = opts.keep_comments;
  {
    // Lexing again on its own: ParseSource lexes inside, so parse self
    // time is the parse span minus this one.
    Span span("lex.lex", op);
    (void)certkit::lex::Lex(in.path, in.content, parse_opts.lex_options);
  }
  {
    Span span("ast.parse", op);
    *model = certkit::ast::ParseSource(in.path, in.content, parse_opts).value();
  }
  certkit::driver::FileAnalysis fa;
  fa.path = in.path;
  fa.module = module;
  {
    Span span("metrics.functions", op);
    fa.functions = certkit::metrics::ComputeFileFunctionMetrics(*model);
  }
  {
    Span span("rules.traceability", op);
    fa.trace = rules::AnalyzeTraceability(*model);
  }
  {
    Span span("rules.misra", op);
    fa.misra = rules::CheckMisra(*model, opts.misra);
  }
  {
    Span span("rules.style", op);
    rules::StyleOptions style_opts;
    style_opts.max_line_length = opts.style_max_line_length;
    style_opts.is_header = IsHeader(fa.path);
    fa.style = rules::CheckStyle(*model, in.content, style_opts);
  }
  for (const auto& f : fa.style.report.findings) {
    if (certkit::support::StartsWith(f.rule_id, "STYLE-") &&
        certkit::support::Contains(f.rule_id, "NAME")) {
      ++fa.naming_violations;
    }
  }
  fa.naming_entities = static_cast<std::int64_t>(
      model->types.size() + model->functions.size() + model->globals.size() +
      model->macros.size());
  fa.explicit_casts = static_cast<std::int64_t>(model->casts.size());
  fa.text = in.content;
  return fa;
}

// One pass composed from the modules' entry points, serial, in the
// driver's order: every file (sorted by path), then every module.
struct ComposedPass {
  std::int64_t hits = 0, misses = 0;
  std::int64_t bytes_read = 0;  // sizes of the cache entries Load hit
};

std::int64_t FileBytes(const std::string& path) {
  std::error_code ec;
  const std::uintmax_t bytes = fs::file_size(path, ec);
  return ec ? 0 : static_cast<std::int64_t>(bytes);
}

ComposedPass ComposePass(std::vector<SourceInput> inputs,
                         const DriverOptions& opts, std::int64_t op) {
  ComposedPass r;
  Span pass_span("driver.pass", op);
  const ArtifactCache cache(opts.cache_dir,
                            certkit::driver::OptionsFingerprint(opts));
  {
    Span span("driver.sort", op);
    std::sort(inputs.begin(), inputs.end(),
              [](const SourceInput& a, const SourceInput& b) {
                return a.path < b.path;
              });
  }
  struct ModuleFiles {
    std::vector<certkit::ast::SourceFileModel> models;
    std::vector<std::vector<certkit::metrics::FunctionMetrics>> functions;
    std::vector<std::pair<std::string, std::uint64_t>> hashes;
  };
  std::map<std::string, ModuleFiles> modules;
  for (const SourceInput& in : inputs) {
    const std::string module = fs::path(in.path).begin()->string();
    std::uint64_t hash = 0;
    {
      Span span("driver.hash", op);
      hash = certkit::driver::HashBytes(in.content);
    }
    certkit::driver::FileAnalysis fa;
    certkit::ast::SourceFileModel model;
    bool hit = false;
    {
      Span span("driver.cache_load", op);
      hit = cache.Load(in.path, module, in.content, hash, &fa, &model);
    }
    if (hit) {
      ++r.hits;
      r.bytes_read += FileBytes(cache.EntryPathForHash(in.path, module, hash));
    } else {
      ++r.misses;
      fa = AnalyzeFile(in, module, opts, op, &model);
      Span span("driver.cache_store", op);
      cache.Store(in.content, fa, model);
    }
    ModuleFiles& m = modules[module];
    m.models.push_back(std::move(model));
    m.functions.push_back(std::move(fa.functions));
    m.hashes.emplace_back(in.path, hash);
  }
  for (auto& [name, files] : modules) {
    certkit::metrics::ModuleAnalysis module;
    {
      Span span("metrics.merge_module", op);
      module = certkit::metrics::MergeModule(name, std::move(files.models),
                                             std::move(files.functions));
    }
    std::uint64_t key = 0;
    {
      Span span("driver.hash", op);
      key = cache.ModulePhaseKey(name, files.hashes);
    }
    certkit::rules::UnitDesignResult unit_design;
    certkit::rules::DefensiveResult defensive;
    bool hit = false;
    {
      Span span("driver.cache_load", op);
      hit = cache.LoadModulePhase(key, &unit_design, &defensive);
    }
    if (hit) {
      r.bytes_read += FileBytes(cache.ModulePhaseEntryPath(key));
      continue;
    }
    {
      Span span("rules.unit_design", op);
      unit_design = certkit::rules::AnalyzeUnitDesign(module);
    }
    {
      Span span("rules.defensive", op);
      defensive = certkit::rules::AnalyzeDefensive(module.files);
    }
    Span span("driver.cache_store", op);
    cache.StoreModulePhase(key, unit_design, defensive);
  }
  return r;
}

void RunTraced(const Args& args, std::vector<GeneratedModule> corpus,
               Outcome* out) {
  const std::int64_t files = CorpusFiles(corpus);
  std::int64_t corpus_bytes = 0;
  for (const auto& m : corpus) {
    for (const auto& f : m.files) {
      corpus_bytes += static_cast<std::int64_t>(f.content.size());
    }
  }
  const std::uint64_t base_digest = NoCacheDigest(corpus, 1);
  const std::vector<EditRef> edits = Edits(&corpus, args.seed, kJobs);
  const DriverOptions wide = Options(kJobs, args.out_dir + "/cache_n");
  const DriverOptions one = Options(1, args.out_dir + "/cache_1");
  const DriverOptions composed = Options(1, args.out_dir + "/cache_c");

  std::vector<Round> wide_rounds, one_rounds;
  std::map<std::string, double> stage[kNumPasses];
  std::int64_t bytes_written = 0, bytes_read = 0;
  std::int64_t op = 0;
  // One round per module edit: a fixed amount of work, so the counts
  // repeat exactly.
  const auto traced_rounds = static_cast<std::int64_t>(edits.size());
  for (std::size_t index = 0; index < edits.size(); ++index) {
    const EditRef& e = edits[index];
    const Edit& edit = e.edit;
    const std::uint64_t dirty_digest = e.digest;
    wide_rounds.push_back(RunRound(&corpus, edit, wide, nullptr));
    one_rounds.push_back(RunRound(&corpus, edit, one, nullptr));
    std::string& content = EditedContent(&corpus, edit);
    const std::size_t original = content.size();
    const std::string label = "round " + std::to_string(index);
    CheckRound(wide_rounds.back(), base_digest, dirty_digest, files,
               label + " jobs " + std::to_string(kJobs), out);
    CheckRound(one_rounds.back(), base_digest, dirty_digest, files,
               label + " jobs 1", out);

    ClearDir(composed.cache_dir);
    ComposedPass c[kNumPasses];
    for (int p = 0; p < kNumPasses; ++p) {
      if (p == kDirty) content += edit.text;
      const std::map<std::string, double> before = StageSeconds();
      std::vector<SourceInput> inputs =
          certkit::corpus::CorpusSourceInputs(corpus);
      c[p] = ComposePass(std::move(inputs), composed, op++);
      for (const auto& [name, seconds] : StageSeconds()) {
        stage[p][name] += seconds - before.at(name);
      }
      if (p == kCold) bytes_written += DirBytes(composed.cache_dir);
      if (p == kWarm) bytes_read += c[p].bytes_read;
    }
    content.resize(original);
    if (c[kCold].misses != files || c[kWarm].hits != files ||
        c[kDirty].misses != 1) {
      out->Fail(kNumPasses, label + ": composed passes hit the cache "
                                    "differently from the driver");
    }
  }
  ClearDir(wide.cache_dir);
  ClearDir(one.cache_dir);
  ClearDir(composed.cache_dir);

  const auto rounds = static_cast<double>(traced_rounds);
  const auto ms = [&](Pass p, const char* name) {
    return stage[p].at(name) / rounds * 1e3;
  };
  out->Add("lex.ms", ms(kCold, "lex.lex"), "ms", traced_rounds);
  out->Add("lex.mb_per_s",
           static_cast<double>(corpus_bytes) * rounds /
               stage[kCold].at("lex.lex") / 1e6,
           "MB/s", traced_rounds);
  out->Add("ast.parse_self_ms", ms(kCold, "ast.parse") - ms(kCold, "lex.lex"),
           "ms", traced_rounds);
  for (const char* name :
       {"metrics.functions", "rules.traceability", "rules.misra",
        "rules.style", "rules.unit_design", "rules.defensive",
        "driver.cache_store", "metrics.merge_module"}) {
    out->Add(std::string(name) + "_ms", ms(kCold, name), "ms", traced_rounds);
  }
  out->Add("driver.cache_bytes_written",
           static_cast<double>(bytes_written) / rounds, "bytes");
  out->Add("driver.cache_load_ms", ms(kWarm, "driver.cache_load"), "ms",
           traced_rounds);
  out->Add("driver.cache_bytes_read", static_cast<double>(bytes_read) / rounds,
           "bytes");
  out->Add("driver.hash_ms", ms(kWarm, "driver.hash"), "ms", traced_rounds);

  const auto total = [](const std::vector<Round>& rs, Pass p) {
    return Sum(PassSeconds(rs, p));
  };
  out->Add("driver.parallel_eff.cold",
           total(one_rounds, kCold) / (kJobs * total(wide_rounds, kCold)),
           "ratio");
  out->Add("driver.parallel_eff.warm",
           total(one_rounds, kWarm) / (kJobs * total(wide_rounds, kWarm)),
           "ratio");
  // Attribution: the composed stages over the composed pass spans. Tracing
  // overhead: the composed passes (less the extra lexing) over the CPU time
  // of the driver's one-job passes, which run on two threads because the
  // driver's pool always has a worker besides the caller.
  double attributed = 0.0, spans = 0.0, one_cpu = 0.0;
  for (int p = 0; p < kNumPasses; ++p) {
    for (const char* name : kStages) attributed += stage[p].at(name);
    spans += stage[p].at("driver.pass") - stage[p].at("lex.lex");
    for (const Round& r : one_rounds) one_cpu += r.pass[p].cpu_seconds;
  }
  out->Add("driver.attributed_pct", 100.0 * attributed / spans, "%");
  out->Add("driver.trace_overhead_pct", 100.0 * (spans / one_cpu - 1.0), "%");
  for (int p = 0; p < kNumPasses; ++p) {
    const PassRun& r = wide_rounds.front().pass[p];
    const std::string pass = kPassNames[p];
    out->Add("driver.cache_hits." + pass, static_cast<double>(r.hits),
             "count");
    out->Add("driver.cache_misses." + pass, static_cast<double>(r.misses),
             "count");
    out->Add("lex.bytes_lexed." + pass, static_cast<double>(r.bytes_lexed),
             "bytes");
  }
}

}  // namespace

void RunAnalysisCorpus(const Args& args, Outcome* out) {
  // Input generation, excluded from set-up and from every pass.
  std::vector<GeneratedModule> corpus = certkit::corpus::GenerateCorpus(
      certkit::corpus::ApolloLikeSpec(), args.seed);
  if (args.trace) {
    RunTraced(args, std::move(corpus), out);
  } else {
    RunUntraced(args, std::move(corpus), out);
  }
}

}  // namespace ledger
