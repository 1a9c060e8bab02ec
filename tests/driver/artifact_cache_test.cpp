// Correctness tests for the content-hash artifact cache: a warm run must be
// bit-identical to a cold run (any cached/fresh mix, any --jobs count), a
// changed byte must invalidate exactly its own artifact, and damaged or
// mismatched entries must silently recompute — the cache can only ever make
// analysis faster, never different.
#include <bit>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "corpus/analyze.h"
#include "corpus/generator.h"
#include "driver/analysis_driver.h"
#include "driver/artifact_cache.h"
#include "gtest/gtest.h"
#include "obs/metrics.h"
#include "support/io.h"
#include "support/rng.h"

namespace certkit::driver {
namespace {

namespace fs = std::filesystem;

std::int64_t Counter(const char* name) {
  return obs::MetricsRegistry::Instance().GetCounter(name).value();
}

// A small three-module codebase exercising every serialized payload:
// functions, types, globals, casts, macros, directives, comments with REQ
// tags (traceability), MISRA/style findings, and a spliced string literal
// (owned lexeme storage).
std::vector<SourceInput> TestSources() {
  return {
      {"alpha/a.cc",
       "// REQ-001: alpha entry\n"
       "#include \"alpha/a.h\"\n"
       "#define ALPHA_MAX 10\n"
       "int g_alpha_count = 0;\n"
       "static const char* kSpliced = \"ab\\\ncd\";\n"
       "int AlphaWork(int x) {\n"
       "  if (x > ALPHA_MAX) { return x; }\n"
       "  int y = (int)x + static_cast<int>(x);\n"
       "  return y;\n"
       "}\n"},
      {"alpha/b.cc",
       "// REQ-002: alpha helper\n"
       "struct AlphaState { int a; int b; };\n"
       "void AlphaReset(AlphaState* s) {\n"
       "  if (s) { s->a = 0; s->b = 0; }\n"
       "  goto done;\n"
       "done:\n"
       "  return;\n"
       "}\n"},
      {"beta/c.cc",
       "namespace beta {\n"
       "int Twice(int v) { return v + v; }\n"
       "int Use() { Twice(2); return Twice(3); }\n"
       "}  // namespace beta\n"},
  };
}

class ArtifactCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::temp_directory_path() /
            ("certkit_cache_test_" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name())))
               .string();
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  CodebaseAnalysis Analyze(int jobs, const std::string& cache_dir,
                           bool cache_gc = false) {
    DriverOptions options;
    options.jobs = jobs;
    options.cache_dir = cache_dir;
    options.cache_gc = cache_gc;
    AnalysisDriver driver(options);
    auto analysis = driver.AnalyzeSources(TestSources());
    EXPECT_TRUE(analysis.ok()) << analysis.status().ToString();
    return std::move(analysis).value();
  }

  std::vector<fs::path> CacheEntries(const char* extension) const {
    std::vector<fs::path> entries;
    if (!fs::exists(dir_)) return entries;
    for (const auto& e : fs::directory_iterator(dir_)) {
      if (e.path().extension() == extension) entries.push_back(e.path());
    }
    return entries;
  }

  std::string dir_;
};

TEST_F(ArtifactCacheTest, WarmRunIsBitIdenticalToColdRun) {
  const std::int64_t hits0 = Counter("driver/cache_hits");
  const std::int64_t misses0 = Counter("driver/cache_misses");

  const CodebaseAnalysis cold = Analyze(1, dir_);
  EXPECT_EQ(Counter("driver/cache_hits") - hits0, 0);
  EXPECT_EQ(Counter("driver/cache_misses") - misses0, 3);
  EXPECT_EQ(CacheEntries(".ckart").size(), 3u);
  EXPECT_EQ(CacheEntries(".ckmod").size(), 2u);  // alpha, beta

  const CodebaseAnalysis warm = Analyze(1, dir_);
  EXPECT_EQ(Counter("driver/cache_hits") - hits0, 3);
  EXPECT_EQ(Counter("driver/cache_misses") - misses0, 3);
  EXPECT_EQ(DigestAnalysis(warm), DigestAnalysis(cold));
}

TEST_F(ArtifactCacheTest, UncachedAndCachedAnalysesAgree) {
  const CodebaseAnalysis plain = Analyze(1, "");
  const CodebaseAnalysis cold = Analyze(1, dir_);
  const CodebaseAnalysis warm = Analyze(1, dir_);
  EXPECT_EQ(DigestAnalysis(cold), DigestAnalysis(plain));
  EXPECT_EQ(DigestAnalysis(warm), DigestAnalysis(plain));
}

TEST_F(ArtifactCacheTest, JobCountDoesNotAffectCachedResults) {
  const CodebaseAnalysis cold = Analyze(1, dir_);
  const CodebaseAnalysis warm4 = Analyze(4, dir_);
  const CodebaseAnalysis warm2 = Analyze(2, dir_);
  EXPECT_EQ(DigestAnalysis(warm4), DigestAnalysis(cold));
  EXPECT_EQ(DigestAnalysis(warm2), DigestAnalysis(cold));
}

TEST_F(ArtifactCacheTest, OneByteFlipInvalidatesExactlyOneArtifact) {
  Analyze(1, dir_);
  const std::int64_t hits0 = Counter("driver/cache_hits");
  const std::int64_t misses0 = Counter("driver/cache_misses");

  auto sources = TestSources();
  sources[1].content[sources[1].content.size() - 2] = ';';  // flip one byte
  DriverOptions options;
  options.jobs = 1;
  options.cache_dir = dir_;
  AnalysisDriver driver(options);
  auto analysis = driver.AnalyzeSources(sources);
  ASSERT_TRUE(analysis.ok()) << analysis.status().ToString();

  EXPECT_EQ(Counter("driver/cache_hits") - hits0, 2);
  EXPECT_EQ(Counter("driver/cache_misses") - misses0, 1);
  // The changed file selects a new entry name; the stale one stays orphaned.
  EXPECT_EQ(CacheEntries(".ckart").size(), 4u);
}

TEST_F(ArtifactCacheTest, CorruptEntriesAreSilentlyRecomputed) {
  const CodebaseAnalysis cold = Analyze(1, dir_);
  const std::int64_t misses0 = Counter("driver/cache_misses");

  // Damage every file entry a different way: truncation, garbage bytes,
  // and emptiness. Every one must miss and recompute, and the result must
  // still be bit-identical.
  auto entries = CacheEntries(".ckart");
  ASSERT_EQ(entries.size(), 3u);
  {
    std::error_code ec;
    fs::resize_file(entries[0], fs::file_size(entries[0]) / 2, ec);
    ASSERT_FALSE(ec);
    std::FILE* f = std::fopen(entries[1].string().c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fputs("garbage-overwrite", f);
    std::fclose(f);
    fs::resize_file(entries[2], 0, ec);
    ASSERT_FALSE(ec);
  }

  const CodebaseAnalysis recomputed = Analyze(1, dir_);
  EXPECT_EQ(Counter("driver/cache_misses") - misses0, 3);
  EXPECT_EQ(DigestAnalysis(recomputed), DigestAnalysis(cold));

  // The recompute repaired the entries: a third run is all hits again.
  const std::int64_t hits1 = Counter("driver/cache_hits");
  const CodebaseAnalysis warm = Analyze(1, dir_);
  EXPECT_EQ(Counter("driver/cache_hits") - hits1, 3);
  EXPECT_EQ(DigestAnalysis(warm), DigestAnalysis(cold));
}

TEST_F(ArtifactCacheTest, CorruptModuleEntriesAreSilentlyRecomputed) {
  const CodebaseAnalysis cold = Analyze(1, dir_);
  for (const auto& e : CacheEntries(".ckmod")) {
    std::error_code ec;
    fs::resize_file(e, 3, ec);
    ASSERT_FALSE(ec);
  }
  const CodebaseAnalysis warm = Analyze(1, dir_);
  EXPECT_EQ(DigestAnalysis(warm), DigestAnalysis(cold));
}

TEST_F(ArtifactCacheTest, ChangedOptionsDoNotReuseStaleArtifacts) {
  Analyze(1, dir_);
  const std::int64_t hits0 = Counter("driver/cache_hits");
  const std::int64_t misses0 = Counter("driver/cache_misses");

  DriverOptions options;
  options.jobs = 1;
  options.cache_dir = dir_;
  options.style_max_line_length = 100;  // different options fingerprint
  AnalysisDriver driver(options);
  auto analysis = driver.AnalyzeSources(TestSources());
  ASSERT_TRUE(analysis.ok());
  EXPECT_EQ(Counter("driver/cache_hits") - hits0, 0);
  EXPECT_EQ(Counter("driver/cache_misses") - misses0, 3);
}

TEST_F(ArtifactCacheTest, SerializeRoundTripsExactly) {
  const CodebaseAnalysis cold = Analyze(1, dir_);
  for (const FileAnalysis& fa : cold.files) {
    const ast::SourceFileModel& model =
        cold.modules[fa.module_index].files[fa.file_index];
    const std::string bytes = SerializeArtifact(fa, model);
    FileAnalysis fa2;
    ast::SourceFileModel model2;
    ASSERT_TRUE(DeserializeArtifact(bytes, fa.text, &fa2, &model2))
        << fa.path;
    // module/file indices are merge-assigned, not serialized.
    fa2.module_index = fa.module_index;
    fa2.file_index = fa.file_index;
    EXPECT_EQ(SerializeArtifact(fa2, model2), bytes) << fa.path;
    EXPECT_EQ(fa2.text, fa.text);
    ASSERT_EQ(model2.lexed.tokens.size(), model.lexed.tokens.size());
    for (std::size_t i = 0; i < model2.lexed.tokens.size(); ++i) {
      EXPECT_EQ(model2.lexed.tokens[i].text, model.lexed.tokens[i].text);
      EXPECT_EQ(model2.lexed.tokens[i].kind, model.lexed.tokens[i].kind);
    }
  }
}

TEST_F(ArtifactCacheTest, DeserializeRejectsTruncationAtEveryLength) {
  const CodebaseAnalysis cold = Analyze(1, dir_);
  const FileAnalysis& fa = cold.files.front();
  const ast::SourceFileModel& model =
      cold.modules[fa.module_index].files[fa.file_index];
  const std::string bytes = SerializeArtifact(fa, model);
  // Every strict prefix must fail cleanly (no crash, no partial success).
  for (std::size_t len = 0; len < bytes.size();
       len += std::max<std::size_t>(1, bytes.size() / 257)) {
    FileAnalysis fa2;
    ast::SourceFileModel model2;
    EXPECT_FALSE(DeserializeArtifact(std::string_view(bytes).substr(0, len),
                                     fa.text, &fa2, &model2))
        << "prefix length " << len;
  }
}

// --- cache garbage collection --------------------------------------------
// Entry names are content keys, so nothing ever overwrites a stale entry:
// every edit, rename, or option change orphans the old one. --cache-gc
// prunes exactly the entries the pruning run did not produce or reuse.

TEST_F(ArtifactCacheTest, GcRemovesOrphanedEntriesAndKeepsLiveOnes) {
  Analyze(1, dir_);
  ASSERT_EQ(CacheEntries(".ckart").size(), 3u);
  ASSERT_EQ(CacheEntries(".ckmod").size(), 2u);

  // Edit one file: its old per-file entry and its module's old phase entry
  // both go stale.
  auto sources = TestSources();
  sources[1].content += "// trailing comment\n";
  DriverOptions options;
  options.jobs = 1;
  options.cache_dir = dir_;
  AnalysisDriver driver(options);
  ASSERT_TRUE(driver.AnalyzeSources(sources).ok());
  EXPECT_EQ(CacheEntries(".ckart").size(), 4u);
  EXPECT_EQ(CacheEntries(".ckmod").size(), 3u);

  // A GC run over the ORIGINAL sources prunes the edited variant's entries
  // and keeps every entry it used itself.
  const std::int64_t removed0 = Counter("driver/cache_gc_removed");
  const std::int64_t hits0 = Counter("driver/cache_hits");
  const CodebaseAnalysis before = Analyze(1, dir_, /*cache_gc=*/true);
  EXPECT_EQ(Counter("driver/cache_gc_removed") - removed0, 2);
  EXPECT_EQ(Counter("driver/cache_hits") - hits0, 3);  // all live, all hit
  EXPECT_EQ(CacheEntries(".ckart").size(), 3u);
  EXPECT_EQ(CacheEntries(".ckmod").size(), 2u);

  // The survivors are genuinely live: a warm re-run hits every file and
  // produces the identical analysis.
  const std::int64_t hits1 = Counter("driver/cache_hits");
  const CodebaseAnalysis after = Analyze(1, dir_);
  EXPECT_EQ(Counter("driver/cache_hits") - hits1, 3);
  EXPECT_EQ(DigestAnalysis(after), DigestAnalysis(before));
}

TEST_F(ArtifactCacheTest, GcLeavesForeignFilesAlone) {
  Analyze(1, dir_);
  const fs::path foreign = fs::path(dir_) / "README.txt";
  {
    std::FILE* f = std::fopen(foreign.string().c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("not a cache entry\n", f);
    std::fclose(f);
  }
  Analyze(1, dir_, /*cache_gc=*/true);
  EXPECT_TRUE(fs::exists(foreign));
}

TEST_F(ArtifactCacheTest, GcOnColdCacheRemovesNothing) {
  const std::int64_t removed0 = Counter("driver/cache_gc_removed");
  Analyze(1, dir_, /*cache_gc=*/true);
  EXPECT_EQ(Counter("driver/cache_gc_removed") - removed0, 0);
  EXPECT_EQ(CacheEntries(".ckart").size(), 3u);
  EXPECT_EQ(CacheEntries(".ckmod").size(), 2u);
}

TEST_F(ArtifactCacheTest, DisabledCacheNeverTouchesDisk) {
  const std::int64_t hits0 = Counter("driver/cache_hits");
  const std::int64_t misses0 = Counter("driver/cache_misses");
  Analyze(1, "");
  EXPECT_EQ(Counter("driver/cache_hits") - hits0, 0);
  EXPECT_EQ(Counter("driver/cache_misses") - misses0, 0);
  EXPECT_FALSE(fs::exists(dir_));
}

// --- damaged entries never reach a report --------------------------------

// One bit flipped in any byte of any stored entry must miss: the frame
// digest covers the whole payload. After each flip the driver recomputes
// (and so repairs) the entry, and the analysis digests equal to the cold
// run's.
TEST_F(ArtifactCacheTest, EveryOneBitFlipOfAnEntryMisses) {
  const std::uint64_t cold = DigestAnalysis(Analyze(1, dir_));
  const ArtifactCache cache(dir_, OptionsFingerprint(DriverOptions{}));
  std::vector<std::pair<std::string, std::function<bool()>>> entries;
  std::map<std::string, std::vector<std::pair<std::string, std::uint64_t>>>
      modules;
  for (const SourceInput& in : TestSources()) {
    const std::string module = in.path.substr(0, in.path.find('/'));
    modules[module].emplace_back(in.path, HashBytes(in.content));
    entries.emplace_back(cache.EntryPath(in.path, module, in.content),
                         [&cache, in, module] {
                           FileAnalysis fa;
                           ast::SourceFileModel model;
                           return cache.Load(in.path, module, in.content, &fa,
                                             &model);
                         });
  }
  for (const auto& [module, files] : modules) {
    const std::uint64_t key = cache.ModulePhaseKey(module, files);
    entries.emplace_back(cache.ModulePhaseEntryPath(key), [&cache, key] {
      rules::UnitDesignResult unit_design;
      rules::DefensiveResult defensive;
      return cache.LoadModulePhase(key, &unit_design, &defensive);
    });
  }
  ASSERT_EQ(entries.size(), 5u);
  std::size_t flips = 0;
  for (const auto& [path, load] : entries) {
    ASSERT_TRUE(load()) << path;
    const std::string original = support::ReadFile(path).value();
    for (std::size_t i = 0; i < original.size(); ++i, ++flips) {
      std::string damaged = original;
      damaged[i] = static_cast<char>(damaged[i] ^ (1 << (i % 8)));
      ASSERT_TRUE(support::WriteFile(path, damaged).ok());
      EXPECT_FALSE(load()) << path << " byte " << i;
      EXPECT_EQ(DigestAnalysis(Analyze(1, dir_)), cold)
          << path << " byte " << i;
    }
    EXPECT_TRUE(load()) << path;  // the last recompute stored it again
  }
  EXPECT_GT(flips, 1000u);
}

// The rules index tokens by a function's ranges without checks, so a model
// whose ranges leave its token stream, or run out of order, must not
// decode, even when the stream is empty.
TEST_F(ArtifactCacheTest, DeserializeRejectsFunctionRangesOutsideTokens) {
  const CodebaseAnalysis cold = Analyze(1, "");
  const FileAnalysis& fa = cold.files.front();
  const ast::SourceFileModel& model =
      cold.modules[fa.module_index].files[fa.file_index];
  ASSERT_FALSE(model.functions.empty());
  FileAnalysis out;
  ast::SourceFileModel decoded;
  ASSERT_TRUE(DeserializeArtifact(SerializeArtifact(fa, model), fa.text,
                                  &out, &decoded));

  ast::SourceFileModel empty = model;
  empty.lexed.tokens.clear();
  empty.functions.front().body_begin = 1000000;
  empty.functions.front().body_end = 2000000;
  EXPECT_FALSE(DeserializeArtifact(SerializeArtifact(fa, empty), fa.text,
                                   &out, &decoded));

  ast::SourceFileModel late_paren = model;
  ast::FunctionModel& fn = late_paren.functions.front();
  fn.lparen = fn.body_begin + 1;
  EXPECT_FALSE(DeserializeArtifact(SerializeArtifact(fa, late_paren),
                                   fa.text, &out, &decoded));
}

// --- the content key -------------------------------------------------------
// A hit returns the analysis stored under the key of the file's bytes, so
// an edit that kept the key would bring back a stale analysis.

// `size` pseudo-random bytes.
std::string KeyText(std::size_t size) {
  support::Xoshiro256 rng(size);
  std::string text(size, '\0');
  for (char& c : text) c = static_cast<char>(rng.UniformInt(0, 255));
  return text;
}

// The key is XXH64 with seed 0: the empty input gives the published value.
// The 300-byte value was recorded when the key was introduced; a change to
// either renames every cache entry.
TEST(ContentKeyTest, KeyIsXxh64) {
  EXPECT_EQ(HashBytes(""), 0xef46db3751d8e999ull);
  std::string text(300, '\0');
  for (std::size_t i = 0; i < text.size(); ++i) {
    text[i] = static_cast<char>(i * 131 + (i >> 3));
  }
  EXPECT_EQ(HashBytes(text), 0xf561504d654672a1ull);
}

TEST(ContentKeyTest, EverySingleByteChangeMovesTheKey) {
  // 256 bytes: eight 32-byte stripes. The short texts take each tail path.
  for (std::size_t size : {1, 3, 4, 7, 8, 12, 31, 32, 33, 45, 63, 64, 256}) {
    const std::string text = KeyText(size);
    const std::uint64_t key = HashBytes(text);
    for (std::size_t i = 0; i < size; ++i) {
      std::string changed = text;
      for (int delta = 1; delta < 256; ++delta) {
        changed[i] = static_cast<char>(text[i] + delta);
        ASSERT_NE(HashBytes(changed), key)
            << "size " << size << " byte " << i << " +" << delta;
      }
    }
  }
}

// A word-wise FNV multiply never carries a change in a word's top byte below
// bit 56, so edits of the top bytes of two consecutive words collide for 255
// of the 65,025 value pairs. The key must not.
TEST(ContentKeyTest, TopBytesOfConsecutiveWordsNeverCollide) {
  const std::string text = KeyText(256);
  const std::uint64_t key = HashBytes(text);
  for (std::size_t at = 7; at + 8 < text.size(); at += 8) {
    std::string changed = text;
    for (int a = 1; a < 256; ++a) {
      changed[at] = static_cast<char>(text[at] + a);
      for (int b = 1; b < 256; ++b) {
        changed[at + 8] = static_cast<char>(text[at + 8] + b);
        ASSERT_NE(HashBytes(changed), key)
            << "bytes " << at << " +" << a << " and " << at + 8 << " +" << b;
      }
    }
  }
}

TEST(ContentKeyTest, SingleBitFlipsChangeHalfTheKey) {
  const std::string text = KeyText(256);
  const std::uint64_t key = HashBytes(text);
  int changed_bits = 0;
  for (std::size_t bit = 0; bit < 8 * text.size(); ++bit) {
    std::string flipped = text;
    flipped[bit / 8] = static_cast<char>(flipped[bit / 8] ^ (1 << bit % 8));
    changed_bits += std::popcount(HashBytes(flipped) ^ key);
  }
  EXPECT_GE(changed_bits, 28 * 8 * static_cast<int>(text.size()));
}

// --- golden: the bytes every entry name and digest is built from ----------
// The two analysis digests were recorded before the cached records moved to
// field lists; a change to them means the analysis itself moved. The
// fingerprint, entry name and module key move with the schema version,
// which is part of the fingerprint that names every entry and keys every
// module phase. They were re-recorded at schema 3, where an entry token's
// lead byte became its token id, and at schema 4, where the parser's
// outer-class member counts and named-cast target text were fixed (at
// schema 3: 0x3a977fab90eaf8b5, c32d7d14b705863e, 0x4a417809729b6d21); the
// fixes leave both digests as they were.

TEST(ArtifactCacheGoldenTest, DigestsKeysAndEntryNamesAreUnchanged) {
  DriverOptions options;
  options.jobs = 2;
  auto fixture = AnalysisDriver(options).AnalyzeSources(TestSources());
  ASSERT_TRUE(fixture.ok()) << fixture.status().ToString();
  EXPECT_EQ(DigestAnalysis(fixture.value()), 0xe562a9f40ae14fd1ull);

  auto corpus = corpus::AnalyzeGeneratedCorpus(
      corpus::GenerateCorpus(corpus::ApolloLikeSpec(), 26262), 4, "");
  ASSERT_TRUE(corpus.ok()) << corpus.status().ToString();
  EXPECT_EQ(DigestAnalysis(corpus.value()), 0xffe51d1579675657ull);

  const std::uint64_t fingerprint = OptionsFingerprint(DriverOptions{});
  EXPECT_EQ(fingerprint, 0xa6d2b55062892298ull);
  const ArtifactCache cache("cache", fingerprint);
  EXPECT_EQ(fs::path(cache.EntryPathForHash("alpha/a.cc", "alpha",
                                            0x0123456789abcdefull))
                .filename()
                .string(),
            "0d24555f1dd8c38c.ckart");
  EXPECT_EQ(cache.ModulePhaseKey("alpha", {{"alpha/a.cc", 0x1111ull},
                                           {"alpha/b.cc", 0x2222ull}}),
            0xee187f69fe060323ull);
}

}  // namespace
}  // namespace certkit::driver
