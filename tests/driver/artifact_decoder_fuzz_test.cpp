// Seeded mutation test for the analysis cache's binary decoders
// (DeserializeArtifact and DeserializeModulePhase) and for the frame that
// guards every persisted blob.
//
// On disk the frame digest rejects damaged entries before a decoder sees
// them, so this test feeds mutated payloads to the decoders directly. The
// seeds are the payloads the three-file cache fixture, a file that takes
// every slow path of the token layout, and one generated corpus file
// write. A support::Xoshiro256 stream mutates them with bit
// flips, truncations, splices, ten-0xff varints and counts just past the
// bytes left, a fixed budget of kMutantsPerDecoder mutants per decoder.
// The invariants:
//   * the decoder neither crashes nor throws (the ASan and UBSan trees add
//     "and reports nothing"); a rejection returns false;
//   * an accepted model keeps every function's token range inside its
//     token stream, survives the per-file metrics, the unit-design and the
//     defensive analyses, and reaches a serialize -> deserialize ->
//     serialize fixpoint (so does an accepted module phase).
// The frame is tested exhaustively on small payloads of each of the five
// magics: every single-byte change and every truncation is rejected.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include "corpus/generator.h"
#include "driver/analysis_driver.h"
#include "driver/artifact_cache.h"
#include "metrics/module_metrics.h"
#include "rules/defensive.h"
#include "rules/unit_design.h"
#include "support/io.h"
#include "support/rng.h"

namespace certkit::driver {
namespace {

namespace fs = std::filesystem;

constexpr int kMutantsPerDecoder = 2500;

// The artifact cache test's fixture: functions, types, globals, casts,
// macros, directives, REQ comments, findings and a spliced string literal.
std::vector<SourceInput> FixtureSources() {
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

// A file whose tokens take every slow path of the entry's token layout:
// CRLF line ends, a line past column 128, a gap of 64+ bytes, a lexeme of
// 128+ bytes, 64+ blank lines (a two-byte line delta), a spliced literal
// (an inline lexeme), more than 64 KiB of text, and tokens in its last 8
// bytes (no newline at the end).
SourceInput SlowPathSource() {
  std::string text =
      "// REQ-003: the slow paths\r\n"
      "#define WIDE_LIMIT 128\r\n"
      "static const char* kSpliced = \"ab\\\r\ncd\";\r\n"
      "static const char* kLong = \"" + std::string(130, 'x') + "\";\r\n"
      "int g_before_gap = 1;" + std::string(70, ' ') + "int g_after_gap = 2;\r\n"
      "int Wide(int a) { return a";
  for (int i = 0; i < 40; ++i) text += " + a";
  text += "; }\r\n";
  for (int i = 0; i < 70; ++i) text += "\r\n";
  for (int i = 0; text.size() <= 64 * 1024; ++i) {
    const std::string n = std::to_string(i);
    text += "int Filler" + n + "(int v) {\r\n  if (v > " + n +
            ") {\r\n    return v - " + n + ";\r\n  }\r\n  return v;\r\n}\r\n";
  }
  text += "int Last() { return 0; }";
  return {"beta/slow_paths.cc", text};
}

struct Seeds {
  std::vector<std::string> artifacts;
  std::vector<std::string> texts;  // the text each artifact was written from
  std::vector<std::string> module_phases;
};

const Seeds& DecoderSeeds() {
  static const Seeds seeds = [] {
    std::vector<SourceInput> sources = FixtureSources();
    sources.push_back(SlowPathSource());
    const auto corpus =
        corpus::GenerateCorpus(corpus::ApolloLikeSpec(), 26262);
    const corpus::GeneratedFile& generated = corpus.front().files.front();
    sources.push_back({generated.path, generated.content});
    DriverOptions options;
    options.jobs = 1;
    auto analyzed = AnalysisDriver(options).AnalyzeSources(sources);
    EXPECT_TRUE(analyzed.ok()) << analyzed.status().ToString();
    Seeds s;
    const CodebaseAnalysis& analysis = analyzed.value();
    for (const FileAnalysis& fa : analysis.files) {
      s.artifacts.push_back(SerializeArtifact(
          fa, analysis.modules[fa.module_index].files[fa.file_index]));
      s.texts.push_back(fa.text);
    }
    for (std::size_t m = 0; m < analysis.modules.size(); ++m) {
      s.module_phases.push_back(SerializeModulePhase(analysis.unit_design[m],
                                                     analysis.defensive[m]));
    }
    return s;
  }();
  return seeds;
}

class Mutator {
 public:
  explicit Mutator(std::uint64_t seed) : rng_(seed) {}

  std::string Mutate(std::string bytes, const std::string& donor) {
    const std::int64_t rounds = rng_.UniformInt(1, 3);
    for (std::int64_t r = 0; r < rounds && !bytes.empty(); ++r) {
      switch (rng_.UniformInt(0, 5)) {
        case 0:
        case 1:
          bytes[Index(bytes.size())] ^= static_cast<char>(1 << Index(8));
          break;
        case 2:
          bytes.resize(Index(bytes.size()));
          break;
        case 3:
          Splice(&bytes, donor);
          break;
        case 4:
          bytes.replace(Index(bytes.size()), 0, std::string(10, '\xff'));
          break;
        default:
          CountPastEnd(&bytes);
          break;
      }
    }
    return bytes;
  }

 private:
  std::size_t Index(std::size_t n) {
    return static_cast<std::size_t>(
        rng_.UniformInt(0, static_cast<std::int64_t>(n) - 1));
  }

  // Replaces a span of `bytes` with a slice of `donor`.
  void Splice(std::string* bytes, const std::string& donor) {
    if (donor.empty()) return;
    const std::size_t from = Index(donor.size());
    const std::size_t length =
        Index(std::min<std::size_t>(donor.size() - from, 64) + 1);
    const std::size_t at = Index(bytes->size());
    const std::size_t cut =
        Index(std::min<std::size_t>(bytes->size() - at, 64) + 1);
    bytes->replace(at, cut, donor, from, length);
  }

  // Overwrites the bytes at a random position with a LEB128 count one to
  // three larger than the bytes that follow it.
  void CountPastEnd(std::string* bytes) {
    const std::size_t at = Index(bytes->size());
    std::uint64_t count = bytes->size() - at + Index(3) + 1;
    std::string varint;
    for (; count >= 0x80; count >>= 7) {
      varint.push_back(static_cast<char>((count & 0x7F) | 0x80));
    }
    varint.push_back(static_cast<char>(count));
    bytes->replace(at, std::min(varint.size(), bytes->size() - at), varint);
  }

  support::Xoshiro256 rng_;
};

// Runs kMutantsPerDecoder mutants of `seeds` through `decode`, which gets
// the index of the mutated seed and returns whether the decoder accepted
// the mutant (and then checks it).
int Fuzz(const std::vector<std::string>& seeds, std::uint64_t seed,
         const std::function<bool(std::size_t, const std::string&)>& decode) {
  Mutator mutator(seed);
  int accepted = 0;
  for (int i = 0; i < kMutantsPerDecoder; ++i) {
    const std::size_t pick = static_cast<std::size_t>(i) % seeds.size();
    const std::string mutant =
        mutator.Mutate(seeds[pick], seeds[(pick + 1) % seeds.size()]);
    bool ok = false;
    EXPECT_NO_THROW(ok = decode(pick, mutant)) << "mutant " << i;
    accepted += ok ? 1 : 0;
  }
  return accepted;
}

// The invariants of an accepted model, its analyses and its fixpoint.
void ExpectUsable(const FileAnalysis& analysis,
                  const ast::SourceFileModel& model) {
  EXPECT_EQ(ast::ValidateTokenRanges(model), "");
  const std::vector<ast::SourceFileModel> files = {model};
  metrics::ComputeFileFunctionMetrics(model);
  rules::AnalyzeUnitDesign(metrics::AnalyzeModule("fuzz", files));
  rules::AnalyzeDefensive(files);
  const std::string once = SerializeArtifact(analysis, model);
  FileAnalysis analysis2;
  ast::SourceFileModel model2;
  ASSERT_TRUE(DeserializeArtifact(once, analysis.text, &analysis2, &model2));
  EXPECT_EQ(SerializeArtifact(analysis2, model2), once);
}

TEST(ArtifactDecoderFuzzTest, ArtifactMutantsAreRejectedOrUsable) {
  const Seeds& seeds = DecoderSeeds();
  ASSERT_EQ(seeds.artifacts.size(), 5u);
  const int accepted = Fuzz(
      seeds.artifacts, 26262, [&](std::size_t i, const std::string& mutant) {
        FileAnalysis analysis;
        ast::SourceFileModel model;
        const bool ok =
            DeserializeArtifact(mutant, seeds.texts[i], &analysis, &model);
        if (ok) ExpectUsable(analysis, model);
        return ok;
      });
  // Most mutants hit a count, a size, an enum or a range and are refused;
  // the rest change a name or a line and must still be usable.
  EXPECT_GT(accepted, 0);
  EXPECT_LT(accepted, kMutantsPerDecoder);
}

TEST(ArtifactDecoderFuzzTest, ModulePhaseMutantsAreRejectedOrFixpoints) {
  const std::vector<std::string>& seeds = DecoderSeeds().module_phases;
  ASSERT_EQ(seeds.size(), 3u);
  const int accepted =
      Fuzz(seeds, 9, [](std::size_t, const std::string& mutant) {
        rules::UnitDesignResult unit_design;
        rules::DefensiveResult defensive;
        const bool ok =
            DeserializeModulePhase(mutant, &unit_design, &defensive);
        if (ok) {
          const std::string once = SerializeModulePhase(unit_design, defensive);
          EXPECT_TRUE(DeserializeModulePhase(once, &unit_design, &defensive));
          EXPECT_EQ(SerializeModulePhase(unit_design, defensive), once);
        }
        return ok;
      });
  EXPECT_LT(accepted, kMutantsPerDecoder);
}

// The slow-path file round-trips exactly: its entry bytes reach a fixpoint
// and every token comes back with its kind, text, line and column.
TEST(ArtifactDecoderFuzzTest, SlowPathTokensRoundTripExactly) {
  DriverOptions options;
  options.jobs = 1;
  auto analyzed = AnalysisDriver(options).AnalyzeSources({SlowPathSource()});
  ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
  const CodebaseAnalysis& analysis = analyzed.value();
  ASSERT_EQ(analysis.files.size(), 1u);
  const FileAnalysis& fa = analysis.files.front();
  const ast::SourceFileModel& model = analysis.modules.front().files.front();
  const std::vector<lex::Token>& tokens = model.lexed.tokens;
  ASSERT_GT(fa.text.size(), 64u * 1024);
  // The fixture reaches every slow path.
  const std::string& text = *model.lexed.buffer;
  const char* slice_end = text.data();
  std::ptrdiff_t max_gap = 0;
  std::size_t max_size = 0, inline_lexemes = 0;
  std::int32_t max_column = 0, max_line_step = 0, line = 0;
  for (const lex::Token& t : tokens) {
    if (t.text.data() >= text.data() &&
        t.text.data() < text.data() + text.size()) {
      max_gap = std::max(max_gap, t.text.data() - slice_end);
      slice_end = t.text.data() + t.text.size();
    } else {
      ++inline_lexemes;
    }
    max_size = std::max(max_size, t.text.size());
    max_column = std::max(max_column, t.column);
    max_line_step = std::max(max_line_step, t.line - line);
    line = t.line;
  }
  EXPECT_GE(max_gap, 64);
  EXPECT_GE(max_size, 128u);
  EXPECT_GE(max_column, 128);
  EXPECT_GE(max_line_step, 64);
  EXPECT_GT(inline_lexemes, 0u);
  EXPECT_EQ(slice_end, text.data() + text.size());  // tokens end the text

  const std::string once = SerializeArtifact(fa, model);
  FileAnalysis fa2;
  ast::SourceFileModel model2;
  ASSERT_TRUE(DeserializeArtifact(once, fa.text, &fa2, &model2));
  EXPECT_EQ(SerializeArtifact(fa2, model2), once);
  ASSERT_EQ(model2.lexed.tokens.size(), tokens.size());
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const lex::Token& a = tokens[i];
    const lex::Token& b = model2.lexed.tokens[i];
    ASSERT_EQ(b.kind, a.kind) << "token " << i;
    ASSERT_EQ(b.text, a.text) << "token " << i;
    ASSERT_EQ(b.line, a.line) << "token " << i;
    ASSERT_EQ(b.column, a.column) << "token " << i;
  }
}

// A decoded token carries the id the lexer stamped: read from the lead byte
// on the fast and the slow path, recomputed for an inline lexeme.
TEST(ArtifactDecoderFuzzTest, DecodedTokensCarryTheirIds) {
  DriverOptions options;
  options.jobs = 1;
  auto analyzed = AnalysisDriver(options).AnalyzeSources({SlowPathSource()});
  ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
  const FileAnalysis& fa = analyzed.value().files.front();
  const ast::SourceFileModel& model =
      analyzed.value().modules.front().files.front();
  FileAnalysis fa2;
  ast::SourceFileModel model2;
  ASSERT_TRUE(DeserializeArtifact(SerializeArtifact(fa, model), fa.text, &fa2,
                                  &model2));
  std::vector<const lex::Token*> lexed, decoded;
  for (const lex::Token& t : model.lexed.tokens) lexed.push_back(&t);
  for (const lex::Token& t : model2.lexed.tokens) decoded.push_back(&t);
  for (std::size_t d = 0; d < model.lexed.directives.size(); ++d) {
    for (const lex::Token& t : model.lexed.directives[d].tokens) {
      lexed.push_back(&t);
    }
    for (const lex::Token& t : model2.lexed.directives[d].tokens) {
      decoded.push_back(&t);
    }
  }
  ASSERT_EQ(decoded.size(), lexed.size());
  std::size_t spelled = 0;
  for (std::size_t i = 0; i < lexed.size(); ++i) {
    ASSERT_EQ(decoded[i]->id, lexed[i]->id) << "token " << i;
    ASSERT_EQ(decoded[i]->id, lex::IdOf(decoded[i]->kind, decoded[i]->text))
        << "token " << i;
    spelled += decoded[i]->id >= lex::kIdFirstSpelled;
  }
  EXPECT_GT(spelled, lexed.size() / 4);
}

// --- the frame -----------------------------------------------------------

const char* const kMagics[] = {"CKA2", "CKM2", "CKC2", "CKP2", "CKS2"};

TEST(FrameTest, EverySingleByteChangeAndTruncationIsRejected) {
  // Empty, tail-only, one word, and words plus a tail.
  const std::string payloads[] = {"", "x", "payload", "8 bytes!",
                                  "{\"schema\":1,\"ok\":true}"};
  for (const char* magic : kMagics) {
    for (const std::string& payload : payloads) {
      const std::string blob = support::FrameBlob(magic, 1, payload);
      ASSERT_EQ(blob.size(), support::kFrameHeaderSize + payload.size());
      std::string_view out;
      ASSERT_TRUE(support::UnframeBlob(magic, 1, blob, &out));
      EXPECT_EQ(out, payload);
      EXPECT_FALSE(support::UnframeBlob(magic, 2, blob, &out)) << magic;
      for (std::size_t i = 0; i < blob.size(); ++i) {
        for (int delta = 1; delta < 256; ++delta) {
          std::string changed = blob;
          changed[i] = static_cast<char>(changed[i] + delta);
          EXPECT_FALSE(support::UnframeBlob(magic, 1, changed, &out))
              << magic << " '" << payload << "' byte " << i << " +" << delta;
        }
      }
      for (std::size_t size = 0; size < blob.size(); ++size) {
        EXPECT_FALSE(support::UnframeBlob(magic, 1, blob.substr(0, size),
                                          &out))
            << magic << " '" << payload << "' cut to " << size;
      }
    }
  }
}

TEST(FrameTest, ReadFrameChecksWhatWriteFramePublished) {
  const fs::path dir = fs::temp_directory_path() / "certkit_frame_test";
  std::error_code ec;
  fs::remove_all(dir, ec);
  const std::string path = (dir / "entry.ckart").string();
  ASSERT_TRUE(support::WriteFrame(path, "CKA2", 1, "payload").ok());
  std::string bytes;
  std::string_view payload;
  ASSERT_TRUE(support::ReadFrame(path, "CKA2", 1, &bytes, &payload).ok());
  EXPECT_EQ(payload, "payload");
  EXPECT_EQ(support::ReadFrame(path, "CKM2", 1, &bytes, &payload).code(),
            support::StatusCode::kParseError);
  EXPECT_EQ(support::ReadFrame((dir / "missing").string(), "CKA2", 1, &bytes,
                               &payload)
                .code(),
            support::StatusCode::kIoError);
  fs::remove_all(dir, ec);
}

}  // namespace
}  // namespace certkit::driver
