// Seeded mutation test for the analysis cache's binary decoders
// (DeserializeArtifact and DeserializeModulePhase) and for the frame that
// guards every persisted blob.
//
// On disk the frame digest rejects damaged entries before a decoder sees
// them, so this test feeds mutated payloads to the decoders directly. The
// seeds are the payloads the three-file cache fixture and one generated
// corpus file write. A support::Xoshiro256 stream mutates them with bit
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

struct Seeds {
  std::vector<std::string> artifacts;
  std::vector<std::string> texts;  // the text each artifact was written from
  std::vector<std::string> module_phases;
};

const Seeds& DecoderSeeds() {
  static const Seeds seeds = [] {
    std::vector<SourceInput> sources = FixtureSources();
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
  ASSERT_EQ(seeds.artifacts.size(), 4u);
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
