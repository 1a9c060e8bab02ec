// Seeded mutation test for the four persisted-record decoders:
// ParseReplayArtifact, ParseCorpusEntry, ParseCheckpoint and ParseShardDelta.
//
// On disk every payload but the replay artifact sits behind a frame digest,
// so random corruption of a file never reaches the record reader; this test
// feeds mutated payloads to the decoders directly. The seeds are the
// payloads a small real campaign emits. A support::Xoshiro256 stream mutates
// them with bit flips, truncations, splices and dictionary tokens (values a
// decoder must refuse: -1, 1e300, null, "", [] and a 17-digit hex string),
// a fixed budget of kMutantsPerDecoder mutants per decoder
// (tests/support/json_mutator.h). The invariants:
//   * the decoder neither crashes nor throws (the ASan and UBSan trees add
//     "and reports nothing");
//   * a rejection returns false with a non-empty error;
//   * an accepted document reaches an emit -> parse -> emit fixpoint, and
//     every candidate in it passes ValidateCandidate.
#include <gtest/gtest.h>

#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include "campaign/checkpoint.h"
#include "campaign/corpus_store.h"
#include "campaign/replay.h"
#include "campaign/runner.h"
#include "support/io.h"
#include "tests/support/json_mutator.h"

namespace certkit::campaign {
namespace {

namespace fs = std::filesystem;

constexpr int kMutantsPerDecoder = 2500;

const char* const kDictionary[] = {
    "-1", "1e300", "null", "\"\"", "[]", "\"0123456789abcdef0\""};

CampaignConfig FuzzConfig() {
  CampaignConfig config;
  config.seed = 9;
  config.jobs = 1;
  config.population = 3;
  config.generations = 2;
  config.ticks = 4;
  return config;
}

// The payloads a small campaign emits: its finding artifacts, the corpus
// entries it stores, its checkpoint, and one shard's delta.
struct Seeds {
  std::vector<std::string> artifacts;
  std::vector<std::string> entries;
  std::vector<std::string> checkpoints;
  std::vector<std::string> deltas;
};

const Seeds& CampaignSeeds() {
  static const Seeds seeds = [] {
    Seeds s;
    // One directory per test: ctest runs each case as its own process, in
    // parallel under -j, and each process removes its directory.
    const fs::path dir =
        fs::temp_directory_path() /
        ("certkit_record_decoder_fuzz_test_" +
         std::string(::testing::UnitTest::GetInstance()
                         ->current_test_info()
                         ->name()));
    std::error_code ec;
    fs::remove_all(dir, ec);
    CampaignConfig config = FuzzConfig();
    config.artifact_dir = (dir / "findings").string();
    config.checkpoint_dir = (dir / "checkpoint").string();
    CampaignState state = CampaignRunner::FreshState(config);
    CampaignRunner(config).RunFrom(&state);
    for (const auto& entry : fs::directory_iterator(config.artifact_dir)) {
      s.artifacts.push_back(support::ReadFile(entry.path().string()).value());
    }
    for (const CorpusEntry& entry :
         CorpusStore((dir / "checkpoint" / "corpus").string()).LoadAll()) {
      s.entries.push_back(CorpusEntryJson(entry));
    }
    // Generation wall-clock seconds differ per run; fix them so the mutants
    // are the same on every run.
    for (GenerationStats& stats : state.generations) stats.seconds = 0.25;
    s.checkpoints.push_back(CheckpointJson(config, state));
    CampaignConfig sharded = FuzzConfig();
    sharded.shard_count = 2;
    CampaignState shard_state = CampaignRunner::FreshState(sharded);
    s.deltas.push_back(ShardDeltaJson(
        sharded, CampaignRunner(sharded).RunShardGeneration(&shard_state)));
    fs::remove_all(dir, ec);
    return s;
  }();
  return seeds;
}

struct Tally {
  int accepted = 0;
  int field_errors = 0;  // rejected by the record reader, not the lexer
};

// Runs the mutants of `seeds` through `decode` and checks the invariants.
// `decode` returns false with an error, or true after checking the
// fixpoint and the decoded candidates itself.
Tally Fuzz(const std::vector<std::string>& seeds, std::uint64_t seed,
           const std::function<bool(const std::string&, std::string*)>&
               decode) {
  EXPECT_FALSE(seeds.empty());
  Tally tally;
  fuzz::JsonMutator mutator(seed, kDictionary);
  for (int i = 0; i < kMutantsPerDecoder && !seeds.empty(); ++i) {
    const std::string mutant =
        mutator.Mutate(seeds[static_cast<std::size_t>(i) % seeds.size()],
                       seeds);
    std::string error;
    bool accepted = false;
    try {
      accepted = decode(mutant, &error);
    } catch (const std::exception& e) {
      ADD_FAILURE() << "decoder threw " << e.what() << " on " << mutant;
    }
    if (accepted) {
      ++tally.accepted;
    } else {
      EXPECT_FALSE(error.empty()) << mutant;
      if (error.find("field '") != std::string::npos) ++tally.field_errors;
    }
  }
  return tally;
}

void ExpectValid(const Candidate& candidate) {
  EXPECT_EQ(ValidateCandidate(candidate), "") << CandidateJson(candidate);
}

// Most mutants stop at the JSON lexer; enough of them must get past it,
// to be accepted or rejected by a record reader, or the readers went
// untested. (The fixed budget accepts 2-4% and rejects ~25% by field.)
void ExpectReachedTheReader(const Tally& tally) {
  EXPECT_GE(tally.accepted, kMutantsPerDecoder / 100);
  EXPECT_GE(tally.field_errors, kMutantsPerDecoder / 10);
}

TEST(RecordDecoderFuzzTest, ReplayArtifacts) {
  const Tally tally = Fuzz(
      CampaignSeeds().artifacts, 1,
      [](const std::string& text, std::string* error) {
        ReplayArtifact artifact;
        if (!ParseReplayArtifact(text, &artifact, error)) return false;
        const std::string once = ReplayArtifactJson(artifact);
        ReplayArtifact again;
        EXPECT_TRUE(ParseReplayArtifact(once, &again, error)) << *error;
        EXPECT_EQ(ReplayArtifactJson(again), once);
        ExpectValid(artifact.candidate);
        return true;
      });
  ExpectReachedTheReader(tally);
}

TEST(RecordDecoderFuzzTest, CorpusEntries) {
  const Tally tally = Fuzz(
      CampaignSeeds().entries, 2,
      [](const std::string& text, std::string* error) {
        CorpusEntry entry;
        if (!ParseCorpusEntry(text, &entry, error)) return false;
        const std::string once = CorpusEntryJson(entry);
        CorpusEntry again;
        EXPECT_TRUE(ParseCorpusEntry(once, &again, error)) << *error;
        EXPECT_EQ(CorpusEntryJson(again), once);
        ExpectValid(entry.candidate);
        return true;
      });
  ExpectReachedTheReader(tally);
}

TEST(RecordDecoderFuzzTest, Checkpoints) {
  const CampaignConfig config = FuzzConfig();
  const std::uint64_t fingerprint = ConfigFingerprint(config);
  const Tally tally = Fuzz(
      CampaignSeeds().checkpoints, 3,
      [&](const std::string& text, std::string* error) {
        CampaignState state;
        bool mismatch = false;
        if (!ParseCheckpoint(text, fingerprint, &state, &mismatch, error)) {
          return false;
        }
        const std::string once = CheckpointJson(config, state);
        CampaignState again;
        EXPECT_TRUE(
            ParseCheckpoint(once, fingerprint, &again, &mismatch, error))
            << *error;
        EXPECT_EQ(CheckpointJson(config, again), once);
        for (const Candidate& candidate : state.corpus) ExpectValid(candidate);
        return true;
      });
  ExpectReachedTheReader(tally);
}

TEST(RecordDecoderFuzzTest, ShardDeltas) {
  CampaignConfig config = FuzzConfig();
  config.shard_count = 2;
  const Tally tally = Fuzz(
      CampaignSeeds().deltas, 4,
      [&](const std::string& text, std::string* error) {
        ShardDelta delta;
        std::uint64_t fingerprint = 0;
        if (!ParseShardDelta(text, &delta, &fingerprint, error)) return false;
        const std::string once = ShardDeltaJson(config, delta);
        ShardDelta again;
        EXPECT_TRUE(ParseShardDelta(once, &again, &fingerprint, error))
            << *error;
        EXPECT_EQ(ShardDeltaJson(config, again), once);
        return true;
      });
  ExpectReachedTheReader(tally);
}

}  // namespace
}  // namespace certkit::campaign
