// Hostile and damaged records: each document below is well-formed JSON that
// used to parse and then kill the process once replayed — an uncaught
// contract violation (REQ-SCEN-001, the detector's 16-pixel grid, the fault
// injector's tick window), a std::length_error from reserving a negative
// tick count, or a double -> int cast past the int range (undefined
// behaviour, trapped by the UBSan tree). The record reader now rejects every
// one of them with a "field '<key>'" error instead, and the candidates the
// MutationScheduler breeds all pass the same validation.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "ad/safety/fault_injector.h"
#include "campaign/corpus_store.h"
#include "campaign/mutation.h"
#include "campaign/replay.h"
#include "support/check.h"
#include "support/fnv.h"

namespace certkit::campaign {
namespace {

// Seed-pool candidate 1: a 32x64 letterboxed detector input, 6 ticks and
// one fault, so every field the guards look at is present.
Candidate ValidCandidate() {
  MutationScheduler scheduler(2026, /*default_ticks=*/6);
  (void)scheduler.SeedCandidate(0);
  return scheduler.SeedCandidate(1);
}

// The guards only look at the candidate, so an artifact with an empty
// verdict and tick stream is enough.
std::string ArtifactJson(const Candidate& candidate) {
  ReplayArtifact artifact;
  artifact.candidate = candidate;
  return ReplayArtifactJson(artifact);
}

std::string Replace(std::string text, const std::string& from,
                    const std::string& to) {
  const std::size_t at = text.find(from);
  EXPECT_NE(at, std::string::npos) << "'" << from << "' not in " << text;
  return at == std::string::npos ? text : text.replace(at, from.size(), to);
}

void ExpectRejected(const std::string& json, const std::string& key) {
  ReplayArtifact parsed;
  std::string error;
  EXPECT_FALSE(ParseReplayArtifact(json, &parsed, &error)) << json;
  EXPECT_NE(error.find("field '" + key + "'"), std::string::npos) << error;
}

TEST(HostileRecordTest, TheUnmodifiedArtifactParses) {
  const Candidate candidate = ValidCandidate();
  ASSERT_EQ(candidate.faults.size(), 1u);
  ReplayArtifact parsed;
  std::string error;
  ASSERT_TRUE(ParseReplayArtifact(ArtifactJson(candidate), &parsed, &error))
      << error;
  EXPECT_EQ(CandidateJson(parsed.candidate), CandidateJson(candidate));
}

TEST(HostileRecordTest, CandidatesTheEvaluatorAbortsOnAreRejected) {
  using Mutation = std::function<void(Candidate*)>;
  const std::vector<std::pair<std::string, Mutation>> cases = {
      {"negative ticks", [](Candidate* c) { c->ticks = -1; }},
      {"ticks past the cap",
       [](Candidate* c) { c->ticks = kMaxCandidateTicks + 1; }},
      {"a billion ticks", [](Candidate* c) { c->ticks = 1000000000; }},
      {"detector side past the cap",
       [](Candidate* c) { c->detector_input_h = kMaxDetectorSide + 16; }},
      {"detector width past the cap",
       [](Candidate* c) { c->detector_input_w = 1 << 20; }},
      {"detector input off the 16-pixel grid",
       [](Candidate* c) {
         c->detector_input_h = 50;
         c->detector_input_w = 50;
       }},
      {"no lanes", [](Candidate* c) { c->scenario.num_lanes = 0; }},
      {"fault before tick 0",
       [](Candidate* c) { c->faults[0].onset_tick = -1; }},
      {"empty fault window",
       [](Candidate* c) { c->faults[0].duration_ticks = 0; }},
      {"fault window past INT64_MAX",
       [](Candidate* c) {
         c->faults[0].onset_tick = std::numeric_limits<std::int64_t>::max();
       }},
      {"bit-flip count beyond int",
       [](Candidate* c) {
         c->faults[0].kind = adpilot::FaultKind::kCanBitFlip;
         c->faults[0].magnitude = 1e12;
       }},
  };
  for (const auto& [name, mutate] : cases) {
    SCOPED_TRACE(name);
    Candidate candidate = ValidCandidate();
    mutate(&candidate);
    ExpectRejected(ArtifactJson(candidate), "candidate");
  }
}

TEST(HostileRecordTest, IntegersAreExactLiteralsNeverCastDoubles) {
  const std::string json = ArtifactJson(ValidCandidate());
  ExpectRejected(Replace(json, "\"detector_input\":[32,64]",
                         "\"detector_input\":[1e10,64]"),
                 "detector_input");
  ExpectRejected(Replace(json, "\"ticks\":6,", "\"ticks\":6.5,"), "ticks");
  ExpectRejected(Replace(json, "\"num_lanes\":2", "\"num_lanes\":2e9"),
                 "num_lanes");
  ExpectRejected(Replace(json, "\"onset\":3", "\"onset\":1e300"), "onset");
}

TEST(HostileRecordTest, CoverStatementIdsAreExactInts) {
  CorpusEntry entry;
  entry.candidate = ValidCandidate();
  entry.cover["yolo/conv.cc"].stmts = {3};
  const std::string json = CorpusEntryJson(entry);
  CorpusEntry parsed;
  std::string error;
  ASSERT_TRUE(ParseCorpusEntry(json, &parsed, &error)) << error;
  EXPECT_FALSE(ParseCorpusEntry(
      Replace(json, "\"stmts\":[3]", "\"stmts\":[1e300]"), &parsed, &error));
  EXPECT_NE(error.find("field 'stmts'"), std::string::npos) << error;
}

TEST(HostileRecordTest, FaultInjectorChecksTheSameContract) {
  adpilot::FaultSpec flips;
  flips.kind = adpilot::FaultKind::kCanBitFlip;
  flips.magnitude = 1e12;
  adpilot::FaultCampaignConfig config;
  config.faults = {flips};
  EXPECT_THROW(adpilot::FaultInjector{config},
               support::ContractViolation);
  config.faults[0].magnitude = 4.0;
  EXPECT_NO_THROW(adpilot::FaultInjector{config});
}

TEST(HostileRecordTest, BredCandidatesPassValidation) {
  for (const std::uint64_t seed : {1ull, 9ull, 2026ull}) {
    MutationScheduler scheduler(seed, /*default_ticks=*/25);
    std::vector<Candidate> pool;
    for (int i = 0; i < 12; ++i) pool.push_back(scheduler.SeedCandidate(i));
    for (std::size_t i = 0; i < 400; ++i) {
      pool.push_back(scheduler.Mutate(pool[(i * 7) % pool.size()]));
    }
    for (const Candidate& candidate : pool) {
      EXPECT_EQ(ValidateCandidate(candidate), "") << CandidateJson(candidate);
    }
  }
}

// The caps themselves are runnable: a candidate at both limits passes.
TEST(HostileRecordTest, CandidatesAtTheCapsPassValidation) {
  Candidate candidate = ValidCandidate();
  candidate.ticks = kMaxCandidateTicks;
  candidate.detector_input_h = kMaxDetectorSide;
  candidate.detector_input_w = kMaxDetectorSide;
  EXPECT_EQ(ValidateCandidate(candidate), "");
  ReplayArtifact parsed;
  std::string error;
  EXPECT_TRUE(ParseReplayArtifact(ArtifactJson(candidate), &parsed, &error))
      << error;
}

TEST(HostileRecordTest, DigestsPrintThroughOneHexHelper) {
  EXPECT_EQ(support::HexU64(0xDEADBEEF), "00000000deadbeef");
  EXPECT_EQ(HexU64(~std::uint64_t{0}), "ffffffffffffffff");
  std::uint64_t out = 0;
  EXPECT_FALSE(support::ParseHexU64("00000000DEADBEEF", &out));  // uppercase
  ASSERT_TRUE(ParseHexU64("00000000deadbeef", &out));
  EXPECT_EQ(out, 0xDEADBEEFu);
}

}  // namespace
}  // namespace certkit::campaign
