// Seeded mutation test for the two observability validators,
// ValidateFlightDump and ValidateChromeTrace. tools/trace_lint feeds them
// any file, so what they read is outside input.
//
// The seeds are a wall-clock flight dump taken after a short drive (so its
// histograms carry buckets and quantiles) and the drive's timed Chrome
// trace. A support::Xoshiro256 stream mutates them
// (tests/support/json_mutator.h) with dictionary tokens a validator must
// refuse or read exactly: 1e300, 2.5, -1, 2^63, null and "+inf". For
// kMutants mutants of each seed:
//   * the validator neither crashes nor throws (the ASan and UBSan trees
//     add "and reports nothing");
//   * a rejection returns false with a non-empty error.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "ad/pipeline.h"
#include "obs/flight_recorder.h"
#include "obs/flight_validate.h"
#include "obs/trace.h"
#include "obs/trace_validate.h"
#include "support/json.h"
#include "tests/support/json_mutator.h"

namespace certkit::obs {
namespace {

constexpr int kMutants = 2500;

const char* const kDictionary[] = {
    "1e300", "2.5", "-1", "9223372036854775808", "null", "\"+inf\""};

struct Seeds {
  std::string dump;
  std::string trace;
};

const Seeds& DriveSeeds() {
  static const Seeds seeds = [] {
    Seeds s;
    ResetFlightRecorderForTesting();
    SetFlightWallClock(true);
    SetTracingEnabled(true);
    {
      SpanCapture capture;
      adpilot::ApolloPilot pilot(adpilot::PilotConfig{});
      for (int t = 0; t < 4; ++t) pilot.Tick();
      s.trace = ChromeTraceJson({TraceTrack{"pilot", capture.Take()}},
                                /*include_timing=*/true);
    }
    SetTracingEnabled(false);
    s.dump = FlightDumpString(FlightDumpTrigger::kExplicit);
    SetFlightWallClock(false);
    return s;
  }();
  return seeds;
}

using Validator = bool (*)(const std::string&, std::string*);

// Runs kMutants mutants of `seed` through `validate` and checks the
// invariants. Returns how many mutants got past the JSON parser.
int Fuzz(const std::string& seed, std::uint64_t stream, Validator validate) {
  std::string error;
  EXPECT_TRUE(validate(seed, &error)) << error;
  const std::vector<std::string> pool = {DriveSeeds().dump,
                                         DriveSeeds().trace};
  fuzz::JsonMutator mutator(stream, kDictionary);
  int parsed = 0;
  for (int i = 0; i < kMutants; ++i) {
    const std::string mutant = mutator.Mutate(seed, pool);
    error.clear();
    bool accepted = false;
    try {
      accepted = validate(mutant, &error);
    } catch (const std::exception& e) {
      ADD_FAILURE() << "validator threw " << e.what() << " on " << mutant;
    }
    if (!accepted) {
      EXPECT_FALSE(error.empty()) << mutant;
    }
    support::JsonValue root;
    if (support::ParseJson(mutant, &root, &error)) ++parsed;
  }
  return parsed;
}

TEST(ValidatorFuzzTest, FlightDumps) {
  const std::string& dump = DriveSeeds().dump;
  ASSERT_NE(dump.find("\"buckets\":["), std::string::npos) << dump;
  EXPECT_GE(Fuzz(dump, 5, &ValidateFlightDump), kMutants / 10);
}

TEST(ValidatorFuzzTest, ChromeTraces) {
  EXPECT_GE(Fuzz(DriveSeeds().trace, 6, &ValidateChromeTrace),
            kMutants / 10);
}

}  // namespace
}  // namespace certkit::obs
