// Long-lived serve loop tests: the `certkit serve --stdin` request/response
// contract (stats and shutdown kinds, malformed-line recovery, EOF vs
// shutdown termination) and the determinism of `stats` responses at a
// fixed seed with timing off — the telemetry snapshot must be a pure
// function of the workload, byte for byte.
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "campaign/service.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "support/json.h"
#include "timing/timing.h"

namespace campaign = certkit::campaign;
namespace obs = certkit::obs;
namespace support = certkit::support;

namespace {

// Quiesce every process-global the stats snapshot reads, so each loop run
// starts from the same telemetry state.
void ResetTelemetry() {
  obs::MetricsRegistry::Instance().ResetAll();
  certkit::timing::TimerRegistry::Instance().ResetAll();
  obs::ResetFlightRecorderForTesting();
}

std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

TEST(ServeStdin, ParserAcceptsTelemetryKinds) {
  std::vector<campaign::ServiceRequest> requests;
  std::string error;
  ASSERT_TRUE(campaign::ParseServiceRequests(
      "{\"id\":\"s1\",\"kind\":\"stats\"}\n"
      "{\"id\":\"s2\",\"kind\":\"shutdown\"}\n",
      &requests, &error))
      << error;
  ASSERT_EQ(requests.size(), 2u);
  EXPECT_EQ(requests[0].kind, "stats");
  EXPECT_EQ(requests[1].kind, "shutdown");
  EXPECT_FALSE(campaign::ParseServiceRequests(
      "{\"id\":\"x\",\"kind\":\"telemetry\"}", &requests, &error));
}

TEST(ServeStdin, LoopAnswersStatsRecoversFromGarbageAndStopsOnShutdown) {
  ResetTelemetry();
  campaign::CampaignService service(1);
  std::istringstream in(
      "{\"id\":\"c1\",\"kind\":\"campaign\",\"seed\":3,\"population\":2,"
      "\"generations\":1,\"ticks\":4}\n"
      "\n"  // blank lines are skipped, not answered
      "{\"id\":\"s1\",\"kind\":\"stats\"}\n"
      "this is not json\n"
      "{\"id\":\"bye\",\"kind\":\"shutdown\"}\n"
      "{\"id\":\"after\",\"kind\":\"stats\"}\n");  // never reached
  std::ostringstream out;
  const campaign::ServeLoopResult result =
      campaign::RunServeLoop(in, out, &service);

  EXPECT_EQ(result.requests, 4);  // campaign, stats, malformed, shutdown
  EXPECT_EQ(result.failed, 1);    // the garbage line
  EXPECT_TRUE(result.shutdown);

  const std::vector<std::string> lines = Lines(out.str());
  ASSERT_EQ(lines.size(), 4u);
  EXPECT_NE(lines[0].find("\"id\":\"c1\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"ok\":true"), std::string::npos);
  EXPECT_NE(lines[1].find("\"id\":\"s1\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"stats\""), std::string::npos);
  // Malformed lines get a synthetic id and keep the loop alive.
  EXPECT_NE(lines[2].find("\"id\":\"-\""), std::string::npos);
  EXPECT_NE(lines[2].find("\"ok\":false"), std::string::npos);
  EXPECT_NE(lines[3].find("\"id\":\"bye\""), std::string::npos);
  EXPECT_NE(lines[3].find("\"status\":\"shutdown\""), std::string::npos);

  // The request after shutdown stayed in the stream, unconsumed past the
  // shutdown line's getline.
  EXPECT_EQ(out.str().find("\"id\":\"after\""), std::string::npos);
}

TEST(ServeStdin, EofEndsLoopWithoutShutdownFlag) {
  ResetTelemetry();
  campaign::CampaignService service(1);
  std::istringstream in("{\"id\":\"s1\",\"kind\":\"stats\"}\n");
  std::ostringstream out;
  const campaign::ServeLoopResult result =
      campaign::RunServeLoop(in, out, &service);
  EXPECT_EQ(result.requests, 1);
  EXPECT_EQ(result.failed, 0);
  EXPECT_FALSE(result.shutdown);
}

// A request line longer than kServeMaxLineBytes gets one error response,
// whatever it holds — here a valid stats request padded with 2 MiB of JSON
// whitespace — and the loop serves the next line.
TEST(ServeStdin, OverlongLineIsAnsweredOnceAndSkipped) {
  ResetTelemetry();
  campaign::CampaignService service(1);
  std::istringstream in("{\"id\":\"big\"," + std::string(2u << 20, ' ') +
                        "\"kind\":\"stats\"}\n"
                        "{\"id\":\"s1\",\"kind\":\"stats\"}\n");
  std::ostringstream out;
  const campaign::ServeLoopResult result =
      campaign::RunServeLoop(in, out, &service);
  EXPECT_EQ(result.requests, 2);
  EXPECT_EQ(result.failed, 1);
  EXPECT_FALSE(result.shutdown);

  const std::vector<std::string> lines = Lines(out.str());
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("\"id\":\"-\""), std::string::npos);
  EXPECT_NE(lines[0].find("longer than " +
                          std::to_string(campaign::kServeMaxLineBytes)),
            std::string::npos)
      << lines[0];
  EXPECT_NE(lines[1].find("\"id\":\"s1\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"ok\":true"), std::string::npos);
}

TEST(ServeStdin, MultiRequestArrayOnOneLineIsMalformed) {
  ResetTelemetry();
  campaign::CampaignService service(1);
  std::istringstream in(
      "[{\"id\":\"a\",\"kind\":\"stats\"},{\"id\":\"b\",\"kind\":\"stats\"}]"
      "\n");
  std::ostringstream out;
  const campaign::ServeLoopResult result =
      campaign::RunServeLoop(in, out, &service);
  EXPECT_EQ(result.requests, 1);
  EXPECT_EQ(result.failed, 1);
  EXPECT_NE(out.str().find("\"ok\":false"), std::string::npos);
}

// The headline determinism contract: with timing off, a serve session's
// complete output — campaign responses *and* stats telemetry — is a pure
// function of the request stream and seeds. One warmup run first absorbs
// process-lifetime one-shots (coverage probe declaration) that record real
// flight events.
TEST(ServeStdin, StatsAreDeterministicAtFixedSeedWithTimingOff) {
  const std::string script =
      "{\"id\":\"c1\",\"kind\":\"campaign\",\"seed\":11,\"population\":2,"
      "\"generations\":1,\"ticks\":4}\n"
      "{\"id\":\"s1\",\"kind\":\"stats\"}\n"
      "{\"id\":\"bye\",\"kind\":\"shutdown\"}\n";
  const auto run_once = [&script]() {
    ResetTelemetry();
    campaign::CampaignService service(1, /*include_timing=*/false);
    std::istringstream in(script);
    std::ostringstream out;
    const campaign::ServeLoopResult result =
        campaign::RunServeLoop(in, out, &service);
    EXPECT_EQ(result.failed, 0);
    EXPECT_TRUE(result.shutdown);
    return out.str();
  };
  (void)run_once();  // warmup
  const std::string first = run_once();
  const std::string second = run_once();
  EXPECT_EQ(first, second);
  EXPECT_NE(first.find("\"stats\""), std::string::npos);
  EXPECT_NE(first.find("\"recorder\""), std::string::npos);
}

TEST(ServeStdin, StatsJsonShapeAndTimingGating) {
  ResetTelemetry();
  // Timing off: recorder occupancy numbers that depend on live thread
  // scheduling (ring count) and wall-clock-derived histogram fields are
  // absent; structure and deterministic counters are present.
  const std::string without = campaign::ServiceStatsJson(false);
  support::JsonValue root;
  std::string error;
  ASSERT_TRUE(support::ParseJson(without, &root, &error)) << error;
  const support::JsonValue* stats = root.Find("stats");
  ASSERT_NE(stats, nullptr);
  const support::JsonValue* recorder = stats->Find("recorder");
  ASSERT_NE(recorder, nullptr);
  std::int64_t capacity = 0;
  ASSERT_TRUE(support::JsonGetI64(*recorder, "ring_capacity", &capacity,
                                  &error))
      << error;
  EXPECT_EQ(capacity, obs::kFlightRingCapacity);
  EXPECT_NE(recorder->Find("events"), nullptr);
  EXPECT_NE(recorder->Find("dropped"), nullptr);
  EXPECT_EQ(recorder->Find("rings"), nullptr);
  EXPECT_NE(stats->Find("metrics"), nullptr);
  EXPECT_EQ(without.find("\"p50\""), std::string::npos);

  const std::string with = campaign::ServiceStatsJson(true);
  ASSERT_TRUE(support::ParseJson(with, &root, &error)) << error;
  EXPECT_NE(root.Find("stats")->Find("recorder")->Find("rings"), nullptr);
}

}  // namespace
