// Rejection suite for the independent flight-dump validator: every check
// the validator claims to make is exercised with a document that violates
// exactly that check, plus accept-paths for the minimal and full shapes.
//
// The documents are built by string surgery on a known-good skeleton so
// each test names precisely one defect (the same style as the Chrome-trace
// validator's tests).
#include <string>

#include <gtest/gtest.h>

#include "obs/flight_validate.h"

namespace obs = certkit::obs;

namespace {

// A minimal structurally-valid dump: one thread, three event shapes, one
// histogram with wall-clock fields present and coherent.
std::string GoodDump() {
  return R"({"flight_dump":{"schema":1,)"
         R"("trigger":{"kind":"signal","signal":6,"name":"SIGABRT"},)"
         R"("last_completed_stage":"planning","safety_state":"limp_home",)"
         R"("events_recorded":3,"events_dropped":0,)"
         R"("artifact":"artifacts/candidate_7.json",)"
         R"("threads":[{"ring":0,"events":[)"
         R"({"seq":1,"type":"stage_begin","stage":"planning","tick":4},)"
         R"({"seq":2,"type":"monitor","monitor":"deadline","severity":1,)"
         R"("handled":true,"tick":4},)"
         R"({"seq":5,"type":"safety_state","state":"limp_home",)"
         R"("from":"nominal","transition":1}]}],)"
         R"("metrics":{"counters":{"safety/violations":1},)"
         R"("gauges":{"service/queue_depth":0},)"
         R"("histograms":{"tick/duration":{"count":3,"bounds":[1,2,4],)"
         R"("buckets":[1,1,1,0],"sum":5.5,"min":0.5,"max":3.0,)"
         R"("p50":2,"p90":4,"p99":4}}}}})";
}

// Applies one find/replace to the good dump; the needle must exist.
std::string Mutate(const std::string& from, const std::string& to) {
  std::string doc = GoodDump();
  const std::size_t at = doc.find(from);
  EXPECT_NE(at, std::string::npos) << "bad test: needle '" << from << "'";
  doc.replace(at, from.size(), to);
  return doc;
}

void ExpectInvalid(const std::string& doc, const std::string& why) {
  std::string error;
  EXPECT_FALSE(obs::ValidateFlightDump(doc, &error)) << why;
  EXPECT_FALSE(error.empty()) << why;
}

TEST(FlightValidate, AcceptsGoodDump) {
  std::string error;
  EXPECT_TRUE(obs::ValidateFlightDump(GoodDump(), &error)) << error;
}

TEST(FlightValidate, AcceptsMinimalDump) {
  // No artifact, no events, timing-off histogram (no buckets/quantiles).
  const std::string doc =
      R"({"flight_dump":{"schema":1,"trigger":{"kind":"explicit"},)"
      R"("last_completed_stage":"none","safety_state":"nominal",)"
      R"("events_recorded":0,"events_dropped":0,"threads":[],)"
      R"("metrics":{"counters":{},"gauges":{},)"
      R"("histograms":{"tick/duration":{"count":0,"bounds":[1]}}}}})";
  std::string error;
  EXPECT_TRUE(obs::ValidateFlightDump(doc, &error)) << error;
}

TEST(FlightValidate, RejectsNonJson) {
  ExpectInvalid("not json at all", "unparseable input");
  ExpectInvalid(R"({"traceEvents":[]})", "wrong root key");
}

TEST(FlightValidate, RejectsWrongSchemaVersion) {
  ExpectInvalid(Mutate(R"("schema":1)", R"("schema":2)"),
                "future schema must not validate");
}

TEST(FlightValidate, RejectsMalformedTrigger) {
  ExpectInvalid(
      Mutate(R"("trigger":{"kind":"signal","signal":6,"name":"SIGABRT"})",
             R"("trigger":{"kind":"meteor"})"),
      "unknown trigger kind");
  ExpectInvalid(
      Mutate(R"("trigger":{"kind":"signal","signal":6,"name":"SIGABRT"})",
             R"("trigger":{"kind":"signal"})"),
      "signal trigger without signal/name");
  ExpectInvalid(
      Mutate(R"("trigger":{"kind":"signal","signal":6,"name":"SIGABRT"},)",
             ""),
      "missing trigger");
}

TEST(FlightValidate, RejectsUnknownHeadlineNames) {
  ExpectInvalid(Mutate(R"("last_completed_stage":"planning")",
                       R"("last_completed_stage":"teleportation")"),
                "unknown stage name");
  ExpectInvalid(Mutate(R"("safety_state":"limp_home")",
                       R"("safety_state":"panicking")"),
                "unknown safety state");
}

TEST(FlightValidate, RejectsNegativeCounters) {
  ExpectInvalid(Mutate(R"("events_dropped":0)", R"("events_dropped":-1)"),
                "negative drop counter");
}

TEST(FlightValidate, RejectsNonStringArtifact) {
  ExpectInvalid(Mutate(R"("artifact":"artifacts/candidate_7.json")",
                       R"("artifact":17)"),
                "artifact must be a path string");
}

TEST(FlightValidate, RejectsBrokenSequenceClock) {
  ExpectInvalid(Mutate(R"("seq":5,"type":"safety_state")",
                       R"("seq":2,"type":"safety_state")"),
                "non-monotone seq within a thread");
  ExpectInvalid(Mutate(R"("seq":1,"type":"stage_begin")",
                       R"("seq":0,"type":"stage_begin")"),
                "seq 0 marks an empty slot, never a dumped event");
}

TEST(FlightValidate, RejectsUnknownEventVocabulary) {
  ExpectInvalid(Mutate(R"("type":"stage_begin")", R"("type":"warp_begin")"),
                "unknown event type");
  ExpectInvalid(Mutate(R"("stage":"planning")", R"("stage":"warp")"),
                "unknown stage in event");
  ExpectInvalid(Mutate(R"("monitor":"deadline")", R"("monitor":"vibes")"),
                "unknown monitor");
  ExpectInvalid(Mutate(R"("from":"nominal")", R"("from":"fine")"),
                "unknown transition source state");
}

TEST(FlightValidate, RejectsMissingEventFields) {
  ExpectInvalid(Mutate(R"("stage":"planning","tick":4)",
                       R"("stage":"planning")"),
                "stage event without tick");
  ExpectInvalid(Mutate(R"("handled":true,)", ""),
                "monitor event without handled flag");
}

TEST(FlightValidate, RejectsMalformedThreads) {
  ExpectInvalid(Mutate(R"("threads":[{"ring":0)", R"("threads":[{"ring":-1)"),
                "negative ring index");
  // An object where the array belongs (built from the minimal dump so the
  // document stays well-formed JSON and fails the shape check, not parse).
  const std::string doc =
      R"({"flight_dump":{"schema":1,"trigger":{"kind":"explicit"},)"
      R"("last_completed_stage":"none","safety_state":"nominal",)"
      R"("events_recorded":0,"events_dropped":0,"threads":{},)"
      R"("metrics":{"counters":{},"gauges":{},"histograms":{}}}})";
  ExpectInvalid(doc, "threads must be an array");
}

TEST(FlightValidate, RejectsIncoherentHistogram) {
  ExpectInvalid(Mutate(R"("buckets":[1,1,1,0])", R"("buckets":[1,1,1])"),
                "buckets must be bounds + 1 long");
  ExpectInvalid(Mutate(R"("buckets":[1,1,1,0])", R"("buckets":[1,1,0,0])"),
                "bucket sum must equal count");
  ExpectInvalid(Mutate(R"("buckets":[1,1,1,0])", R"("buckets":[1,1,1,0.5])"),
                "bucket counts are integers");
  ExpectInvalid(Mutate(R"("buckets":[1,1,1,0])", R"("buckets":[1e300,1,1,0])"),
                "a bucket count past int64 is rejected, not cast");
  ExpectInvalid(Mutate(R"("bounds":[1,2,4])", R"("bounds":[4,2,1])"),
                "bounds must ascend");
  ExpectInvalid(Mutate(R"("bounds":[1,2,4])", R"("bounds":[])"),
                "bounds must be non-empty");
  ExpectInvalid(Mutate(R"("p50":2,)", ""),
                "buckets present requires quantiles");
  ExpectInvalid(Mutate(R"("p99":4)", R"("p99":"soon")"),
                "quantiles are numbers or \"+inf\"");
  ExpectInvalid(Mutate(R"("count":3)", R"("count":-3)"),
                "negative count");
}

TEST(FlightValidate, AcceptsInfQuantileSpelling) {
  std::string error;
  EXPECT_TRUE(obs::ValidateFlightDump(
      Mutate(R"("p99":4)", R"("p99":"+inf")"), &error))
      << error;
  ExpectInvalid(Mutate(R"("p99":4)", R"("p99":"inf")"),
                "only the \"+inf\" spelling is legal");
}

TEST(FlightValidate, RejectsMissingMetricsSections) {
  ExpectInvalid(Mutate(R"("gauges":{"service/queue_depth":0},)", ""),
                "metrics must carry all three sections");
  ExpectInvalid(Mutate(R"("counters":{"safety/violations":1})",
                       R"("counters":{"safety/violations":"one"})"),
                "counter values must be numbers");
}

}  // namespace
