// Golden instrumentation test for ApolloPilot::Tick. One fixed drive pins
// every sink the tick's stages feed: the Chrome trace, the flight ring, the
// metrics export, the timer sample counts, the architectural coverage
// probes of adpilot/pipeline.cc and the control-flow monitor's verdicts.
//
// The expected values were recorded from the hand-wired stage
// instrumentation that the stage table in src/ad/pipeline.cpp replaced, so
// this test proves the table feeds exactly what the hand-wired stages fed.
// The one deliberate difference is the timer map: the retired
// tick-effective timer the deadline watchdog used to feed is gone.
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ad/pipeline.h"
#include "coverage/coverage.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "support/fnv.h"
#include "support/json.h"
#include "timing/timing.h"

namespace {

namespace cov = certkit::cov;
namespace obs = certkit::obs;
namespace support = certkit::support;
using adpilot::FaultKind;

constexpr int kTicks = 6;
constexpr std::int64_t kNormalTick = 2;
constexpr std::int64_t kDropoutTick = 3;
constexpr std::int64_t kOverrunTick = 5;

// The pipeline unit's never-fired function and call probes, in declaration
// order: the complement of the hit sets, with the probe ids' order pinned.
std::string Uncovered(const cov::Unit& unit) {
  std::string out = "functions:";
  for (const std::string& name : unit.UncoveredFunctions()) out += " " + name;
  out += " | calls:";
  for (const std::string& name : unit.UncoveredCalls()) out += " " + name;
  return out;
}

struct Drive {
  std::string trace;        // timing-off Chrome trace of the whole drive
  std::string flight_dump;  // explicit dump after the drive
  std::string metrics;      // timing-off metrics export
  std::map<std::string, std::int64_t> timer_counts;
  std::vector<std::string> uncovered;  // after construction, then per tick
  std::vector<adpilot::Violation> violations;
};

// Six ticks with safety on, a camera dropout on kDropoutTick and a 10 s
// synthetic overrun on kOverrunTick, from a clean observability slate.
Drive RunDrive() {
  cov::Unit& unit =
      cov::Registry::Instance().GetOrCreate("adpilot/pipeline.cc");
  obs::MetricsRegistry::Instance().ResetAll();
  certkit::timing::TimerRegistry::Instance().ResetAll();
  obs::ResetFlightRecorderForTesting();
  unit.Reset();

  adpilot::PilotConfig cfg;
  cfg.scenario.num_vehicles = 3;
  cfg.scenario.seed = 17;
  // Generous, so only the injected overrun misses the deadline (sanitizer
  // trees slow a tick down by an order of magnitude).
  cfg.safety.tick_deadline = 5.0;
  adpilot::FaultCampaignConfig faults;
  faults.seed = 5;
  faults.faults.push_back({FaultKind::kSensorDropout, kDropoutTick, 1, 1.0});
  faults.faults.push_back({FaultKind::kTimingOverrun, kOverrunTick, 1, 10.0});
  adpilot::FaultInjector injector(faults);

  Drive d;
  obs::SetTracingEnabled(true);
  {
    obs::SpanCapture capture;
    adpilot::ApolloPilot pilot(cfg);
    pilot.SetFaultInjector(&injector);
    d.uncovered.push_back(Uncovered(unit));
    for (int t = 0; t < kTicks; ++t) {
      unit.Reset();
      pilot.Tick();
      d.uncovered.push_back(Uncovered(unit));
    }
    d.trace = obs::ChromeTraceJson({obs::TraceTrack{"pilot", capture.Take()}},
                                   /*include_timing=*/false);
    d.violations = pilot.safety_log().Snapshot();
  }
  obs::SetTracingEnabled(false);
  d.flight_dump = obs::FlightDumpString(obs::FlightDumpTrigger::kExplicit);
  d.metrics = obs::MetricsJson(obs::MetricsRegistry::Instance().Snapshot(),
                               /*include_timing=*/false);
  for (const auto& [name, stats] :
       certkit::timing::TimerRegistry::Instance().SnapshotStats()) {
    d.timer_counts[name] = stats.count;
  }
  return d;
}

const Drive& TheDrive() {
  static const Drive drive = RunDrive();
  return drive;
}

// The flight ring's events from tick `tick`'s stage_begin:tick through its
// stage_end:tick, each as "<type>:<stage, monitor or state>".
std::vector<std::string> FlightTick(const std::string& dump,
                                    std::int64_t tick) {
  support::JsonValue root;
  std::string error;
  EXPECT_TRUE(support::ParseJson(dump, &root, &error)) << error;
  const support::JsonValue* box = root.Find("flight_dump");
  const support::JsonValue* threads =
      box != nullptr ? box->Find("threads") : nullptr;
  // One thread drove the pilot, so the dump holds exactly one ring.
  EXPECT_TRUE(threads != nullptr && threads->items.size() == 1);
  const support::JsonValue* events =
      threads != nullptr && threads->items.size() == 1
          ? threads->items[0].Find("events")
          : nullptr;
  if (events == nullptr) return {};
  std::vector<std::string> out;
  bool inside = false;
  for (const support::JsonValue& e : events->items) {
    std::string type, what;
    support::JsonGetString(e, "type", &type, &error);
    for (const char* key : {"stage", "monitor", "state"}) {
      if (support::JsonGetString(e, key, &what, &error)) break;
    }
    std::int64_t at = -1;
    const bool tick_event =
        what == "tick" && support::JsonGetI64(e, "tick", &at, &error);
    if (tick_event && at == tick && type == "stage_begin") inside = true;
    if (inside) out.push_back(type + ":" + what);
    if (tick_event && at == tick && type == "stage_end") break;
  }
  return out;
}

// One adpilot/stage_seconds histogram entry of the timing-off export.
std::string StageHistogram(const std::string& stage, int count) {
  return "\"adpilot/stage_seconds/" + stage + "\":{\"count\":" +
         std::to_string(count) +
         ",\"bounds\":[1e-05,5e-05,0.0001,0.0005,0.001,0.005,0.01,0.05,0.1,"
         "0.5]}";
}

TEST(TickInstrumentationTest, ChromeTraceIsUnchanged) {
  EXPECT_EQ(support::FnvStr(TheDrive().trace), 5678109674734068457ull)
      << TheDrive().trace;
}

TEST(TickInstrumentationTest, FlightRingSequencesAreUnchanged) {
  const std::vector<std::string> normal = {
      "stage_begin:tick",         "stage_begin:scenario",
      "stage_end:scenario",       "stage_begin:perception",
      "stage_end:perception",     "stage_begin:prediction",
      "stage_end:prediction",     "stage_begin:planning",
      "stage_end:planning",       "stage_begin:control",
      "stage_end:control",        "stage_begin:safety",
      "stage_end:safety",         "stage_begin:canbus",
      "stage_end:canbus",         "stage_begin:localization",
      "stage_end:localization",   "stage_end:tick"};
  // No perception stage; the control-flow verdicts close the tick.
  const std::vector<std::string> dropout = {
      "stage_begin:tick",         "stage_begin:scenario",
      "stage_end:scenario",       "stage_begin:prediction",
      "stage_end:prediction",     "stage_begin:planning",
      "stage_end:planning",       "stage_begin:control",
      "stage_end:control",        "stage_begin:safety",
      "stage_end:safety",         "stage_begin:canbus",
      "stage_end:canbus",         "stage_begin:localization",
      "stage_end:localization",   "monitor:control_flow",
      "monitor:control_flow",     "monitor:control_flow",
      "monitor:control_flow",     "monitor:control_flow",
      "monitor:control_flow",     "stage_end:tick"};
  // The watchdog's verdict lands inside the safety stage.
  const std::vector<std::string> overrun = {
      "stage_begin:tick",         "stage_begin:scenario",
      "stage_end:scenario",       "stage_begin:perception",
      "stage_end:perception",     "stage_begin:prediction",
      "stage_end:prediction",     "stage_begin:planning",
      "stage_end:planning",       "stage_begin:control",
      "stage_end:control",        "stage_begin:safety",
      "monitor:deadline",         "stage_end:safety",
      "stage_begin:canbus",       "stage_end:canbus",
      "stage_begin:localization", "stage_end:localization",
      "stage_end:tick"};
  EXPECT_EQ(FlightTick(TheDrive().flight_dump, kNormalTick), normal);
  EXPECT_EQ(FlightTick(TheDrive().flight_dump, kDropoutTick), dropout);
  EXPECT_EQ(FlightTick(TheDrive().flight_dump, kOverrunTick), overrun);
}

TEST(TickInstrumentationTest, MetricsExportIsUnchanged) {
  const std::string& metrics = TheDrive().metrics;
  const std::string without_timers =
      metrics.substr(0, metrics.find(",\"timers\":"));
  const std::string expected =
      "{\"metrics\":{\"counters\":{\"adpilot/ticks\":6,"
      "\"safety/criticals\":0,\"safety/deadline_misses\":1,"
      "\"safety/handled\":0,\"safety/violations\":7,"
      "\"safety/violations/can_bus\":0,\"safety/violations/command\":0,"
      "\"safety/violations/control_flow\":6,"
      "\"safety/violations/deadline\":1,"
      "\"safety/violations/plausibility\":0,"
      "\"safety/violations/range\":0,\"safety/warnings\":7},"
      "\"gauges\":{},\"histograms\":{" +
      StageHistogram("canbus", 6) + "," + StageHistogram("control", 6) + "," +
      StageHistogram("localization", 6) + "," +
      StageHistogram("perception", 5) + "," + StageHistogram("planning", 6) +
      "," + StageHistogram("prediction", 6) + "," +
      StageHistogram("safety", 6) + "," + StageHistogram("tick", 6) + "}";
  EXPECT_EQ(without_timers, expected);
}

TEST(TickInstrumentationTest, TimerCountsLoseOnlyTickEffective) {
  // As recorded, minus the retired tick-effective timer (6 samples).
  const std::map<std::string, std::int64_t> expected = {
      {"adpilot/canbus", 6},   {"adpilot/control", 6},
      {"adpilot/localization", 6}, {"adpilot/perception", 5},
      {"adpilot/planning", 6}, {"adpilot/prediction", 6},
      {"adpilot/safety", 6},   {"adpilot/tick", 6}};
  EXPECT_EQ(TheDrive().timer_counts, expected);
}

TEST(TickInstrumentationTest, PipelineProbeHitSetsAreUnchanged) {
  // Construction enters routing only; every tick enters each stage but the
  // dropped perception.
  const std::string every_tick = "functions: routing::FindRoute | calls:";
  const std::vector<std::string> expected = {
      "functions: perception::Process prediction::Predict "
      "localization::Update planning::PlanTrajectory control::Compute "
      "canbus::Step | calls: Tick -> perception Tick -> prediction "
      "Tick -> localization Tick -> planning Tick -> control "
      "Tick -> canbus",
      every_tick,
      every_tick,
      "functions: routing::FindRoute perception::Process | calls: "
      "Tick -> perception",
      every_tick,
      every_tick,
      every_tick};
  EXPECT_EQ(TheDrive().uncovered, expected);
}

TEST(TickInstrumentationTest, DropoutViolationTextIsUnchanged) {
  std::vector<std::string> messages;
  for (const adpilot::Violation& v : TheDrive().violations) {
    if (v.monitor == adpilot::MonitorId::kControlFlow) {
      messages.push_back(std::to_string(v.tick) + ": " + v.message);
    }
  }
  const std::vector<std::string> expected = {
      "3: stage perception missing or out of order",
      "3: stage prediction missing or out of order",
      "3: stage planning missing or out of order",
      "3: stage control missing or out of order",
      "3: stage canbus missing or out of order",
      "3: stage localization missing or out of order"};
  EXPECT_EQ(messages, expected);
}

}  // namespace
