// Unit tests for the runtime safety layer (src/ad/safety): one suite per
// ISO 26262-6 Table 4 detection mechanism, plus the Table 5 degradation
// state machine and the deterministic fault injector that exercises them.
#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "ad/canbus.h"
#include "ad/safety/degradation.h"
#include "ad/safety/fault_injector.h"
#include "ad/safety/monitors.h"
#include "support/check.h"
#include "support/thread_pool.h"

namespace adpilot {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// --------------------------------------------------------------------------
// SafetyLog
// --------------------------------------------------------------------------

TEST(SafetyLogTest, TallySinceSplitsBySeverity) {
  SafetyLog log;
  log.Record({1, MonitorId::kRange, Severity::kWarning, true, "w1"});
  log.Record({1, MonitorId::kCommand, Severity::kCritical, true, "c1"});
  const std::int64_t mark = log.size();
  log.Record({2, MonitorId::kDeadline, Severity::kWarning, false, "w2"});
  log.Record({2, MonitorId::kDeadline, Severity::kWarning, false, "w3"});

  std::size_t warnings = 0, criticals = 0;
  log.TallySince(0, &warnings, &criticals);
  EXPECT_EQ(warnings, 3u);
  EXPECT_EQ(criticals, 1u);
  log.TallySince(mark, &warnings, &criticals);
  EXPECT_EQ(warnings, 2u);
  EXPECT_EQ(criticals, 0u);
  EXPECT_EQ(log.CountByMonitor(MonitorId::kDeadline), 2);
  EXPECT_EQ(log.CountHandled(), 2);
}

// Monitors may record from pool worker threads; the log must stay coherent.
// This test carries the `safety`/`concurrency` labels so the TSan build
// tree (cmake -DCERTKIT_SANITIZE=thread) exercises it.
TEST(SafetyLogTest, ConcurrentRecordIsThreadSafe) {
  SafetyLog log;
  certkit::support::ThreadPool pool(4);
  constexpr std::size_t kWriters = 64;
  constexpr int kPerWriter = 50;
  pool.ParallelFor(kWriters, [&](std::size_t i) {
    for (int j = 0; j < kPerWriter; ++j) {
      log.Record({static_cast<std::int64_t>(i), MonitorId::kRange,
                  j % 2 == 0 ? Severity::kWarning : Severity::kCritical,
                  true, "concurrent"});
    }
  });
  EXPECT_EQ(log.size(), static_cast<std::int64_t>(kWriters * kPerWriter));
  std::size_t warnings = 0, criticals = 0;
  log.TallySince(0, &warnings, &criticals);
  EXPECT_EQ(warnings + criticals, kWriters * kPerWriter);
}

// --------------------------------------------------------------------------
// FaultInjector
// --------------------------------------------------------------------------

TEST(FaultInjectorTest, ActiveExactlyInsideWindow) {
  FaultCampaignConfig campaign;
  campaign.faults.push_back({FaultKind::kSensorDropout, /*onset=*/5,
                             /*duration=*/3, 1.0});
  FaultInjector injector(campaign);
  int active_ticks = 0;
  for (std::int64_t t = 0; t < 12; ++t) {
    injector.BeginTick(t);
    const bool active = injector.SensorDropout();
    EXPECT_EQ(active, t >= 5 && t < 8) << "tick " << t;
    if (active) ++active_ticks;
  }
  EXPECT_EQ(active_ticks, 3);
  EXPECT_EQ(injector.injected(FaultKind::kSensorDropout), 3);
  EXPECT_EQ(injector.total_injected(), 3);
}

TEST(FaultInjectorTest, DeterministicForFixedSeed) {
  FaultCampaignConfig campaign;
  campaign.seed = 1234;
  campaign.faults.push_back({FaultKind::kCanBitFlip, 0, 50, /*flips=*/2.0});
  campaign.faults.push_back({FaultKind::kDetectionRange, 0, 50, 1.0});
  FaultInjector a(campaign);
  FaultInjector b(campaign);
  for (std::int64_t t = 0; t < 50; ++t) {
    a.BeginTick(t);
    b.BeginTick(t);
    std::vector<Obstacle> obs_a(3), obs_b(3);
    a.CorruptObstacles(&obs_a);
    b.CorruptObstacles(&obs_b);
    for (std::size_t i = 0; i < obs_a.size(); ++i) {
      EXPECT_DOUBLE_EQ(obs_a[i].position.x, obs_b[i].position.x);
      EXPECT_DOUBLE_EQ(obs_a[i].velocity.x, obs_b[i].velocity.x);
    }
    CanFrame fa, fb;
    fa.data[0] = fb.data[0] = 0x5A;
    a.MutateFrame(&fa);
    b.MutateFrame(&fb);
    for (int i = 0; i < 8; ++i) EXPECT_EQ(fa.data[i], fb.data[i]);
  }
  EXPECT_EQ(a.total_injected(), b.total_injected());
}

TEST(FaultInjectorTest, FabricatesGhostObstacleWhenListEmpty) {
  FaultCampaignConfig campaign;
  campaign.faults.push_back({FaultKind::kDetectionNaN, 0, 1, 1.0});
  FaultInjector injector(campaign);
  injector.BeginTick(0);
  std::vector<Obstacle> obstacles;
  EXPECT_TRUE(injector.CorruptObstacles(&obstacles));
  ASSERT_EQ(obstacles.size(), 1u);
  EXPECT_TRUE(std::isnan(obstacles[0].position.x));
  EXPECT_TRUE(std::isnan(obstacles[0].velocity.y));
}

TEST(FaultInjectorTest, TickIndexMustIncrease) {
  FaultInjector injector(FaultCampaignConfig{});
  injector.BeginTick(5);
  EXPECT_THROW(injector.BeginTick(5), certkit::support::ContractViolation);
  EXPECT_THROW(injector.BeginTick(4), certkit::support::ContractViolation);
}

TEST(FaultInjectorTest, RejectsInvalidCampaign) {
  FaultCampaignConfig bad_onset;
  bad_onset.faults.push_back({FaultKind::kSensorDropout, -1, 1, 1.0});
  EXPECT_THROW(FaultInjector{bad_onset}, certkit::support::ContractViolation);
  FaultCampaignConfig bad_duration;
  bad_duration.faults.push_back({FaultKind::kSensorDropout, 0, 0, 1.0});
  EXPECT_THROW(FaultInjector{bad_duration},
               certkit::support::ContractViolation);
}

// --------------------------------------------------------------------------
// RangeMonitor — Table 4 "range checks of input and output data"
// --------------------------------------------------------------------------

Obstacle ValidObstacle(double x) {
  Obstacle o;
  o.id = 1;
  o.position = {x, 0.0};
  o.velocity = {5.0, 0.0};
  return o;
}

TEST(RangeMonitorTest, AcceptsValidObstacles) {
  RangeMonitor monitor{SafetyConfig{}};
  SafetyLog log;
  std::vector<Obstacle> obstacles = {ValidObstacle(20.0), ValidObstacle(50.0)};
  EXPECT_EQ(monitor.CheckAndSanitizeObstacles(1, Pose{}, &obstacles, &log),
            0u);
  EXPECT_EQ(obstacles.size(), 2u);
  EXPECT_EQ(log.size(), 0);
}

TEST(RangeMonitorTest, RemovesCorruptedObstacles) {
  RangeMonitor monitor{SafetyConfig{}};
  SafetyLog log;
  Obstacle nan_obstacle = ValidObstacle(20.0);
  nan_obstacle.position.x = kNaN;
  Obstacle far_obstacle = ValidObstacle(500.0);       // beyond 120 m range
  Obstacle fast_obstacle = ValidObstacle(30.0);
  fast_obstacle.velocity = {150.0, 0.0};              // beyond 60 m/s
  Obstacle bad_confidence = ValidObstacle(40.0);
  bad_confidence.confidence = 1.5;
  std::vector<Obstacle> obstacles = {ValidObstacle(25.0), nan_obstacle,
                                     far_obstacle, fast_obstacle,
                                     bad_confidence};
  EXPECT_EQ(monitor.CheckAndSanitizeObstacles(1, Pose{}, &obstacles, &log),
            4u);
  ASSERT_EQ(obstacles.size(), 1u);
  EXPECT_DOUBLE_EQ(obstacles[0].position.x, 25.0);
  EXPECT_EQ(log.CountByMonitor(MonitorId::kRange), 4);
  // Removal is the mitigation: every range violation is handled in-cycle.
  EXPECT_EQ(log.CountHandled(), 4);
}

TEST(RangeMonitorTest, ReplacesNonFiniteCommandWithBraking) {
  RangeMonitor monitor{SafetyConfig{}};
  SafetyLog log;
  ControlCommand cmd{kNaN, 0.0, 0.2};
  EXPECT_TRUE(monitor.CheckCommand(3, &cmd, &log));
  EXPECT_DOUBLE_EQ(cmd.throttle, 0.0);
  EXPECT_DOUBLE_EQ(cmd.brake, 1.0);
  EXPECT_DOUBLE_EQ(cmd.steering, 0.0);
  const auto violations = log.Snapshot();
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].monitor, MonitorId::kCommand);
  EXPECT_EQ(violations[0].severity, Severity::kCritical);
  EXPECT_TRUE(violations[0].handled);
}

TEST(RangeMonitorTest, ReplacesOutOfRangeCommand) {
  RangeMonitor monitor{SafetyConfig{}};
  SafetyLog log;
  ControlCommand cmd{2.5, 0.0, 0.0};  // throttle beyond [0, 1]
  EXPECT_TRUE(monitor.CheckCommand(3, &cmd, &log));
  EXPECT_DOUBLE_EQ(cmd.brake, 1.0);
  ControlCommand ok{0.4, 0.0, 0.1};
  EXPECT_FALSE(monitor.CheckCommand(4, &ok, &log));
  EXPECT_DOUBLE_EQ(ok.throttle, 0.4);
  EXPECT_EQ(log.size(), 1);
}

// --------------------------------------------------------------------------
// PlausibilityMonitor — Table 4 "plausibility check"
// --------------------------------------------------------------------------

TEST(PlausibilityMonitorTest, AcceptsConsistentEstimate) {
  SafetyConfig config;
  PlausibilityMonitor monitor(config);
  SafetyLog log;
  VehicleState truth;
  truth.speed = 10.0;
  ASSERT_TRUE(monitor.Check(0, truth, &log));  // first check anchors
  for (std::int64_t t = 1; t <= 50; ++t) {
    monitor.Propagate(/*acceleration=*/0.0, /*yaw_rate=*/0.0, 0.1);
    truth.pose.position.x += truth.speed * 0.1;
    // An estimate within 1 m of the reckoned state is always plausible.
    VehicleState estimate = truth;
    estimate.pose.position.y += 0.5;
    EXPECT_TRUE(monitor.Check(t, estimate, &log)) << "tick " << t;
  }
  EXPECT_EQ(log.size(), 0);
}

TEST(PlausibilityMonitorTest, FlagsFrozenEstimate) {
  SafetyConfig config;
  PlausibilityMonitor monitor(config);
  SafetyLog log;
  VehicleState moving;
  moving.speed = 10.0;
  ASSERT_TRUE(monitor.Check(0, moving, &log));
  // The vehicle keeps driving (odometry reports 10 m/s) but the published
  // estimate stays frozen at the origin. Divergence grows 1 m per tick;
  // the envelope starts at 3 m + 0.2 m/tick, so the monitor fires within
  // a few cycles and keeps firing (it never re-anchors on failure).
  const VehicleState frozen = moving;
  bool flagged = false;
  for (std::int64_t t = 1; t <= 10; ++t) {
    monitor.Propagate(0.0, 0.0, 0.1);
    if (!monitor.Check(t, frozen, &log)) flagged = true;
  }
  EXPECT_TRUE(flagged);
  EXPECT_GE(log.CountByMonitor(MonitorId::kPlausibility), 1);
}

// --------------------------------------------------------------------------
// DeadlineWatchdog — Table 4 "external monitoring facility"
// --------------------------------------------------------------------------

TEST(DeadlineWatchdogTest, FlagsOverrunsAndCountsMisses) {
  SafetyConfig config;
  config.tick_deadline = 0.5;
  DeadlineWatchdog watchdog(config);
  SafetyLog log;
  EXPECT_TRUE(watchdog.Check(0, 0.01, &log));
  EXPECT_TRUE(watchdog.Check(1, 0.49, &log));
  EXPECT_FALSE(watchdog.Check(2, 1.2, &log));
  EXPECT_EQ(watchdog.misses(), 1);
  EXPECT_EQ(log.CountByMonitor(MonitorId::kDeadline), 1);
  EXPECT_THROW(watchdog.Check(3, -0.1, &log),
               certkit::support::ContractViolation);
}

// --------------------------------------------------------------------------
// ControlFlowMonitor — Table 4 "control flow monitoring"
// --------------------------------------------------------------------------

using certkit::obs::FlightStage;

// The monitored stages in pipeline order.
const FlightStage kMonitored[] = {
    FlightStage::kPerception, FlightStage::kPrediction,
    FlightStage::kPlanning,   FlightStage::kControl,
    FlightStage::kCanBus,     FlightStage::kLocalization};

TEST(ControlFlowMonitorTest, IntactSequencePasses) {
  ControlFlowMonitor monitor;
  SafetyLog log;
  monitor.BeginTick(1);
  for (const FlightStage s : kMonitored) monitor.Enter(s);
  EXPECT_TRUE(monitor.EndTick(&log));
  EXPECT_EQ(log.size(), 0);
}

TEST(ControlFlowMonitorTest, FlagsMissingStage) {
  ControlFlowMonitor monitor;
  SafetyLog log;
  monitor.BeginTick(2);
  for (const FlightStage s : kMonitored) {
    if (s != FlightStage::kPlanning) monitor.Enter(s);
  }
  EXPECT_FALSE(monitor.EndTick(&log));
  EXPECT_GE(log.CountByMonitor(MonitorId::kControlFlow), 1);
  EXPECT_EQ(log.Snapshot()[0].message,
            "stage planning missing or out of order");
}

TEST(ControlFlowMonitorTest, FlagsReorderedStages) {
  ControlFlowMonitor monitor;
  SafetyLog log;
  monitor.BeginTick(3);
  monitor.Enter(FlightStage::kPrediction);  // swapped with perception
  monitor.Enter(FlightStage::kPerception);
  monitor.Enter(FlightStage::kPlanning);
  monitor.Enter(FlightStage::kControl);
  monitor.Enter(FlightStage::kCanBus);
  monitor.Enter(FlightStage::kLocalization);
  EXPECT_FALSE(monitor.EndTick(&log));
  EXPECT_GE(log.CountByMonitor(MonitorId::kControlFlow), 2);
}

TEST(ControlFlowMonitorTest, FlagsExtraStageAndResetsPerTick) {
  ControlFlowMonitor monitor;
  SafetyLog log;
  monitor.BeginTick(4);
  for (const FlightStage s : kMonitored) monitor.Enter(s);
  monitor.Enter(FlightStage::kLocalization);  // duplicate execution
  EXPECT_FALSE(monitor.EndTick(&log));
  EXPECT_GE(log.size(), 1);
  // The next tick starts from a clean slate.
  monitor.BeginTick(5);
  for (const FlightStage s : kMonitored) monitor.Enter(s);
  const std::int64_t before = log.size();
  EXPECT_TRUE(monitor.EndTick(&log));
  EXPECT_EQ(log.size(), before);
}

// --------------------------------------------------------------------------
// DegradationManager — Table 5 "graceful degradation"
// --------------------------------------------------------------------------

SafetyConfig FastDegradation() {
  SafetyConfig config;
  config.limp_home_after = 3;
  config.safe_stop_after = 6;
  config.recover_after = 4;
  return config;
}

TEST(DegradationManagerTest, EscalatesOnSustainedWarnings) {
  DegradationManager manager(FastDegradation());
  EXPECT_EQ(manager.Update(1, 0), SafetyState::kNominal);
  EXPECT_EQ(manager.Update(1, 0), SafetyState::kNominal);
  EXPECT_EQ(manager.Update(1, 0), SafetyState::kLimpHome);   // 3rd warning
  EXPECT_EQ(manager.Update(1, 0), SafetyState::kLimpHome);
  EXPECT_EQ(manager.Update(1, 0), SafetyState::kLimpHome);
  EXPECT_EQ(manager.Update(1, 0), SafetyState::kSafeStop);   // 6th warning
  EXPECT_EQ(manager.transitions(), 2);
}

TEST(DegradationManagerTest, CriticalLatchesSafeStop) {
  DegradationManager manager(FastDegradation());
  EXPECT_EQ(manager.Update(0, 1), SafetyState::kSafeStop);
  // Clean ticks never un-latch a safe stop.
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(manager.Update(0, 0), SafetyState::kSafeStop);
  }
}

TEST(DegradationManagerTest, RecoversFromLimpHomeAfterCleanTicks) {
  DegradationManager manager(FastDegradation());
  for (int i = 0; i < 3; ++i) manager.Update(1, 0);
  ASSERT_EQ(manager.state(), SafetyState::kLimpHome);
  EXPECT_EQ(manager.Update(0, 0), SafetyState::kLimpHome);
  EXPECT_EQ(manager.Update(0, 0), SafetyState::kLimpHome);
  EXPECT_EQ(manager.Update(0, 0), SafetyState::kLimpHome);
  EXPECT_EQ(manager.Update(0, 0), SafetyState::kNominal);  // 4th clean tick
  // An isolated warning no longer escalates immediately.
  EXPECT_EQ(manager.Update(1, 0), SafetyState::kNominal);
}

TEST(DegradationManagerTest, ApplyToCommandEnforcesStateLimits) {
  DegradationManager manager(FastDegradation());
  ControlCommand cmd{0.8, 0.0, 0.2};
  EXPECT_FALSE(manager.ApplyToCommand(&cmd, 5.0));  // nominal: untouched
  EXPECT_DOUBLE_EQ(cmd.throttle, 0.8);

  for (int i = 0; i < 3; ++i) manager.Update(1, 0);
  ASSERT_EQ(manager.state(), SafetyState::kLimpHome);
  ControlCommand slow{0.8, 0.0, 0.2};
  EXPECT_TRUE(manager.ApplyToCommand(&slow, /*current_speed=*/1.0));
  EXPECT_DOUBLE_EQ(slow.throttle, 0.3);  // limp-home throttle cap
  ControlCommand fast{0.8, 0.0, 0.2};
  EXPECT_TRUE(manager.ApplyToCommand(&fast, /*current_speed=*/8.0));
  EXPECT_DOUBLE_EQ(fast.throttle, 0.0);  // above limp-home speed: slow down
  EXPECT_GE(fast.brake, 0.3);

  manager.Update(0, 1);
  ASSERT_EQ(manager.state(), SafetyState::kSafeStop);
  ControlCommand stop{0.8, 0.0, 0.2};
  EXPECT_TRUE(manager.ApplyToCommand(&stop, 8.0));
  EXPECT_DOUBLE_EQ(stop.throttle, 0.0);
  EXPECT_DOUBLE_EQ(stop.brake, 1.0);
  EXPECT_DOUBLE_EQ(stop.steering, 0.0);
}

TEST(DegradationManagerTest, RejectsInvalidThresholds) {
  SafetyConfig config;
  config.limp_home_after = 0;
  EXPECT_THROW(DegradationManager{config},
               certkit::support::ContractViolation);
}

// --------------------------------------------------------------------------
// CAN bus information redundancy — Table 4 "information redundancy"
// --------------------------------------------------------------------------

TEST(CanBusSafetyTest, ChecksumDetectsEveryBitFlipInPayload) {
  const ControlCommand cmd{0.42, 0.0, -0.13};
  const CanFrame frame = EncodeCommand(cmd);
  ASSERT_TRUE(VerifyCommandFrame(frame));
  for (int bit = 0; bit < 64; ++bit) {
    CanFrame corrupted = frame;
    corrupted.data[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    EXPECT_FALSE(VerifyCommandFrame(corrupted)) << "bit " << bit;
  }
}

TEST(CanBusSafetyTest, ReceiverRejectsCorruptedFramesAndHoldsLastCommand) {
  CanBus bus(Pose{}, VehicleParams{}, /*noise_seed=*/5);
  // Establish a valid accelerating command.
  for (int i = 0; i < 10; ++i) {
    bus.SendCommand({0.8, 0.0, 0.0});
    bus.Step(0.1);
  }
  const double speed_before = bus.vehicle().state().speed;
  ASSERT_GT(speed_before, 0.0);
  ASSERT_EQ(bus.frames_rejected(), 0);

  // Corrupt every subsequent frame on the wire; the receiver must reject
  // them all and keep executing the last valid (accelerating) command.
  bus.SetFrameFault([](CanFrame* frame) {
    frame->data[0] ^= 0x01;
    return true;
  });
  for (int i = 0; i < 10; ++i) {
    bus.SendCommand({0.0, 1.0, 0.0});  // full brake — must never arrive
    bus.Step(0.1);
  }
  EXPECT_EQ(bus.frames_rejected(), 10);
  EXPECT_GT(bus.vehicle().state().speed, speed_before);

  // Clearing the fault restores delivery.
  bus.SetFrameFault(nullptr);
  const std::int64_t delivered = bus.frames_delivered();
  bus.SendCommand({0.0, 1.0, 0.0});
  bus.Step(0.1);
  EXPECT_EQ(bus.frames_delivered(), delivered + 1);
}

TEST(CanBusSafetyTest, DroppedFramesHoldLastCommand) {
  CanBus bus(Pose{}, VehicleParams{}, /*noise_seed=*/5);
  for (int i = 0; i < 10; ++i) {
    bus.SendCommand({0.6, 0.0, 0.0});
    bus.Step(0.1);
  }
  const std::int64_t delivered = bus.frames_delivered();
  bus.SetFrameFault([](CanFrame*) { return false; });  // drop everything
  for (int i = 0; i < 5; ++i) {
    bus.SendCommand({0.0, 1.0, 0.0});
    bus.Step(0.1);
  }
  EXPECT_EQ(bus.frames_delivered(), delivered);
  EXPECT_EQ(bus.frames_rejected(), 0);  // dropped, not rejected
  EXPECT_GT(bus.vehicle().state().speed, 0.0);
}

}  // namespace
}  // namespace adpilot
