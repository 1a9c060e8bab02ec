// adpilot::safety — runtime safety monitors for the closed-loop pipeline.
//
// Each monitor implements one ISO 26262-6 Table 4 error-detection mechanism
// at the software architectural level, turned from the static census of
// bench/table4_5_error_mechanisms into executable checks:
//
//   * RangeMonitor        — "range checks of input and output data": every
//     perceived obstacle and every actuation command is validated against
//     physical bounds before it crosses a stage boundary;
//   * PlausibilityMonitor — "plausibility check": the EKF localization
//     estimate is compared against an independent dead-reckoning envelope
//     propagated from chassis odometry;
//   * DeadlineWatchdog    — "external monitoring facility": a deadline
//     supervisor over the tick's elapsed time;
//   * ControlFlowMonitor  — "control flow monitoring": the Tick stage
//     sequence (perception -> ... -> CAN bus -> localization) is checked
//     for missing, duplicated, or reordered stages every cycle.
//
// Violations are appended to a SafetyLog. The log is thread-safe: timers and
// monitors may fire from pool worker threads (see the `safety`-labeled tests
// which exercise it under TSan).
#ifndef AD_SAFETY_MONITORS_H_
#define AD_SAFETY_MONITORS_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "ad/common.h"
#include "obs/flight_recorder.h"

namespace adpilot {

// Thresholds and policy knobs of the runtime safety layer.
struct SafetyConfig {
  bool enabled = true;
  // DeadlineWatchdog: budget for one pipeline cycle, seconds. Generous by
  // default so sanitizer builds do not trip it; benches and tests tighten it.
  double tick_deadline = 0.5;
  // RangeMonitor: plausible detection window around the ego, meters.
  double max_detection_range = 120.0;
  // RangeMonitor: plausible obstacle speed, m/s.
  double max_obstacle_speed = 60.0;
  // PlausibilityMonitor: base envelope radius, meters, plus growth per
  // second since the dead-reckoning anchor (odometry drift allowance).
  double plausibility_base = 3.0;
  double plausibility_growth = 2.0;
  // PlausibilityMonitor: minimum anchor age, seconds, before a passing check
  // re-anchors. Re-anchoring on every pass would let a frozen estimate drag
  // the anchor along with it (divergence per cycle never exceeds the base
  // envelope); holding the anchor lets real divergence accumulate.
  double plausibility_reanchor = 1.0;
  // Degradation policy: consecutive degraded ticks before limp-home, further
  // degraded ticks before safe-stop, and clean ticks to recover to nominal.
  int limp_home_after = 3;
  int safe_stop_after = 10;
  int recover_after = 20;
  // Limp-home actuation limits.
  double limp_home_speed = 3.0;   // m/s
  double limp_home_throttle = 0.3;
};

enum class MonitorId {
  kRange = 0,
  kPlausibility,
  kDeadline,
  kControlFlow,
  kCommand,
  kCanBus,
};
inline constexpr int kNumMonitors = 6;
const char* MonitorName(MonitorId id);

enum class Severity { kWarning = 0, kCritical };

// One detected violation. `handled` is set by the recording site when a
// mitigation was applied in the same cycle (value discarded, command
// replaced, frame rejected) — the Table 5 error-handling evidence.
struct Violation {
  std::int64_t tick = 0;
  MonitorId monitor = MonitorId::kRange;
  Severity severity = Severity::kWarning;
  bool handled = false;
  std::string message;
};

// Aggregate verdict over a SafetyLog — the safety oracle a test-generation
// campaign scores candidates with. Per-monitor tallies give a "novel
// outcome" signal (a candidate that first trips a monitor is kept even if
// it adds no structural coverage).
struct SafetySummary {
  std::int64_t total = 0;
  std::int64_t warnings = 0;
  std::int64_t criticals = 0;
  std::int64_t handled = 0;
  std::int64_t by_monitor[kNumMonitors] = {0, 0, 0, 0, 0, 0};
};

// Append-only, thread-safe violation log.
class SafetyLog {
 public:
  void Record(Violation violation);

  std::int64_t size() const;
  std::vector<Violation> Snapshot() const;
  std::int64_t CountByMonitor(MonitorId id) const;
  std::int64_t CountHandled() const;
  // Tallies warnings/criticals recorded at or after entry `from` (a prior
  // size() value); used by the pipeline to close each tick's verdict.
  void TallySince(std::int64_t from, std::size_t* warnings,
                  std::size_t* criticals) const;
  // Aggregate oracle verdict over the whole log.
  SafetySummary Summarize() const;

 private:
  mutable std::mutex mu_;
  std::vector<Violation> violations_;
};

// Table 4 "range checks of input and output data".
class RangeMonitor {
 public:
  explicit RangeMonitor(const SafetyConfig& config);

  // Validates every obstacle (finite fields, positive extents, confidence in
  // [0, 1], position within max_detection_range of the ego, speed below
  // max_obstacle_speed). Implausible obstacles are removed (handled) and one
  // violation per removal is recorded. Returns the number removed.
  std::size_t CheckAndSanitizeObstacles(std::int64_t tick, const Pose& ego,
                                        std::vector<Obstacle>* obstacles,
                                        SafetyLog* log) const;

  // Validates an actuation command (finite, throttle/brake in [0, 1],
  // steering within hardware range). An invalid command is replaced with a
  // braking command (handled) and recorded as critical. Returns true when
  // the command was replaced.
  bool CheckCommand(std::int64_t tick, ControlCommand* command,
                    SafetyLog* log) const;

 private:
  SafetyConfig config_;
};

// Table 4 "plausibility check": EKF estimate vs. a dead-reckoning envelope.
// The monitor integrates chassis odometry (acceleration, yaw rate) itself.
// A passing check re-anchors only once the anchor is plausibility_reanchor
// seconds old: frequent enough that odometry drift never outgrows the
// envelope in nominal operation, but held long enough that a frozen or
// divergent estimate accumulates divergence and is flagged within a few
// cycles (a per-cycle re-anchor would follow the faulty estimate and mask
// it forever).
class PlausibilityMonitor {
 public:
  explicit PlausibilityMonitor(const SafetyConfig& config);

  void Anchor(const VehicleState& state);
  void Propagate(double acceleration, double yaw_rate, double dt);
  // Checks `estimate` against the envelope; records a violation (warning)
  // on divergence. Returns true when the estimate is plausible.
  bool Check(std::int64_t tick, const VehicleState& estimate, SafetyLog* log);

 private:
  SafetyConfig config_;
  VehicleState reckoned_;
  double seconds_since_anchor_ = 0.0;
  bool anchored_ = false;
};

// Table 4 "external monitoring facility": a deadline supervisor over the
// tick's elapsed time. Misses are counted in safety/deadline_misses and the
// SafetyLog; WCET evidence comes from the adpilot/tick timer.
class DeadlineWatchdog {
 public:
  explicit DeadlineWatchdog(const SafetyConfig& config);

  // Returns true when `seconds` meets the deadline; otherwise records a
  // violation (warning — degradation escalates on repetition).
  bool Check(std::int64_t tick, double seconds, SafetyLog* log);
  std::int64_t misses() const { return misses_; }

 private:
  SafetyConfig config_;
  std::int64_t misses_ = 0;
};

// Older spelling of the stage enum, kept because the perf ledger's shadow
// pilot (perf_ledger/tick_workload.cpp) still names it.
using TickStage = certkit::obs::FlightStage;

// Table 4 "control flow monitoring of the program execution". It checks
// the six monitored stages — perception, prediction, planning, control,
// CAN bus, localization (the EKF update runs last, after chassis feedback)
// — in that order; scenario, safety and the tick itself are not monitored.
class ControlFlowMonitor {
 public:
  void BeginTick(std::int64_t tick);
  void Enter(certkit::obs::FlightStage stage);
  // Verifies that every monitored stage ran exactly once, in pipeline
  // order; records one violation per missing/reordered stage. Returns true
  // when intact.
  bool EndTick(SafetyLog* log);

 private:
  std::int64_t tick_ = -1;
  std::vector<certkit::obs::FlightStage> sequence_;
};

}  // namespace adpilot

#endif  // AD_SAFETY_MONITORS_H_
