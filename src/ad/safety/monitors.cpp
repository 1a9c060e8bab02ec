#include "ad/safety/monitors.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <sstream>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "support/check.h"

namespace adpilot {

namespace {

using certkit::obs::FlightStage;

// The stages ControlFlowMonitor expects, once each, in this order.
constexpr FlightStage kMonitoredStages[] = {
    FlightStage::kPerception, FlightStage::kPrediction,
    FlightStage::kPlanning,   FlightStage::kControl,
    FlightStage::kCanBus,     FlightStage::kLocalization};

bool FiniteVec(const Vec2& v) {
  return std::isfinite(v.x) && std::isfinite(v.y);
}

// Monitor activity is mirrored into the obs MetricsRegistry at the single
// choke point every violation passes through (SafetyLog::Record), so the
// SafetySummary tallies are queryable live — per monitor, per severity,
// and handled — instead of only by walking the log. Counter increments
// commute, so fleet workers hammering their own SafetyLogs still produce
// --jobs-independent totals.
struct SafetyCounters {
  certkit::obs::Counter* total;
  certkit::obs::Counter* warnings;
  certkit::obs::Counter* criticals;
  certkit::obs::Counter* handled;
  certkit::obs::Counter* by_monitor[kNumMonitors];
  certkit::obs::Counter* deadline_misses;
};

SafetyCounters& Counters() {
  static SafetyCounters c = [] {
    auto& metrics = certkit::obs::MetricsRegistry::Instance();
    SafetyCounters q;
    q.total = &metrics.GetCounter("safety/violations");
    q.warnings = &metrics.GetCounter("safety/warnings");
    q.criticals = &metrics.GetCounter("safety/criticals");
    q.handled = &metrics.GetCounter("safety/handled");
    for (int m = 0; m < kNumMonitors; ++m) {
      q.by_monitor[m] = &metrics.GetCounter(
          std::string("safety/violations/") +
          MonitorName(static_cast<MonitorId>(m)));
    }
    q.deadline_misses = &metrics.GetCounter("safety/deadline_misses");
    return q;
  }();
  return c;
}

}  // namespace

const char* MonitorName(MonitorId id) {
  switch (id) {
    case MonitorId::kRange: return "range";
    case MonitorId::kPlausibility: return "plausibility";
    case MonitorId::kDeadline: return "deadline";
    case MonitorId::kControlFlow: return "control_flow";
    case MonitorId::kCommand: return "command";
    case MonitorId::kCanBus: return "can_bus";
  }
  return "unknown";
}

void SafetyLog::Record(Violation violation) {
  SafetyCounters& counters = Counters();
  counters.total->Add();
  if (violation.severity == Severity::kCritical) {
    counters.criticals->Add();
  } else {
    counters.warnings->Add();
  }
  if (violation.handled) counters.handled->Add();
  const int m = static_cast<int>(violation.monitor);
  if (m >= 0 && m < kNumMonitors) counters.by_monitor[m]->Add();
  // Black-box journal entry: monitor id, severity, and handled flag travel
  // in the packed b field (severity low byte, handled bit 8).
  certkit::obs::RecordFlightEvent(
      certkit::obs::FlightEventType::kMonitorVerdict,
      static_cast<std::uint32_t>(m),
      static_cast<std::uint32_t>(violation.severity == Severity::kCritical
                                     ? 1u
                                     : 0u) |
          (violation.handled ? 1u << 8 : 0u),
      violation.tick);
  std::lock_guard<std::mutex> lock(mu_);
  violations_.push_back(std::move(violation));
}

std::int64_t SafetyLog::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<std::int64_t>(violations_.size());
}

std::vector<Violation> SafetyLog::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return violations_;
}

std::int64_t SafetyLog::CountByMonitor(MonitorId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::int64_t n = 0;
  for (const Violation& v : violations_) {
    if (v.monitor == id) ++n;
  }
  return n;
}

std::int64_t SafetyLog::CountHandled() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::int64_t n = 0;
  for (const Violation& v : violations_) {
    if (v.handled) ++n;
  }
  return n;
}

void SafetyLog::TallySince(std::int64_t from, std::size_t* warnings,
                           std::size_t* criticals) const {
  CERTKIT_CHECK(warnings != nullptr && criticals != nullptr);
  CERTKIT_CHECK(from >= 0);
  *warnings = 0;
  *criticals = 0;
  std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t i = static_cast<std::size_t>(
           std::min<std::int64_t>(from,
                                  static_cast<std::int64_t>(violations_.size())));
       i < violations_.size(); ++i) {
    if (violations_[i].severity == Severity::kCritical) {
      ++*criticals;
    } else {
      ++*warnings;
    }
  }
}

SafetySummary SafetyLog::Summarize() const {
  SafetySummary summary;
  std::lock_guard<std::mutex> lock(mu_);
  for (const Violation& v : violations_) {
    ++summary.total;
    if (v.severity == Severity::kCritical) {
      ++summary.criticals;
    } else {
      ++summary.warnings;
    }
    if (v.handled) ++summary.handled;
    const int m = static_cast<int>(v.monitor);
    if (m >= 0 && m < kNumMonitors) ++summary.by_monitor[m];
  }
  return summary;
}

RangeMonitor::RangeMonitor(const SafetyConfig& config) : config_(config) {}

std::size_t RangeMonitor::CheckAndSanitizeObstacles(
    std::int64_t tick, const Pose& ego, std::vector<Obstacle>* obstacles,
    SafetyLog* log) const {
  CERTKIT_CHECK(obstacles != nullptr && log != nullptr);
  std::size_t removed = 0;
  auto it = obstacles->begin();
  while (it != obstacles->end()) {
    const Obstacle& o = *it;
    const char* reason = nullptr;
    if (!FiniteVec(o.position) || !FiniteVec(o.velocity) ||
        !std::isfinite(o.length) || !std::isfinite(o.width) ||
        !std::isfinite(o.confidence)) {
      reason = "non-finite field";
    } else if (o.length <= 0.0 || o.width <= 0.0) {
      reason = "non-positive extent";
    } else if (o.confidence < 0.0 || o.confidence > 1.0) {
      reason = "confidence outside [0, 1]";
    } else if (ego.position.DistanceTo(o.position) >
               config_.max_detection_range) {
      reason = "outside detection range";
    } else if (o.velocity.Norm() > config_.max_obstacle_speed) {
      reason = "implausible speed";
    }
    if (reason == nullptr) {
      ++it;
      continue;
    }
    std::ostringstream msg;
    msg << "obstacle " << o.id << " rejected: " << reason;
    log->Record({tick, MonitorId::kRange, Severity::kWarning,
                 /*handled=*/true, msg.str()});
    it = obstacles->erase(it);
    ++removed;
  }
  return removed;
}

bool RangeMonitor::CheckCommand(std::int64_t tick, ControlCommand* command,
                                SafetyLog* log) const {
  CERTKIT_CHECK(command != nullptr && log != nullptr);
  const char* reason = nullptr;
  if (!std::isfinite(command->throttle) || !std::isfinite(command->brake) ||
      !std::isfinite(command->steering)) {
    reason = "non-finite command";
  } else if (command->throttle < 0.0 || command->throttle > 1.0 ||
             command->brake < 0.0 || command->brake > 1.0) {
    reason = "pedal command outside [0, 1]";
  } else if (std::abs(command->steering) > 0.6) {
    reason = "steering beyond hardware range";
  }
  if (reason == nullptr) return false;
  std::ostringstream msg;
  msg << "actuation command rejected (" << reason << "), braking";
  log->Record({tick, MonitorId::kCommand, Severity::kCritical,
               /*handled=*/true, msg.str()});
  command->throttle = 0.0;
  command->brake = 1.0;
  command->steering = 0.0;
  return true;
}

PlausibilityMonitor::PlausibilityMonitor(const SafetyConfig& config)
    : config_(config) {}

void PlausibilityMonitor::Anchor(const VehicleState& state) {
  reckoned_ = state;
  seconds_since_anchor_ = 0.0;
  anchored_ = true;
}

void PlausibilityMonitor::Propagate(double acceleration, double yaw_rate,
                                    double dt) {
  CERTKIT_CHECK(dt > 0.0);
  if (!anchored_) return;
  // Same kinematics as the EKF prediction step, driven by odometry only.
  const double theta = reckoned_.pose.heading;
  reckoned_.pose.position.x += reckoned_.speed * std::cos(theta) * dt;
  reckoned_.pose.position.y += reckoned_.speed * std::sin(theta) * dt;
  reckoned_.pose.heading = NormalizeAngle(theta + yaw_rate * dt);
  reckoned_.speed = std::max(0.0, reckoned_.speed + acceleration * dt);
  seconds_since_anchor_ += dt;
}

bool PlausibilityMonitor::Check(std::int64_t tick,
                                const VehicleState& estimate,
                                SafetyLog* log) {
  CERTKIT_CHECK(log != nullptr);
  if (!anchored_) {
    Anchor(estimate);
    return true;
  }
  const double envelope =
      config_.plausibility_base +
      config_.plausibility_growth * seconds_since_anchor_;
  const double divergence =
      estimate.pose.position.DistanceTo(reckoned_.pose.position);
  if (std::isfinite(divergence) && divergence <= envelope) {
    if (seconds_since_anchor_ >= config_.plausibility_reanchor) {
      Anchor(estimate);
    }
    return true;
  }
  std::ostringstream msg;
  msg << "localization diverges from dead reckoning by " << divergence
      << " m (envelope " << envelope << " m)";
  log->Record({tick, MonitorId::kPlausibility, Severity::kWarning,
               /*handled=*/false, msg.str()});
  return false;
}

DeadlineWatchdog::DeadlineWatchdog(const SafetyConfig& config)
    : config_(config) {}

bool DeadlineWatchdog::Check(std::int64_t tick, double seconds,
                             SafetyLog* log) {
  CERTKIT_CHECK(log != nullptr);
  CERTKIT_CHECK_MSG(seconds >= 0.0, "negative tick duration");
  if (seconds <= config_.tick_deadline) return true;
  ++misses_;
  Counters().deadline_misses->Add();
  std::ostringstream msg;
  msg << "tick overran its deadline: " << seconds << " s > "
      << config_.tick_deadline << " s";
  log->Record({tick, MonitorId::kDeadline, Severity::kWarning,
               /*handled=*/false, msg.str()});
  return false;
}

void ControlFlowMonitor::BeginTick(std::int64_t tick) {
  tick_ = tick;
  sequence_.clear();
}

void ControlFlowMonitor::Enter(FlightStage stage) {
  sequence_.push_back(stage);
}

bool ControlFlowMonitor::EndTick(SafetyLog* log) {
  CERTKIT_CHECK(log != nullptr);
  bool intact = true;
  // Walk the expected order; every expected stage must appear exactly once,
  // in position.
  for (std::size_t i = 0; i < std::size(kMonitoredStages); ++i) {
    const FlightStage expected = kMonitoredStages[i];
    if (i < sequence_.size() && sequence_[i] == expected) continue;
    intact = false;
    std::ostringstream msg;
    msg << "stage " << certkit::obs::FlightStageName(
                           static_cast<std::uint32_t>(expected))
        << " missing or out of order";
    log->Record({tick_, MonitorId::kControlFlow, Severity::kWarning,
                 /*handled=*/false, msg.str()});
  }
  if (sequence_.size() > std::size(kMonitoredStages)) {
    intact = false;
    log->Record({tick_, MonitorId::kControlFlow, Severity::kWarning,
                 /*handled=*/false, "unexpected extra stage execution"});
  }
  return intact;
}

}  // namespace adpilot
