#include "campaign/oracle.h"

#include <cmath>
#include <sstream>

namespace certkit::campaign {

namespace {

bool CommandFinite(const adpilot::ControlCommand& c) {
  return std::isfinite(c.throttle) && std::isfinite(c.brake) &&
         std::isfinite(c.steering);
}

}  // namespace

OracleVerdict Judge(const adpilot::ApolloPilot& pilot,
                    const std::vector<adpilot::TickReport>& reports) {
  OracleVerdict v;
  v.safety = pilot.safety_log().Summarize();
  v.final_state = pilot.safety_state();
  v.reached_goal = pilot.ReachedGoal();
  v.collision = pilot.HasClearanceSample() && pilot.MinClearanceSoFar() <= 0.0;
  v.ticks = static_cast<std::int64_t>(reports.size());
  for (const adpilot::TickReport& r : reports) {
    if (!CommandFinite(r.command)) v.non_finite_command = true;
    if (r.command_overridden) ++v.command_overrides;
  }
  return v;
}

std::string OutcomeSignature(const OracleVerdict& verdict) {
  std::ostringstream sig;
  sig << adpilot::SafetyStateName(verdict.final_state) << "|";
  for (int m = 0; m < adpilot::kNumMonitors; ++m) {
    sig << (verdict.safety.by_monitor[m] > 0 ? '1' : '0');
  }
  sig << "|" << (verdict.collision ? 'C' : '-')
      << (verdict.non_finite_command ? 'N' : '-')
      << (verdict.reached_goal ? 'G' : '-')
      << (verdict.command_overrides > 0 ? 'O' : '-');
  return sig.str();
}

std::string VerdictJson(const OracleVerdict& verdict) {
  return support::JsonWriter::Write(verdict);
}

bool Oracle::Observe(const OracleVerdict& verdict) {
  totals_.total += verdict.safety.total;
  totals_.warnings += verdict.safety.warnings;
  totals_.criticals += verdict.safety.criticals;
  totals_.handled += verdict.safety.handled;
  for (int m = 0; m < adpilot::kNumMonitors; ++m) {
    totals_.by_monitor[m] += verdict.safety.by_monitor[m];
  }
  if (verdict.collision) ++collisions_;
  if (verdict.non_finite_command) ++non_finite_;
  if (verdict.final_state == adpilot::SafetyState::kSafeStop) ++safe_stops_;
  return seen_.insert(OutcomeSignature(verdict)).second;
}

}  // namespace certkit::campaign
