// adpilot::safety — degraded-mode state machine (ISO 26262-6 Table 5
// "graceful degradation" / "static recovery mechanism").
//
// The pipeline feeds the per-tick monitor verdict (warning/critical counts
// from the SafetyLog) into the manager, which drives
//
//   nominal --(sustained warnings)--> limp-home --(sustained)--> safe-stop
//   nominal/limp-home --(any critical)--> safe-stop
//   limp-home --(sustained clean ticks)--> nominal
//
// Safe-stop latches: once a critical fault has been seen, the vehicle is
// braked to a halt and stays halted. ApplyToCommand overrides the planned
// actuation accordingly, so a degraded pipeline commands braking instead of
// propagating garbage to the CAN bus.
#ifndef AD_SAFETY_DEGRADATION_H_
#define AD_SAFETY_DEGRADATION_H_

#include <cstdint>

#include "ad/common.h"
#include "ad/safety/monitors.h"

namespace adpilot {

enum class SafetyState { kNominal = 0, kLimpHome, kSafeStop };
inline constexpr int kNumSafetyStates = 3;
const char* SafetyStateName(SafetyState state);

class DegradationManager {
 public:
  explicit DegradationManager(const SafetyConfig& config);

  // Closes one tick: consumes this tick's violation counts and returns the
  // resulting state.
  SafetyState Update(std::size_t warnings, std::size_t criticals);

  // Overrides `command` per the current state (limp-home speed/throttle
  // caps, safe-stop full braking). Returns true when the command changed.
  bool ApplyToCommand(ControlCommand* command, double current_speed) const;

  SafetyState state() const { return state_; }
  std::int64_t transitions() const { return transitions_; }

 private:
  void TransitionTo(SafetyState next);

  SafetyConfig config_;
  SafetyState state_ = SafetyState::kNominal;
  int consecutive_degraded_ = 0;
  int consecutive_clean_ = 0;
  std::int64_t transitions_ = 0;
};

}  // namespace adpilot

#endif  // AD_SAFETY_DEGRADATION_H_
