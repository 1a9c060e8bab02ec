// certkit campaign: the safety oracle — scores a candidate run with the
// PR-2 runtime safety layer's evidence instead of structural coverage.
//
// Greybox corpus-keeping needs two keep signals: "adds new coverage" and
// "triggers a new kind of behavior". The oracle provides the second: it
// reduces a run to a discrete outcome signature (degradation state reached,
// which monitors fired, containment booleans) and remembers which
// signatures the campaign has already seen.
#ifndef CERTKIT_CAMPAIGN_ORACLE_H_
#define CERTKIT_CAMPAIGN_ORACLE_H_

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "ad/pipeline.h"
#include "ad/safety/monitors.h"
#include "support/record.h"

namespace certkit::campaign {

// Deterministic per-run verdict. Only discrete, schedule-independent facts
// go in here — no wall-clock durations, no floating-point residue beyond
// the simulated clearance (which is itself deterministic).
struct OracleVerdict {
  adpilot::SafetySummary safety;
  adpilot::SafetyState final_state = adpilot::SafetyState::kNominal;
  bool reached_goal = false;
  bool collision = false;            // simulated clearance went <= 0
  bool non_finite_command = false;   // a command left the stack non-finite
  std::int64_t command_overrides = 0;
  std::int64_t ticks = 0;

  // The persisted form (support/record.h), with the safety tallies inline.
  template <class Io, class Self>
  static void Fields(Io& io, Self& v) {
    io("final_state", support::Named{v.final_state, adpilot::SafetyStateName,
                                     adpilot::kNumSafetyStates});
    adpilot::SafetySummary::Fields(io, v.safety);
    io("collision", v.collision);
    io("non_finite_command", v.non_finite_command);
    io("reached_goal", v.reached_goal);
    io("command_overrides", v.command_overrides);
    io("ticks", v.ticks);
  }
};

// Reduces a finished pilot (plus its tick reports) to a verdict.
OracleVerdict Judge(const adpilot::ApolloPilot& pilot,
                    const std::vector<adpilot::TickReport>& reports);

// Discrete outcome signature of `verdict` (stable across runs/threads):
// final state, per-monitor fired bits, and containment booleans.
std::string OutcomeSignature(const OracleVerdict& verdict);

// Single-line JSON of `verdict` (OracleVerdict::Fields order).
std::string VerdictJson(const OracleVerdict& verdict);

// Campaign-wide oracle state: which outcome signatures have been seen and
// aggregate tallies for reporting.
class Oracle {
 public:
  // Records `verdict`; returns true when its signature is new to the
  // campaign (a corpus-keep signal).
  bool Observe(const OracleVerdict& verdict);

  std::int64_t distinct_outcomes() const {
    return static_cast<std::int64_t>(seen_.size());
  }
  const adpilot::SafetySummary& totals() const { return totals_; }
  std::int64_t collisions() const { return collisions_; }
  std::int64_t non_finite_commands() const { return non_finite_; }
  std::int64_t safe_stops() const { return safe_stops_; }

  // The checkpointed form: an oracle read back equals the original.
  template <class Io, class Self>
  static void Fields(Io& io, Self& o) {
    io("seen", o.seen_);
    io("totals", o.totals_);
    io("collisions", o.collisions_);
    io("non_finite_commands", o.non_finite_);
    io("safe_stops", o.safe_stops_);
  }

 private:
  std::set<std::string> seen_;
  adpilot::SafetySummary totals_;
  std::int64_t collisions_ = 0;
  std::int64_t non_finite_ = 0;
  std::int64_t safe_stops_ = 0;
};

}  // namespace certkit::campaign

#endif  // CERTKIT_CAMPAIGN_ORACLE_H_
