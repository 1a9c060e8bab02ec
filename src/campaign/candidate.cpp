#include "campaign/candidate.h"

#include <string>

namespace certkit::campaign {

const char* BackendTag(nn::Backend backend) {
  switch (backend) {
    case nn::Backend::kClosedSim:
      return "closed";
    case nn::Backend::kOpenSim:
      return "open";
    case nn::Backend::kCpuNaive:
      return "cpu";
  }
  return "?";
}

namespace {
// The detector runs camera-native (0) or at a positive multiple of 16, up
// to the cap.
bool ValidDetectorSide(int side) {
  return side >= 0 && side <= kMaxDetectorSide && side % 16 == 0;
}
}  // namespace

std::string ValidateCandidate(const Candidate& candidate) {
  const int h = candidate.detector_input_h;
  const int w = candidate.detector_input_w;
  std::string reason = adpilot::ValidateScenarioConfig(candidate.scenario);
  if (!reason.empty()) {
    reason = "REQ-SCEN-001: " + reason;
  } else if (!ValidDetectorSide(h) || !ValidDetectorSide(w)) {
    reason = "detector input " + std::to_string(h) + "x" + std::to_string(w) +
             " is neither 0 nor a positive multiple of 16 up to " +
             std::to_string(kMaxDetectorSide);
  } else if (candidate.ticks < 0 || candidate.ticks > kMaxCandidateTicks) {
    reason = "tick count " + std::to_string(candidate.ticks) +
             " outside [0, " + std::to_string(kMaxCandidateTicks) + "]";
  }
  for (std::size_t i = 0; i < candidate.faults.size() && reason.empty();
       ++i) {
    const std::string fault = adpilot::ValidateFaultSpec(candidate.faults[i]);
    if (!fault.empty()) reason = "fault " + std::to_string(i) + ": " + fault;
  }
  return reason;
}

std::string CandidateJson(const Candidate& candidate) {
  return support::JsonWriter::Write(candidate);
}

}  // namespace certkit::campaign
