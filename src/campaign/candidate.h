// certkit campaign: one test-generation candidate — everything needed to
// reproduce a single closed-loop pipeline run bit-for-bit.
//
// A candidate pairs a scenario description with a perception variant and a
// fault plan. The campaign engine evolves a pool of candidates toward
// uncovered structure (Figure 5's gaps: letterboxing, backend variants,
// relu/upsample paths) and unseen safety-oracle outcomes.
#ifndef CERTKIT_CAMPAIGN_CANDIDATE_H_
#define CERTKIT_CAMPAIGN_CANDIDATE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "ad/safety/fault_injector.h"
#include "ad/scenario.h"
#include "nn/layers.h"
#include "support/record.h"

namespace certkit::campaign {

const char* BackendTag(nn::Backend backend);

struct Candidate {
  // Lineage (reporting only — never feeds the evaluation).
  std::int64_t id = 0;
  std::int64_t parent_id = -1;  // -1: seed-pool candidate
  int generation = 0;

  // The run description. Every stochastic element is derived from these
  // seeds, so a candidate re-executes identically on any thread and any
  // --jobs count.
  adpilot::ScenarioConfig scenario;
  std::vector<adpilot::FaultSpec> faults;
  std::uint64_t fault_seed = 7;
  nn::Backend backend = nn::Backend::kCpuNaive;
  // Detector input size; 0 = camera-native. Non-square values reach the
  // preprocessor's letterbox path that fixed scenario tests never take.
  int detector_input_h = 0;
  int detector_input_w = 0;
  int ticks = 25;  // closed-loop cycles to run
  // Fake-int8 detector inference. Never mutated by the campaign breeder —
  // fp32 stays the reference arm; the replay differential oracle flips this
  // to diff quantized inference against it.
  bool quantized = false;

  // The persisted form (support/record.h), defined below.
  template <class Io, class Self>
  static void Fields(Io& io, Self& c);
};

// Caps on a decoded candidate's run length and detector input side, far
// above anything the program emits (the breeder clamps ticks to 5-60 and
// picks sides up to 128; `serve` caps a campaign's ticks at 120), so a
// hostile record cannot ask for an unbounded run or detector.
inline constexpr int kMaxCandidateTicks = 1000;
inline constexpr int kMaxDetectorSide = 512;

// Empty when CampaignRunner::Evaluate can run `candidate`, otherwise why
// not: an invalid scenario (REQ-SCEN-001), a detector input side neither 0
// nor a positive multiple of 16 up to kMaxDetectorSide, ticks outside
// [0, kMaxCandidateTicks], or a fault that fails adpilot::ValidateFaultSpec.
// Bred candidates pass; decoders reject.
std::string ValidateCandidate(const Candidate& candidate);

template <class Io, class Self>
void Candidate::Fields(Io& io, Self& c) {
  io("id", c.id);
  io("parent", c.parent_id);
  io("generation", c.generation);
  io("scenario", c.scenario);
  io("backend", support::Named{c.backend, BackendTag, nn::kNumBackends});
  io("quantized", c.quantized);
  io("detector_input", support::Pair(c.detector_input_h, c.detector_input_w));
  io("ticks", c.ticks);
  io("fault_seed", c.fault_seed);
  io("faults", c.faults);
  io.Check(c, ValidateCandidate);
}

// Single-line JSON of `candidate` (Candidate::Fields order; no volatile
// fields). Doubles use shortest round-trip form: ParseCandidate
// (campaign/replay.h) reconstructs the candidate bit-exactly from it.
std::string CandidateJson(const Candidate& candidate);

}  // namespace certkit::campaign

#endif  // CERTKIT_CAMPAIGN_CANDIDATE_H_
