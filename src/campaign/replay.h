// certkit campaign: deterministic drive replay with differential oracles.
//
// A replay artifact freezes one campaign finding to disk: the complete
// per-run input stream (scenario, fault plan, backend, detector variant,
// seeds — i.e. the Candidate), the oracle verdict it produced, and the
// bit-identity evidence (an FNV digest over every TickReport plus per-tick
// stream signatures). Because Evaluate() is a pure function of the
// candidate, the artifact alone re-executes the drive bit-identically on
// any machine with the same build — `certkit replay` gates on the digest
// and, when the gate fails, localizes the first divergent (tick, stream).
//
// The differential mode re-runs the candidate across every inference
// backend and with quantized-vs-fp32 inference, diffing each variant's
// signature stream against the reference arm. Divergences feed the
// delta-debugging minimizer (campaign/minimize.h), which shrinks the
// candidate to the smallest input that still reproduces them.
#ifndef CERTKIT_CAMPAIGN_REPLAY_H_
#define CERTKIT_CAMPAIGN_REPLAY_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "campaign/runner.h"
#include "support/fnv.h"
#include "support/json.h"

namespace certkit::campaign {

// Bump when the artifact layout changes; ParseReplayArtifact rejects
// schemas it does not understand rather than guessing.
inline constexpr int kReplayArtifactSchema = 1;

struct ReplayArtifact {
  Candidate candidate;
  OracleVerdict verdict;
  std::string outcome;  // OutcomeSignature(verdict), for quick triage
  std::uint64_t report_digest = 0;
  std::vector<adpilot::TickSignature> ticks;

  // The artifact document's body, after its "schema" (support/record.h).
  template <class Io, class Self>
  static void Fields(Io& io, Self& a) {
    io("candidate", a.candidate);
    io("verdict", a.verdict);
    io("outcome", a.outcome);
    io("report_digest", support::Hex{a.report_digest});
    io("ticks", a.ticks);
  }
};

// Digests print as 16 lowercase hex digits (support/fnv.h).
using support::HexU64;
using support::ParseHexU64;

// Serialization over the records' field lists (support/record.h): emit ->
// parse -> emit is byte-identical, and parsing rejects what replay aborts on.
std::string ReplayArtifactJson(const ReplayArtifact& artifact);
bool ParseCandidate(const support::JsonValue& v, Candidate* out,
                    std::string* error);
bool ParseVerdict(const support::JsonValue& v, OracleVerdict* out,
                  std::string* error);
bool ParseReplayArtifact(std::string_view json, ReplayArtifact* out,
                         std::string* error);

// Packs a candidate's evaluation into an artifact.
ReplayArtifact MakeArtifact(const Candidate& candidate,
                            const EvalResult& eval);

// Writes `<dir>/finding_<id>.json` (creating `dir` if needed); returns the
// path written, or "" on IO failure. Called by CampaignRunner::Run for
// every corpus-kept candidate when CampaignConfig::artifact_dir is set.
std::string WriteFindingArtifact(const std::string& dir,
                                 const Candidate& candidate,
                                 const EvalResult& eval);

// --- replay execution ----------------------------------------------------

// First point where two signature streams disagree. `stream` names the
// earliest divergent field at that tick in dataflow order (frame ->
// detections -> tracked -> command -> state -> faults); "length" means one
// stream ended early, and tick then holds the shorter length.
struct ReplayDivergence {
  bool diverged = false;
  std::int64_t tick = -1;
  std::string stream;
};

ReplayDivergence DiffSignatures(const std::vector<adpilot::TickSignature>& a,
                                const std::vector<adpilot::TickSignature>& b);

struct ReplayOutcome {
  EvalResult eval;                  // the fresh re-execution
  std::uint64_t report_digest = 0;  // digest of the re-execution
  bool digest_matches = false;      // == artifact.report_digest
  bool verdict_matches = false;     // OutcomeSignature equality
  ReplayDivergence divergence;      // vs the artifact's recorded stream
};

// Re-executes the artifact's candidate and gates on bit identity.
ReplayOutcome ExecuteReplay(const ReplayArtifact& artifact);

// --- differential oracle -------------------------------------------------

// One arm of the differential: the reference candidate with backend and/or
// quantization overridden. Kept as a transform (not a baked candidate) so
// the minimizer can re-apply it to shrunken candidates.
struct VariantSpec {
  std::string name;  // "backend:open", "quantized", ...
  nn::Backend backend = nn::Backend::kCpuNaive;
  bool quantized = false;
};

// The variants `certkit replay --diff` runs against `reference`: every
// other inference backend, plus quantized inference on the reference's own
// backend (fp32 stays the reference arm).
std::vector<VariantSpec> DifferentialVariants(const Candidate& reference);
Candidate ApplyVariant(const Candidate& reference, const VariantSpec& spec);

struct DifferentialArm {
  VariantSpec spec;
  std::uint64_t report_digest = 0;
  ReplayDivergence divergence;   // vs the reference arm's signatures
  bool outcome_matches = true;   // OutcomeSignature equality vs reference
};

struct DifferentialReport {
  std::uint64_t reference_digest = 0;
  std::string reference_outcome;
  std::vector<DifferentialArm> arms;
  int divergent = 0;  // arms whose stream or outcome diverged
};

// Evaluates `candidate` once as the reference, then every variant arm,
// diffing signature streams and oracle outcomes.
DifferentialReport RunDifferential(const Candidate& candidate);
std::string DifferentialReportJson(const DifferentialReport& report);

// True when `spec` applied to `candidate` still diverges from it — the
// minimizer's divergence-preserving predicate.
bool VariantDiverges(const Candidate& candidate, const VariantSpec& spec);

}  // namespace certkit::campaign

#endif  // CERTKIT_CAMPAIGN_REPLAY_H_
