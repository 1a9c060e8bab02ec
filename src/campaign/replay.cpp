#include "campaign/replay.h"

#include <sstream>

#include "support/io.h"
#include "support/record.h"

namespace certkit::campaign {

namespace {

using support::JsonEscape;

std::string DivergenceJson(const ReplayDivergence& d) {
  std::ostringstream out;
  out << "{\"diverged\":" << (d.diverged ? "true" : "false");
  if (d.diverged) {
    out << ",\"tick\":" << d.tick << ",\"stream\":" << JsonEscape(d.stream);
  }
  out << "}";
  return out.str();
}

}  // namespace

std::string ReplayArtifactJson(const ReplayArtifact& artifact) {
  return support::JsonWriter::Document(kReplayArtifactSchema, artifact);
}

bool ParseCandidate(const support::JsonValue& v, Candidate* out,
                    std::string* error) {
  return support::JsonReader::Read(v, out, error);
}

bool ParseVerdict(const support::JsonValue& v, OracleVerdict* out,
                  std::string* error) {
  return support::JsonReader::Read(v, out, error);
}

bool ParseReplayArtifact(std::string_view json, ReplayArtifact* out,
                         std::string* error) {
  support::JsonReader doc(error);
  return doc.Open(json, "artifact", kReplayArtifactSchema) && doc.Fields(out);
}

ReplayArtifact MakeArtifact(const Candidate& candidate,
                            const EvalResult& eval) {
  ReplayArtifact artifact;
  artifact.candidate = candidate;
  artifact.verdict = eval.verdict;
  artifact.outcome = OutcomeSignature(eval.verdict);
  artifact.report_digest = eval.report_digest;
  artifact.ticks = eval.tick_signatures;
  return artifact;
}

std::string WriteFindingArtifact(const std::string& dir,
                                 const Candidate& candidate,
                                 const EvalResult& eval) {
  const std::string path =
      dir + "/finding_" + std::to_string(candidate.id) + ".json";
  const support::Status status =
      support::WriteFile(path, ReplayArtifactJson(MakeArtifact(candidate,
                                                               eval)) + "\n");
  return status.ok() ? path : std::string();
}

ReplayDivergence DiffSignatures(const std::vector<adpilot::TickSignature>& a,
                                const std::vector<adpilot::TickSignature>& b) {
  ReplayDivergence d;
  const std::size_t common = a.size() < b.size() ? a.size() : b.size();
  for (std::size_t i = 0; i < common; ++i) {
    // Dataflow order: report the most upstream divergent stream, because
    // everything after it diverges as a consequence.
    const char* stream = nullptr;
    if (a[i].frame != b[i].frame) {
      stream = "frame";
    } else if (a[i].detections != b[i].detections) {
      stream = "detections";
    } else if (a[i].tracked != b[i].tracked) {
      stream = "tracked";
    } else if (a[i].command != b[i].command) {
      stream = "command";
    } else if (a[i].state != b[i].state) {
      stream = "state";
    } else if (a[i].faults_injected != b[i].faults_injected) {
      stream = "faults";
    }
    if (stream != nullptr) {
      d.diverged = true;
      d.tick = a[i].tick;
      d.stream = stream;
      return d;
    }
  }
  if (a.size() != b.size()) {
    d.diverged = true;
    d.tick = static_cast<std::int64_t>(common);
    d.stream = "length";
  }
  return d;
}

ReplayOutcome ExecuteReplay(const ReplayArtifact& artifact) {
  ReplayOutcome out;
  out.eval = CampaignRunner::Evaluate(artifact.candidate);
  out.report_digest = out.eval.report_digest;
  out.digest_matches = out.report_digest == artifact.report_digest;
  out.verdict_matches =
      OutcomeSignature(out.eval.verdict) == artifact.outcome;
  out.divergence = DiffSignatures(artifact.ticks, out.eval.tick_signatures);
  return out;
}

std::vector<VariantSpec> DifferentialVariants(const Candidate& reference) {
  std::vector<VariantSpec> variants;
  for (const nn::Backend b : {nn::Backend::kClosedSim, nn::Backend::kOpenSim,
                              nn::Backend::kCpuNaive}) {
    if (b == reference.backend) continue;
    VariantSpec spec;
    spec.name = std::string("backend:") + BackendTag(b);
    spec.backend = b;
    spec.quantized = reference.quantized;
    variants.push_back(spec);
  }
  // Quantized-vs-fp32 on the reference's own backend. When the reference is
  // itself quantized the fp32 arm is the diff point, and vice versa.
  VariantSpec quant;
  quant.name = reference.quantized ? "fp32" : "quantized";
  quant.backend = reference.backend;
  quant.quantized = !reference.quantized;
  variants.push_back(quant);
  return variants;
}

Candidate ApplyVariant(const Candidate& reference, const VariantSpec& spec) {
  Candidate variant = reference;
  variant.backend = spec.backend;
  variant.quantized = spec.quantized;
  return variant;
}

DifferentialReport RunDifferential(const Candidate& candidate) {
  DifferentialReport report;
  const EvalResult reference = CampaignRunner::Evaluate(candidate);
  report.reference_digest = reference.report_digest;
  report.reference_outcome = OutcomeSignature(reference.verdict);
  for (const VariantSpec& spec : DifferentialVariants(candidate)) {
    DifferentialArm arm;
    arm.spec = spec;
    const EvalResult eval =
        CampaignRunner::Evaluate(ApplyVariant(candidate, spec));
    arm.report_digest = eval.report_digest;
    arm.divergence =
        DiffSignatures(reference.tick_signatures, eval.tick_signatures);
    arm.outcome_matches =
        OutcomeSignature(eval.verdict) == report.reference_outcome;
    if (arm.divergence.diverged || !arm.outcome_matches) ++report.divergent;
    report.arms.push_back(std::move(arm));
  }
  return report;
}

std::string DifferentialReportJson(const DifferentialReport& report) {
  std::ostringstream out;
  out << "{\"reference\":{\"digest\":"
      << JsonEscape(HexU64(report.reference_digest))
      << ",\"outcome\":" << JsonEscape(report.reference_outcome)
      << "},\"arms\":[";
  for (std::size_t i = 0; i < report.arms.size(); ++i) {
    const DifferentialArm& arm = report.arms[i];
    if (i > 0) out << ",";
    out << "{\"variant\":" << JsonEscape(arm.spec.name)
        << ",\"digest\":" << JsonEscape(HexU64(arm.report_digest))
        << ",\"divergence\":" << DivergenceJson(arm.divergence)
        << ",\"outcome_matches\":"
        << (arm.outcome_matches ? "true" : "false") << "}";
  }
  out << "],\"divergent\":" << report.divergent << "}";
  return out.str();
}

bool VariantDiverges(const Candidate& candidate, const VariantSpec& spec) {
  const EvalResult reference = CampaignRunner::Evaluate(candidate);
  const EvalResult variant =
      CampaignRunner::Evaluate(ApplyVariant(candidate, spec));
  return DiffSignatures(reference.tick_signatures, variant.tick_signatures)
             .diverged ||
         OutcomeSignature(reference.verdict) !=
             OutcomeSignature(variant.verdict);
}

}  // namespace certkit::campaign
