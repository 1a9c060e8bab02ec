// certkit rules: the top-level ISO 26262-6 assessor.
//
// Ties every checker together and produces the three technique-table
// assessments the paper reports (its Tables 1–3 with Observations 1–14),
// with quantitative evidence strings computed from the analyzed codebase.
#ifndef CERTKIT_RULES_ASSESSOR_H_
#define CERTKIT_RULES_ASSESSOR_H_

#include <string>
#include <vector>

#include "metrics/architecture.h"
#include "metrics/module_metrics.h"
#include "rules/defensive.h"
#include "rules/iso26262.h"
#include "rules/misra.h"
#include "rules/style.h"
#include "rules/unit_design.h"

namespace certkit::rules {

// Verdict thresholds. Defaults are the values used for the paper
// reproduction; a downstream safety team would tighten them per project.
struct AssessorThresholds {
  // Table 1 row 1: fraction of functions with CC > 10 for partial verdict.
  double cc_over10_partial_fraction = 0.02;
  // Table 1 row 3: explicit casts per kNLOC for partial verdict.
  double casts_per_knloc_partial = 1.0;
  // Table 1 row 4: input-validation ratios.
  double defensive_compliant_ratio = 0.90;
  double defensive_partial_ratio = 0.50;
  // Table 1 rows 7–8: style/naming compliance ratios for compliant verdict.
  double style_compliant_ratio = 0.97;
  // Table 2 row 2: component size limit (NLOC).
  std::int64_t max_component_nloc = 10000;
  // Table 2 row 3: interface width.
  std::int32_t max_params = 5;
  // Table 2 rows 4–5: cohesion / coupling.
  double cohesion_compliant = 0.75;
  double cohesion_partial = 0.50;
  std::int32_t max_efferent_modules = 2;
  // Table 3: per-kNLOC rates for partial verdicts.
  double unit_partial_rate_per_knloc = 0.5;
};

// Everything the assessor consumes, precomputed. The one producer is
// driver::CodebaseAnalysis::MakeAssessorInputs, which assembles it from the
// per-file and per-module artifacts the AnalysisDriver computed in parallel.
// `modules` must outlive the Assessor — the assessor only aggregates, it
// never re-walks file models except for the architecture/interrupt scans
// that depend on thresholds.
struct AssessorInputs {
  const std::vector<metrics::ModuleAnalysis>* modules = nullptr;
  std::vector<UnitDesignResult> unit_design;  // one per module, module order
  std::vector<CheckReport> misra_reports;     // one per file, stable order
  DefensiveResult defensive;                  // merged across modules
  StyleStats style_total;
  StyleStats naming_total;
  std::int64_t total_functions = 0;
  std::int64_t total_nloc = 0;
  std::int64_t total_casts = 0;
};

// Merges one module's defensive result into `total`: stats are summed,
// findings appended in call order (keep the call order stable for
// deterministic reports).
void MergeDefensive(DefensiveResult part, DefensiveResult* total);

// Full assessment of a codebase organized into modules.
class Assessor {
 public:
  // Assesses the inputs of one analysis (CodebaseAnalysis::
  // MakeAssessorInputs).
  explicit Assessor(AssessorInputs inputs,
                    const AssessorThresholds& thresholds = {});

  // Paper Table 1 (ISO 26262-6 Table 1) with Observations 1–9.
  TableAssessment AssessCodingGuidelines();
  // Paper Table 2 (ISO 26262-6 Table 3) with Observation 13.
  TableAssessment AssessArchitecture();
  // Paper Table 3 (ISO 26262-6 Table 8) with Observation 14.
  TableAssessment AssessUnitDesign();

  // Aggregated evidence, exposed for reports and benchmarks.
  const std::vector<UnitDesignResult>& unit_design() const {
    return inputs_.unit_design;
  }
  const std::vector<CheckReport>& misra_reports() const {
    return inputs_.misra_reports;
  }
  const DefensiveStats& defensive() const {
    return inputs_.defensive.stats;
  }
  const metrics::ArchitectureReport& architecture() const {
    return architecture_;
  }
  const StyleStats& style() const { return inputs_.style_total; }
  std::int64_t total_functions() const { return inputs_.total_functions; }
  std::int64_t total_nloc() const { return inputs_.total_nloc; }
  std::int64_t total_explicit_casts() const { return inputs_.total_casts; }
  std::int64_t functions_cc_over(int threshold) const;

 private:
  AssessorInputs inputs_;
  AssessorThresholds thresholds_;
  metrics::ArchitectureReport architecture_;
};

}  // namespace certkit::rules

#endif  // CERTKIT_RULES_ASSESSOR_H_
