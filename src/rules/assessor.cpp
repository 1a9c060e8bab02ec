#include "rules/assessor.h"

#include "support/strings.h"

namespace certkit::rules {

namespace {

using support::FormatDouble;

std::string Num(std::int64_t v) { return std::to_string(v); }

// Signal and interrupt handlers by name, and signal/sigaction calls.
std::int64_t InterruptConstructs(const ast::SourceFileModel& file) {
  std::int64_t n = 0;
  for (const auto& fn : file.functions) {
    n += support::Contains(fn.name, "signal_handler") ||
         support::Contains(fn.name, "interrupt") ||
         support::Contains(fn.name, "isr_");
  }
  for (const auto& t : file.lexed.tokens) {
    n += t.IsIdentifier() && (t.text == "signal" || t.text == "sigaction");
  }
  return n;
}

// A row's verdict: compliant, else partial, else non-compliant.
Verdict Grade(bool compliant, bool partial) {
  return compliant ? Verdict::kCompliant
         : partial ? Verdict::kPartial
                   : Verdict::kNonCompliant;
}

}  // namespace

void MergeDefensive(DefensiveResult part, DefensiveResult* total) {
  total->stats.functions_with_params += part.stats.functions_with_params;
  total->stats.functions_validating_inputs +=
      part.stats.functions_validating_inputs;
  total->stats.call_sites_checked += part.stats.call_sites_checked;
  total->stats.discarded_results += part.stats.discarded_results;
  total->stats.assertion_sites += part.stats.assertion_sites;
  for (auto& f : part.report.findings) {
    total->report.findings.push_back(std::move(f));
  }
  total->report.entities_checked += part.report.entities_checked;
}

Assessor::Assessor(AssessorInputs inputs, const AssessorThresholds& thresholds)
    : inputs_(std::move(inputs)), thresholds_(thresholds) {
  architecture_ = metrics::AnalyzeArchitecture(
      *inputs_.modules,
      metrics::ArchitectureLimits{thresholds_.max_component_nloc,
                                  thresholds_.max_params, 20});
}

std::int64_t Assessor::functions_cc_over(int threshold) const {
  std::int64_t n = 0;
  for (const auto& mod : *inputs_.modules) {
    n += mod.metrics.FunctionsOverCc(threshold);
  }
  return n;
}

TableAssessment Assessor::AssessCodingGuidelines() {
  TableAssessment out;
  out.table_id = CodingGuidelinesTable().id;

  // Row 1: enforcement of low complexity (Observation 1).
  {
    const std::int64_t over10 = functions_cc_over(10);
    const double fraction =
        inputs_.total_functions > 0
            ? static_cast<double>(over10) / static_cast<double>(inputs_.total_functions)
            : 0.0;
    const Verdict v = Grade(
        over10 == 0, fraction <= thresholds_.cc_over10_partial_fraction);
    out.assessments.push_back(
        {"1", v,
         Num(over10) + " of " + Num(inputs_.total_functions) +
             " functions have cyclomatic complexity > 10 (" +
             FormatDouble(100.0 * fraction, 1) + "%)",
         1});
  }

  // Row 2: use language subsets (Observation 2; Obs. 3–4 for GPU code).
  {
    std::int64_t required_violations = 0, total_violations = 0;
    for (const auto& rep : inputs_.misra_reports) {
      for (const auto& f : rep.findings) {
        ++total_violations;
        if (f.severity == Severity::kRequired) ++required_violations;
      }
    }
    const Verdict v = Grade(total_violations == 0, required_violations == 0);
    out.assessments.push_back(
        {"2", v,
         Num(total_violations) + " MISRA-subset violations (" +
             Num(required_violations) + " of required rules); no language "
             "subset exists for the GPU dialect",
         2});
  }

  // Row 3: strong typing (Observation 5).
  {
    const double per_knloc =
        inputs_.total_nloc > 0 ? 1000.0 * static_cast<double>(inputs_.total_casts) /
                              static_cast<double>(inputs_.total_nloc)
                        : 0.0;
    const Verdict v =
        Grade(inputs_.total_casts == 0,
              per_knloc <= thresholds_.casts_per_knloc_partial);
    out.assessments.push_back(
        {"3", v,
         Num(inputs_.total_casts) + " explicit casts (" +
             FormatDouble(per_knloc, 2) + " per kNLOC)",
         5});
  }

  // Row 4: defensive implementation (Observation 6).
  {
    const double ratio = inputs_.defensive.stats.InputValidationRatio();
    const Verdict v = Grade(ratio >= thresholds_.defensive_compliant_ratio,
                            ratio >= thresholds_.defensive_partial_ratio);
    out.assessments.push_back(
        {"4", v,
         FormatDouble(100.0 * ratio, 1) +
             "% of parameterized functions validate inputs; " +
             Num(inputs_.defensive.stats.discarded_results) +
             " call sites discard non-void results",
         6});
  }

  // Row 5: established design principles (Observation 7).
  {
    std::int64_t mutable_globals = 0;
    for (const auto& ud : inputs_.unit_design) {
      mutable_globals += ud.stats.mutable_globals;
    }
    const Verdict v = Grade(mutable_globals == 0, mutable_globals <= 20);
    out.assessments.push_back(
        {"5", v, Num(mutable_globals) + " mutable file-scope variables", 7});
  }

  // Row 6: unambiguous graphical representation — N/A for C/C++ source.
  out.assessments.push_back(
      {"6", Verdict::kNotApplicable,
       "not applicable: the framework is written in C/C++, not in a "
       "graphical modeling language",
       0});

  // Row 7: style guides (Observation 8).
  {
    const double ratio = inputs_.style_total.ComplianceRatio();
    Verdict v = ratio >= thresholds_.style_compliant_ratio
                    ? Verdict::kCompliant
                    : Verdict::kPartial;
    out.assessments.push_back(
        {"7", v,
         "style compliance " + FormatDouble(100.0 * ratio, 1) + "% (" +
             Num(inputs_.style_total.violations) + " findings over " +
             Num(inputs_.style_total.lines_checked) + " checked entities)",
         8});
  }

  // Row 8: naming conventions (Observation 9).
  {
    const double ratio =
        inputs_.naming_total.lines_checked > 0
            ? 1.0 - static_cast<double>(inputs_.naming_total.violations) /
                        static_cast<double>(inputs_.naming_total.lines_checked)
            : 1.0;
    Verdict v = ratio >= thresholds_.style_compliant_ratio
                    ? Verdict::kCompliant
                    : Verdict::kPartial;
    out.assessments.push_back(
        {"8", v,
         "naming compliance " + FormatDouble(100.0 * ratio, 1) + "% (" +
             Num(inputs_.naming_total.violations) + " of " +
             Num(inputs_.naming_total.lines_checked) + " named declarations)",
         9});
  }
  return out;
}

TableAssessment Assessor::AssessArchitecture() {
  TableAssessment out;
  out.table_id = ArchitecturalDesignTable().id;

  // Row 1: hierarchical structure.
  {
    std::int64_t cross_edges = 0;
    for (const auto& c : architecture_.coupling) {
      cross_edges += c.external_calls;
    }
    out.assessments.push_back(
        {"1", inputs_.modules->size() > 1 ? Verdict::kPartial : Verdict::kNonCompliant,
         Num(static_cast<std::int64_t>(inputs_.modules->size())) +
             " top-level components, " + Num(cross_edges) +
             " cross-component call edges; hierarchy derivable by tooling",
         13});
  }

  // Row 2: restricted size of components (Observation 13).
  {
    std::int64_t oversize = 0;
    std::int64_t max_nloc = 0;
    for (const auto& m : architecture_.sizes) {
      if (m.nloc > thresholds_.max_component_nloc) ++oversize;
      if (m.nloc > max_nloc) max_nloc = m.nloc;
    }
    Verdict v = oversize == 0 ? Verdict::kCompliant : Verdict::kNonCompliant;
    out.assessments.push_back(
        {"2", v,
         Num(oversize) + " of " +
             Num(static_cast<std::int64_t>(architecture_.sizes.size())) +
             " components exceed " + Num(thresholds_.max_component_nloc) +
             " NLOC (largest: " + Num(max_nloc) + ")",
         13});
  }

  // Row 3: restricted size of interfaces.
  {
    std::int64_t wide = 0;
    std::int32_t max_params = 0;
    for (const auto& i : architecture_.interfaces) {
      wide += i.functions_over_param_limit;
      if (i.max_params > max_params) max_params = i.max_params;
    }
    const Verdict v =
        Grade(wide == 0, wide <= inputs_.total_functions / 50);
    out.assessments.push_back(
        {"3", v,
         Num(wide) + " functions exceed " + Num(thresholds_.max_params) +
             " parameters (max " + Num(max_params) + ")",
         13});
  }

  // Rows 4–5: cohesion / coupling.
  {
    double min_cohesion = 1.0;
    std::int32_t max_efferent = 0;
    for (const auto& c : architecture_.coupling) {
      if (c.cohesion < min_cohesion) min_cohesion = c.cohesion;
      if (c.efferent_modules > max_efferent) {
        max_efferent = c.efferent_modules;
      }
    }
    const Verdict v4 = Grade(min_cohesion >= thresholds_.cohesion_compliant,
                             min_cohesion >= thresholds_.cohesion_partial);
    out.assessments.push_back(
        {"4", v4,
         "minimum component cohesion " + FormatDouble(min_cohesion, 2) +
             " (intra-component call fraction)",
         13});
    Verdict v5 = max_efferent <= thresholds_.max_efferent_modules
                     ? Verdict::kCompliant
                     : Verdict::kPartial;
    out.assessments.push_back(
        {"5", v5,
         "maximum efferent coupling " + Num(max_efferent) +
             " components (limit " + Num(thresholds_.max_efferent_modules) +
             ")",
         13});
  }

  // Row 6: scheduling properties — not statically assessable from source.
  out.assessments.push_back(
      {"6", Verdict::kNotApplicable,
       "not statically assessable: requires the deployed task/executor "
       "configuration, not source text",
       0});

  // Row 7: restricted use of interrupts.
  {
    std::int64_t interrupt_constructs = 0;
    for (const auto& mod : *inputs_.modules) {
      for (const auto& file : mod.files) {
        interrupt_constructs += InterruptConstructs(file);
      }
    }
    out.assessments.push_back(
        {"7",
         interrupt_constructs == 0 ? Verdict::kCompliant : Verdict::kPartial,
         Num(interrupt_constructs) + " interrupt/signal-handling constructs",
         0});
  }
  return out;
}

TableAssessment Assessor::AssessUnitDesign() {
  TableAssessment out;
  out.table_id = UnitDesignTable().id;

  UnitDesignStats total;
  for (const auto& ud : inputs_.unit_design) {
    const UnitDesignStats& s = ud.stats;
    total.functions_total += s.functions_total;
    total.functions_multi_exit += s.functions_multi_exit;
    total.dynamic_alloc_sites += s.dynamic_alloc_sites;
    total.uninitialized_locals += s.uninitialized_locals;
    total.shadowing_decls += s.shadowing_decls;
    total.mutable_globals += s.mutable_globals;
    total.const_globals += s.const_globals;
    total.pointer_params += s.pointer_params;
    total.pointer_derefs += s.pointer_derefs;
    total.explicit_casts += s.explicit_casts;
    total.global_write_sites += s.global_write_sites;
    total.goto_statements += s.goto_statements;
    total.recursive_functions_direct += s.recursive_functions_direct;
    total.recursion_cycles_indirect += s.recursion_cycles_indirect;
  }

  const double knloc =
      inputs_.total_nloc > 0 ? static_cast<double>(inputs_.total_nloc) / 1000.0 : 1.0;
  auto rate_verdict = [&](std::int64_t count) {
    return Grade(count == 0, static_cast<double>(count) / knloc <=
                                 thresholds_.unit_partial_rate_per_knloc);
  };

  out.assessments.push_back(
      {"1",
       Grade(total.functions_multi_exit == 0,
             total.MultiExitFraction() <= 0.05),
       FormatDouble(100.0 * total.MultiExitFraction(), 1) +
           "% of functions have multiple exit points (" +
           Num(total.functions_multi_exit) + " of " +
           Num(total.functions_total) + ")",
       14});
  out.assessments.push_back(
      {"2", rate_verdict(total.dynamic_alloc_sites),
       Num(total.dynamic_alloc_sites) + " dynamic allocation sites "
       "(new/malloc/cudaMalloc)",
       14});
  out.assessments.push_back(
      {"3", rate_verdict(total.uninitialized_locals),
       Num(total.uninitialized_locals) + " uninitialized scalar locals", 14});
  out.assessments.push_back(
      {"4", rate_verdict(total.shadowing_decls),
       Num(total.shadowing_decls) + " locals reuse an existing name", 14});
  out.assessments.push_back(
      {"5", rate_verdict(total.mutable_globals),
       Num(total.mutable_globals) + " mutable globals (" +
           Num(total.const_globals) + " const)",
       14});
  out.assessments.push_back(
      {"6", rate_verdict(total.pointer_params),
       Num(total.pointer_params) + " pointer parameters, " +
           Num(total.pointer_derefs) + " -> dereferences",
       14});
  out.assessments.push_back(
      {"7", rate_verdict(total.explicit_casts),
       Num(total.explicit_casts) + " explicit conversions (implicit "
       "conversions not lexically decidable)",
       14});
  out.assessments.push_back(
      {"8", rate_verdict(total.global_write_sites),
       Num(total.global_write_sites) + " writes to file-scope state from "
       "function bodies",
       14});
  out.assessments.push_back(
      {"9",
       total.goto_statements == 0 ? Verdict::kCompliant
                                  : Verdict::kNonCompliant,
       Num(total.goto_statements) + " unconditional jumps (goto)", 14});
  out.assessments.push_back(
      {"10",
       (total.recursive_functions_direct + total.recursion_cycles_indirect) ==
               0
           ? Verdict::kCompliant
           : Verdict::kPartial,
       Num(total.recursive_functions_direct) + " directly recursive "
           "functions, " +
           Num(total.recursion_cycles_indirect) + " indirect cycles",
       14});
  return out;
}

}  // namespace certkit::rules
