// certkit rules: defensive-implementation analysis (ISO 26262-6 Table 1
// row 4; the paper's §3.1.4 and Observation 6).
//
// The standard asks that software behave predictably on unexpected inputs:
// functions should validate their parameters, and callers should handle all
// possible return values. Both properties are approximated structurally:
//  * a function "validates its inputs" when its body contains an assertion
//    or an `if` whose condition references a parameter before any other use
//    of that parameter in a computation — detected as an assert/CHECK-family
//    call or `if (...)` whose parenthesized condition names a parameter;
//  * a call "discards the result" when a known non-void function is invoked
//    as a whole expression statement.
#ifndef CERTKIT_RULES_DEFENSIVE_H_
#define CERTKIT_RULES_DEFENSIVE_H_

#include <vector>

#include "ast/source_model.h"
#include "rules/finding.h"

namespace certkit::rules {

struct DefensiveStats {
  std::int64_t functions_with_params = 0;
  std::int64_t functions_validating_inputs = 0;
  std::int64_t call_sites_checked = 0;    // statement-level calls seen
  std::int64_t discarded_results = 0;     // non-void results ignored
  std::int64_t assertion_sites = 0;       // assert/CHECK-family calls

  template <class Io, class Self>
  static void Fields(Io& io, Self& s) {
    io("functions_with_params", s.functions_with_params);
    io("functions_validating_inputs", s.functions_validating_inputs);
    io("call_sites_checked", s.call_sites_checked);
    io("discarded_results", s.discarded_results);
    io("assertion_sites", s.assertion_sites);
  }

  double InputValidationRatio() const {
    return functions_with_params > 0
               ? static_cast<double>(functions_validating_inputs) /
                     static_cast<double>(functions_with_params)
               : 1.0;
  }
};

struct DefensiveResult {
  DefensiveStats stats;
  CheckReport report;  // rule ids "DEF-INPUT", "DEF-RESULT"
};

// Analyzes files as a group so that non-void functions defined in one file
// are known at call sites in another.
DefensiveResult AnalyzeDefensive(
    const std::vector<ast::SourceFileModel>& files);

}  // namespace certkit::rules

#endif  // CERTKIT_RULES_DEFENSIVE_H_
