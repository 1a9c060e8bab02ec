// certkit rules: style-guide checker (Google C++ style subset).
//
// The paper's Observations 8–9 note that Apollo adopts the Google C++ style
// guide and validates contributions with style checkers. This module
// implements the lexically checkable core of that guide:
//   STYLE-LINELEN   lines at most N columns (default 80)
//   STYLE-TAB       no tab characters in indentation
//   STYLE-TRAILWS   no trailing whitespace
//   STYLE-EOFNL     file ends with exactly one newline
//   STYLE-TYPENAME  type names are UpperCamelCase
//   STYLE-FUNCNAME  function names are UpperCamelCase (or snake_case
//                   accessors, which the guide also permits)
//   STYLE-VARNAME   file-scope variable names are snake_case (constants may
//                   be kUpperCamelCase)
//   STYLE-CONSTNAME const/constexpr globals are kUpperCamelCase
//   STYLE-MACRONAME macros are MACRO_CASE
//   STYLE-GUARD     headers use include guards or #pragma once
#ifndef CERTKIT_RULES_STYLE_H_
#define CERTKIT_RULES_STYLE_H_

#include <string_view>

#include "ast/source_model.h"
#include "rules/finding.h"

namespace certkit::rules {

struct StyleOptions {
  int max_line_length = 80;
  bool check_naming = true;
  bool is_header = false;  // enables STYLE-GUARD
};

struct StyleStats {
  std::int64_t lines_checked = 0;
  std::int64_t violations = 0;

  template <class Io, class Self>
  static void Fields(Io& io, Self& s) {
    io("lines_checked", s.lines_checked);
    io("violations", s.violations);
  }

  // Compliance ratio in [0,1]: 1 - violations per checked entity, floored
  // at 0. "Entities" are lines plus named declarations.
  double ComplianceRatio() const {
    if (lines_checked <= 0) return 1.0;
    const double v = 1.0 - static_cast<double>(violations) /
                               static_cast<double>(lines_checked);
    return v < 0.0 ? 0.0 : v;
  }
};

struct StyleResult {
  StyleStats stats;
  CheckReport report;
};

// Checks `file` (parsed model) against the style guide. `raw_source` must be
// the exact text that was parsed (for line-level checks).
StyleResult CheckStyle(const ast::SourceFileModel& file,
                       std::string_view raw_source,
                       const StyleOptions& options = {});

}  // namespace certkit::rules

#endif  // CERTKIT_RULES_STYLE_H_
