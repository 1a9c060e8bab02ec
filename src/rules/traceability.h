// certkit rules: requirement-to-code traceability.
//
// The paper's introduction identifies traceability as "a fundamental element
// to link high-level requirements, low-level requirements, and analyzes" in
// the ISO 26262 life-cycle. This analyzer extracts requirement tags of the
// form `REQ-<IDENT>` (e.g. REQ-PLAN-001) from source comments and links each
// tag to the function definition it annotates (the next definition at or
// below the comment line).
//
// Outputs: the requirement -> functions map, the set of functions with no
// requirement linkage (untraceable code), and dangling tags that precede no
// function.
#ifndef CERTKIT_RULES_TRACEABILITY_H_
#define CERTKIT_RULES_TRACEABILITY_H_

#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "ast/source_model.h"

namespace certkit::rules {

struct RequirementLink {
  std::string requirement;       // "REQ-PLAN-001"
  std::string file;
  std::int32_t comment_line = 0;
  std::string function;          // qualified name ("" when dangling)

  template <class Io, class Self>
  static void Fields(Io& io, Self& l) {
    io("requirement", l.requirement);
    io("file", l.file);
    io("comment_line", l.comment_line);
    io("function", l.function);
  }
};

struct TraceReport {
  std::vector<RequirementLink> links;
  // Functions (qualified names) with no requirement annotation.
  std::vector<std::string> untraced_functions;
  std::int64_t functions_total = 0;

  template <class Io, class Self>
  static void Fields(Io& io, Self& t) {
    io("links", t.links);
    io("untraced_functions", t.untraced_functions);
    io("functions_total", t.functions_total);
  }

  double TraceabilityRatio() const {
    if (functions_total == 0) return 1.0;
    return 1.0 - static_cast<double>(untraced_functions.size()) /
                     static_cast<double>(functions_total);
  }
  // Distinct requirement tags seen.
  std::vector<std::string> Requirements() const;
};

// Extracts all `REQ-...` tags from `text` (uppercase letters, digits,
// dashes; at least one character after "REQ-").
std::vector<std::string> ExtractRequirementTags(std::string_view text);

// Analyzes one parsed file. The file must have been lexed with
// LexOptions::keep_comments = true; otherwise every function is untraced.
TraceReport AnalyzeTraceability(const ast::SourceFileModel& file);

// Merges per-file reports.
TraceReport MergeTraceReports(const std::vector<TraceReport>& reports);

}  // namespace certkit::rules

#endif  // CERTKIT_RULES_TRACEABILITY_H_
