#include "rules/error_handling.h"

#include <unordered_set>

#include "support/strings.h"

namespace certkit::rules {

namespace {

using lex::Tok;
using lex::Token;

constexpr Recommendation kOO = Recommendation::kNone;
constexpr Recommendation kR = Recommendation::kRecommended;
constexpr Recommendation kHR = Recommendation::kHighlyRecommended;

bool IsAssertName(std::string_view name) {
  static const std::unordered_set<std::string_view> kSet = {
      "assert", "static_assert", "CHECK", "DCHECK", "ACHECK",
      "CERTKIT_CHECK", "CERTKIT_CHECK_MSG", "CHECK_NOTNULL", "ASSERT"};
  return kSet.contains(name);
}

// Names of graceful-degradation code, matched case-insensitively.
bool IsDegradationName(std::string_view name) {
  const std::string lower = support::ToLower(name);
  return support::Contains(lower, "fallback") ||
         support::Contains(lower, "degraded") ||
         support::Contains(lower, "emergency") ||
         support::Contains(lower, "failsafe");
}

// A called name: assertion-family macros, and checksum/CRC routines
// (matched case-insensitively).
void CountCall(std::string_view name, ErrorHandlingStats* s) {
  if (IsAssertName(name)) ++s->assertion_sites;
  const std::string lower = support::ToLower(name);
  if (support::Contains(lower, "checksum") || support::Contains(lower, "crc")) {
    ++s->checksum_sites;
  }
}

bool IsStatusReturnType(const std::vector<Token>& toks, std::size_t begin,
                        std::size_t lparen, const std::string& fn_name) {
  // Scan declarator tokens before the function name for a status-like type.
  for (std::size_t i = begin; i < lparen; ++i) {
    if (!toks[i].IsIdentifier()) continue;
    if (toks[i].text == fn_name) break;  // reached the name
    const std::string lower = support::ToLower(toks[i].text);
    if (lower == "status" || lower == "result" || lower == "error" ||
        lower == "errc" || lower == "expected" || lower == "outcome") {
      return true;
    }
  }
  return false;
}

}  // namespace

ErrorHandlingStats AnalyzeErrorHandling(const ast::SourceFileModel& file) {
  ErrorHandlingStats s;
  const auto& toks = file.lexed.tokens;
  s.functions_total = static_cast<std::int64_t>(file.functions.size());

  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    s.try_blocks += t.id == Tok("try");
    s.throw_sites += t.id == Tok("throw");
    if (t.id == Tok("catch")) {
      ++s.catch_handlers;
      // catch ( ... )
      s.catch_all_handlers += i + 2 < toks.size() &&
                              toks[i + 1].id == Tok("(") &&
                              toks[i + 2].id == Tok("...");
    }
    if (lex::IsCallAt(toks, i, toks.size() - 1)) CountCall(t.text, &s);
    if (t.IsIdentifier() && IsDegradationName(t.text)) ++s.degradation_sites;
  }

  for (const auto& fn : file.functions) {
    if (IsStatusReturnType(toks, fn.sig_begin, fn.lparen, fn.name)) {
      ++s.status_returning_functions;
    }
  }
  return s;
}

ErrorHandlingStats MergeErrorHandling(
    const std::vector<ErrorHandlingStats>& parts) {
  ErrorHandlingStats total;
  for (const auto& p : parts) {
    total.functions_total += p.functions_total;
    total.try_blocks += p.try_blocks;
    total.catch_handlers += p.catch_handlers;
    total.catch_all_handlers += p.catch_all_handlers;
    total.throw_sites += p.throw_sites;
    total.assertion_sites += p.assertion_sites;
    total.status_returning_functions += p.status_returning_functions;
    total.checksum_sites += p.checksum_sites;
    total.degradation_sites += p.degradation_sites;
  }
  return total;
}

const TechniqueTable& ErrorDetectionTable() {
  static const TechniqueTable kTable = {
      "ISO26262-6:Table4",
      "Mechanisms for error detection at the SW architectural level "
      "(ISO26262_6 Table 4)",
      {
          {"1", "Range checks of input and output data", {kHR, kHR, kHR, kHR}},
          {"2", "Plausibility check", {kR, kR, kR, kHR}},
          {"3", "Detection of data errors", {kR, kR, kR, kR}},
          {"4", "External monitoring facility", {kOO, kR, kR, kHR}},
          {"5", "Control flow monitoring", {kOO, kR, kHR, kHR}},
          {"6", "Diverse software design", {kOO, kOO, kR, kHR}},
      },
  };
  return kTable;
}

const TechniqueTable& ErrorHandlingTable() {
  static const TechniqueTable kTable = {
      "ISO26262-6:Table5",
      "Mechanisms for error handling at the SW architectural level "
      "(ISO26262_6 Table 5)",
      {
          {"1", "Static recovery mechanism", {kR, kR, kR, kR}},
          {"2", "Graceful degradation", {kR, kR, kHR, kHR}},
          {"3", "Independent parallel redundancy", {kOO, kOO, kR, kHR}},
          {"4", "Correcting codes for data", {kR, kR, kR, kR}},
      },
  };
  return kTable;
}

TableAssessment AssessErrorDetection(const ErrorHandlingStats& s) {
  TableAssessment out;
  out.table_id = ErrorDetectionTable().id;
  const std::string density =
      support::FormatDouble(s.AssertionDensityPerFunction(), 2);

  // Row 1: range checks — proxied by assertion-family density.
  out.assessments.push_back(
      {"1",
       s.assertion_sites == 0                        ? Verdict::kNonCompliant
       : s.AssertionDensityPerFunction() >= 0.25 ? Verdict::kCompliant
                                                 : Verdict::kPartial,
       std::to_string(s.assertion_sites) + " assertion sites (" + density +
           " per function)",
       6});
  // Row 2: plausibility checks — same family of evidence.
  out.assessments.push_back(
      {"2",
       s.assertion_sites > 0 ? Verdict::kPartial : Verdict::kNonCompliant,
       "plausibility checking proxied by the assertion census", 6});
  // Row 3: data-error detection.
  out.assessments.push_back(
      {"3",
       s.checksum_sites > 0 ? Verdict::kPartial : Verdict::kNonCompliant,
       std::to_string(s.checksum_sites) + " checksum/CRC call sites", 0});
  // Rows 4–5: not decidable from source text.
  out.assessments.push_back(
      {"4", Verdict::kNotApplicable,
       "external monitoring requires the deployed E/E architecture", 0});
  out.assessments.push_back(
      {"5", Verdict::kNotApplicable,
       "control flow monitoring requires runtime/hardware support evidence",
       0});
  // Row 6: diverse design — not decidable lexically.
  out.assessments.push_back(
      {"6", Verdict::kNotApplicable,
       "design diversity is a process property, not a source-text one", 0});
  return out;
}

TableAssessment AssessErrorHandling(const ErrorHandlingStats& s) {
  TableAssessment out;
  out.table_id = ErrorHandlingTable().id;
  // Row 1: static recovery — exception handling with catch handlers.
  out.assessments.push_back(
      {"1",
       s.catch_handlers > 0 ? Verdict::kPartial : Verdict::kNonCompliant,
       std::to_string(s.try_blocks) + " try blocks, " +
           std::to_string(s.catch_handlers) + " catch handlers (" +
           std::to_string(s.catch_all_handlers) + " catch-all)",
       7});
  // Row 2: graceful degradation.
  out.assessments.push_back(
      {"2",
       s.degradation_sites > 0 ? Verdict::kPartial : Verdict::kNonCompliant,
       std::to_string(s.degradation_sites) +
           " fallback/degraded/emergency code sites",
       0});
  // Row 3: redundancy — not decidable from one source tree.
  out.assessments.push_back(
      {"3", Verdict::kNotApplicable,
       "parallel redundancy is a system-level deployment property", 0});
  // Row 4: correcting codes.
  out.assessments.push_back(
      {"4",
       s.checksum_sites > 0 ? Verdict::kPartial : Verdict::kNonCompliant,
       std::to_string(s.checksum_sites) +
           " data-integrity (checksum/CRC) call sites",
       0});
  return out;
}

}  // namespace certkit::rules
