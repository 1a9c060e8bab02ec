#include "metrics/function_metrics.h"

#include <algorithm>
#include <unordered_set>

#include "support/check.h"

namespace certkit::metrics {

namespace {

using lex::Tok;
using lex::Token;

// Tokens that add a path: branches, loops, case labels, handlers, and the
// short-circuit and conditional operators.
constexpr lex::TokenSet kDecisionTokens = {
    Tok("if"), Tok("for"), Tok("while"), Tok("case"),
    Tok("catch"), Tok("&&"), Tok("||"), Tok("?")};

}  // namespace

FunctionMetrics ComputeFunctionMetrics(const ast::SourceFileModel& file,
                                       const ast::FunctionModel& fn) {
  const auto& toks = file.lexed.tokens;
  CERTKIT_CHECK(fn.body_begin < toks.size());
  CERTKIT_CHECK(fn.body_end < toks.size());
  CERTKIT_CHECK(fn.body_begin <= fn.body_end);

  FunctionMetrics m;
  m.name = fn.name;
  m.qualified_name = fn.qualified_name;
  m.start_line = fn.start_line;
  m.end_line = fn.end_line;
  m.param_count = static_cast<std::int32_t>(fn.params.size());
  m.token_count =
      static_cast<std::int32_t>(fn.body_end - fn.sig_begin + 1);

  // Views into the file's token storage; valid for this function's scope.
  std::unordered_set<std::string_view> callees;
  std::int32_t last_code_line = -1;
  int depth = 0;

  for (std::size_t i = fn.body_begin; i <= fn.body_end; ++i) {
    const Token& t = toks[i];

    if (t.line != last_code_line) {
      ++m.nloc;
      last_code_line = t.line;
    }

    if (t.id == Tok("{")) {
      ++depth;
      m.max_nesting_depth = std::max(m.max_nesting_depth, depth - 1);
    } else if (t.id == Tok("}")) {
      --depth;
    }
    m.cyclomatic_complexity += kDecisionTokens.contains(t.id);
    m.return_count += t.id == Tok("return");
    m.goto_count += t.id == Tok("goto");

    if (lex::IsCallAt(toks, i, fn.body_end)) {
      callees.insert(t.text);
      if (t.text == fn.name) m.is_recursive_direct = true;
    }
  }

  m.callees.reserve(callees.size());
  for (std::string_view callee : callees) m.callees.emplace_back(callee);
  std::sort(m.callees.begin(), m.callees.end());
  return m;
}

ComplexityBand BandOf(std::int32_t cc) {
  if (cc <= 10) return ComplexityBand::kLow;
  if (cc <= 20) return ComplexityBand::kModerate;
  if (cc <= 50) return ComplexityBand::kRisky;
  return ComplexityBand::kUnstable;
}

}  // namespace certkit::metrics
