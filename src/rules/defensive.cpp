#include "rules/defensive.h"

#include <string>
#include <unordered_map>
#include <unordered_set>

namespace certkit::rules {

namespace {

using lex::Tok;
using lex::Token;

bool IsAssertLikeName(std::string_view name) {
  static const std::unordered_set<std::string_view> kSet = {
      "assert",        "static_assert", "CHECK",         "DCHECK",
      "CHECK_NOTNULL", "CHECK_GE",      "CHECK_GT",      "CHECK_LE",
      "CHECK_LT",      "CHECK_EQ",      "CHECK_NE",      "ASSERT",
      "CERTKIT_CHECK", "CERTKIT_CHECK_MSG", "ACHECK",    "AERROR_IF",
      "EXPECT_TRUE",   "ASSERT_TRUE"};
  return kSet.contains(name);
}

// True if any token in (open, close) is an identifier naming a parameter.
bool SpanMentionsParam(const std::vector<Token>& toks, std::size_t open,
                       std::size_t close,
                       const std::unordered_set<std::string_view>& params) {
  for (std::size_t i = open + 1; i < close; ++i) {
    if (toks[i].IsIdentifier() && params.contains(toks[i].text)) return true;
  }
  return false;
}

// One pass over a file set: the functions it knows by name (views into
// the FunctionModel names, which outlive the pass), and the stats and
// findings it accumulates.
struct DefensivePass {
  DefensiveStats& s;
  CheckReport& rep;
  std::unordered_set<std::string_view> known = {};
  std::unordered_set<std::string_view> nonvoid = {};

  void CheckFunction(const ast::SourceFileModel& file,
                     const ast::FunctionModel& fn) {
    ++rep.entities_checked;
    std::unordered_set<std::string_view> params;
    for (const auto& p : fn.params) {
      if (!p.name.empty() && p.name != "...") params.insert(p.name);
    }
    if (!params.empty()) {
      ++s.functions_with_params;
      if (ValidatesInputs(file.lexed.tokens, fn, params)) {
        ++s.functions_validating_inputs;
      } else {
        rep.Add("DEF-INPUT", Severity::kWarning, file.path, fn.start_line,
                "function '" + fn.name + "' (" +
                    std::to_string(params.size()) +
                    " parameter(s)) never validates its inputs");
      }
    }
    // Discarded results: at each statement start.
    lex::ForEachStatementStart(
        file.lexed.tokens, fn.body_begin, fn.body_end,
        [&](std::size_t i) { CheckDiscardedResult(file, fn, i); });
  }

  // Input validation: whether an `if` condition or an assertion's
  // arguments name a parameter. Counts the assertion sites on the way.
  bool ValidatesInputs(const std::vector<Token>& toks,
                       const ast::FunctionModel& fn,
                       const std::unordered_set<std::string_view>& params) {
    bool validates = false;
    for (std::size_t i = fn.body_begin; i <= fn.body_end && !validates;
         ++i) {
      const bool is_assert = lex::IsCallAt(toks, i, fn.body_end) &&
                             IsAssertLikeName(toks[i].text);
      s.assertion_sites += is_assert;
      const std::size_t open = i + 1;
      validates = (is_assert || toks[i].id == Tok("if")) &&
                  open <= fn.body_end && toks[open].id == Tok("(") &&
                  SpanMentionsParam(
                      toks, open, lex::MatchingClose(toks, open, fn.body_end),
                      params);
    }
    return validates;
  }

  // An expression statement `name ( ... ) ;` starting at toks[i], where
  // `name` is a known non-void function, discards its result.
  void CheckDiscardedResult(const ast::SourceFileModel& file,
                            const ast::FunctionModel& fn, std::size_t i) {
    const auto& toks = file.lexed.tokens;
    const Token& t = toks[i];
    const bool call =
        lex::IsCallAt(toks, i, fn.body_end - 1) && known.contains(t.text);
    const std::size_t close =
        call ? lex::MatchingClose(toks, i + 1, fn.body_end) : fn.body_end;
    // Followed by anything but ';', the call is part of a larger
    // expression: its result is consumed.
    if (close + 1 <= fn.body_end && toks[close + 1].id == Tok(";")) {
      ++s.call_sites_checked;
      if (nonvoid.contains(t.text)) {
        ++s.discarded_results;
        rep.Add("DEF-RESULT", Severity::kWarning, file.path, t.line,
                "result of non-void '" + t.str() + "' is discarded in '" +
                    fn.name + "'");
      }
    }
  }
};

}  // namespace

DefensiveResult AnalyzeDefensive(
    const std::vector<ast::SourceFileModel>& files) {
  DefensiveResult result;
  result.report.checker = "defensive";
  DefensivePass pass{result.stats, result.report};
  for (const auto& file : files) {
    for (const auto& fn : file.functions) {
      pass.known.insert(fn.name);
      if (!fn.returns_void) pass.nonvoid.insert(fn.name);
    }
  }
  for (const auto& file : files) {
    for (const auto& fn : file.functions) pass.CheckFunction(file, fn);
  }
  return result;
}

}  // namespace certkit::rules
