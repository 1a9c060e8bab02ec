#include "rules/misra.h"

#include <string>
#include <unordered_set>
#include <vector>

#include "metrics/function_metrics.h"
#include "support/strings.h"

namespace certkit::rules {

namespace {

using lex::Tok;
using lex::Token;
using lex::TokenId;
using lex::TokenSet;

const std::unordered_set<std::string_view>& StdlibAllocNames() {
  static const std::unordered_set<std::string_view> kSet = {
      "malloc", "calloc", "realloc", "free", "aligned_alloc"};
  return kSet;
}

const std::unordered_set<std::string_view>& CudaAllocNames() {
  static const std::unordered_set<std::string_view> kSet = {
      "cudaMalloc", "cudaMallocManaged", "cudaMallocHost", "cudaFree",
      "cudaFreeHost"};
  return kSet;
}

const std::unordered_set<std::string_view>& StdioNames() {
  static const std::unordered_set<std::string_view> kSet = {
      "printf", "fprintf", "sprintf", "snprintf", "scanf",  "fscanf",
      "sscanf", "gets",    "puts",    "fopen",    "fclose", "getchar",
      "putchar"};
  return kSet;
}

constexpr TokenSet kEqualityOps = {Tok("=="), Tok("!=")};
constexpr TokenSet kNewDelete = {Tok("new"), Tok("delete")};
constexpr TokenSet kConditionKeywords = {Tok("if"), Tok("for"), Tok("while")};
// Statements whose body MISRA 15.6 requires to be a compound statement.
constexpr TokenSet kBodyKeywords = {Tok("if"), Tok("for"), Tok("while"),
                                    Tok("else"), Tok("do")};
constexpr TokenSet kCaseLabels = {Tok("case"), Tok("default")};
constexpr TokenSet kBraces = {Tok("{"), Tok("}")};
// Statements that end a case body without falling through.
constexpr TokenSet kCaseExits = {Tok("break"), Tok("return"), Tok("continue"),
                                 Tok("goto"), Tok("throw")};

// Octal iff it starts with 0, has more digits, and is not hex/binary/float
// (like 0.5).
bool IsOctalConstant(std::string_view text) {
  return text.size() >= 2 && text[0] == '0' && text[1] >= '0' &&
         text[1] <= '7' && text.find_first_of(".eEfF") == text.npos;
}

// A number token that is clearly floating (has '.', exponent, or f suffix;
// a hex float has a p exponent).
bool IsFloatLiteral(const Token& t) {
  const std::string_view s = t.text;
  const bool hex = s.size() > 1 && s[0] == '0' && (s[1] == 'x' || s[1] == 'X');
  return t.id == lex::kIdNumber &&
         s.find_first_of(hex ? "pP" : ".eEfF") != s.npos;
}

// Skips forward from `i` to the first token that is not part of `( ... )`
// attached to a control keyword. Returns index of the token after ')'.
std::size_t AfterConditionParens(const std::vector<Token>& toks,
                                 std::size_t i, std::size_t end) {
  std::size_t j = i + 1;
  if (j <= end && toks[j].id == Tok("(")) {
    j = lex::MatchingClose(toks, j, end) + 1;
  }
  return j;
}

// The body after `keyword` (at `body`) must be a compound statement — unless
// it is the `while (...);` tail of a do-while or an `else if`.
bool NeedsCompoundBody(TokenId keyword, TokenId body) {
  return body != Tok("{") && !(keyword == Tok("while") && body == Tok(";")) &&
         !(keyword == Tok("else") && body == Tok("if"));
}

// Where a walk over one switch body is.
struct CaseState {
  std::size_t label = 0;    // token index of the last case/default
  bool open = false;        // inside a case body
  bool nonempty = false;    // the body holds a statement
  bool terminated = true;   // break/return/continue/goto/throw/[[fallthrough]]
};

class MisraChecker {
 public:
  MisraChecker(const ast::SourceFileModel& file, const MisraOptions& options,
               CheckReport* report)
      : file_(file), options_(options), report_(report),
        toks_(file.lexed.tokens) {}

  void Run() {
    CheckDirectives();
    CheckFileLevelTokens();
    CheckCStyleCasts();
    for (const auto& fn : file_.functions) {
      ++report_->entities_checked;
      CheckFunction(fn);
    }
  }

 private:
  void CheckDirectives() {
    for (const auto& d : file_.lexed.directives) {
      if (d.name == "undef") {
        report_->Add("MISRA-20.5", Severity::kWarning, file_.path, d.line,
                     "#undef shall not be used");
      }
    }
    for (const auto& m : file_.macros) {
      if (m.function_like) {
        report_->Add("MISRA-D4.9", Severity::kInfo, file_.path, m.line,
                     "function-like macro '" + m.name + "' should be a "
                     "function");
      }
    }
  }

  void CheckFileLevelTokens() {
    for (std::size_t i = 0; i < toks_.size(); ++i) {
      const Token& t = toks_[i];
      if (t.id == Tok("union")) {
        report_->Add("MISRA-19.2", Severity::kWarning, file_.path, t.line,
                     "the union keyword should not be used");
      }
      if (t.id == lex::kIdNumber && IsOctalConstant(t.text)) {
        report_->Add("MISRA-7.1", Severity::kWarning, file_.path, t.line,
                     "octal constant '" + t.str() + "'");
      }
      if (kEqualityOps.contains(t.id) && i > 0 && i + 1 < toks_.size() &&
          (IsFloatLiteral(toks_[i - 1]) || IsFloatLiteral(toks_[i + 1]))) {
        report_->Add("MISRA-13.3", Severity::kWarning, file_.path, t.line,
                     "floating-point equality comparison");
      }
    }
  }

  void CheckCStyleCasts() {
    for (const auto& c : file_.casts) {
      if (c.kind == ast::CastKind::kCStyle) {
        report_->Add("MISRA-11.4", Severity::kWarning, file_.path, c.line,
                     "C-style cast to '" + c.target_text +
                         "' — use a named cast");
      }
    }
  }

  void CheckFunction(const ast::FunctionModel& fn) {
    const metrics::FunctionMetrics fm =
        metrics::ComputeFunctionMetrics(file_, fn);

    for (const auto& param : fn.params) {
      if (param.name == "...") {
        report_->Add("MISRA-17.1", Severity::kRequired, file_.path,
                     fn.start_line,
                     "function '" + fn.name + "' takes variadic arguments");
      }
    }

    if (fm.goto_count > 0) {
      report_->Add("MISRA-15.1", Severity::kRequired, file_.path,
                   fn.start_line,
                   "function '" + fn.name + "' uses goto (" +
                       std::to_string(fm.goto_count) + " occurrence(s))");
    }
    if (fm.return_count > 1) {
      report_->Add("MISRA-15.5", Severity::kWarning, file_.path,
                   fn.start_line,
                   "function '" + fn.name + "' has " +
                       std::to_string(fm.return_count) + " return points");
    }
    if (fm.is_recursive_direct) {
      report_->Add("MISRA-17.2", Severity::kRequired, file_.path,
                   fn.start_line,
                   "function '" + fn.name + "' calls itself recursively");
    }

    CheckDynamicMemory(fn);
    CheckStdio(fn);
    CheckCompoundBodies(fn);
    CheckSwitches(fn);
    if (options_.check_unused_params) CheckUnusedParams(fn);
  }

  void CheckDynamicMemory(const ast::FunctionModel& fn) {
    for (std::size_t i = fn.body_begin; i <= fn.body_end; ++i) {
      const Token& t = toks_[i];
      if (lex::IsCallAt(toks_, i, fn.body_end)) CheckAllocCall(t);
      // `operator new` definitions excluded by requiring expression
      // position (previous token not `operator`).
      if (options_.include_dialect_analogues && kNewDelete.contains(t.id) &&
          !(i > fn.body_begin && toks_[i - 1].id == Tok("operator"))) {
        report_->Add("MISRA-21.3", Severity::kRequired, file_.path, t.line,
                     std::string("dynamic memory via '") + t.str() + "'");
      }
    }
  }

  void CheckAllocCall(const Token& t) {
    if (StdlibAllocNames().contains(t.text)) {
      report_->Add("MISRA-21.3", Severity::kRequired, file_.path, t.line,
                   "dynamic memory via '" + t.str() + "'");
    } else if (options_.include_dialect_analogues &&
               CudaAllocNames().contains(t.text)) {
      report_->Add("MISRA-21.3", Severity::kRequired, file_.path, t.line,
                   "CUDA dynamic device memory via '" + t.str() + "'");
    }
  }

  void CheckStdio(const ast::FunctionModel& fn) {
    for (std::size_t i = fn.body_begin; i <= fn.body_end; ++i) {
      const Token& t = toks_[i];
      if (lex::IsCallAt(toks_, i, fn.body_end) &&
          StdioNames().contains(t.text)) {
        // Qualified std::printf also matches — the rule targets the call.
        report_->Add("MISRA-21.6", Severity::kWarning, file_.path, t.line,
                     "standard I/O function '" + t.str() + "' used");
      }
    }
  }

  void CheckCompoundBodies(const ast::FunctionModel& fn) {
    for (std::size_t i = fn.body_begin; i <= fn.body_end; ++i) {
      const Token& t = toks_[i];
      if (!kBodyKeywords.contains(t.id)) continue;
      const std::size_t body_at =
          kConditionKeywords.contains(t.id)
              ? AfterConditionParens(toks_, i, fn.body_end)
              : i + 1;
      if (body_at <= fn.body_end &&
          NeedsCompoundBody(t.id, toks_[body_at].id)) {
        report_->Add("MISRA-15.6", Severity::kWarning, file_.path, t.line,
                     "body of '" + t.str() + "' is not a compound statement");
      }
    }
  }

  void CheckSwitches(const ast::FunctionModel& fn) {
    for (std::size_t i = fn.body_begin; i <= fn.body_end; ++i) {
      if (toks_[i].id != Tok("switch")) continue;
      std::size_t j = AfterConditionParens(toks_, i, fn.body_end);
      if (j > fn.body_end || toks_[j].id != Tok("{")) continue;
      const std::size_t close = lex::MatchingClose(toks_, j, fn.body_end);
      CheckOneSwitch(i, j, close);
      // Nested switches inside are found by the outer loop as it advances.
    }
  }

  void CheckOneSwitch(std::size_t switch_idx, std::size_t open,
                      std::size_t close) {
    bool has_default = false;
    // Case labels count at switch depth (depth 1 relative to `open`).
    int depth = 0;
    CaseState state;
    for (std::size_t i = open; i <= close; ++i) {
      const Token& t = toks_[i];
      if (kBraces.contains(t.id)) {
        depth += lex::Nesting(t.id, Tok("{"));
      } else if (depth == 1 && kCaseLabels.contains(t.id)) {
        has_default |= t.id == Tok("default");
        i = OpenCase(i, close, &state);
      } else if (state.open) {
        NoteCaseToken(t, &state);
      }
    }
    if (!has_default) {
      report_->Add("MISRA-16.4", Severity::kWarning, file_.path,
                   toks_[switch_idx].line, "switch without default label");
    }
  }

  // At the case/default label toks_[i]: reports a fallthrough into it from
  // a case body that did not end, opens its own body, and returns the index
  // of the label's ':'.
  std::size_t OpenCase(std::size_t i, std::size_t close, CaseState* state) {
    if (state->open && state->nonempty && !state->terminated) {
      report_->Add("MISRA-16.1", Severity::kWarning, file_.path,
                   toks_[state->label].line,
                   "implicit fallthrough between switch cases");
    }
    *state = {.label = i, .open = true, .nonempty = false,
              .terminated = false};
    // Skip the label expression up to ':'.
    while (i <= close && toks_[i].id != Tok(":")) ++i;
    return i;
  }

  static void NoteCaseToken(const Token& t, CaseState* state) {
    if (kCaseExits.contains(t.id) ||
        (t.IsIdentifier() && t.text == "fallthrough")) {  // [[fallthrough]]
      state->terminated = true;
    } else if (t.id != Tok(";")) {
      state->nonempty = true;
    }
  }

  void CheckUnusedParams(const ast::FunctionModel& fn) {
    for (const auto& p : fn.params) {
      if (p.name.empty() || p.name == "...") continue;
      bool used = false;
      for (std::size_t i = fn.body_begin; i <= fn.body_end; ++i) {
        if (toks_[i].IsIdentifier() && toks_[i].text == p.name) {
          used = true;
          break;
        }
      }
      if (!used) {
        report_->Add("MISRA-2.7", Severity::kInfo, file_.path, fn.start_line,
                     "parameter '" + p.name + "' of '" + fn.name +
                         "' is unused");
      }
    }
  }

  const ast::SourceFileModel& file_;
  const MisraOptions& options_;
  CheckReport* report_;
  const std::vector<Token>& toks_;
};

void CountCudaFunction(const ast::FunctionModel& fn, CudaDialectStats* stats) {
  if (fn.is_cuda_kernel) {
    ++stats->kernel_count;
    std::int32_t ptr_params = 0;
    for (const auto& p : fn.params) {
      if (support::Contains(p.type_text, "*")) ++ptr_params;
    }
    stats->kernel_pointer_params += ptr_params;
    if (ptr_params > 0) ++stats->kernels_with_pointer_params;
  }
  if (fn.is_cuda_device) ++stats->device_fn_count;
}

void CountCudaCall(std::string_view name, CudaDialectStats* stats) {
  if (name == "cudaMalloc" || name == "cudaMallocManaged" ||
      name == "cudaMallocHost") {
    ++stats->cuda_malloc_calls;
  } else if (name == "cudaMemcpy" || name == "cudaMemcpyAsync") {
    ++stats->cuda_memcpy_calls;
  } else if (name == "cudaFree" || name == "cudaFreeHost") {
    ++stats->cuda_free_calls;
  }
}

}  // namespace

CheckReport CheckMisra(const ast::SourceFileModel& file,
                       const MisraOptions& options) {
  CheckReport report;
  report.checker = "misra";
  MisraChecker checker(file, options, &report);
  checker.Run();
  return report;
}

CudaDialectStats AnalyzeCudaDialect(const ast::SourceFileModel& file) {
  CudaDialectStats stats;
  const auto& toks = file.lexed.tokens;
  for (const auto& fn : file.functions) CountCudaFunction(fn, &stats);
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (lex::IsCallAt(toks, i, toks.size() - 1)) {
      CountCudaCall(toks[i].text, &stats);
    }
  }
  return stats;
}

}  // namespace certkit::rules
