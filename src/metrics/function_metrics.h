// certkit metrics: per-function code metrics.
//
// Cyclomatic complexity follows Lizard's counting rule (the tool used for the
// paper's Figure 3): CC = 1 + number of decision tokens, where the decision
// tokens are `if`, `for`, `while`, `case`, `catch`, `&&`, `||`, and the
// ternary `?`. `else`, `default` and `do` do not add paths under this rule.
#ifndef CERTKIT_METRICS_FUNCTION_METRICS_H_
#define CERTKIT_METRICS_FUNCTION_METRICS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "ast/source_model.h"

namespace certkit::metrics {

struct FunctionMetrics {
  std::string name;
  std::string qualified_name;
  std::int32_t start_line = 0;
  std::int32_t end_line = 0;

  std::int32_t cyclomatic_complexity = 1;
  std::int32_t nloc = 0;         // lines carrying code within the function
  std::int32_t token_count = 0;  // tokens from signature to closing brace
  std::int32_t param_count = 0;
  std::int32_t max_nesting_depth = 0;  // brace depth relative to the body

  std::int32_t return_count = 0;
  std::int32_t goto_count = 0;
  bool is_recursive_direct = false;

  // Distinct names invoked as `name(...)` in the body (fan-out).
  std::vector<std::string> callees;

  // The persisted form (support/record.h).
  template <class Io, class Self>
  static void Fields(Io& io, Self& m) {
    io("name", m.name);
    io("qualified_name", m.qualified_name);
    io("start_line", m.start_line);
    io("end_line", m.end_line);
    io("cyclomatic_complexity", m.cyclomatic_complexity);
    io("nloc", m.nloc);
    io("token_count", m.token_count);
    io("param_count", m.param_count);
    io("max_nesting_depth", m.max_nesting_depth);
    io("return_count", m.return_count);
    io("goto_count", m.goto_count);
    io("is_recursive_direct", m.is_recursive_direct);
    io("callees", m.callees);
  }
};

// Computes metrics for `fn`, whose token ranges refer to `file.lexed.tokens`.
FunctionMetrics ComputeFunctionMetrics(const ast::SourceFileModel& file,
                                       const ast::FunctionModel& fn);

// Cyclomatic-complexity risk bands used in Figure 3 of the paper:
// 1–10 low, 11–20 moderate, 21–50 risky, >50 unstable.
enum class ComplexityBand { kLow, kModerate, kRisky, kUnstable };
ComplexityBand BandOf(std::int32_t cyclomatic_complexity);

}  // namespace certkit::metrics

#endif  // CERTKIT_METRICS_FUNCTION_METRICS_H_
