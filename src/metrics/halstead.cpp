#include "metrics/halstead.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "support/check.h"

namespace certkit::metrics {

double HalsteadMetrics::Volume() const {
  const double n = static_cast<double>(Vocabulary());
  if (n < 2.0) return 0.0;
  return static_cast<double>(Length()) * std::log2(n);
}

double HalsteadMetrics::Difficulty() const {
  if (distinct_operands == 0) return 0.0;
  return (static_cast<double>(distinct_operators) / 2.0) *
         (static_cast<double>(total_operands) /
          static_cast<double>(distinct_operands));
}

double HalsteadMetrics::Effort() const { return Difficulty() * Volume(); }

HalsteadMetrics ComputeHalstead(const ast::SourceFileModel& file,
                                const ast::FunctionModel& fn) {
  const auto& toks = file.lexed.tokens;
  CERTKIT_CHECK(fn.body_begin <= fn.body_end && fn.body_end < toks.size());

  HalsteadMetrics m;
  std::unordered_set<std::string_view> operators;
  std::unordered_set<std::string_view> operands;
  for (std::size_t i = fn.body_begin; i <= fn.body_end; ++i) {
    const lex::Token& t = toks[i];
    if (t.kind == lex::TokenKind::kKeyword ||
        t.kind == lex::TokenKind::kPunct) {
      ++m.total_operators;
      operators.insert(t.text);
    } else {
      ++m.total_operands;
      operands.insert(t.text);
    }
  }
  m.distinct_operators = static_cast<std::int64_t>(operators.size());
  m.distinct_operands = static_cast<std::int64_t>(operands.size());
  return m;
}

double MaintainabilityIndex(double volume, int cyclomatic_complexity,
                            int nloc) {
  const double v = std::max(1.0, volume);
  const double loc = std::max(1, nloc);
  const double raw = 171.0 - 5.2 * std::log(v) -
                     0.23 * static_cast<double>(cyclomatic_complexity) -
                     16.2 * std::log(loc);
  return std::clamp(raw * 100.0 / 171.0, 0.0, 100.0);
}

double FunctionMaintainabilityIndex(const ast::SourceFileModel& file,
                                    const ast::FunctionModel& fn) {
  const HalsteadMetrics h = ComputeHalstead(file, fn);
  const FunctionMetrics f = ComputeFunctionMetrics(file, fn);
  return MaintainabilityIndex(h.Volume(), f.cyclomatic_complexity, f.nloc);
}

}  // namespace certkit::metrics
