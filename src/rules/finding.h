// certkit rules: findings emitted by all guideline checkers.
#ifndef CERTKIT_RULES_FINDING_H_
#define CERTKIT_RULES_FINDING_H_

#include <cstdint>
#include <string>
#include <vector>

#include "support/record.h"

namespace certkit::rules {

enum class Severity {
  kInfo,      // stylistic / informational
  kWarning,   // recommended ('+') technique violated
  kRequired,  // highly recommended ('++') technique violated
};
inline constexpr int kNumSeverities = 3;

const char* SeverityName(Severity severity);

struct Finding {
  std::string rule_id;   // e.g. "MISRA-15.1", "STYLE-LINELEN", "UNIT-5"
  Severity severity = Severity::kWarning;
  std::string file;
  std::int32_t line = 0;
  std::string message;

  // The persisted form (support/record.h), here and below: the artifact
  // cache stores every record the driver computes.
  template <class Io, class Self>
  static void Fields(Io& io, Self& f) {
    io("rule_id", f.rule_id);
    io("severity", support::Named{f.severity, SeverityName, kNumSeverities});
    io("file", f.file);
    io("line", f.line);
    io("message", f.message);
  }
};

// Aggregated result of one checker run.
struct CheckReport {
  std::string checker;  // "misra", "style", "unit-design", "defensive"
  std::vector<Finding> findings;
  // Number of entities inspected (files, functions — checker-specific), so
  // that violation *rates* can be reported, as the paper does (e.g. "41% of
  // functions have multiple exit points").
  std::int64_t entities_checked = 0;

  template <class Io, class Self>
  static void Fields(Io& io, Self& r) {
    io("checker", r.checker);
    io("findings", r.findings);
    io("entities_checked", r.entities_checked);
  }

  void Add(std::string rule_id, Severity severity, std::string file,
           std::int32_t line, std::string message) {
    findings.push_back(Finding{std::move(rule_id), severity, std::move(file),
                               line, std::move(message)});
  }

  std::int64_t CountRule(std::string_view rule_id) const {
    std::int64_t n = 0;
    for (const auto& f : findings) {
      if (f.rule_id == rule_id) ++n;
    }
    return n;
  }
};

}  // namespace certkit::rules

#endif  // CERTKIT_RULES_FINDING_H_
