// certkit rules: software unit design & implementation checks
// (ISO 26262-6 Table 8; the paper's Table 3 and Observation 14).
//
// Produces, per analyzed module, the quantitative evidence the paper reports:
// fraction of multi-exit functions (41% in Apollo's object detection),
// dynamic-allocation sites, uninitialized locals, shadowed names, mutable
// globals (~900 in perception), pointer usage, explicit conversions,
// unconditional jumps, and recursion (direct and indirect via call-graph
// strongly connected components).
#ifndef CERTKIT_RULES_UNIT_DESIGN_H_
#define CERTKIT_RULES_UNIT_DESIGN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "metrics/module_metrics.h"
#include "rules/finding.h"

namespace certkit::rules {

struct UnitDesignStats {
  std::string module;
  std::int64_t functions_total = 0;

  // Row 1: one entry / one exit.
  std::int64_t functions_multi_exit = 0;
  double MultiExitFraction() const {
    return functions_total > 0
               ? static_cast<double>(functions_multi_exit) /
                     static_cast<double>(functions_total)
               : 0.0;
  }

  // Row 2: dynamic objects (new/delete, malloc family, cudaMalloc family).
  std::int64_t dynamic_alloc_sites = 0;

  // Row 3: initialization of variables (uninitialized scalar locals).
  std::int64_t uninitialized_locals = 0;

  // Row 4: multiple use of variable names (locals shadowing globals/params).
  std::int64_t shadowing_decls = 0;

  // Row 5: global variables (mutable, i.e. non-const non-extern-decl).
  std::int64_t mutable_globals = 0;
  std::int64_t const_globals = 0;

  // Row 6: pointers.
  std::int64_t pointer_params = 0;
  std::int64_t pointer_derefs = 0;  // `->` uses

  // Row 7: type conversions (explicit casts of all kinds; implicit
  // conversions are not decidable lexically and are approximated by the
  // cast census, as in the paper's §3.1.3).
  std::int64_t explicit_casts = 0;

  // Row 8: hidden data flow (writes to file-scope variables from functions).
  std::int64_t global_write_sites = 0;

  // Row 9: unconditional jumps.
  std::int64_t goto_statements = 0;

  // Row 10: recursion.
  std::int64_t recursive_functions_direct = 0;
  std::int64_t recursion_cycles_indirect = 0;  // SCCs of size >= 2

  template <class Io, class Self>
  static void Fields(Io& io, Self& s) {
    io("module", s.module);
    io("functions_total", s.functions_total);
    io("functions_multi_exit", s.functions_multi_exit);
    io("dynamic_alloc_sites", s.dynamic_alloc_sites);
    io("uninitialized_locals", s.uninitialized_locals);
    io("shadowing_decls", s.shadowing_decls);
    io("mutable_globals", s.mutable_globals);
    io("const_globals", s.const_globals);
    io("pointer_params", s.pointer_params);
    io("pointer_derefs", s.pointer_derefs);
    io("explicit_casts", s.explicit_casts);
    io("global_write_sites", s.global_write_sites);
    io("goto_statements", s.goto_statements);
    io("recursive_functions_direct", s.recursive_functions_direct);
    io("recursion_cycles_indirect", s.recursion_cycles_indirect);
  }
};

struct UnitDesignResult {
  UnitDesignStats stats;
  CheckReport report;  // per-site findings, rule ids "UNIT-1".."UNIT-10"
};

// Analyzes one module (as produced by metrics::AnalyzeModule).
UnitDesignResult AnalyzeUnitDesign(const metrics::ModuleAnalysis& module);

// Call-graph utilities (exposed for tests and for the architecture report).
// Nodes are function names; edges resolve callee names defined in the same
// module set. Returns the strongly connected components with size >= 2
// (indirect recursion cycles); self-loops are reported separately by the
// direct-recursion metric.
std::vector<std::vector<std::string>> FindRecursionCycles(
    const metrics::ModuleAnalysis& module);

}  // namespace certkit::rules

#endif  // CERTKIT_RULES_UNIT_DESIGN_H_
