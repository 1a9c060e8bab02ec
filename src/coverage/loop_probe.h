// certkit coverage: loop-granular probe policies for hot instrumented loops.
//
// A hot loop is written once, as a template over a probe policy, and run
// through WithProbes, which picks the policy from cov::ProbesEnabled():
//
//  * NullProbe (release flavour) compiles every probe call away, so its
//    instantiation is the uninstrumented loop, run at the CPU's widest
//    vector width;
//  * LoopProbe (instrumented flavour) folds each element's statements and
//    (mask, outcome) vectors into two local words and fires each distinct
//    fact into the Unit once, when the loop returns.
//
// Both record the facts that firing the Unit probes per element records:
// statements, decision outcomes and vectors are sets, so only the statement
// hit counts shrink, and those are only ever read as "> 0". LoopProbe
// evaluates both conditions of every decision, as instrumented decisions
// always are (coverage.h); NullProbe::AndThen short-circuits like the plain
// `&&` it stands for.
#ifndef CERTKIT_COVERAGE_LOOP_PROBE_H_
#define CERTKIT_COVERAGE_LOOP_PROBE_H_

#include <cstdint>

#include "coverage/coverage.h"
#include "support/isa.h"

namespace certkit::cov {

struct NullProbe {
  void Stmt(int) {}
  void StmtIf(int, bool) {}
  bool Branch(int, bool outcome) { return outcome; }
  bool And(int, bool a, bool b) { return a && b; }
  bool Or(int, bool a, bool b) { return a || b; }
  template <class Fn>
  bool AndThen(int, bool a, Fn&& b) {
    return a && b();
  }
};

class LoopProbe {
 public:
  // One byte of (mask, outcome) bits per decision of up to two conditions,
  // one bit per statement.
  static constexpr int kMaxDecisions = 8;
  static constexpr int kMaxStatements = 64;

  // `unit` must declare at most kMaxDecisions decisions and kMaxStatements
  // statements.
  explicit LoopProbe(Unit& unit);

  void Stmt(int id) { stmts_ |= 1ULL << id; }
  void StmtIf(int id, bool hit) {
    stmts_ |= static_cast<std::uint64_t>(hit) << id;
  }
  bool Branch(int decision, bool outcome) {
    return Record(decision, outcome ? 1U : 0U, outcome);
  }
  bool And(int decision, bool a, bool b) {
    return Record(decision, Mask(a, b), a && b);
  }
  bool Or(int decision, bool a, bool b) {
    return Record(decision, Mask(a, b), a || b);
  }
  template <class Fn>
  bool AndThen(int decision, bool a, Fn&& b) {
    return And(decision, a, b());
  }

  // Fires every distinct fact recorded since the last Fire into the unit.
  void Fire();

 private:
  static unsigned Mask(bool a, bool b) { return (a ? 1U : 0U) | (b ? 2U : 0U); }
  bool Record(int decision, unsigned mask, bool outcome) {
    vectors_ |= 1ULL << (decision * 8 + static_cast<int>(mask) * 2 +
                         (outcome ? 1 : 0));
    return outcome;
  }

  Unit* unit_;
  std::uint64_t stmts_ = 0;    // bit id: statement id fired
  std::uint64_t vectors_ = 0;  // bit d*8 + mask*2 + outcome: vector seen
};

// Runs `body(probe)` with a LoopProbe over `unit` when probes are on, firing
// its facts after the body returns, and with a NullProbe when they are off.
// The NullProbe run is the release loop, so it runs at the widest level of
// the ISA ladder (support/isa.h), whose rules its loops follow.
template <class Body>
void WithProbes(Unit& unit, Body&& body) {
  if (ProbesEnabled()) {
    LoopProbe probe(unit);
    body(probe);
    probe.Fire();
    return;
  }
  support::RunWidest([&body](auto) {
    NullProbe probe;
    body(probe);
  });
}

}  // namespace certkit::cov

#endif  // CERTKIT_COVERAGE_LOOP_PROBE_H_
