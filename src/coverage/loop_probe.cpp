#include "coverage/loop_probe.h"

#include <bit>

#include "support/check.h"

namespace certkit::cov {

LoopProbe::LoopProbe(Unit& unit) : unit_(&unit) {
  CERTKIT_CHECK(unit.declared_decisions() <= kMaxDecisions &&
                unit.statements_total() <= kMaxStatements);
}

void LoopProbe::Fire() {
  for (std::uint64_t s = stmts_; s != 0; s &= s - 1) {
    unit_->Stmt(std::countr_zero(s));
  }
  for (std::uint64_t v = vectors_; v != 0; v &= v - 1) {
    const int bit = std::countr_zero(v);
    const int decision = bit / 8;
    const int mask = (bit % 8) / 2;
    // Condition 1 of a one-condition decision is always false here, and
    // clearing an unset pending bit records nothing.
    unit_->Cond(decision, 0, (mask & 1) != 0);
    unit_->Cond(decision, 1, (mask & 2) != 0);
    unit_->Dec(decision, (bit & 1) != 0);
  }
  stmts_ = 0;
  vectors_ = 0;
}

}  // namespace certkit::cov
