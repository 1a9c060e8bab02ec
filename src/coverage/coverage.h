// certkit coverage: a probe-based structural-coverage runtime implementing
// the three criteria the paper measures with RapiCover (Figure 5) and with
// host-compiled CUDA kernels (Figure 6):
//
//  * statement coverage — every declared statement probe executed;
//  * decision (branch) coverage — every decision evaluated to both true
//    and false;
//  * MC/DC — for every condition within a decision, two recorded evaluation
//    vectors differ ONLY in that condition and produce different decision
//    outcomes (unique-cause MC/DC).
//
// Subjects are instrumented explicitly: a translation unit obtains a Unit
// from the Registry, declares its probe counts, and wraps its statements and
// conditions with Stmt()/Cond()/Dec() calls. Instrumented conditions are
// evaluated eagerly (no short-circuit), which is the standard trade-off of
// source-level instrumentation and is documented in DESIGN.md.
//
// Thread safety: probes may fire concurrently (the GPU-on-CPU layer runs
// kernels on a thread pool). Each thread keeps dense slots per unit, indexed
// by the unit's process-unique index and the probe id: pending condition
// bits per decision, and a seen-before bitmap over statements, functions,
// calls and (mask, outcome) vectors. A repeat probe is a thread-local bit
// test; only a first sighting publishes, statement hits by atomic increment,
// vectors and function/call hits under the per-unit mutex, and into the
// thread's active ThreadCapture. The bitmap holds for one epoch, which
// Unit::Reset, ThreadCapture construction and ThreadCapture::Take restart.
// Hot loops record per loop instead of per element (coverage/loop_probe.h).
#ifndef CERTKIT_COVERAGE_COVERAGE_H_
#define CERTKIT_COVERAGE_COVERAGE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "support/record.h"

namespace certkit::cov {

// Global probe switch. Coverage collection is a build flavor in real
// deployments (instrumented vs release); here it is a runtime flag so the
// performance benchmarks can run the exact same code uninstrumented.
// Enabled by default.
void SetProbesEnabled(bool enabled);
bool ProbesEnabled();

// Unique-cause MC/DC analysis over a recorded vector set: the number of
// conditions (out of `num_conditions`) for which two vectors exist that
// differ ONLY in that condition and produce different decision outcomes.
// Vectors differing in more than one condition (masking vectors) never
// form a demonstrating pair. Shared by Unit and by detached covers.
std::int64_t McdcDemonstrated(
    int num_conditions,
    const std::set<std::pair<std::uint64_t, bool>>& vectors);

// --- diffable coverage covers (campaign-engine support) -------------------
//
// A "cover" is the execution state of coverage probes detached from the
// declaring Unit: which statement probes fired, which decision outcomes and
// evaluation vectors were seen. Covers are cheap to take (per-unit lock
// only — no global pause), cheap to diff, and merge monotonically, which is
// what a coverage-guided test-generation loop needs.

// Execution state of one decision: a Unit's record of it, or detached.
struct DecisionCover {
  int num_conditions = 0;
  bool seen_true = false;
  bool seen_false = false;
  // Distinct evaluation vectors: (condition bitmask, outcome).
  std::set<std::pair<std::uint64_t, bool>> vectors;

  bool operator==(const DecisionCover&) const = default;

  // The persisted form (support/record.h); vectors as [[hex mask, outcome]].
  template <class Io, class Self>
  static void Fields(Io& io, Self& d) {
    io("conds", d.num_conditions);
    io("t", d.seen_true);
    io("f", d.seen_false);
    io("vectors", support::Hex{d.vectors});
  }
};

// Execution state of one unit.
struct UnitCover {
  std::set<int> stmts;                   // statement probe ids that fired
  std::map<int, DecisionCover> decisions;  // by decision id

  bool operator==(const UnitCover&) const = default;

  // A CoverSet persists as an object of these, keyed by unit name.
  template <class Io, class Self>
  static void Fields(Io& io, Self& u) {
    io("stmts", u.stmts);
    io("decisions", support::Keyed{"id", u.decisions});
  }
};

// Covers for many units, keyed by unit name (stable iteration order).
using CoverSet = std::map<std::string, UnitCover>;

// Merges `src` into `dst`. Returns the number of probe facts in `src` that
// were new to `dst`: first-seen statements, decision outcomes, and
// evaluation vectors. Zero means `src` adds no coverage.
std::int64_t MergeCover(CoverSet* dst, const CoverSet& src);

// Coverage state for one instrumented translation unit.
class Unit {
 public:
  explicit Unit(std::string name);
  Unit(const Unit&) = delete;
  Unit& operator=(const Unit&) = delete;

  const std::string& name() const { return name_; }

  // --- declaration (before execution) ---
  // Declares `n` statement probes with ids [0, n).
  void DeclareStatements(int n);
  // Declares a decision with `num_conditions` conditions (1..64).
  // Returns its id; ids are dense from 0.
  int DeclareDecision(int num_conditions);

  // --- probes (during execution) ---
  // Marks statement `id` executed.
  void Stmt(int id);
  // Records condition `index` of decision `decision_id` as `value`;
  // returns `value` so probes compose inline.
  bool Cond(int decision_id, int index, bool value);
  // Records the decision outcome (with the condition vector accumulated by
  // Cond calls on this thread since the last Dec for this decision);
  // returns `outcome`.
  bool Dec(int decision_id, bool outcome);

  // Convenience for single-condition decisions: records condition 0 and the
  // outcome in one call.
  bool Branch(int decision_id, bool outcome);

  // --- architectural-level coverage (ISO 26262-6 Table 12) ---
  // Declares a function probe; EnterFunction marks it executed.
  int DeclareFunctionProbe(std::string name);
  void EnterFunction(int id);
  // Declares a caller->callee edge probe; CallSite marks it executed.
  int DeclareCallProbe(std::string caller, std::string callee);
  void CallSite(int id);

  // --- declared totals (for computing rates against detached covers) ---
  int declared_decisions() const;
  // Conditions of decision `decision_id` (declared; 1..64).
  int decision_conditions(int decision_id) const;

  // Cheap diffable snapshot of this unit's execution state. Takes only this
  // unit's mutex — probes on other threads (and other units) keep running.
  UnitCover TakeCover() const;

  // --- results ---
  std::int64_t statements_total() const;
  std::int64_t statements_hit() const;
  double StatementCoverage() const;  // in [0,1]; 1.0 when nothing declared
  double BranchCoverage() const;     // outcomes seen / (2 * decisions)
  double McdcCoverage() const;       // independent conditions / conditions
  double FunctionCoverage() const;   // functions entered / declared
  double CallCoverage() const;       // call edges executed / declared
  // Names of declared-but-never-entered functions and of never-executed
  // call edges ("caller -> callee"), in declaration order (reporting).
  std::vector<std::string> UncoveredFunctions() const;
  std::vector<std::string> UncoveredCalls() const;
  // Conditions demonstrated independent, per unique-cause analysis.
  std::int64_t mcdc_conditions_demonstrated() const;
  std::int64_t mcdc_conditions_total() const;

  // Clears execution state, keeps declarations, and restarts every thread's
  // seen-before bitmap for this unit.
  void Reset();

 private:
  struct ThreadSlots;  // this unit's probe state on one thread

  // The calling thread's slots for this unit, with the seen-before bitmap
  // cleared first if its epoch has ended.
  ThreadSlots& Local() const;
  // Records one decision evaluation unless this thread has already seen it
  // in the current epoch.
  void Publish(ThreadSlots& slots, int decision_id, std::uint64_t mask,
               bool outcome);

  std::string name_;
  // Process-unique and never reused, so a Unit built where a destroyed one
  // lived starts from fresh per-thread slots.
  const std::uint64_t index_;
  std::atomic<std::uint64_t> resets_{0};  // Reset() count
  std::vector<std::atomic<std::uint64_t>> stmt_hits_;
  int declared_statements_ = 0;
  mutable std::mutex mu_;
  std::vector<DecisionCover> decisions_;  // by decision id

  struct NamedProbe {
    std::string name;
    bool hit = false;
  };
  std::vector<NamedProbe> functions_;
  std::vector<NamedProbe> calls_;
};

// Process-wide registry of units, keyed by name.
class Registry {
 public:
  static Registry& Instance();

  // Returns the unit named `name`, creating it on first use.
  Unit& GetOrCreate(const std::string& name);
  // Units in name order (stable for reports).
  std::vector<const Unit*> Units() const;
  void ResetAll();

 private:
  Registry() = default;
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Unit>> units_;
};

// One row of a coverage report (per file/unit).
struct CoverageRow {
  std::string unit;
  double statement = 0.0;
  double branch = 0.0;
  double mcdc = 0.0;

  // The checkpointed form (support/record.h): exact ratios.
  template <class Io, class Self>
  static void Fields(Io& io, Self& r) {
    io("unit", r.unit);
    io("statement", r.statement);
    io("branch", r.branch);
    io("mcdc", r.mcdc);
  }
};

// Snapshot of all registered units.
std::vector<CoverageRow> Snapshot();
// Averages across rows (uniform weight per unit, as in Figure 5's summary).
CoverageRow Average(const std::vector<CoverageRow>& rows);

// Coverage rates of `cover` measured against `unit`'s declarations. The
// cover need not have been taken from `unit`, but probe ids are interpreted
// against its declared statement/decision layout; ids beyond the
// declarations are ignored.
CoverageRow CoverRow(const Unit& unit, const UnitCover& cover);

// Captures every probe the *calling thread* fires between construction and
// Take()/destruction, in addition to the normal global recording. This is
// how a fleet worker attributes coverage to the one candidate it is
// executing while other workers hammer the same Units concurrently: the
// capture is thread-local, so it sees exactly this thread's probes and
// costs the other threads nothing. At most one capture may be active per
// thread; the object must be used on the thread that created it.
class ThreadCapture {
 public:
  ThreadCapture();
  ~ThreadCapture();
  ThreadCapture(const ThreadCapture&) = delete;
  ThreadCapture& operator=(const ThreadCapture&) = delete;

  // Returns everything captured so far and clears the buffer.
  CoverSet Take();

 private:
  friend class Unit;
  std::map<const Unit*, UnitCover> captured_;
};

}  // namespace certkit::cov

#endif  // CERTKIT_COVERAGE_COVERAGE_H_
