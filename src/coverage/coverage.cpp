#include "coverage/coverage.h"

#include <algorithm>
#include <atomic>

#include "support/check.h"

namespace certkit::cov {

namespace {

std::atomic<bool> g_probes_enabled{true};

std::atomic<std::uint64_t> g_next_unit_index{0};

// The calling thread's probe epoch. ThreadCapture construction and Take()
// advance it, which ends every seen-before bitmap of this thread at once.
thread_local std::uint64_t t_epoch = 1;

// The calling thread's active probe capture (nullptr when none).
thread_local ThreadCapture* t_capture = nullptr;

// Vectors whose mask fits in this many bits pass the seen-before filter,
// one bit each in a 64-bit word per decision. Every decision certkit
// declares has at most three conditions; wider vectors always publish.
constexpr int kFilteredConditions = 5;

bool TestBit(const std::vector<std::uint64_t>& words, std::size_t i) {
  const std::size_t w = i / 64;
  return w < words.size() && ((words[w] >> (i % 64)) & 1U) != 0;
}

void SetBit(std::vector<std::uint64_t>* words, std::size_t i) {
  const std::size_t w = i / 64;
  if (w >= words->size()) words->resize(w + 1, 0);
  (*words)[w] |= 1ULL << (i % 64);
}

// Names of the function or call probes that never fired.
template <typename NamedProbes>
std::vector<std::string> Unhit(const NamedProbes& probes) {
  std::vector<std::string> out;
  for (const auto& p : probes) {
    if (!p.hit) out.push_back(p.name);
  }
  return out;
}

}  // namespace

// One unit's probe state on one thread; only that thread touches it. The
// vectors grow to the highest id the thread fires and are then reused, so
// a warm thread probes without allocating.
struct Unit::ThreadSlots {
  std::uint64_t epoch = 0;   // t_epoch the seen bits belong to
  std::uint64_t resets = 0;  // Unit::resets_ they belong to
  // Condition bits recorded by Cond since the decision's last Dec.
  std::vector<std::uint64_t> pending;
  // Seen-before bitmaps: (mask, outcome) at bit decision*64 + mask*2 +
  // outcome, and statement, function and call ids.
  std::vector<std::uint64_t> vectors, stmts, functions, calls;
};

std::int64_t McdcDemonstrated(
    int num_conditions,
    const std::set<std::pair<std::uint64_t, bool>>& vectors) {
  std::int64_t demonstrated = 0;
  for (int c = 0; c < num_conditions; ++c) {
    const std::uint64_t bit = 1ULL << c;
    bool shown = false;
    // Unique-cause: two vectors differing only in condition c with
    // different outcomes.
    for (auto it = vectors.begin(); it != vectors.end() && !shown; ++it) {
      const std::uint64_t flipped = it->first ^ bit;
      // Both outcomes may exist for a vector; check both.
      if (vectors.count({flipped, !it->second}) > 0) {
        shown = true;
      }
    }
    if (shown) ++demonstrated;
  }
  return demonstrated;
}

std::int64_t MergeCover(CoverSet* dst, const CoverSet& src) {
  CERTKIT_CHECK(dst != nullptr);
  std::int64_t new_facts = 0;
  for (const auto& [name, unit_cover] : src) {
    UnitCover& into = (*dst)[name];
    for (const int stmt : unit_cover.stmts) {
      if (into.stmts.insert(stmt).second) ++new_facts;
    }
    for (const auto& [id, dec] : unit_cover.decisions) {
      DecisionCover& d = into.decisions[id];
      d.num_conditions = std::max(d.num_conditions, dec.num_conditions);
      if (dec.seen_true && !d.seen_true) {
        d.seen_true = true;
        ++new_facts;
      }
      if (dec.seen_false && !d.seen_false) {
        d.seen_false = true;
        ++new_facts;
      }
      for (const auto& vec : dec.vectors) {
        if (d.vectors.insert(vec).second) ++new_facts;
      }
    }
  }
  return new_facts;
}

void SetProbesEnabled(bool enabled) {
  g_probes_enabled.store(enabled, std::memory_order_relaxed);
}

bool ProbesEnabled() {
  return g_probes_enabled.load(std::memory_order_relaxed);
}

Unit::Unit(std::string name)
    : name_(std::move(name)),
      index_(g_next_unit_index.fetch_add(1, std::memory_order_relaxed)) {}

Unit::ThreadSlots& Unit::Local() const {
  // This thread's slots for every unit it has probed, by unit index.
  thread_local std::vector<std::unique_ptr<ThreadSlots>> by_unit;
  if (index_ >= by_unit.size()) by_unit.resize(index_ + 1);
  std::unique_ptr<ThreadSlots>& slots = by_unit[index_];
  if (slots == nullptr) slots = std::make_unique<ThreadSlots>();
  const std::uint64_t resets = resets_.load(std::memory_order_acquire);
  if (slots->epoch != t_epoch || slots->resets != resets) {
    // A new epoch: every fact is a first sighting again. Pending condition
    // bits belong to evaluations in flight and stay.
    slots->epoch = t_epoch;
    slots->resets = resets;
    for (std::vector<std::uint64_t>* bits :
         {&slots->vectors, &slots->stmts, &slots->functions, &slots->calls}) {
      std::fill(bits->begin(), bits->end(), 0);
    }
  }
  return *slots;
}

void Unit::DeclareStatements(int n) {
  CERTKIT_CHECK(n >= 0);
  std::lock_guard<std::mutex> lock(mu_);
  if (n > declared_statements_) {
    // atomics are not movable; rebuild preserving hits.
    std::vector<std::atomic<std::uint64_t>> grown(
        static_cast<std::size_t>(n));
    for (int i = 0; i < declared_statements_; ++i) {
      grown[static_cast<std::size_t>(i)].store(
          stmt_hits_[static_cast<std::size_t>(i)].load(
              std::memory_order_relaxed),
          std::memory_order_relaxed);
    }
    stmt_hits_ = std::move(grown);
    declared_statements_ = n;
  }
}

int Unit::DeclareDecision(int num_conditions) {
  CERTKIT_CHECK(num_conditions >= 1 && num_conditions <= 64);
  std::lock_guard<std::mutex> lock(mu_);
  DecisionRecord rec;
  rec.num_conditions = num_conditions;
  decisions_.push_back(std::move(rec));
  return static_cast<int>(decisions_.size()) - 1;
}

void Unit::Stmt(int id) {
  if (!ProbesEnabled()) return;
  CERTKIT_CHECK_MSG(id >= 0 && id < declared_statements_,
                    "statement probe " << id << " out of range in unit "
                                       << name_);
  ThreadSlots& slots = Local();
  const auto bit = static_cast<std::size_t>(id);
  if (TestBit(slots.stmts, bit)) return;
  stmt_hits_[bit].fetch_add(1, std::memory_order_relaxed);
  if (t_capture != nullptr) t_capture->captured_[this].stmts.insert(id);
  SetBit(&slots.stmts, bit);
}

bool Unit::Cond(int decision_id, int index, bool value) {
  if (!ProbesEnabled()) return value;
  CERTKIT_CHECK(decision_id >= 0 &&
                decision_id < static_cast<int>(decisions_.size()));
  CERTKIT_CHECK(index >= 0 && index < 64);
  std::vector<std::uint64_t>& pending = Local().pending;
  const auto d = static_cast<std::size_t>(decision_id);
  if (d >= pending.size()) pending.resize(d + 1, 0);
  if (value) {
    pending[d] |= (1ULL << index);
  } else {
    pending[d] &= ~(1ULL << index);
  }
  return value;
}

bool Unit::Dec(int decision_id, bool outcome) {
  if (!ProbesEnabled()) return outcome;
  CERTKIT_CHECK(decision_id >= 0 &&
                decision_id < static_cast<int>(decisions_.size()));
  ThreadSlots& slots = Local();
  const auto d = static_cast<std::size_t>(decision_id);
  std::uint64_t mask = 0;
  if (d < slots.pending.size()) {
    mask = slots.pending[d];
    slots.pending[d] = 0;
  }
  Publish(slots, decision_id, mask, outcome);
  return outcome;
}

void Unit::Publish(ThreadSlots& slots, int decision_id, std::uint64_t mask,
                   bool outcome) {
  const bool filtered = (mask >> kFilteredConditions) == 0;
  std::size_t bit = 0;
  if (filtered) {
    bit = static_cast<std::size_t>(decision_id) * 64 +
          static_cast<std::size_t>(mask) * 2 + (outcome ? 1 : 0);
    if (TestBit(slots.vectors, bit)) return;
  }
  int num_conditions = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    DecisionRecord& rec = decisions_[static_cast<std::size_t>(decision_id)];
    if (outcome) {
      rec.seen_true = true;
    } else {
      rec.seen_false = true;
    }
    rec.vectors.insert({mask, outcome});
    num_conditions = rec.num_conditions;
  }
  if (t_capture != nullptr) {
    DecisionCover& dec = t_capture->captured_[this].decisions[decision_id];
    dec.num_conditions = num_conditions;
    if (outcome) {
      dec.seen_true = true;
    } else {
      dec.seen_false = true;
    }
    dec.vectors.insert({mask, outcome});
  }
  if (filtered) SetBit(&slots.vectors, bit);
}

bool Unit::Branch(int decision_id, bool outcome) {
  Cond(decision_id, 0, outcome);
  return Dec(decision_id, outcome);
}

int Unit::DeclareFunctionProbe(std::string name) {
  std::lock_guard<std::mutex> lock(mu_);
  functions_.push_back(NamedProbe{std::move(name), false});
  return static_cast<int>(functions_.size()) - 1;
}

void Unit::EnterFunction(int id) {
  if (!ProbesEnabled()) return;
  ThreadSlots& slots = Local();
  const auto bit = static_cast<std::size_t>(id);
  if (TestBit(slots.functions, bit)) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    CERTKIT_CHECK(id >= 0 && id < static_cast<int>(functions_.size()));
    functions_[bit].hit = true;
  }
  SetBit(&slots.functions, bit);
}

int Unit::DeclareCallProbe(std::string caller, std::string callee) {
  std::lock_guard<std::mutex> lock(mu_);
  calls_.push_back(
      NamedProbe{std::move(caller) + " -> " + std::move(callee), false});
  return static_cast<int>(calls_.size()) - 1;
}

void Unit::CallSite(int id) {
  if (!ProbesEnabled()) return;
  ThreadSlots& slots = Local();
  const auto bit = static_cast<std::size_t>(id);
  if (TestBit(slots.calls, bit)) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    CERTKIT_CHECK(id >= 0 && id < static_cast<int>(calls_.size()));
    calls_[bit].hit = true;
  }
  SetBit(&slots.calls, bit);
}

double Unit::FunctionCoverage() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (functions_.empty()) return 1.0;
  std::size_t hit = 0;
  for (const auto& f : functions_) {
    if (f.hit) ++hit;
  }
  return static_cast<double>(hit) / static_cast<double>(functions_.size());
}

double Unit::CallCoverage() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (calls_.empty()) return 1.0;
  std::size_t hit = 0;
  for (const auto& c : calls_) {
    if (c.hit) ++hit;
  }
  return static_cast<double>(hit) / static_cast<double>(calls_.size());
}

std::vector<std::string> Unit::UncoveredFunctions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return Unhit(functions_);
}

std::vector<std::string> Unit::UncoveredCalls() const {
  std::lock_guard<std::mutex> lock(mu_);
  return Unhit(calls_);
}

std::int64_t Unit::statements_total() const {
  std::lock_guard<std::mutex> lock(mu_);
  return declared_statements_;
}

std::int64_t Unit::statements_hit() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::int64_t n = 0;
  for (const auto& h : stmt_hits_) {
    if (h.load(std::memory_order_relaxed) > 0) ++n;
  }
  return n;
}

double Unit::StatementCoverage() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (declared_statements_ == 0) return 1.0;
  std::int64_t n = 0;
  for (const auto& h : stmt_hits_) {
    if (h.load(std::memory_order_relaxed) > 0) ++n;
  }
  return static_cast<double>(n) / declared_statements_;
}

double Unit::BranchCoverage() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (decisions_.empty()) return 1.0;
  std::int64_t seen = 0;
  for (const auto& d : decisions_) {
    if (d.seen_true) ++seen;
    if (d.seen_false) ++seen;
  }
  return static_cast<double>(seen) /
         (2.0 * static_cast<double>(decisions_.size()));
}

std::int64_t Unit::mcdc_conditions_total() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::int64_t n = 0;
  for (const auto& d : decisions_) n += d.num_conditions;
  return n;
}

std::int64_t Unit::mcdc_conditions_demonstrated() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::int64_t demonstrated = 0;
  for (const auto& d : decisions_) {
    demonstrated += McdcDemonstrated(d.num_conditions, d.vectors);
  }
  return demonstrated;
}

int Unit::declared_decisions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(decisions_.size());
}

int Unit::decision_conditions(int decision_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  CERTKIT_CHECK(decision_id >= 0 &&
                decision_id < static_cast<int>(decisions_.size()));
  return decisions_[static_cast<std::size_t>(decision_id)].num_conditions;
}

UnitCover Unit::TakeCover() const {
  UnitCover cover;
  std::lock_guard<std::mutex> lock(mu_);
  for (int i = 0; i < declared_statements_; ++i) {
    if (stmt_hits_[static_cast<std::size_t>(i)].load(
            std::memory_order_relaxed) > 0) {
      cover.stmts.insert(i);
    }
  }
  for (int i = 0; i < static_cast<int>(decisions_.size()); ++i) {
    const DecisionRecord& rec = decisions_[static_cast<std::size_t>(i)];
    if (!rec.seen_true && !rec.seen_false && rec.vectors.empty()) continue;
    DecisionCover& dec = cover.decisions[i];
    dec.num_conditions = rec.num_conditions;
    dec.seen_true = rec.seen_true;
    dec.seen_false = rec.seen_false;
    dec.vectors = rec.vectors;
  }
  return cover;
}

double Unit::McdcCoverage() const {
  const std::int64_t total = mcdc_conditions_total();
  if (total == 0) return 1.0;
  return static_cast<double>(mcdc_conditions_demonstrated()) /
         static_cast<double>(total);
}

void Unit::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& h : stmt_hits_) h.store(0, std::memory_order_relaxed);
  for (auto& d : decisions_) {
    d.seen_true = d.seen_false = false;
    d.vectors.clear();
  }
  for (auto& f : functions_) f.hit = false;
  for (auto& c : calls_) c.hit = false;
  resets_.fetch_add(1, std::memory_order_release);
}

Registry& Registry::Instance() {
  static Registry* instance = new Registry();
  return *instance;
}

Unit& Registry::GetOrCreate(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = units_.find(name);
  if (it == units_.end()) {
    it = units_.emplace(name, std::make_unique<Unit>(name)).first;
  }
  return *it->second;
}

std::vector<const Unit*> Registry::Units() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<const Unit*> out;
  out.reserve(units_.size());
  for (const auto& [name, unit] : units_) out.push_back(unit.get());
  return out;
}

void Registry::ResetAll() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, unit] : units_) unit->Reset();
}

std::vector<CoverageRow> Snapshot() {
  std::vector<CoverageRow> rows;
  for (const Unit* u : Registry::Instance().Units()) {
    rows.push_back(CoverageRow{u->name(), u->StatementCoverage(),
                               u->BranchCoverage(), u->McdcCoverage()});
  }
  return rows;
}

CoverSet SnapshotCover() {
  CoverSet cover;
  for (const Unit* u : Registry::Instance().Units()) {
    cover[u->name()] = u->TakeCover();
  }
  return cover;
}

CoverageRow CoverRow(const Unit& unit, const UnitCover& cover) {
  CoverageRow row;
  row.unit = unit.name();

  const std::int64_t stmts_total = unit.statements_total();
  if (stmts_total == 0) {
    row.statement = 1.0;
  } else {
    std::int64_t hit = 0;
    for (const int id : cover.stmts) {
      if (id >= 0 && id < stmts_total) ++hit;
    }
    row.statement = static_cast<double>(hit) /
                    static_cast<double>(stmts_total);
  }

  const int decisions = unit.declared_decisions();
  if (decisions == 0) {
    row.branch = 1.0;
    row.mcdc = 1.0;
    return row;
  }
  std::int64_t outcomes = 0;
  std::int64_t conditions_total = 0;
  std::int64_t conditions_shown = 0;
  for (int d = 0; d < decisions; ++d) {
    const int num_conditions = unit.decision_conditions(d);
    conditions_total += num_conditions;
    const auto it = cover.decisions.find(d);
    if (it == cover.decisions.end()) continue;
    if (it->second.seen_true) ++outcomes;
    if (it->second.seen_false) ++outcomes;
    conditions_shown += McdcDemonstrated(num_conditions, it->second.vectors);
  }
  row.branch = static_cast<double>(outcomes) / (2.0 * decisions);
  row.mcdc = conditions_total == 0
                 ? 1.0
                 : static_cast<double>(conditions_shown) /
                       static_cast<double>(conditions_total);
  return row;
}

ThreadCapture::ThreadCapture() {
  CERTKIT_CHECK_MSG(t_capture == nullptr,
                    "nested ThreadCapture on the same thread");
  t_capture = this;
  ++t_epoch;  // facts this thread saw before must reach the capture too
}

ThreadCapture::~ThreadCapture() {
  if (t_capture == this) t_capture = nullptr;
}

CoverSet ThreadCapture::Take() {
  CERTKIT_CHECK_MSG(t_capture == this,
                    "ThreadCapture::Take on a different thread");
  CoverSet out;
  for (auto& [unit, cover] : captured_) {
    out[unit->name()] = std::move(cover);
  }
  captured_.clear();
  ++t_epoch;
  return out;
}

CoverageRow Average(const std::vector<CoverageRow>& rows) {
  CoverageRow avg;
  avg.unit = "average";
  if (rows.empty()) return avg;
  for (const auto& r : rows) {
    avg.statement += r.statement;
    avg.branch += r.branch;
    avg.mcdc += r.mcdc;
  }
  const double n = static_cast<double>(rows.size());
  avg.statement /= n;
  avg.branch /= n;
  avg.mcdc /= n;
  return avg;
}

}  // namespace certkit::cov
