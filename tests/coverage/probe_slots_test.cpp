// The per-thread probe slots and their seen-before filter. A repeat probe is
// filtered only within one epoch: ThreadCapture construction,
// ThreadCapture::Take, Unit::Reset and Registry::ResetAll each make the next
// firing of a fact reach the unit record and the active capture again.
// Labeled `concurrency`: the last test runs capture after capture on four
// threads through one shared unit.
#include <gtest/gtest.h>

#include <cstdint>
#include <new>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "coverage/coverage.h"

namespace certkit::cov {
namespace {

using VectorSet = std::set<std::pair<std::uint64_t, bool>>;

// A unit with one probe of each kind.
struct Probed {
  explicit Probed(Unit& unit) : u(unit) {
    u.DeclareStatements(2);
    d = u.DeclareDecision(2);
    f = u.DeclareFunctionProbe("f");
    c = u.DeclareCallProbe("f", "g");
  }
  void FireAll() {
    u.Stmt(1);
    u.Cond(d, 0, true);
    u.Cond(d, 1, false);
    u.Dec(d, false);
    u.EnterFunction(f);
    u.CallSite(c);
  }
  // What one or more FireAll calls leave in a cover.
  UnitCover Expected() const {
    UnitCover cover;
    cover.stmts = {1};
    DecisionCover& dec = cover.decisions[d];
    dec.num_conditions = 2;
    dec.seen_false = true;
    dec.vectors = {{0b01, false}};
    return cover;
  }
  Unit& u;
  int d = 0, f = 0, c = 0;
};

TEST(ProbeSlotsTest, ConditionBitsDoNotOutliveTheirUnit) {
  // A Cond without its Dec leaves condition bits pending on this thread. A
  // Unit built in the same storage afterwards must not inherit them.
  alignas(Unit) unsigned char storage[sizeof(Unit)];
  Unit* first = new (storage) Unit("slots/first");
  const int d = first->DeclareDecision(1);
  first->Cond(d, 0, true);
  first->~Unit();
  Unit* second = new (storage) Unit("slots/second");
  ASSERT_EQ(second->DeclareDecision(1), d);
  second->Dec(d, false);
  EXPECT_EQ(second->TakeCover().decisions.at(d).vectors,
            (VectorSet{{0, false}}));
  second->~Unit();
}

TEST(ProbeSlotsTest, SuccessiveCapturesOnOneThreadEachSeeTheFacts) {
  Unit unit("slots/successive");
  Probed probed(unit);
  probed.FireAll();  // seen before any capture
  for (int round = 0; round < 3; ++round) {
    ThreadCapture capture;
    probed.FireAll();
    probed.FireAll();
    EXPECT_EQ(capture.Take().at("slots/successive"), probed.Expected())
        << "round " << round;
  }
}

TEST(ProbeSlotsTest, FactsRefiredAfterTakeAppearInTheNextTake) {
  Unit unit("slots/take");
  Probed probed(unit);
  ThreadCapture capture;
  probed.FireAll();
  EXPECT_EQ(capture.Take().at("slots/take"), probed.Expected());
  EXPECT_TRUE(capture.Take().empty());
  probed.FireAll();
  EXPECT_EQ(capture.Take().at("slots/take"), probed.Expected());
}

TEST(ProbeSlotsTest, ResetRestartsTheFilterForEveryKind) {
  Unit unit("slots/reset");
  Probed probed(unit);
  probed.FireAll();
  unit.Reset();
  ASSERT_EQ(unit.statements_hit(), 0);
  ASSERT_DOUBLE_EQ(unit.FunctionCoverage(), 0.0);
  ASSERT_DOUBLE_EQ(unit.CallCoverage(), 0.0);
  probed.FireAll();
  EXPECT_EQ(unit.statements_hit(), 1);
  EXPECT_DOUBLE_EQ(unit.BranchCoverage(), 0.5);
  EXPECT_DOUBLE_EQ(unit.FunctionCoverage(), 1.0);
  EXPECT_DOUBLE_EQ(unit.CallCoverage(), 1.0);
  EXPECT_EQ(unit.TakeCover(), probed.Expected());
}

TEST(ProbeSlotsTest, RegistryResetAllRestartsTheFilter) {
  Unit& unit = Registry::Instance().GetOrCreate("slots/registry");
  Probed probed(unit);
  probed.FireAll();
  Registry::Instance().ResetAll();
  ASSERT_EQ(unit.statements_hit(), 0);
  probed.FireAll();
  EXPECT_EQ(unit.statements_hit(), 1);
  EXPECT_DOUBLE_EQ(unit.FunctionCoverage(), 1.0);
  EXPECT_DOUBLE_EQ(unit.CallCoverage(), 1.0);
  EXPECT_EQ(unit.TakeCover(), probed.Expected());
}

TEST(ProbeSlotsTest, ConcurrentWorkersCaptureEveryFactEveryTime) {
  // The fleet pattern: pool workers run capture after capture over the
  // same units, and each capture must hold every fact its thread fired.
  Unit unit("slots/fleet");
  Probed probed(unit);
  constexpr int kThreads = 4;
  constexpr int kRounds = 50;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&probed, &mismatches, t] {
      for (int round = 0; round < kRounds; ++round) {
        ThreadCapture capture;
        for (int rep = 0; rep < 10; ++rep) probed.FireAll();
        const CoverSet got = capture.Take();
        if (got.size() != 1 ||
            got.begin()->second != probed.Expected()) {
          ++mismatches[static_cast<std::size_t>(t)];
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[static_cast<std::size_t>(t)], 0) << "thread " << t;
  }
  EXPECT_EQ(unit.TakeCover(), probed.Expected());
  EXPECT_DOUBLE_EQ(unit.FunctionCoverage(), 1.0);
}

}  // namespace
}  // namespace certkit::cov
