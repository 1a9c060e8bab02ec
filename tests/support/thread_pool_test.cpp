// Tests for certkit's one fork-join pool (gpusim launches, the campaign
// fleet, the analysis driver, serve, the micro-GEMM and the batch detector).
#include "support/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "support/alloc_counter.h"

namespace certkit::support {
namespace {

TEST(ThreadPoolTest, ResolveJobs) {
  EXPECT_EQ(ThreadPool::ResolveJobs(3), 3);
  EXPECT_GE(ThreadPool::ResolveJobs(0), 1);
  EXPECT_GE(ThreadPool::ResolveJobs(-1), 1);
}

TEST(ThreadPoolTest, ZeroWorkersRunsInline) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.thread_count(), 0);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> ran_on(10);
  pool.ParallelFor(ran_on.size(), [&](std::size_t i) {
    ran_on[i] = std::this_thread::get_id();
  });
  for (const std::thread::id id : ran_on) EXPECT_EQ(id, caller);
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  for (const int workers : {0, 1, 4}) {
    ThreadPool pool(workers);
    constexpr std::size_t kN = 1000;
    std::vector<std::atomic<int>> hits(kN);
    pool.ParallelFor(kN, [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < kN; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "index " << i << " workers " << workers;
    }
  }
}

TEST(ThreadPoolTest, ParallelForEmptyRangeIsANoop) {
  ThreadPool pool(2);
  bool ran = false;
  pool.ParallelFor(0, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

// The primitive form: a plain function as the body, and the caller's state
// reached through the context pointer.
void CountIteration(const void* ctx, std::size_t /*i*/) {
  (*static_cast<std::atomic<int>* const*>(ctx))->fetch_add(1);
}

TEST(ThreadPoolTest, RunsAllIterations) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  std::atomic<int>* const target = &count;
  pool.ParallelFor(1000, &CountIteration, &target);
  EXPECT_EQ(count.load(), 1000);
}

// More workers than the other cases use, so indices race across 9 threads.
TEST(ThreadPoolTest, EachIndexExactlyOnce) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(500);
  pool.ParallelFor(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

// An empty job through the primitive form never calls the body, at any
// width, and leaves the pool ready for the next job.
TEST(ThreadPoolTest, ZeroIterationsIsNoop) {
  for (const int workers : {0, 2}) {
    ThreadPool pool(workers);
    std::atomic<int> count{0};
    std::atomic<int>* const target = &count;
    pool.ParallelFor(0, &CountIteration, &target);
    EXPECT_EQ(count.load(), 0) << "workers=" << workers;
    pool.ParallelFor(3, &CountIteration, &target);
    EXPECT_EQ(count.load(), 3) << "workers=" << workers;
  }
}

TEST(ThreadPoolTest, ParallelForPropagatesException) {
  for (const int workers : {0, 1, 4}) {
    ThreadPool pool(workers);
    EXPECT_THROW(
        pool.ParallelFor(100,
                         [&](std::size_t i) {
                           if (i == 37) throw std::runtime_error("boom");
                         }),
        std::runtime_error)
        << "workers=" << workers;
    // The pool must stay usable after an exception drained.
    std::atomic<int> counter{0};
    pool.ParallelFor(10, [&](std::size_t) { counter.fetch_add(1); });
    EXPECT_EQ(counter.load(), 10);
  }
}

TEST(ThreadPoolTest, ParallelMapPreservesSlotOrder) {
  for (const int workers : {0, 1, 4}) {
    ThreadPool pool(workers);
    const auto out = ParallelMap<int>(
        pool, 500, [](std::size_t i) { return static_cast<int>(i * 2); });
    ASSERT_EQ(out.size(), 500u);
    for (std::size_t i = 0; i < out.size(); ++i) {
      ASSERT_EQ(out[i], static_cast<int>(i * 2));
    }
  }
}

TEST(ThreadPoolTest, ManyMoreTasksThanWorkers) {
  ThreadPool pool(2);
  std::vector<int> data(10000, 0);
  pool.ParallelFor(data.size(), [&](std::size_t i) { data[i] = 1; });
  EXPECT_EQ(std::accumulate(data.begin(), data.end(), 0),
            static_cast<int>(data.size()));
}

// Four threads share one 3-worker pool, the way fleet workers share the
// gpusim device's pool: jobs take turns on the submission mutex, and no
// job loses or repeats an index.
TEST(ThreadPoolTest, ConcurrentCallersShareOnePool) {
  constexpr int kCallers = 4;
  constexpr int kRounds = 50;
  constexpr std::size_t kN = 97;
  ThreadPool pool(3);
  std::vector<std::vector<std::atomic<int>>> hits;
  for (int c = 0; c < kCallers; ++c) hits.emplace_back(kRounds * kN);
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      for (int r = 0; r < kRounds; ++r) {
        pool.ParallelFor(kN, [&](std::size_t i) {
          hits[c][r * kN + i].fetch_add(1);
        });
      }
    });
  }
  for (std::thread& t : callers) t.join();
  for (int c = 0; c < kCallers; ++c) {
    for (std::size_t i = 0; i < hits[c].size(); ++i) {
      ASSERT_EQ(hits[c][i].load(), 1) << "caller " << c << " index " << i;
    }
  }
}

// A job lives in the pool and its body is reached through a pointer, so a
// call allocates nothing at any width. The counting operator new is linked
// into this test only outside sanitizer trees (in those, the sanitizer
// runtime owns the allocator).
TEST(ThreadPoolTest, ParallelForAllocatesNothing) {
#ifndef CERTKIT_ALLOC_HOOKS
  GTEST_SKIP() << "alloc hooks not linked (sanitizer build tree)";
#endif
  ASSERT_TRUE(AllocCountingActive());
  for (const int workers : {0, 1, 4}) {
    ThreadPool pool(workers);
    std::vector<std::atomic<int>> hits(64);
    const auto bump = [&](std::size_t i) { hits[i].fetch_add(1); };
    pool.ParallelFor(hits.size(), bump);  // warm-up
    const AllocScope scope;
    for (int call = 0; call < 100; ++call) pool.ParallelFor(hits.size(), bump);
    EXPECT_EQ(scope.allocations(), 0u) << "workers=" << workers;
    for (const auto& h : hits) ASSERT_EQ(h.load(), 101);
  }
}

}  // namespace
}  // namespace certkit::support
