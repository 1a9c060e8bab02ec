// Steady-state allocation discipline of the full pipeline tick (ISO
// 26262-6 Table 3: no dynamic objects in steady-state safety-related code).
//
// The harness links the counting operator new/delete replacements
// (support/alloc_hooks.cpp, added via target_sources — see there) and
// asserts that after a warm-up phase, ApolloPilot::Tick performs ZERO heap
// allocations, for every backend x quantized-weights combination, and that
// the detector's batched entry point does the same at batch 1 and batch 8.
// Warm-up allocations are permitted and reported, not hidden: buffers are
// expected to grow to their peak sizes early and then be reused forever.
//
// In sanitizer build trees the sanitizer runtime owns the allocator, so the
// hooks are not linked there (tests/CMakeLists.txt gates the
// target_sources); the zero-allocation assertions are skipped and the test
// degrades to a functional smoke run.
#include <cstdio>
#include <vector>

#include "ad/pipeline.h"
#include "gtest/gtest.h"
#include "nn/detector.h"
#include "support/alloc_counter.h"
#include "timing/timing.h"

namespace {

using certkit::support::AllocCountingActive;
using certkit::support::AllocScope;

constexpr int kWarmupTicks = 60;
constexpr int kMeasuredTicks = 30;

// Every ExecutionTimer the tick path feeds each cycle. Reserving their
// sample buffers up front keeps Record() off the allocator during the
// measured window (sample recording is observability, not tick logic, but
// it runs inside the tick and must obey the same discipline).
void ReserveTickTimers(int ticks) {
  static const char* kTimers[] = {
      "adpilot/tick",     "adpilot/perception",   "adpilot/prediction",
      "adpilot/planning", "adpilot/control",      "adpilot/canbus",
      "adpilot/localization", "adpilot/safety",
  };
  auto& registry = certkit::timing::TimerRegistry::Instance();
  for (const char* name : kTimers) {
    registry.GetOrCreate(name).Reserve(static_cast<std::size_t>(ticks) + 8);
  }
}

adpilot::PilotConfig MakeConfig(nn::Backend backend, bool quantized) {
  adpilot::PilotConfig cfg;
  cfg.perception.backend = backend;
  cfg.perception.quantized_weights = quantized;
  // The watchdog compares against wall-clock time; a loaded CI machine must
  // not turn a slow-but-correct tick into a logged violation (violations
  // allocate their message strings, which would fail the zero-alloc assert
  // for the wrong reason).
  cfg.safety.tick_deadline = 1e9;
  return cfg;
}

struct TickCase {
  nn::Backend backend;
  bool quantized;
  const char* name;
};

const TickCase kTickCases[] = {
    {nn::Backend::kClosedSim, false, "closed_fp32"},
    {nn::Backend::kClosedSim, true, "closed_int8"},
    {nn::Backend::kOpenSim, false, "open_fp32"},
    {nn::Backend::kOpenSim, true, "open_int8"},
    {nn::Backend::kCpuNaive, false, "cpu_fp32"},
    {nn::Backend::kCpuNaive, true, "cpu_int8"},
};

TEST(TickPerf, SteadyStateTickAllocatesNothing) {
  for (const TickCase& tc : kTickCases) {
    SCOPED_TRACE(tc.name);
    adpilot::ApolloPilot pilot(MakeConfig(tc.backend, tc.quantized));

    AllocScope warmup_scope;
    for (int i = 0; i < kWarmupTicks; ++i) pilot.Tick();
    const std::uint64_t warmup_allocs = warmup_scope.allocations();

    ReserveTickTimers(kMeasuredTicks);
    AllocScope steady_scope;
    for (int i = 0; i < kMeasuredTicks; ++i) pilot.Tick();
    const std::uint64_t steady_allocs = steady_scope.allocations();

    std::printf("[tickperf] %-12s warmup_allocs=%llu steady_allocs=%llu\n",
                tc.name, static_cast<unsigned long long>(warmup_allocs),
                static_cast<unsigned long long>(steady_allocs));
    if (!AllocCountingActive()) {
      GTEST_SKIP() << "alloc hooks not linked (sanitizer build tree); "
                      "functional smoke only";
    }
    // Warm-up IS expected to allocate — a zero here means the counter is
    // not seeing the pipeline at all.
    EXPECT_GT(warmup_allocs, 0u);
    EXPECT_EQ(steady_allocs, 0u)
        << "steady-state Tick touched the heap " << steady_allocs
        << " times (backend/quantization: " << tc.name << ")";
  }
}

TEST(TickPerf, DetectorBatchEntryAllocatesNothingWarm) {
  for (const int batch : {1, 8}) {
    for (const TickCase& tc : kTickCases) {
      SCOPED_TRACE(testing::Message() << tc.name << " batch=" << batch);
      nn::DetectorConfig config;
      config.input_h = config.input_w = 64;
      config.num_classes = 2;
      config.backend = tc.backend;
      nn::TinyYoloDetector detector(config);
      nn::InitBlobDetectorWeights(&detector);
      if (tc.quantized) nn::QuantizeDetectorWeights(&detector);

      std::vector<nn::Tensor> frames;
      for (int b = 0; b < batch; ++b) {
        nn::Tensor frame(1, 3, 64, 64);
        for (std::size_t i = 0; i < frame.size(); ++i) {
          frame.data()[i] =
              static_cast<float>((i * 7 + static_cast<std::size_t>(b) * 131) %
                                 256);
        }
        frames.push_back(std::move(frame));
      }

      std::vector<std::vector<nn::Detection>> out;
      for (int i = 0; i < 3; ++i) detector.DetectBatchInto(frames, &out);

      AllocScope steady_scope;
      for (int i = 0; i < 5; ++i) detector.DetectBatchInto(frames, &out);
      const std::uint64_t steady_allocs = steady_scope.allocations();

      if (!AllocCountingActive()) {
        GTEST_SKIP() << "alloc hooks not linked (sanitizer build tree)";
      }
      EXPECT_EQ(steady_allocs, 0u)
          << "warm DetectBatchInto allocated " << steady_allocs
          << " times (" << tc.name << ", batch " << batch << ")";
    }
  }
}

// The counters themselves: scoped deltas must see exactly the allocations
// made inside the scope (sanity for the instrument, not the pipeline).
TEST(TickPerf, AllocScopeSeesAllocations) {
  if (!AllocCountingActive()) {
    GTEST_SKIP() << "alloc hooks not linked (sanitizer build tree)";
  }
  AllocScope scope;
  {
    // The compiler may elide a provably-unobserved new/delete pair
    // ([expr.new]/10); the asm makes the pointer escape so the allocation
    // must really happen.
    int* raw = new int[1024];
    asm volatile("" : : "g"(raw) : "memory");
    delete[] raw;
    std::vector<int>* v = new std::vector<int>(512);
    asm volatile("" : : "g"(v) : "memory");
    delete v;
  }
  EXPECT_GE(scope.allocations(), 3u);  // array + vector object + its buffer
  EXPECT_GE(scope.deallocations(), 3u);
  EXPECT_GE(scope.bytes(), 1024u * sizeof(int));
}

}  // namespace
