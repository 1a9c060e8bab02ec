// Tick-path performance driver — the headline claim of the register-tiled,
// allocation-free tick work, runnable as one self-checking binary.
//
// Three contracts, each checked at runtime (nonzero exit on any breach, so
// CI treats this binary like a test):
//
//  1. SPEEDUP — the optimized tick (int8 detector: the K-paired PMADDWD
//     GEMM reading its quantized input planes in place through an offset
//     table, snapshotted weights, release-flavor probes-off layer loops)
//     is at least --speedup_floor times faster (default 10x) than the fig7
//     CPU-BLAS baseline (fp32 kCpuNaive, same pipeline, same scenario).
//     Both arms run with coverage probes off: the comparison is kernel
//     against kernel, not instrumentation against its absence. Arms
//     alternate block-wise so frequency/thermal drift cancels instead of
//     biasing one arm.
//  2. ALLOCATIONS — after warm-up, ApolloPilot::Tick performs ZERO heap
//     allocations in either arm (counting operator new/delete replacements
//     from support/alloc_hooks.cpp; skipped in sanitizer trees where the
//     sanitizer runtime owns the allocator).
//  3. ACCURACY — on the detector's real layer-0 shape, the int8 conv
//     output tracks the bit-exact fp32 reference within the theoretical
//     quantization-grid error bound (the same gate the containment test
//     enforces: K/2 * (in_step*|w|max + w_step*|x|max + in_step*w_step)).
//
// It also reports the GOPS of the int8 pair GEMM on a 256³ shape.
//
// Output is one JSON document. Wall-clock fields vary run to run, so the
// file is *not* byte-stable; a reference run is committed as
// bench/BENCH_pipeline.json.
//
// Usage:
//   pipeline_tick [--ticks N] [--warmup N] [--blocks N] [--speedup_floor X]
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "ad/pipeline.h"
#include "coverage/coverage.h"
#include "kernels/gemm.h"
#include "nn/layers.h"
#include "support/alloc_counter.h"
#include "support/flags.h"
#include "support/rng.h"
#include "timing/timing.h"

namespace {

using Clock = std::chrono::steady_clock;

int g_failures = 0;

void Check(bool ok, const std::string& what) {
  if (!ok) {
    std::fprintf(stderr, "pipeline_tick: CONTRACT FAILURE: %s\n",
                 what.c_str());
    ++g_failures;
  }
}

// The nearest-rank rule timing, obs and the perf ledger use.
double Percentile(std::vector<double>* samples, double p) {
  std::sort(samples->begin(), samples->end());
  return certkit::timing::NearestRankQuantile(*samples, p);
}

// Same rationale as the tickperf harness: ExecutionTimer::Record runs
// inside the tick, so its sample buffers must be at capacity before the
// zero-allocation window opens.
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

adpilot::PilotConfig MakeConfig(bool quantized) {
  adpilot::PilotConfig cfg;
  // Both arms run the fig7 CPU reference backend; the only difference is
  // the quantized-weights switch that routes convs onto the int8 path.
  cfg.perception.backend = nn::Backend::kCpuNaive;
  cfg.perception.quantized_weights = quantized;
  // The watchdog compares against wall-clock time; on a loaded machine a
  // slow-but-correct baseline tick must not become a logged violation
  // (violations allocate their message strings).
  cfg.safety.tick_deadline = 1e9;
  return cfg;
}

// One block of per-tick latency samples. A fresh pilot per block keeps the
// workload identical across blocks and arms (same scenario schedule from
// tick 0); the untimed warm-up grows every buffer to its peak size first.
void MeasureBlock(bool quantized, int warmup, int ticks,
                  std::vector<double>* out) {
  adpilot::ApolloPilot pilot(MakeConfig(quantized));
  for (int t = 0; t < warmup; ++t) pilot.Tick();
  for (int t = 0; t < ticks; ++t) {
    const auto t0 = Clock::now();
    pilot.Tick();
    const auto t1 = Clock::now();
    out->push_back(
        std::chrono::duration<double, std::micro>(t1 - t0).count());
  }
}

// Steady-state allocation count for one arm: allocations per measured tick
// after warm-up (must be exactly zero when the counting hooks are linked).
std::uint64_t SteadyAllocs(bool quantized, int warmup, int ticks) {
  adpilot::ApolloPilot pilot(MakeConfig(quantized));
  for (int t = 0; t < warmup; ++t) pilot.Tick();
  ReserveTickTimers(ticks);
  certkit::support::AllocScope scope;
  for (int t = 0; t < ticks; ++t) pilot.Tick();
  return scope.allocations();
}

// Accuracy gate on the detector's real layer-0 shape (3->8 channels, 3x3,
// 64x64): int8 output vs the bit-exact fp32 reference, bounded by the
// quantization-grid error sum — the containment test's formula.
double AccuracyGate(float* bound_out) {
  const int in_c = 3, out_c = 8, k = 3, hw = 64;
  std::vector<float> weights(static_cast<std::size_t>(out_c) * in_c * k * k);
  std::vector<float> bias(out_c);
  certkit::support::Xoshiro256 rng(0xBEEFu);
  for (float& w : weights) w = static_cast<float>(rng.UniformDouble(-1, 1));
  for (float& b : bias) b = static_cast<float>(rng.UniformDouble(-1, 1));

  nn::ConvLayer fp32(in_c, out_c, k, 1, 1, weights, bias,
                     nn::Backend::kCpuNaive);
  nn::ConvLayer quant(in_c, out_c, k, 1, 1, weights, bias,
                      nn::Backend::kCpuNaive);
  quant.SetInputQuantization(true);

  nn::Tensor input(1, in_c, hw, hw);
  for (std::size_t i = 0; i < input.size(); ++i) {
    input.data()[i] = static_cast<float>(rng.UniformDouble(-4, 4));
  }

  float in_amax = 0.0f, w_amax = 0.0f;
  for (std::size_t i = 0; i < input.size(); ++i) {
    in_amax = std::max(in_amax, std::fabs(input.data()[i]));
  }
  for (const float w : weights) w_amax = std::max(w_amax, std::fabs(w));
  const float in_step = in_amax / 127.0f;
  const float w_step = w_amax / 127.0f;
  const float patch = static_cast<float>(in_c) * k * k;
  *bound_out =
      patch * 0.5f *
          (in_step * w_amax + w_step * in_amax + in_step * w_step) +
      1e-4f;

  nn::Tensor want, got;
  fp32.ForwardInto(input, &want);
  quant.ForwardInto(input, &got);
  Check(got.size() == want.size(), "accuracy gate: output shape mismatch");
  Check(std::memcmp(got.data(), want.data(),
                    got.size() * sizeof(float)) != 0,
        "accuracy gate: int8 path did not run (outputs bit-identical)");

  double max_abs_err = 0.0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    max_abs_err = std::max(
        max_abs_err,
        static_cast<double>(std::fabs(got.data()[i] - want.data()[i])));
  }
  return max_abs_err;
}

// The int8 pair GEMM the quantized conv runs, on a representative square
// shape: operands paired once and B read through a dense offset table, so
// the figure is the kernel's alone (the GemmS16S32DotT adapter re-packs
// both operands on every call). GOPS counts 2·M·N·K operations per call.
double Int8PairGops() {
  constexpr int kSide = 256, kPairs = kSide / 2;
  const kernels::GemmShape shape{kSide, kSide, kSide};
  const auto grid = [](std::size_t i, int mul) {
    return static_cast<std::int16_t>(static_cast<int>((i * mul) % 255) - 127);
  };
  std::vector<std::int32_t> a(kSide * kPairs), b(kPairs * kSide);
  std::vector<std::int32_t> c(kSide * kSide);
  std::vector<std::size_t> rows(kPairs);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = kernels::micro::PackPair(grid(2 * i, 7), grid(2 * i + 1, 7));
    b[i] = kernels::micro::PackPair(grid(2 * i, 13), grid(2 * i + 1, 13));
  }
  for (int p = 0; p < kPairs; ++p) {
    rows[p] = static_cast<std::size_t>(p) * kSide;
  }

  // One warm call, then the median of 50 timed calls.
  std::vector<double> seconds;
  for (int i = 0; i <= 50; ++i) {
    const auto t0 = Clock::now();
    kernels::micro::GemmPairRowsS16S32(a.data(), b.data(), rows.data(),
                                       c.data(), shape);
    const auto t1 = Clock::now();
    if (i > 0) {
      seconds.push_back(std::chrono::duration<double>(t1 - t0).count());
    }
  }
  return 2.0 * kSide * kSide * kSide / Percentile(&seconds, 0.5) / 1e9;
}

}  // namespace

int main(int argc, char** argv) {
  certkit::support::FlagParser flags(argc, argv);
  const int ticks = static_cast<int>(*flags.GetInt("ticks", 40));
  const int warmup = static_cast<int>(*flags.GetInt("warmup", 20));
  const int blocks = static_cast<int>(*flags.GetInt("blocks", 3));
  const double speedup_floor =
      static_cast<double>(*flags.GetInt("speedup_floor", 10));

  // Release flavor: probes off for both arms (see the header comment).
  certkit::cov::SetProbesEnabled(false);

  // --- 1. accuracy gate ----------------------------------------------------
  float bound = 0.0f;
  const double max_abs_err = AccuracyGate(&bound);
  Check(max_abs_err <= bound,
        "int8 conv drifted past the quantization-grid error bound (" +
            std::to_string(max_abs_err) + " > " + std::to_string(bound) +
            ")");

  // --- int8 pair GEMM throughput (reported, not gated) ---------------------
  const double int8_pair_gops = Int8PairGops();

  // --- 2. steady-state allocations ----------------------------------------
  const bool counting = certkit::support::AllocCountingActive();
  const std::uint64_t base_allocs = SteadyAllocs(false, warmup, ticks);
  const std::uint64_t opt_allocs = SteadyAllocs(true, warmup, ticks);
  if (counting) {
    Check(base_allocs == 0,
          "baseline steady-state tick touched the heap " +
              std::to_string(base_allocs) + " times");
    Check(opt_allocs == 0,
          "optimized steady-state tick touched the heap " +
              std::to_string(opt_allocs) + " times");
  }

  // --- 3. tick latency, alternating arms ----------------------------------
  std::vector<double> base_us, opt_us;
  for (int b = 0; b < blocks; ++b) {
    MeasureBlock(false, warmup, ticks, &base_us);
    MeasureBlock(true, warmup, ticks, &opt_us);
  }
  const double base_p50 = Percentile(&base_us, 0.50);
  const double base_p99 = Percentile(&base_us, 0.99);
  const double opt_p50 = Percentile(&opt_us, 0.50);
  const double opt_p99 = Percentile(&opt_us, 0.99);
  const double speedup = opt_p50 > 0.0 ? base_p50 / opt_p50 : 0.0;
  Check(speedup >= speedup_floor,
        "tick speedup " + std::to_string(speedup) + "x below the " +
            std::to_string(speedup_floor) + "x floor");

  certkit::cov::SetProbesEnabled(true);

  std::printf(
      "{\"pipeline_tick\":{\"ticks_per_block\":%d,\"blocks\":%d,"
      "\"warmup\":%d,"
      "\"baseline\":{\"backend\":\"cpu_naive_fp32\",\"p50_us\":%.1f,"
      "\"p99_us\":%.1f,\"steady_allocs_per_%d_ticks\":%llu},"
      "\"optimized\":{\"backend\":\"cpu_int8\",\"p50_us\":%.1f,"
      "\"p99_us\":%.1f,\"steady_allocs_per_%d_ticks\":%llu},"
      "\"speedup_p50\":%.2f,\"speedup_floor\":%.1f,"
      "\"alloc_counting_active\":%s,"
      "\"gemm_256\":{\"int8_pair_gops\":%.2f},"
      "\"int8_accuracy\":{\"max_abs_err\":%.6f,\"grid_bound\":%.6f},"
      "\"checks_failed\":%d}}\n",
      ticks, blocks, warmup, base_p50, base_p99, ticks,
      static_cast<unsigned long long>(base_allocs), opt_p50, opt_p99, ticks,
      static_cast<unsigned long long>(opt_allocs), speedup, speedup_floor,
      counting ? "true" : "false", int8_pair_gops, max_abs_err, static_cast<double>(bound), g_failures);
  return g_failures == 0 ? 0 : 1;
}
