// Tick-path performance driver — the headline claim of the register-tiled,
// allocation-free tick work, runnable as one self-checking binary.
//
// Four contracts, each checked at runtime (nonzero exit on any breach, so
// CI treats this binary like a test):
//
//  1. SPEEDUP — the optimized tick (int8 detector: PMADDWD dot-product
//     GEMM over a transposed int16 patch matrix, snapshotted weights,
//     release-flavor probes-off layer loops) is at least --speedup_floor
//     times faster (default 10x) than the fig7 CPU-BLAS baseline (fp32
//     kCpuNaive, same pipeline, same scenario). Both arms run with
//     coverage probes off: the comparison is kernel against kernel, not
//     instrumentation against its absence. Arms alternate block-wise so
//     frequency/thermal drift cancels instead of biasing one arm.
//  2. ALLOCATIONS — after warm-up, ApolloPilot::Tick performs ZERO heap
//     allocations in either arm (counting operator new/delete replacements
//     from support/alloc_hooks.cpp; skipped in sanitizer trees where the
//     sanitizer runtime owns the allocator).
//  3. ACCURACY — on the detector's real layer-0 shape, the int8 conv
//     output tracks the bit-exact fp32 reference within the theoretical
//     quantization-grid error bound (the same gate the containment test
//     enforces: K/2 * (in_step*|w|max + w_step*|x|max + in_step*w_step)).
//  4. GEMM — micro::Sgemm stays bit-identical to cpublas::Sgemm on the
//     representative shape while being faster; both GFLOP/s are reported,
//     plus the int8 dot-kernel's GOPS.
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

// GEMM comparison on a representative square shape: wall time per call for
// the microkernel vs the naive CPU-BLAS reference, with a bit-identity
// check (the blocking must not change a single ulp).
struct GemmResult {
  double micro_gflops = 0.0;
  double cpublas_gflops = 0.0;
  double int8_gops = 0.0;
};

GemmResult GemmCompare() {
  const kernels::GemmShape shape{256, 256, 256};
  const std::size_t mk = 256 * 256;
  std::vector<float> a(mk), b(mk), c_micro(mk), c_ref(mk);
  certkit::support::Xoshiro256 rng(0xC0FFEEu);
  for (float& v : a) v = static_cast<float>(rng.UniformDouble(-1, 1));
  for (float& v : b) v = static_cast<float>(rng.UniformDouble(-1, 1));

  const double flops = 2.0 * 256 * 256 * 256;
  GemmResult r;

  {  // reference: one warm call, then timed reps
    kernels::cpublas::Sgemm(a.data(), b.data(), c_ref.data(), shape);
    const int reps = 3;
    const auto t0 = Clock::now();
    for (int i = 0; i < reps; ++i) {
      kernels::cpublas::Sgemm(a.data(), b.data(), c_ref.data(), shape);
    }
    const auto t1 = Clock::now();
    r.cpublas_gflops =
        flops * reps /
        std::chrono::duration<double>(t1 - t0).count() / 1e9;
  }
  {
    kernels::micro::Sgemm(a.data(), b.data(), c_micro.data(), shape);
    const int reps = 10;
    const auto t0 = Clock::now();
    for (int i = 0; i < reps; ++i) {
      kernels::micro::Sgemm(a.data(), b.data(), c_micro.data(), shape);
    }
    const auto t1 = Clock::now();
    r.micro_gflops =
        flops * reps /
        std::chrono::duration<double>(t1 - t0).count() / 1e9;
  }
  Check(std::memcmp(c_micro.data(), c_ref.data(), mk * sizeof(float)) == 0,
        "micro::Sgemm not bit-identical to cpublas::Sgemm");

  {  // the int8 inner kernel the quantized conv path actually runs
    std::vector<std::int16_t> qa(mk), qbt(mk);
    std::vector<std::int32_t> qc(mk);
    for (std::size_t i = 0; i < mk; ++i) {
      qa[i] = static_cast<std::int16_t>((i * 7) % 255) - 127;
      qbt[i] = static_cast<std::int16_t>((i * 13) % 255) - 127;
    }
    kernels::micro::GemmS16S32DotT(qa.data(), qbt.data(), qc.data(), shape);
    const int reps = 20;
    const auto t0 = Clock::now();
    for (int i = 0; i < reps; ++i) {
      kernels::micro::GemmS16S32DotT(qa.data(), qbt.data(), qc.data(),
                                     shape);
    }
    const auto t1 = Clock::now();
    r.int8_gops = flops * reps /
                  std::chrono::duration<double>(t1 - t0).count() / 1e9;
  }
  return r;
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

  // --- 2. GEMM micro vs cpublas -------------------------------------------
  const GemmResult gemm = GemmCompare();
  Check(gemm.micro_gflops > gemm.cpublas_gflops,
        "microkernel not faster than the naive reference");

  // --- 3. steady-state allocations ----------------------------------------
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

  // --- 4. tick latency, alternating arms ----------------------------------
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
      "\"optimized\":{\"backend\":\"cpu_int8_dott\",\"p50_us\":%.1f,"
      "\"p99_us\":%.1f,\"steady_allocs_per_%d_ticks\":%llu},"
      "\"speedup_p50\":%.2f,\"speedup_floor\":%.1f,"
      "\"alloc_counting_active\":%s,"
      "\"gemm_256\":{\"micro_gflops\":%.2f,\"cpublas_gflops\":%.2f,"
      "\"int8_dott_gops\":%.2f,\"bit_identical\":true},"
      "\"int8_accuracy\":{\"max_abs_err\":%.6f,\"grid_bound\":%.6f},"
      "\"checks_failed\":%d}}\n",
      ticks, blocks, warmup, base_p50, base_p99, ticks,
      static_cast<unsigned long long>(base_allocs), opt_p50, opt_p99, ticks,
      static_cast<unsigned long long>(opt_allocs), speedup, speedup_floor,
      counting ? "true" : "false", gemm.micro_gflops, gemm.cpublas_gflops,
      gemm.int8_gops, max_abs_err, static_cast<double>(bound), g_failures);
  return g_failures == 0 ? 0 : 1;
}
