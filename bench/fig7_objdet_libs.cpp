// Experiment E5 — Figure 7 of the paper: "Performance of Apollo's object
// detection using open-source CUDA libraries in comparison with
// closed-source libraries implementation".
//
// The detector's convolution stack runs on three backends:
//   closed-sim (cuDNN/cuBLAS stand-in)  — the paper's baseline,
//   open-sim   (ISAAC/CUTLASS stand-in) — competitive with the baseline,
//   cpu-naive  (ATLAS/OpenBLAS CPU path) — orders of magnitude slower.
#include <benchmark/benchmark.h>

#include <memory>

#include "bench/bench_util.h"
#include "coverage/coverage.h"
#include "gpusim/gpusim.h"
#include "nn/detector.h"

namespace {

nn::Tensor MakeFrame() {
  nn::Tensor frame(1, 3, 64, 64);
  for (int c = 0; c < 3; ++c) {
    for (int y = 0; y < 64; ++y) {
      for (int x = 0; x < 64; ++x) {
        frame.At(0, c, y, x) = (y >= 24 && y < 40 && x >= 24 && x < 40)
                                   ? 225.0f
                                   : 22.0f;
      }
    }
  }
  return frame;
}

std::unique_ptr<nn::TinyYoloDetector> MakeDetector(nn::Backend backend) {
  nn::DetectorConfig cfg;
  cfg.backend = backend;
  auto det = std::make_unique<nn::TinyYoloDetector>(cfg);
  nn::InitRandomWeights(det.get(), 42);  // values irrelevant for timing
  return det;
}

void BM_ObjectDetection(benchmark::State& state) {
  const auto backend = static_cast<nn::Backend>(state.range(0));
  auto detector = MakeDetector(backend);
  nn::Tensor frame = MakeFrame();
  // One untimed frame first, so the per-thread scratch buffers the layers
  // reuse are allocated outside the timed region.
  auto warmup = detector->Detect(frame);
  benchmark::DoNotOptimize(warmup.size());
  for (auto _ : state) {
    auto dets = detector->Detect(frame);
    benchmark::DoNotOptimize(dets.size());
  }
  state.SetLabel(nn::BackendName(backend));
}
BENCHMARK(BM_ObjectDetection)
    ->Arg(static_cast<int>(nn::Backend::kClosedSim))
    ->Arg(static_cast<int>(nn::Backend::kOpenSim))
    ->Arg(static_cast<int>(nn::Backend::kCpuNaive))
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  // Performance flavor: run uninstrumented (coverage is a build flavor).
  certkit::cov::SetProbesEnabled(false);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  benchutil::PrintHeader(
      "Figure 7 — Object-detection latency by library backend");
  nn::Tensor frame = MakeFrame();
  auto& device = gpusim::Device::Instance();

  // Device kernels report the simulated-device clock (wall time per launch
  // divided by block-level occupancy on a 16-SM model — see gpusim::Device;
  // this host has too few cores to exhibit GPU parallelism in wall time).
  auto device_time = [&](nn::Backend backend) {
    auto det = MakeDetector(backend);
    det->Detect(frame);  // warmup (+ autotune for the open stack)
    double best = 1e99;
    for (int rep = 0; rep < 5; ++rep) {
      device.ResetTimers();
      det->Detect(frame);
      best = std::min(best, device.simulated_seconds());
    }
    return best;
  };
  const double closed = device_time(nn::Backend::kClosedSim);
  const double open = device_time(nn::Backend::kOpenSim);
  double naive = 0.0;
  {
    auto det = MakeDetector(nn::Backend::kCpuNaive);
    naive = benchutil::TimeSeconds([&] { det->Detect(frame); }, 3);
  }
  std::printf("  closed-sim (cuDNN/cuBLAS stand-in) : %8.3f ms  (baseline, "
              "device clock)\n",
              1e3 * closed);
  std::printf("  open-sim   (ISAAC/CUTLASS stand-in): %8.3f ms  (%.2fx of "
              "baseline, device clock)\n",
              1e3 * open, open / closed);
  std::printf("  cpu-naive  (CPU BLAS stand-in)     : %8.3f ms  (%.1fx of "
              "baseline, wall clock)\n",
              1e3 * naive, naive / closed);
  std::printf(
      "\nPaper reference: CUTLASS/ISAAC implementations provide competitive\n"
      "performance vs cuBLAS/cuDNN; the same operations on CPU cores run\n"
      "with about two orders of magnitude higher execution time.\n"
      "(Device kernels use the %u-SM simulated device clock; the CPU\n"
      "baseline is single-threaded wall time.)\n",
      device.sm_count());

  // Addendum: batched inference. One DetectBatch over 8 frames issues one
  // fused forward pass (same launch count as a single frame) vs 8 separate
  // per-frame passes. Reported on the device clock like the table above;
  // the deterministic accounting lives in the detector_batch driver.
  benchutil::PrintHeader(
      "Figure 7 addendum — batched (8-frame) vs per-frame, device clock");
  const std::vector<nn::Tensor> frames8(8, frame);
  for (const nn::Backend backend :
       {nn::Backend::kClosedSim, nn::Backend::kOpenSim}) {
    auto det = MakeDetector(backend);
    auto warm = det->DetectBatch(frames8);  // warmup (+ batch-shape tuning)
    benchmark::DoNotOptimize(warm.size());
    double serial = 1e99, batched = 1e99;
    for (int rep = 0; rep < 5; ++rep) {
      device.ResetTimers();
      for (const nn::Tensor& f : frames8) {
        auto dets = det->Detect(f);
        benchmark::DoNotOptimize(dets.size());
      }
      serial = std::min(serial, device.simulated_seconds());
      device.ResetTimers();
      auto dets = det->DetectBatch(frames8);
      benchmark::DoNotOptimize(dets.size());
      batched = std::min(batched, device.simulated_seconds());
    }
    std::printf("  %-10s: 8x per-frame %8.3f ms | batch-8 %8.3f ms  "
                "(%.2fx)\n",
                nn::BackendName(backend), 1e3 * serial, 1e3 * batched,
                serial / batched);
  }
  return 0;
}
