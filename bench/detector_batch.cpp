// Experiment E-batch — batched detector inference vs the per-frame path.
//
// A plain JSON-emitting driver (no google-benchmark harness: the default
// output must be byte-stable). For every backend it
//
//   1. runs the serial per-frame reference (TinyYoloDetector::Detect),
//   2. re-runs the same frames through DetectBatch at batch sizes 1, 3 and
//      8 and REQUIRES bit-identical detections (any mismatch exits
//      non-zero — this is the bench's correctness gate),
//   3. reports deterministic accounting: an FNV-1a digest of the detection
//      bytes, device launch/block counts for the per-frame loop vs one
//      8-batch call, and (open-sim) the tuner's modeled costs per conv of
//      the stack at batch 1 vs batch 8 with the resulting modeled speedup.
//
// Without --timing the JSON is byte-identical for a fixed --seed across any
// --jobs value (the verify skill diffs --jobs 1 against --jobs 4). With
// --timing a "timing" object is appended: wall-clock and simulated-device
// throughput for per-frame vs batch-8 — that part is measurement, not
// contract.
//
// Usage:
//   detector_batch [--seed N] [--jobs N] [--frames N] [--timing]
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "coverage/coverage.h"
#include "gpusim/gpusim.h"
#include "kernels/conv.h"
#include "nn/detector.h"
#include "support/flags.h"
#include "support/rng.h"
#include "support/thread_pool.h"

namespace {

// The TinyYolo conv stack (mirrors TinyYoloDetector's assembly in
// src/nn/network.cpp) at the default 64x64 input with num_classes = 2:
// in_channels, out_channels, kernel, pad, and the square input size the
// layer sees after pooling/upsampling.
struct ConvSpec {
  int in_c, out_c, k, pad, hw;
};
constexpr ConvSpec kConvStack[] = {{3, 8, 3, 1, 64},
                                   {8, 16, 3, 1, 32},
                                   {16, 32, 3, 1, 16},
                                   {32, 32, 3, 1, 8},
                                   {32, 7, 1, 0, 16}};

kernels::ConvShape ShapeOf(const ConvSpec& cs, int batch) {
  kernels::ConvShape s;
  s.batch = batch;
  s.in_channels = cs.in_c;
  s.in_h = cs.hw;
  s.in_w = cs.hw;
  s.out_channels = cs.out_c;
  s.kernel_h = cs.k;
  s.kernel_w = cs.k;
  s.stride = 1;
  s.pad = cs.pad;
  return s;
}

std::vector<nn::Tensor> MakeFrames(int count, std::uint64_t seed) {
  // Integer pixel values 0..255: exactly representable in float, so frame
  // content is reproducible bit-for-bit from the seed alone.
  certkit::support::Xoshiro256 rng(seed);
  std::vector<nn::Tensor> frames;
  frames.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    nn::Tensor f(1, 3, 64, 64);
    for (std::size_t j = 0; j < f.size(); ++j) {
      f.data()[j] = static_cast<float>(rng.UniformInt(0, 255));
    }
    frames.push_back(std::move(f));
  }
  return frames;
}

std::unique_ptr<nn::TinyYoloDetector> MakeDetector(nn::Backend backend,
                                                   std::uint64_t seed) {
  nn::DetectorConfig cfg;
  cfg.backend = backend;
  auto det = std::make_unique<nn::TinyYoloDetector>(cfg);
  nn::InitRandomWeights(det.get(), seed);
  return det;
}

bool BitsEqual(float a, float b) {
  std::uint32_t ba, bb;
  std::memcpy(&ba, &a, sizeof(ba));
  std::memcpy(&bb, &b, sizeof(bb));
  return ba == bb;
}

bool SameDetections(const std::vector<nn::Detection>& a,
                    const std::vector<nn::Detection>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!BitsEqual(a[i].x, b[i].x) || !BitsEqual(a[i].y, b[i].y) ||
        !BitsEqual(a[i].w, b[i].w) || !BitsEqual(a[i].h, b[i].h) ||
        !BitsEqual(a[i].score, b[i].score) || a[i].cls != b[i].cls) {
      return false;
    }
  }
  return true;
}

// FNV-1a over the detection payload of all frames.
std::uint64_t Digest(const std::vector<std::vector<nn::Detection>>& all) {
  std::uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](const void* p, std::size_t n) {
    const auto* bytes = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= bytes[i];
      h *= 1099511628211ULL;
    }
  };
  for (const auto& dets : all) {
    for (const nn::Detection& d : dets) {
      mix(&d.x, sizeof(d.x));
      mix(&d.y, sizeof(d.y));
      mix(&d.w, sizeof(d.w));
      mix(&d.h, sizeof(d.h));
      mix(&d.score, sizeof(d.score));
      mix(&d.cls, sizeof(d.cls));
    }
  }
  return h;
}

double WallSeconds(const std::function<void()>& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

}  // namespace

int main(int argc, char** argv) {
  certkit::support::FlagParser flags(argc, argv);
  const std::uint64_t seed =
      static_cast<std::uint64_t>(*flags.GetInt("seed", 7));
  const int jobs = static_cast<int>(*flags.GetInt("jobs", 1));
  const int frame_count =
      std::max<int>(8, static_cast<int>(*flags.GetInt("frames", 8)));
  const bool timing = flags.GetBool("timing");

  // Performance flavor: uninstrumented, like the Figure 7/8 benches.
  certkit::cov::SetProbesEnabled(false);

  auto& device = gpusim::Device::Instance();
  certkit::support::ThreadPool pool(
      certkit::support::ThreadPool::ResolveJobs(jobs) - 1);
  const std::vector<nn::Tensor> frames = MakeFrames(frame_count, seed);
  const std::vector<nn::Tensor> frames8(frames.begin(), frames.begin() + 8);

  constexpr nn::Backend kBackends[] = {
      nn::Backend::kClosedSim, nn::Backend::kOpenSim, nn::Backend::kCpuNaive};

  std::printf("{\"seed\":%llu,\"frames\":%d,\"backends\":[",
              static_cast<unsigned long long>(seed), frame_count);
  std::string timing_json;
  bool first = true;
  for (const nn::Backend backend : kBackends) {
    auto det = MakeDetector(backend, seed);

    // Serial reference.
    std::vector<std::vector<nn::Detection>> serial;
    serial.reserve(frames.size());
    for (const nn::Tensor& f : frames) serial.push_back(det->Detect(f));

    // Identity gate: every batch size, chunked over the same frames, must
    // reproduce the serial detections bit-for-bit.
    for (const int batch : {1, 3, 8}) {
      std::size_t next = 0;
      while (next < frames.size()) {
        const std::size_t end =
            std::min(frames.size(), next + static_cast<std::size_t>(batch));
        const std::vector<nn::Tensor> chunk(frames.begin() + next,
                                            frames.begin() + end);
        const auto batched = det->DetectBatch(chunk, &pool);
        for (std::size_t i = 0; i < batched.size(); ++i) {
          if (!SameDetections(batched[i], serial[next + i])) {
            std::fprintf(stderr,
                         "FAIL: %s batch=%d frame=%zu diverges from the "
                         "serial path\n",
                         nn::BackendName(backend), batch, next + i);
            return 1;
          }
        }
        next = end;
      }
    }

    // Deterministic launch accounting: 8 per-frame passes vs one 8-batch.
    device.ResetTimers();
    for (const nn::Tensor& f : frames8) det->Detect(f);
    const std::uint64_t launches_serial = device.launch_count();
    const std::uint64_t blocks_serial = device.blocks_launched();
    device.ResetTimers();
    auto batched8 = det->DetectBatch(frames8, &pool);
    const std::uint64_t launches_batch = device.launch_count();
    const std::uint64_t blocks_batch = device.blocks_launched();

    std::printf("%s{\"backend\":\"%s\",\"batch_identity\":true,"
                "\"digest\":\"%016llx\",\"launches_serial8\":%llu,"
                "\"launches_batch8\":%llu,\"blocks_serial8\":%llu,"
                "\"blocks_batch8\":%llu",
                first ? "" : ",", nn::BackendName(backend),
                static_cast<unsigned long long>(Digest(serial)),
                static_cast<unsigned long long>(launches_serial),
                static_cast<unsigned long long>(launches_batch),
                static_cast<unsigned long long>(blocks_serial),
                static_cast<unsigned long long>(blocks_batch));
    first = false;

    if (backend == nn::Backend::kOpenSim) {
      // The tuner's own ranking signal, conv by conv: modeled cost of one
      // frame (x8) vs one 8-batch, each under the config the tuner picks
      // for that shape. Pure integer accounting — identical on every run.
      const unsigned sms = device.sm_count();
      std::uint64_t total1 = 0, total8 = 0;
      std::printf(",\"modeled_convs\":[");
      for (std::size_t i = 0; i < std::size(kConvStack); ++i) {
        const kernels::ConvShape s1 = ShapeOf(kConvStack[i], 1);
        const kernels::ConvShape s8 = ShapeOf(kConvStack[i], 8);
        const int c1 = kernels::isaac_sim::PickConfig(s1, sms);
        const int c8 = kernels::isaac_sim::PickConfig(s8, sms);
        const std::uint64_t cost1 =
            kernels::isaac_sim::ModeledConfigCost(s1, c1, sms);
        const std::uint64_t cost8 =
            kernels::isaac_sim::ModeledConfigCost(s8, c8, sms);
        total1 += cost1;
        total8 += cost8;
        std::printf("%s{\"conv\":%zu,\"config1\":%d,\"cost1\":%llu,"
                    "\"config8\":%d,\"cost8\":%llu}",
                    i == 0 ? "" : ",", i, c1,
                    static_cast<unsigned long long>(cost1), c8,
                    static_cast<unsigned long long>(cost8));
      }
      // Throughput ratio of 8 tuned single-frame stacks vs one tuned
      // 8-batch stack under the cost model (>= 2 is the acceptance bar).
      std::printf("],\"modeled_cost_per_frame\":%llu,"
                  "\"modeled_cost_batch8\":%llu,\"modeled_speedup\":%.3f",
                  static_cast<unsigned long long>(total1),
                  static_cast<unsigned long long>(total8),
                  8.0 * static_cast<double>(total1) /
                      static_cast<double>(total8));
    }
    std::printf("}");

    if (timing) {
      // Measured throughput (frames/sec): wall clock plus, for the device
      // backends, the simulated device clock. Best of 3 repetitions.
      double wall_serial = 1e99, wall_batch = 1e99;
      double dev_serial = 1e99, dev_batch = 1e99;
      for (int rep = 0; rep < 3; ++rep) {
        device.ResetTimers();
        wall_serial = std::min(wall_serial, WallSeconds([&] {
                                 for (const nn::Tensor& f : frames8) {
                                   auto dets = det->Detect(f);
                                   (void)dets;
                                 }
                               }));
        dev_serial = std::min(dev_serial, device.simulated_seconds());
        device.ResetTimers();
        wall_batch = std::min(wall_batch, WallSeconds([&] {
                                auto dets = det->DetectBatch(frames8, &pool);
                                (void)dets;
                              }));
        dev_batch = std::min(dev_batch, device.simulated_seconds());
      }
      char buf[512];
      const bool on_device = backend != nn::Backend::kCpuNaive;
      if (on_device) {
        std::snprintf(buf, sizeof(buf),
                      "%s{\"backend\":\"%s\",\"wall_fps_serial\":%.1f,"
                      "\"wall_fps_batch8\":%.1f,\"device_fps_serial\":%.1f,"
                      "\"device_fps_batch8\":%.1f,\"device_speedup\":%.2f}",
                      timing_json.empty() ? "" : ",",
                      nn::BackendName(backend), 8.0 / wall_serial,
                      8.0 / wall_batch, 8.0 / dev_serial, 8.0 / dev_batch,
                      dev_serial / dev_batch);
      } else {
        std::snprintf(buf, sizeof(buf),
                      "%s{\"backend\":\"%s\",\"wall_fps_serial\":%.1f,"
                      "\"wall_fps_batch8\":%.1f}",
                      timing_json.empty() ? "" : ",",
                      nn::BackendName(backend), 8.0 / wall_serial,
                      8.0 / wall_batch);
      }
      timing_json += buf;
    }
  }
  std::printf("]");
  if (timing) {
    std::printf(",\"timing\":{\"jobs\":%d,\"backends\":[%s]}", jobs,
                timing_json.c_str());
  }
  std::printf("}\n");
  return 0;
}
