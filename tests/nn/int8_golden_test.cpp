// Golden bits of the int8 inference path. The digests below were recorded
// with the K-contiguous dot-product kernel (an [N,K] int16 patch matrix and
// an SSE2-width PMADDWD reduction along K) before the conv path moved to the
// pixel-major paired layout and the runtime-dispatched microkernel. Integer
// accumulation is exact, so neither the layout nor the vector width may
// change a single bit of:
//  * the quantized detector's head tensor and detections at 32x32, 64x64
//    and 96x128 (the letterboxed input), plus one 3-frame DetectBatch;
//  * one quantized ConvLayer off the detector's stride-1 3x3/1x1 path
//    (stride 2, 5x5 kernel, odd K, batch 2: the generic patch pack);
//  * the TickReport stream of quantized pilots on every backend, at both
//    detector input sizes, with coverage probes off and on.
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "ad/pipeline.h"
#include "ad/replay_tap.h"
#include "coverage/coverage.h"
#include "gtest/gtest.h"
#include "nn/detector.h"
#include "nn/layers.h"
#include "support/fnv.h"
#include "support/rng.h"

namespace nn {
namespace {

using certkit::support::FnvFloat;
using certkit::support::FnvI64;
using certkit::support::FnvU64;
using certkit::support::kFnvOffsetBasis;
using certkit::support::Xoshiro256;

std::string Hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::uint64_t DigestTensor(const Tensor& t) {
  std::uint64_t h = FnvI64(t.n());
  h = FnvI64(t.c(), h);
  h = FnvI64(t.h(), h);
  h = FnvI64(t.w(), h);
  for (std::size_t i = 0; i < t.size(); ++i) h = FnvFloat(t.data()[i], h);
  return h;
}

std::uint64_t DigestDetections(const std::vector<Detection>& dets,
                               std::uint64_t h = kFnvOffsetBasis) {
  h = FnvI64(static_cast<std::int64_t>(dets.size()), h);
  for (const Detection& d : dets) {
    for (const float v : {d.x, d.y, d.w, d.h, d.score}) h = FnvFloat(v, h);
    h = FnvI64(d.cls, h);
  }
  return h;
}

// A camera-sized frame of integer pixel values (exact in float).
Tensor SeededFrame(std::uint64_t seed) {
  Xoshiro256 rng(seed);
  Tensor f(1, 3, 64, 64);
  for (std::size_t j = 0; j < f.size(); ++j) {
    f.data()[j] = static_cast<float>(rng.UniformInt(0, 255));
  }
  return f;
}

TinyYoloDetector QuantizedDetector(int input_h, int input_w) {
  DetectorConfig cfg;
  cfg.input_h = input_h;
  cfg.input_w = input_w;
  cfg.score_threshold = 0.3f;  // low bar: plenty of detections to pin
  cfg.backend = Backend::kCpuNaive;
  TinyYoloDetector det(cfg);
  InitRandomWeights(&det, 77);
  QuantizeDetectorWeights(&det);
  return det;
}

struct DetectorGolden {
  int input_h, input_w;
  const char* head;
  const char* detections;
};

TEST(Int8GoldenTest, DetectorHeadAndDetections) {
  const DetectorGolden kGolden[] = {
      {32, 32, "c0633fc27fa49ff4", "cfd0fb858ac2e049"},
      {64, 64, "3d3e9fd792877b09", "e3d0f697515bc202"},
      {96, 128, "590288e511da03c3", "48d3cf1a89dc0baa"},
  };
  for (const DetectorGolden& g : kGolden) {
    TinyYoloDetector det = QuantizedDetector(g.input_h, g.input_w);
    std::uint64_t head = kFnvOffsetBasis;
    std::uint64_t dets = kFnvOffsetBasis;
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      const Tensor frame = SeededFrame(seed);
      const Tensor input = Preprocess(frame, g.input_h, g.input_w);
      head = FnvU64(DigestTensor(det.network().Forward(input)), head);
      dets = DigestDetections(det.Detect(frame), dets);
    }
    EXPECT_EQ(Hex(head), g.head) << g.input_h << "x" << g.input_w;
    EXPECT_EQ(Hex(dets), g.detections) << g.input_h << "x" << g.input_w;
  }
}

TEST(Int8GoldenTest, DetectBatchOfThree) {
  TinyYoloDetector det = QuantizedDetector(64, 64);
  const std::vector<Tensor> frames = {SeededFrame(11), SeededFrame(12),
                                      SeededFrame(13)};
  const auto batched = det.DetectBatch(frames);
  ASSERT_EQ(batched.size(), frames.size());
  std::uint64_t h = kFnvOffsetBasis;
  for (const auto& slot : batched) h = DigestDetections(slot, h);
  EXPECT_EQ(Hex(h), "0518445a0a345e84");
}

TEST(Int8GoldenTest, StridedFiveByFiveConvOddK) {
  // K = 3 * 5 * 5 = 75 (odd), stride 2, pad 2, batch 2, odd spatial dims.
  constexpr int kInC = 3, kOutC = 5, kKernel = 5;
  Xoshiro256 rng(2024);
  std::vector<float> weights(kOutC * kInC * kKernel * kKernel);
  for (float& w : weights) w = static_cast<float>(rng.Gaussian(0.0, 0.2));
  std::vector<float> bias(kOutC);
  for (float& b : bias) b = static_cast<float>(rng.Gaussian(0.0, 0.05));
  ConvLayer conv(kInC, kOutC, kKernel, /*stride=*/2, /*pad=*/2,
                 std::move(weights), std::move(bias), Backend::kCpuNaive);
  conv.SetInputQuantization(true);
  Tensor input(2, kInC, 13, 11);
  for (std::size_t i = 0; i < input.size(); ++i) {
    input.data()[i] = static_cast<float>(rng.UniformDouble(-3.0, 3.0));
  }
  const Tensor out = conv.Forward(input);
  ASSERT_EQ(out.h(), 7);
  ASSERT_EQ(out.w(), 6);
  EXPECT_EQ(Hex(DigestTensor(out)), "dea92e6c6579a800");
}

// 25 ticks of a quantized pilot in a world of 6 vehicles and 4 pedestrians.
std::vector<adpilot::TickReport> QuantizedDrive(Backend backend, int input_h,
                                                int input_w) {
  adpilot::PilotConfig cfg;
  cfg.scenario.num_vehicles = 6;
  cfg.scenario.num_pedestrians = 4;
  cfg.scenario.seed = 31337;
  cfg.perception.backend = backend;
  cfg.perception.detector_input_h = input_h;
  cfg.perception.detector_input_w = input_w;
  cfg.perception.quantized_weights = true;
  // The watchdog reads the wall clock; a slow host must not log a violation
  // that changes the command stream.
  cfg.safety.tick_deadline = 1e9;
  adpilot::ApolloPilot pilot(cfg);
  std::vector<adpilot::TickReport> reports;
  for (int t = 0; t < 25; ++t) reports.push_back(pilot.Tick());
  return reports;
}

struct DriveGolden {
  int input_h, input_w;
  const char* digest;
};

// The int8 conv path is backend-independent and probes never change a
// result, so one digest per detector input size covers all six drives.
TEST(Int8GoldenTest, QuantizedPilotTickStreams) {
  const DriveGolden kGolden[] = {
      {64, 64, "20a7dfbc3867d71b"},
      {96, 128, "51b76051b4068107"},
  };
  const bool probes_were_on = certkit::cov::ProbesEnabled();
  for (const bool probes : {false, true}) {
    certkit::cov::SetProbesEnabled(probes);
    for (const DriveGolden& g : kGolden) {
      for (const Backend backend :
           {Backend::kClosedSim, Backend::kOpenSim, Backend::kCpuNaive}) {
        const auto reports = QuantizedDrive(backend, g.input_h, g.input_w);
        std::size_t detections = 0;
        for (const auto& r : reports) detections += r.detections;
        EXPECT_GT(detections, 0u);  // the detector output feeds the digest
        EXPECT_EQ(Hex(adpilot::DigestTickReports(reports)), g.digest)
            << BackendName(backend) << " " << g.input_h << "x" << g.input_w
            << " probes " << (probes ? "on" : "off");
      }
    }
  }
  certkit::cov::SetProbesEnabled(probes_were_on);
}

}  // namespace
}  // namespace nn
