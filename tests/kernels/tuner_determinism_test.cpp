// Determinism of the isaac_sim auto-tuner: the tile configuration a conv
// runs must be a pure function of (shape, sm_count) — no wall clock, no
// dependence on call count, evaluation order, earlier calls on other
// devices, or how many host threads the device runs on. This is what lets
// campaign candidates evaluate reproducibly in any order at any --jobs.
#include <gtest/gtest.h>

#include <vector>

#include "gpusim/gpusim.h"
#include "kernels/conv.h"

namespace kernels {
namespace {

ConvShape SmallShape() {
  ConvShape s;
  s.batch = 1;
  s.in_channels = 8;
  s.in_h = 16;
  s.in_w = 16;
  s.out_channels = 16;
  s.kernel_h = 3;
  s.kernel_w = 3;
  s.stride = 1;
  s.pad = 1;
  return s;
}

TEST(TunerDeterminismTest, SameConfigForAnyDevicePoolWidth) {
  const ConvShape s = SmallShape();
  std::vector<float> input(s.InputSize(), 0.25f);
  std::vector<float> weights(s.WeightSize(), 0.5f);
  std::vector<float> bias(static_cast<std::size_t>(s.out_channels), 0.0f);
  std::vector<float> out1(s.OutputSize(), 0.0f);
  std::vector<float> out4(s.OutputSize(), 0.0f);

  // Two devices with very different host parallelism (the analogue of
  // --jobs 1 vs --jobs 4): the tuner consults only sm_count, so the outputs
  // must coincide exactly.
  gpusim::Device d1(1);
  gpusim::Device d4(4);
  isaac_sim::Conv2d(input.data(), weights.data(), bias.data(), out1.data(),
                    s, d1);
  isaac_sim::Conv2d(input.data(), weights.data(), bias.data(), out4.data(),
                    s, d4);
  EXPECT_EQ(out1, out4);
}

TEST(TunerDeterminismTest, EachDeviceRunsItsOwnPick) {
  // On one SM the fewest waves win (config 2, 16x128: 2 GEMM blocks); on 64
  // SMs every candidate fits one wave and the smallest padded tile wins
  // (config 0, 32x32: 5 GEMM blocks). A conv on the 64-SM device must run
  // its own pick right after the same shape ran on the 1-SM device.
  const ConvShape s{1, 3, 12, 12, 4, 3, 3, 1, 1};
  ASSERT_EQ(isaac_sim::PickConfig(s, 1), 2);
  ASSERT_EQ(isaac_sim::PickConfig(s, 64), 0);
  std::vector<float> input(s.InputSize(), 0.25f);
  std::vector<float> weights(s.WeightSize(), 0.5f);
  std::vector<float> output(s.OutputSize(), 0.0f);

  gpusim::Device one_sm(1);
  one_sm.set_sm_count(1);
  gpusim::Device wide(1);
  wide.set_sm_count(64);
  isaac_sim::Conv2d(input.data(), weights.data(), nullptr, output.data(), s,
                    one_sm);
  EXPECT_EQ(one_sm.blocks_launched(), 27u + 2u);  // im2col rows + GEMM tiles
  isaac_sim::Conv2d(input.data(), weights.data(), nullptr, output.data(), s,
                    wide);
  EXPECT_EQ(wide.launch_count(), 2u);
  EXPECT_EQ(wide.blocks_launched(), 27u + 5u);
}

TEST(TunerDeterminismTest, PickIsArgminOfModeledCostWithLowestIndexTie) {
  const ConvShape s = SmallShape();
  for (const unsigned sms : {1u, 4u, 16u, 64u}) {
    const int pick = isaac_sim::PickConfig(s, sms);
    const std::uint64_t best = isaac_sim::ModeledConfigCost(s, pick, sms);
    for (int c = 0; c < isaac_sim::CandidateCount(); ++c) {
      const std::uint64_t cost = isaac_sim::ModeledConfigCost(s, c, sms);
      ASSERT_GE(cost, best) << "config " << c << " sms " << sms;
      // Lowest-index tie-break: nothing cheaper OR EQUAL before the pick.
      if (c < pick) {
        ASSERT_GT(cost, best) << "config " << c;
      }
    }
  }
}

}  // namespace
}  // namespace kernels
