// Scenario edge cases the campaign mutator is allowed to generate: empty
// worlds, maximum actor counts, and egos posed far outside the road extent.
// None of these may crash, produce non-finite pixels, or trip REQ-SCEN-001
// validation incorrectly.
#include "ad/scenario.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "support/check.h"
#include "support/fnv.h"

namespace adpilot {
namespace {

bool FrameIsFinite(const nn::Tensor& frame) {
  const float* data = frame.data();
  for (std::size_t i = 0; i < frame.size(); ++i) {
    if (!std::isfinite(data[i])) return false;
  }
  return true;
}

TEST(ScenarioEdgeTest, ZeroActorScenarioRendersBackgroundOnly) {
  ScenarioConfig cfg;
  cfg.num_vehicles = 0;
  cfg.num_pedestrians = 0;
  EXPECT_TRUE(ValidateScenarioConfig(cfg).empty());
  Scenario scenario(cfg);
  EXPECT_TRUE(scenario.ground_truth().empty());
  scenario.Step(0.1);
  const Pose ego{{0.0, 0.0}, 0.0};
  const nn::Tensor frame = scenario.RenderCameraFrame(ego);
  ASSERT_TRUE(FrameIsFinite(frame));
  // Pure road background: noise floor only, no obstacle brightness.
  const float* data = frame.data();
  for (std::size_t i = 0; i < frame.size(); ++i) {
    EXPECT_GE(data[i], 20.0f);
    EXPECT_LT(data[i], 26.0f);
  }
}

TEST(ScenarioEdgeTest, MaximumActorCountsAreValidAndRender) {
  ScenarioConfig cfg;
  cfg.num_vehicles = ScenarioConfig::kMaxVehicles;
  cfg.num_pedestrians = ScenarioConfig::kMaxPedestrians;
  EXPECT_TRUE(ValidateScenarioConfig(cfg).empty());
  Scenario scenario(cfg);
  EXPECT_EQ(scenario.ground_truth().size(),
            static_cast<std::size_t>(ScenarioConfig::kMaxVehicles +
                                     ScenarioConfig::kMaxPedestrians));
  for (int i = 0; i < 20; ++i) scenario.Step(0.1);
  for (const Obstacle& a : scenario.ground_truth()) {
    EXPECT_TRUE(std::isfinite(a.position.x) && std::isfinite(a.position.y));
    EXPECT_TRUE(std::isfinite(a.velocity.x) && std::isfinite(a.velocity.y));
  }
  EXPECT_TRUE(FrameIsFinite(scenario.RenderCameraFrame({{0.0, 0.0}, 0.0})));
}

TEST(ScenarioEdgeTest, OverCapActorCountsAreRejected) {
  ScenarioConfig vehicles;
  vehicles.num_vehicles = ScenarioConfig::kMaxVehicles + 1;
  EXPECT_FALSE(ValidateScenarioConfig(vehicles).empty());
  EXPECT_THROW(Scenario{vehicles}, certkit::support::ContractViolation);

  ScenarioConfig pedestrians;
  pedestrians.num_pedestrians = ScenarioConfig::kMaxPedestrians + 1;
  EXPECT_FALSE(ValidateScenarioConfig(pedestrians).empty());
  EXPECT_THROW(Scenario{pedestrians}, certkit::support::ContractViolation);
}

TEST(ScenarioEdgeTest, EgoOutsideRoadExtentRendersSafely) {
  ScenarioConfig cfg;
  cfg.num_vehicles = 3;
  cfg.num_pedestrians = 2;
  Scenario scenario(cfg);
  // Far behind the road start, far past its end, far off to the side, and
  // rotated arbitrarily: every view must render finite pixels without any
  // agent landing in the window incorrectly.
  const Pose poses[] = {{{-500.0, 0.0}, 0.0},
                        {{1.0e6, 0.0}, 0.0},
                        {{200.0, 4000.0}, 2.5},
                        {{-1.0e5, -1.0e5}, -3.0}};
  for (const Pose& ego : poses) {
    const nn::Tensor frame = scenario.RenderCameraFrame(ego);
    ASSERT_TRUE(FrameIsFinite(frame));
    const float* data = frame.data();
    for (std::size_t i = 0; i < frame.size(); ++i) {
      EXPECT_GE(data[i], 20.0f);  // background only: no agents in view
      EXPECT_LT(data[i], 26.0f);
    }
  }
}

TEST(ScenarioEdgeTest, SpeedRangeFieldsAreHonoredAndValidated) {
  ScenarioConfig cfg;
  cfg.num_vehicles = 8;
  cfg.vehicle_speed_min = 5.0;
  cfg.vehicle_speed_max = 5.5;
  Scenario scenario(cfg);
  for (const Obstacle& a : scenario.ground_truth()) {
    EXPECT_GE(a.velocity.x, 5.0);
    EXPECT_LT(a.velocity.x, 5.5);
  }

  ScenarioConfig inverted = cfg;
  inverted.vehicle_speed_min = 6.0;
  inverted.vehicle_speed_max = 6.0;  // empty range
  EXPECT_FALSE(ValidateScenarioConfig(inverted).empty());
  EXPECT_THROW(Scenario{inverted}, certkit::support::ContractViolation);

  ScenarioConfig negative = cfg;
  negative.vehicle_speed_min = -1.0;
  EXPECT_FALSE(ValidateScenarioConfig(negative).empty());
}

TEST(ScenarioEdgeTest, ClampProducesConstructibleConfigsFromGarbage) {
  ScenarioConfig garbage;
  garbage.num_vehicles = 9999;
  garbage.num_pedestrians = -5;
  garbage.num_lanes = 0;
  garbage.lane_width = -3.0;
  garbage.road_length = 1.0;
  garbage.vehicle_speed_min = 100.0;
  garbage.vehicle_speed_max = -2.0;
  const ScenarioConfig clamped = ClampScenarioConfig(garbage);
  EXPECT_TRUE(ValidateScenarioConfig(clamped).empty())
      << ValidateScenarioConfig(clamped);
  EXPECT_NO_THROW(Scenario{clamped});
}

TEST(ScenarioEdgeTest, ConfigJsonIsStable) {
  const ScenarioConfig cfg;  // defaults
  // Doubles serialize in shortest round-trip form (support::JsonNumber), so
  // integral values carry no padding zeros and mutated full-precision
  // values survive the replay round trip bit-exactly.
  EXPECT_EQ(ScenarioConfigJson(cfg),
            "{\"num_vehicles\":3,\"num_pedestrians\":0,"
            "\"road_length\":400,\"lane_width\":4,\"num_lanes\":2,"
            "\"vehicle_speed_min\":2,\"vehicle_speed_max\":8,"
            "\"seed\":1234}");
}

// ------------------------------------------------ render golden and raster

constexpr int kSize = CameraModel::kImageSize;
constexpr int kPlane = kSize * kSize;

// Folds the frame's bytes and the noise generator's state after the render
// into `h`, so both the pixels and the number of draws are pinned.
std::uint64_t FoldRender(const nn::Tensor& frame, const Scenario& scenario,
                         std::uint64_t h) {
  h = certkit::support::FnvBytes(frame.data(), frame.size() * sizeof(float),
                                 h);
  for (const std::uint64_t word : scenario.rng().state()) {
    h = certkit::support::FnvU64(word, h);
  }
  return h;
}

// The ego pose with heading `heading` that sees `world` at ego-frame `at`.
Pose PoseSeeing(const Vec2& world, const Vec2& at, double heading) {
  const Pose rotation{{0.0, 0.0}, heading};
  return {world - rotation.EgoToWorld(at), heading};
}

// Poses around `world`: centered, on each window edge and corner, turned
// by +-0.5 rad, and far enough away that nothing is in view.
std::vector<Pose> PosesAround(const Vec2& world) {
  constexpr double kFront = CameraModel::kAhead;
  constexpr double kBack = -CameraModel::kBehind;
  constexpr double kSide = CameraModel::kHalfWidth;
  const Vec2 ats[] = {{10.0, 0.0},   {kFront, 0.0},  {kBack, 0.0},
                      {10.0, -kSide}, {10.0, kSide}, {kFront, kSide},
                      {kBack, -kSide}, {kFront - 0.3, -kSide + 0.2}};
  std::vector<Pose> poses;
  for (const Vec2& at : ats) poses.push_back(PoseSeeing(world, at, 0.0));
  for (const double heading : {0.5, -0.5}) {
    poses.push_back(PoseSeeing(world, {10.0, 0.0}, heading));
    poses.push_back(PoseSeeing(world, {kFront - 1.0, kSide - 1.0}, heading));
  }
  poses.push_back(PoseSeeing(world, {-300.0, 900.0}, 0.0));
  return poses;
}

// True when the footprints of `a` and `b` intersect (heading 0 keeps both
// axis-aligned in the ego frame).
bool Overlap(const Obstacle& a, const Obstacle& b) {
  return std::abs(a.position.x - b.position.x) < (a.length + b.length) / 2 &&
         std::abs(a.position.y - b.position.y) < (a.width + b.width) / 2;
}

// Steps `scenario` until a vehicle and a pedestrian overlap; returns the
// midpoint of the first such pair, or nothing after `max_steps`.
bool StepToOverlap(Scenario* scenario, int max_steps, Vec2* midpoint) {
  bool found = false;
  for (int step = 0; step < max_steps && !found; ++step) {
    scenario->Step(0.1);
    for (const Obstacle& v : scenario->ground_truth()) {
      for (const Obstacle& p : scenario->ground_truth()) {
        if (!found && v.cls == ObstacleClass::kVehicle &&
            p.cls == ObstacleClass::kPedestrian && Overlap(v, p)) {
          *midpoint = (v.position + p.position) * 0.5;
          found = true;
        }
      }
    }
  }
  return found;
}

// One digest over frames from several seeds and actor counts, every pose of
// PosesAround for a few agents, and a vehicle overlapping a pedestrian.
// Recorded before render became one loop over the frame buffer with a
// rows x columns obstacle raster; any change to the noise draws, their
// order or count, or to an obstacle's pixel set moves it.
TEST(ScenarioRenderGolden, FramesAndDrawCountArePinned) {
  struct World {
    std::uint64_t seed;
    int vehicles, pedestrians;
  };
  const World worlds[] = {{1, 0, 0}, {2, 1, 0}, {3, 0, 1},
                          {4, 32, 32}, {1234, 32, 32}};
  std::uint64_t digest = certkit::support::kFnvOffsetBasis;
  nn::Tensor frame;
  for (const World& w : worlds) {
    ScenarioConfig cfg;
    cfg.seed = w.seed;
    cfg.num_vehicles = w.vehicles;
    cfg.num_pedestrians = w.pedestrians;
    Scenario scenario(cfg);
    scenario.Step(0.1);
    std::vector<Vec2> anchors = {{0.0, 0.0}};
    for (std::size_t i = 0; i < scenario.ground_truth().size(); i += 9) {
      anchors.push_back(scenario.ground_truth()[i].position);
    }
    for (const Vec2& anchor : anchors) {
      for (const Pose& ego : PosesAround(anchor)) {
        scenario.RenderCameraFrameInto(ego, &frame);
        digest = FoldRender(frame, scenario, digest);
      }
    }
    if (w.vehicles > 0 && w.pedestrians > 0) {
      Vec2 midpoint;
      ASSERT_TRUE(StepToOverlap(&scenario, 2000, &midpoint)) << w.seed;
      for (const double heading : {0.0, 0.5, -0.5}) {
        scenario.RenderCameraFrameInto(
            PoseSeeing(midpoint, {10.0, 0.0}, heading), &frame);
        digest = FoldRender(frame, scenario, digest);
      }
    }
  }
  EXPECT_EQ(digest, 0x891e99fec0cf6d89ull) << std::hex << digest;
}

// The half-pixel sampler obstacles were painted with before the rows x
// columns raster, kept as the reference: every (ex, ey) sample of each
// agent's rectangle, in agent order, so a later agent overwrites an earlier
// one. Returns the expected brightness per pixel, 0 where no agent lands.
std::vector<float> ReferenceObstaclePixels(const Scenario& scenario,
                                           const Pose& ego) {
  std::vector<float> expected(kPlane, 0.0f);
  for (const Obstacle& a : scenario.ground_truth()) {
    const Vec2 center = ego.WorldToEgo(a.position);
    const double hx = a.length / 2.0;
    const double hy = a.width / 2.0;
    const float brightness =
        a.cls == ObstacleClass::kVehicle ? 230.0f : 180.0f;
    for (double ex = center.x - hx; ex <= center.x + hx;
         ex += CameraModel::kMetersPerPixel / 2.0) {
      for (double ey = center.y - hy; ey <= center.y + hy;
           ey += CameraModel::kMetersPerPixel / 2.0) {
        double px = 0.0, py = 0.0;
        if (!CameraModel::EgoToPixel({ex, ey}, &px, &py)) continue;
        const int ix = std::clamp(static_cast<int>(px), 0, kSize - 1);
        const int iy = std::clamp(static_cast<int>(py), 0, kSize - 1);
        expected[iy * kSize + ix] = brightness;
      }
    }
  }
  return expected;
}

// Ego poses on a 1/64-pixel grid over one pixel, at five headings, against a
// 32+32 world: every covered pixel holds the brightness of the last agent
// covering it in all three channels, and every other pixel is road noise.
// Noise is 20 + U[0, 6) summed in float, which rounds up to exactly 26
// about once in six million draws, so the noise test here is [20, 26].
TEST(ScenarioRenderRaster, MatchesHalfPixelSamplerOnSubpixelPoseGrid) {
  ScenarioConfig cfg;
  cfg.seed = 77;
  cfg.num_vehicles = ScenarioConfig::kMaxVehicles;
  cfg.num_pedestrians = ScenarioConfig::kMaxPedestrians;
  Scenario scenario(cfg);
  constexpr double kStep = CameraModel::kMetersPerPixel / 64.0;
  const double headings[] = {-0.5, -0.25, 0.0, 0.25, 0.5};
  nn::Tensor frame;
  long covered = 0;
  long mismatches = 0;
  for (int h = 0; h < 5; ++h) {
    scenario.Step(0.7);
    const Vec2 base{35.0 + 11.0 * h, 0.5 * (h - 2)};
    for (int i = 0; i < 64; ++i) {
      for (int j = 0; j < 64; ++j) {
        const Pose ego{base + Vec2{i * kStep, j * kStep}, headings[h]};
        scenario.RenderCameraFrameInto(ego, &frame);
        const std::vector<float> expected =
            ReferenceObstaclePixels(scenario, ego);
        for (int px = 0; px < kPlane; ++px) {
          const float want = expected[px];
          covered += want > 0.0f;
          for (int c = 0; c < 3; ++c) {
            const float got = frame.data()[c * kPlane + px];
            const bool ok =
                want > 0.0f ? got == want : got >= 20.0f && got <= 26.0f;
            if (!ok && mismatches++ == 0) {
              ADD_FAILURE() << "heading " << headings[h] << " offset (" << i
                            << ", " << j << ") pixel " << px << " channel "
                            << c << ": got " << got << ", want "
                            << (want > 0.0f ? want : 20.0f);
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(mismatches, 0);
  EXPECT_GT(covered, 0);
}

}  // namespace
}  // namespace adpilot
