// adpilot: scenario simulation — ground-truth world plus the synthetic
// camera that feeds the perception module.
//
// The camera is a bird's-eye-view sensor covering a 32m x 32m window in the
// ego frame (4m behind to 28m ahead, +/-16m lateral) rendered at 0.5 m/px
// into a 64x64x3 frame: dark road, bright obstacle rectangles — the signal
// the handcrafted detector weights respond to.
#ifndef AD_SCENARIO_H_
#define AD_SCENARIO_H_

#include <string>
#include <vector>

#include "ad/common.h"
#include "nn/tensor.h"
#include "support/rng.h"

namespace adpilot {

struct ScenarioConfig {
  // Upper actor bounds (REQ-SCEN-001): beyond these the synthetic road
  // cannot place agents meaningfully and campaign mutation stops growing.
  static constexpr int kMaxVehicles = 32;
  static constexpr int kMaxPedestrians = 32;

  int num_vehicles = 3;
  int num_pedestrians = 0;
  double road_length = 400.0;
  double lane_width = 4.0;
  int num_lanes = 2;
  // Initial vehicle speed range sampled per vehicle (m/s). Defaults match
  // the historical hard-coded range, so seeded RNG sequences are unchanged.
  double vehicle_speed_min = 2.0;
  double vehicle_speed_max = 8.0;
  std::uint64_t seed = 1234;

  // The persisted form (support/record.h), inside every candidate.
  template <class Io, class Self>
  static void Fields(Io& io, Self& c) {
    io("num_vehicles", c.num_vehicles);
    io("num_pedestrians", c.num_pedestrians);
    io("road_length", c.road_length);
    io("lane_width", c.lane_width);
    io("num_lanes", c.num_lanes);
    io("vehicle_speed_min", c.vehicle_speed_min);
    io("vehicle_speed_max", c.vehicle_speed_max);
    io("seed", c.seed);
  }
};

// REQ-SCEN-001 validation: returns an empty string when `config` describes
// a constructible world, otherwise a human-readable reason. Scenario's
// constructor enforces this with CERTKIT_CHECK.
std::string ValidateScenarioConfig(const ScenarioConfig& config);

// Forces `config` into the valid envelope (actor counts into
// [0, kMax*], geometry positive, speed range ordered). Used by the
// campaign mutator so arbitrary mutations always yield runnable scenarios.
ScenarioConfig ClampScenarioConfig(const ScenarioConfig& config);

// Single-line JSON of `config` (ScenarioConfig::Fields), used by the
// campaign engine to report reproducible candidates.
std::string ScenarioConfigJson(const ScenarioConfig& config);

// Camera geometry shared by rendering and detection back-projection.
struct CameraModel {
  static constexpr double kMetersPerPixel = 0.5;
  static constexpr int kImageSize = 64;
  static constexpr double kAhead = 28.0;   // meters ahead of ego at row 0
  static constexpr double kBehind = 4.0;   // meters behind at the last row
  static constexpr double kHalfWidth = 16.0;

  // Ego-frame -> pixel (returns false if outside the window).
  static bool EgoToPixel(const Vec2& ego, double* px, double* py);
  // Pixel -> ego-frame (center of the pixel).
  static Vec2 PixelToEgo(double px, double py);
};

class Scenario {
 public:
  explicit Scenario(const ScenarioConfig& config);

  // Advances every ground-truth agent by dt seconds.
  void Step(double dt);

  // Renders the camera frame for an ego at `ego_pose`.
  nn::Tensor RenderCameraFrame(const Pose& ego_pose);
  // Capacity-reusing variant: reshapes *frame (64x64x3) and overwrites every
  // pixel, so a warm frame buffer costs no allocation. Identical pixels and
  // RNG consumption to RenderCameraFrame.
  void RenderCameraFrameInto(const Pose& ego_pose, nn::Tensor* frame);

  const std::vector<Obstacle>& ground_truth() const { return agents_; }
  double time() const { return time_; }
  // The sensor-noise generator; its state() pins how many draws ran.
  const certkit::support::Xoshiro256& rng() const { return rng_; }

 private:
  ScenarioConfig config_;
  certkit::support::Xoshiro256 rng_;
  std::vector<Obstacle> agents_;
  double time_ = 0.0;
};

}  // namespace adpilot

#endif  // AD_SCENARIO_H_
