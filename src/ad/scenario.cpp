#include "ad/scenario.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "support/check.h"
#include "support/record.h"

namespace adpilot {

std::string ValidateScenarioConfig(const ScenarioConfig& config) {
  std::ostringstream reason;
  if (config.num_lanes < 1) {
    reason << "scenario requires at least one lane (num_lanes = "
           << config.num_lanes << ")";
  } else if (config.num_vehicles < 0) {
    reason << "negative vehicle count: " << config.num_vehicles;
  } else if (config.num_vehicles > ScenarioConfig::kMaxVehicles) {
    reason << "vehicle count " << config.num_vehicles << " exceeds cap "
           << ScenarioConfig::kMaxVehicles;
  } else if (config.num_pedestrians < 0) {
    reason << "negative pedestrian count: " << config.num_pedestrians;
  } else if (config.num_pedestrians > ScenarioConfig::kMaxPedestrians) {
    reason << "pedestrian count " << config.num_pedestrians << " exceeds cap "
           << ScenarioConfig::kMaxPedestrians;
  } else if (!(config.lane_width > 0.0)) {
    reason << "lane width must be positive: " << config.lane_width;
  } else if (!(config.road_length > 0.0)) {
    reason << "road length must be positive: " << config.road_length;
  } else if (!(config.vehicle_speed_min >= 0.0)) {
    reason << "vehicle speed min must be non-negative: "
           << config.vehicle_speed_min;
  } else if (!(config.vehicle_speed_max > config.vehicle_speed_min)) {
    reason << "vehicle speed range is empty: [" << config.vehicle_speed_min
           << ", " << config.vehicle_speed_max << ")";
  }
  return reason.str();
}

ScenarioConfig ClampScenarioConfig(const ScenarioConfig& config) {
  ScenarioConfig out = config;
  out.num_vehicles =
      std::clamp(out.num_vehicles, 0, ScenarioConfig::kMaxVehicles);
  out.num_pedestrians =
      std::clamp(out.num_pedestrians, 0, ScenarioConfig::kMaxPedestrians);
  out.num_lanes = std::clamp(out.num_lanes, 1, 8);
  out.lane_width = std::clamp(out.lane_width, 2.0, 8.0);
  out.road_length = std::clamp(out.road_length, 50.0, 2000.0);
  out.vehicle_speed_min = std::clamp(out.vehicle_speed_min, 0.0, 30.0);
  if (out.vehicle_speed_max <= out.vehicle_speed_min) {
    out.vehicle_speed_max = out.vehicle_speed_min + 1.0;
  }
  out.vehicle_speed_max = std::clamp(out.vehicle_speed_max,
                                     out.vehicle_speed_min + 0.5, 40.0);
  return out;
}

std::string ScenarioConfigJson(const ScenarioConfig& config) {
  return certkit::support::JsonWriter::Write(config);
}

bool CameraModel::EgoToPixel(const Vec2& ego, double* px, double* py) {
  CERTKIT_CHECK(px != nullptr && py != nullptr);
  if (ego.x < -kBehind || ego.x >= kAhead || ego.y < -kHalfWidth ||
      ego.y >= kHalfWidth) {
    return false;
  }
  // Row 0 is the far edge; columns grow to the right (negative y is left).
  *px = (ego.y + kHalfWidth) / kMetersPerPixel;
  *py = (kAhead - ego.x) / kMetersPerPixel;
  return true;
}

Vec2 CameraModel::PixelToEgo(double px, double py) {
  return {kAhead - (py + 0.5) * kMetersPerPixel,
          (px + 0.5) * kMetersPerPixel - kHalfWidth};
}

Scenario::Scenario(const ScenarioConfig& config)
    : config_(config), rng_(config.seed) {
  // REQ-SCEN-001: a scenario shall only be constructed from a valid world
  // description. In particular num_lanes == 0 would underflow the lane
  // sampling bound below.
  const std::string reason = ValidateScenarioConfig(config);
  CERTKIT_CHECK_MSG(reason.empty(), "REQ-SCEN-001: " << reason);
  // Vehicles ahead of the origin in random lanes, driving forward at
  // varied speeds.
  for (int i = 0; i < config_.num_vehicles; ++i) {
    Obstacle v;
    v.id = i;
    v.cls = ObstacleClass::kVehicle;
    const int lane =
        static_cast<int>(rng_.UniformInt(0, config_.num_lanes - 1));
    v.position = {20.0 + 25.0 * i + rng_.UniformDouble(0.0, 10.0),
                  (lane + 0.5) * config_.lane_width -
                      config_.num_lanes * config_.lane_width / 2.0};
    v.velocity = {rng_.UniformDouble(config_.vehicle_speed_min,
                                     config_.vehicle_speed_max),
                  0.0};
    v.length = 4.5;
    v.width = 2.0;
    agents_.push_back(v);
  }
  for (int i = 0; i < config_.num_pedestrians; ++i) {
    Obstacle p;
    p.id = config_.num_vehicles + i;
    p.cls = ObstacleClass::kPedestrian;
    p.position = {30.0 + 20.0 * i, rng_.UniformDouble(-6.0, 6.0)};
    p.velocity = {0.0, rng_.UniformDouble(-1.0, 1.0)};
    p.length = 1.0;
    p.width = 1.0;
    agents_.push_back(p);
  }
}

void Scenario::Step(double dt) {
  CERTKIT_CHECK(dt > 0.0);
  time_ += dt;
  for (Obstacle& a : agents_) {
    a.position = a.position + a.velocity * dt;
    // Vehicles loop back so the scenario never empties.
    if (a.position.x > config_.road_length) {
      a.position.x -= config_.road_length;
    }
    // Pedestrians bounce between the road edges.
    if (a.cls == ObstacleClass::kPedestrian) {
      const double half_road =
          config_.num_lanes * config_.lane_width / 2.0 + 2.0;
      if (a.position.y > half_road || a.position.y < -half_road) {
        a.velocity.y = -a.velocity.y;
      }
    }
  }
}

nn::Tensor Scenario::RenderCameraFrame(const Pose& ego_pose) {
  nn::Tensor frame;
  RenderCameraFrameInto(ego_pose, &frame);
  return frame;
}

namespace {

constexpr int kSize = CameraModel::kImageSize;
constexpr std::size_t kPlane = kSize * kSize;

// The pixel span [*first, *last] one axis of an obstacle covers: the
// half-pixel samples center - half, + step, ... <= center + half that
// `to_pixel` puts in view, mapped to clamped indices. EgoToPixel tests and
// maps x and y independently, so an obstacle covers (the rows its x samples
// hit) x (the columns its y samples hit): exactly the pixels a loop over
// every (x, y) sample pair paints. Returns false when no sample is in view.
template <class ToPixel>
bool PixelSpan(double center, double half, ToPixel to_pixel, int* first,
               int* last) {
  int hits = 0;
  for (double e = center - half; e <= center + half;
       e += CameraModel::kMetersPerPixel / 2.0) {
    double pixel = 0.0;
    if (to_pixel(e, &pixel)) {
      const int i = std::clamp(static_cast<int>(pixel), 0, kSize - 1);
      *first = hits == 0 ? i : std::min(*first, i);
      *last = hits == 0 ? i : std::max(*last, i);
      ++hits;
    }
  }
  return hits > 0;
}

// EgoToPixel along one axis, the other coordinate held inside the window.
bool RowOf(double ex, double* py) {
  double px = 0.0;
  return CameraModel::EgoToPixel({ex, 0.0}, &px, py);
}
bool ColumnOf(double ey, double* px) {
  double py = 0.0;
  return CameraModel::EgoToPixel({0.0, ey}, px, &py);
}

}  // namespace

void Scenario::RenderCameraFrameInto(const Pose& ego_pose,
                                     nn::Tensor* frame_out) {
  // Every pixel is overwritten below, so reshaping without clearing is safe.
  frame_out->Reshape(1, 3, kSize, kSize);
  float* frame = frame_out->data();
  // Road background with mild sensor noise: one draw per element, in
  // buffer (channel, row, column) order.
  for (std::size_t i = 0; i < 3 * kPlane; ++i) {
    frame[i] = 20.0f + static_cast<float>(rng_.UniformDouble(0.0, 6.0));
  }
  // Obstacles as bright axis-aligned rectangles (ego frame), later agents
  // painted over earlier ones.
  for (const Obstacle& a : agents_) {
    const Vec2 center = ego_pose.WorldToEgo(a.position);
    int row0 = 0, row1 = 0, col0 = 0, col1 = 0;
    if (!PixelSpan(center.x, a.length / 2.0, RowOf, &row0, &row1) ||
        !PixelSpan(center.y, a.width / 2.0, ColumnOf, &col0, &col1)) {
      continue;
    }
    const float brightness = a.cls == ObstacleClass::kVehicle ? 230.0f
                                                              : 180.0f;
    for (std::size_t c = 0; c < 3; ++c) {
      for (int y = row0; y <= row1; ++y) {
        float* row = frame + c * kPlane + y * kSize;
        std::fill(row + col0, row + col1 + 1, brightness);
      }
    }
  }
}

}  // namespace adpilot
