#include "ad/prediction.h"

#include <cmath>

#include "support/check.h"

namespace adpilot {

std::vector<PredictedObstacle> PredictObstacles(
    const std::vector<Obstacle>& obstacles, const PredictionConfig& config) {
  std::vector<PredictedObstacle> out;
  PredictObstaclesInto(obstacles, config, &out);
  return out;
}

void PredictObstaclesInto(const std::vector<Obstacle>& obstacles,
                          const PredictionConfig& config,
                          std::vector<PredictedObstacle>* out) {
  CERTKIT_CHECK(config.horizon > 0.0 && config.step > 0.0);
  out->resize(obstacles.size());
  for (std::size_t i = 0; i < obstacles.size(); ++i) {
    const Obstacle& o = obstacles[i];
    PredictedObstacle& p = (*out)[i];
    p.obstacle = o;

    const double speed = o.velocity.Norm();
    if (speed < config.stationary_speed) {
      p.maneuver = Maneuver::kStationary;
    } else if (std::abs(o.velocity.y) / speed > config.crossing_ratio) {
      p.maneuver = Maneuver::kCrossing;
    } else {
      p.maneuver = Maneuver::kCruising;
    }

    const Vec2 vel =
        p.maneuver == Maneuver::kStationary ? Vec2{0.0, 0.0} : o.velocity;
    const double heading = std::atan2(vel.y, vel.x);
    p.trajectory.clear();
    for (double t = 0.0; t <= config.horizon + 1e-9; t += config.step) {
      TrajectoryPoint pt;
      pt.position = o.position + vel * t;
      pt.heading = heading;
      pt.speed = vel.Norm();
      pt.t = t;
      p.trajectory.push_back(pt);
    }
  }
}

}  // namespace adpilot
