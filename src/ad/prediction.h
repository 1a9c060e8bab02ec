// adpilot: prediction — future motion trajectories for perceived obstacles
// (the Prediction module of Figure 1).
#ifndef AD_PREDICTION_H_
#define AD_PREDICTION_H_

#include <vector>

#include "ad/common.h"

namespace adpilot {

enum class Maneuver { kStationary, kCruising, kCrossing };

struct PredictedObstacle {
  Obstacle obstacle;
  Maneuver maneuver = Maneuver::kCruising;
  Trajectory trajectory;  // sampled future positions
};

struct PredictionConfig {
  double horizon = 4.0;          // seconds
  double step = 0.25;            // trajectory sampling period
  double stationary_speed = 0.3;  // below this, an obstacle is stationary
  double crossing_ratio = 0.6;    // |vy|/|v| above this means crossing
};

// Classifies each obstacle's maneuver and rolls out a constant-velocity
// trajectory over the horizon (stationary obstacles keep their position).
std::vector<PredictedObstacle> PredictObstacles(
    const std::vector<Obstacle>& obstacles,
    const PredictionConfig& config = {});

// Capacity-reusing variant: resizes *out and refills each slot's trajectory
// in place, so a steady obstacle count predicts without allocating.
void PredictObstaclesInto(const std::vector<Obstacle>& obstacles,
                          const PredictionConfig& config,
                          std::vector<PredictedObstacle>* out);

}  // namespace adpilot

#endif  // AD_PREDICTION_H_
