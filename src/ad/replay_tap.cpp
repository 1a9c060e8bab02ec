#include "ad/replay_tap.h"

#include "ad/pipeline.h"
#include "support/fnv.h"

namespace adpilot {

using certkit::support::FnvBytes;
using certkit::support::FnvDouble;
using certkit::support::FnvI64;
using certkit::support::FnvU64;
using certkit::support::kFnvOffsetBasis;

std::uint64_t DigestTensor(const nn::Tensor& t, std::uint64_t seed) {
  seed = FnvI64(t.n(), seed);
  seed = FnvI64(t.c(), seed);
  seed = FnvI64(t.h(), seed);
  seed = FnvI64(t.w(), seed);
  return FnvBytes(t.data(), t.size() * sizeof(float), seed);
}

std::uint64_t DigestVec2(const Vec2& v, std::uint64_t seed) {
  return FnvDouble(v.y, FnvDouble(v.x, seed));
}

std::uint64_t DigestObstacles(const std::vector<Obstacle>& obstacles,
                              std::uint64_t seed) {
  seed = FnvU64(obstacles.size(), seed);
  for (const Obstacle& o : obstacles) {
    seed = FnvI64(o.id, seed);
    seed = FnvI64(static_cast<std::int64_t>(o.cls), seed);
    seed = DigestVec2(o.position, seed);
    seed = DigestVec2(o.velocity, seed);
    seed = FnvDouble(o.length, seed);
    seed = FnvDouble(o.width, seed);
    seed = FnvDouble(o.confidence, seed);
  }
  return seed;
}

std::uint64_t DigestVehicleState(const VehicleState& s, std::uint64_t seed) {
  seed = DigestVec2(s.pose.position, seed);
  seed = FnvDouble(s.pose.heading, seed);
  seed = FnvDouble(s.speed, seed);
  seed = FnvDouble(s.yaw_rate, seed);
  return FnvDouble(s.acceleration, seed);
}

std::uint64_t DigestCommand(const ControlCommand& c, std::uint64_t seed) {
  return FnvDouble(c.steering, FnvDouble(c.brake, FnvDouble(c.throttle, seed)));
}

std::uint64_t DigestTickReport(const TickReport& r, std::uint64_t seed) {
  seed = FnvDouble(r.time, seed);
  seed = DigestVehicleState(r.localized, seed);
  seed = DigestVehicleState(r.ground_truth, seed);
  seed = FnvU64(r.detections, seed);
  seed = FnvU64(r.tracked_obstacles, seed);
  seed = FnvU64(r.plan_collision_free ? 1 : 0, seed);
  seed = FnvI64(static_cast<std::int64_t>(r.behavior), seed);
  seed = FnvU64(r.obstacle_in_range ? 1 : 0, seed);
  seed = FnvDouble(r.min_obstacle_distance, seed);
  seed = DigestCommand(r.command, seed);
  seed = FnvI64(static_cast<std::int64_t>(r.safety_state), seed);
  seed = FnvU64(r.new_violations, seed);
  return FnvU64(r.command_overridden ? 1 : 0, seed);
}

std::uint64_t DigestTickReports(const std::vector<TickReport>& reports) {
  std::uint64_t seed = FnvU64(reports.size());
  for (const TickReport& r : reports) seed = DigestTickReport(r, seed);
  return seed;
}

}  // namespace adpilot
