#include "ad/safety/fault_injector.h"

#include <cmath>
#include <limits>
#include <sstream>

#include "support/check.h"

namespace adpilot {

const char* FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kSensorDropout: return "sensor_dropout";
    case FaultKind::kDetectionNaN: return "detection_nan";
    case FaultKind::kDetectionRange: return "detection_range";
    case FaultKind::kStaleLocalization: return "stale_localization";
    case FaultKind::kCanBitFlip: return "can_bit_flip";
    case FaultKind::kCanFrameDrop: return "can_frame_drop";
    case FaultKind::kTimingOverrun: return "timing_overrun";
  }
  return "unknown";
}

std::string ValidateFaultSpec(const FaultSpec& spec) {
  std::ostringstream reason;
  if (spec.onset_tick < 0) {
    reason << "fault onset before tick 0: " << spec.onset_tick;
  } else if (spec.duration_ticks < 1) {
    reason << "fault duration must be >= 1: " << spec.duration_ticks;
  } else if (spec.duration_ticks >
             std::numeric_limits<std::int64_t>::max() - spec.onset_tick) {
    reason << "fault window overflows: onset " << spec.onset_tick
           << " + duration " << spec.duration_ticks;
  } else if (!(spec.magnitude >= std::numeric_limits<int>::min() &&
               spec.magnitude <= std::numeric_limits<int>::max())) {
    reason << "fault magnitude must be finite and within int range: "
           << spec.magnitude;
  }
  return reason.str();
}

FaultInjector::FaultInjector(const FaultCampaignConfig& config)
    : config_(config), rng_(config.seed) {
  for (const FaultSpec& f : config_.faults) {
    const std::string reason = ValidateFaultSpec(f);
    CERTKIT_CHECK_MSG(reason.empty(), reason);
  }
}

void FaultInjector::BeginTick(std::int64_t tick) {
  CERTKIT_CHECK_MSG(tick > tick_, "tick index must increase monotonically");
  tick_ = tick;
}

const FaultSpec* FaultInjector::ActiveSpec(FaultKind kind) const {
  for (const FaultSpec& f : config_.faults) {
    if (f.kind == kind && tick_ >= f.onset_tick &&
        tick_ < f.onset_tick + f.duration_ticks) {
      return &f;
    }
  }
  return nullptr;
}

void FaultInjector::Count(FaultKind kind) {
  ++injected_[static_cast<std::size_t>(kind)];
}

bool FaultInjector::SensorDropout() {
  if (ActiveSpec(FaultKind::kSensorDropout) == nullptr) return false;
  Count(FaultKind::kSensorDropout);
  return true;
}

bool FaultInjector::StaleLocalization() {
  if (ActiveSpec(FaultKind::kStaleLocalization) == nullptr) return false;
  Count(FaultKind::kStaleLocalization);
  return true;
}

double FaultInjector::TimingOverrunSeconds() {
  const FaultSpec* spec = ActiveSpec(FaultKind::kTimingOverrun);
  if (spec == nullptr) return 0.0;
  Count(FaultKind::kTimingOverrun);
  return spec->magnitude;
}

bool FaultInjector::CorruptObstacles(std::vector<Obstacle>* obstacles) {
  CERTKIT_CHECK(obstacles != nullptr);
  bool mutated = false;
  if (const FaultSpec* spec = ActiveSpec(FaultKind::kDetectionNaN);
      spec != nullptr) {
    if (obstacles->empty()) {
      obstacles->push_back(Obstacle{});  // fabricated ghost detection
    }
    const std::size_t idx = static_cast<std::size_t>(
        rng_.UniformInt(0, static_cast<std::int64_t>(obstacles->size()) - 1));
    Obstacle& o = (*obstacles)[idx];
    o.position.x = std::numeric_limits<double>::quiet_NaN();
    o.velocity.y = std::numeric_limits<double>::quiet_NaN();
    Count(FaultKind::kDetectionNaN);
    mutated = true;
  }
  if (const FaultSpec* spec = ActiveSpec(FaultKind::kDetectionRange);
      spec != nullptr) {
    if (obstacles->empty()) {
      obstacles->push_back(Obstacle{});
    }
    const std::size_t idx = static_cast<std::size_t>(
        rng_.UniformInt(0, static_cast<std::int64_t>(obstacles->size()) - 1));
    Obstacle& o = (*obstacles)[idx];
    // Teleport far out of the sensor envelope and give it an absurd speed.
    const double sign = rng_.Bernoulli(0.5) ? 1.0 : -1.0;
    o.position.x += sign * 1000.0 * spec->magnitude;
    o.velocity.x = sign * 150.0 * spec->magnitude;
    Count(FaultKind::kDetectionRange);
    mutated = true;
  }
  return mutated;
}

bool FaultInjector::MutateFrame(CanFrame* frame) {
  CERTKIT_CHECK(frame != nullptr);
  const FaultSpec* spec = ActiveSpec(FaultKind::kCanBitFlip);
  if (spec == nullptr) return false;
  const int flips = std::max(1, static_cast<int>(spec->magnitude));
  for (int i = 0; i < flips; ++i) {
    const std::int64_t bit = rng_.UniformInt(0, 8 * 8 - 1);
    frame->data[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
  }
  Count(FaultKind::kCanBitFlip);
  return true;
}

bool FaultInjector::DropFrame() {
  if (ActiveSpec(FaultKind::kCanFrameDrop) == nullptr) return false;
  Count(FaultKind::kCanFrameDrop);
  return true;
}

std::int64_t FaultInjector::injected(FaultKind kind) const {
  return injected_[static_cast<std::size_t>(kind)];
}

std::int64_t FaultInjector::total_injected() const {
  std::int64_t total = 0;
  for (std::int64_t n : injected_) total += n;
  return total;
}

}  // namespace adpilot
