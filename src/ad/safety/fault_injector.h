// adpilot::safety — deterministic, seeded fault injection for the
// closed-loop pipeline.
//
// The static Table 4/5 census (bench/table4_5_error_mechanisms) only shows
// that error-detection mechanisms *exist* in the code; the injector provides
// the runtime counterpart: it perturbs the data flowing between pipeline
// stages according to a campaign plan and lets the safety monitors prove —
// or fail to prove — that the faults are detected and handled.
//
// A campaign is a seed plus a list of FaultSpec entries (fault kind, onset
// tick, duration, kind-specific magnitude). All randomness (which obstacle
// to corrupt, which bit to flip) is drawn from a generator seeded by the
// campaign seed, so a fixed campaign reproduces the identical fault
// sequence on every run.
#ifndef AD_SAFETY_FAULT_INJECTOR_H_
#define AD_SAFETY_FAULT_INJECTOR_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "ad/canbus.h"
#include "ad/common.h"
#include "support/record.h"
#include "support/rng.h"

namespace adpilot {

enum class FaultKind {
  kSensorDropout = 0,   // camera frame lost: the perception stage is skipped
  kDetectionNaN,        // obstacle list corrupted with non-finite fields
  kDetectionRange,      // obstacle teleported outside the physical envelope
  kStaleLocalization,   // published pose estimate frozen at its last value
  kCanBitFlip,          // random bit flips in the encoded command frame
  kCanFrameDrop,        // command frame lost on the bus
  kTimingOverrun,       // synthetic execution-time overrun added to the tick
};
inline constexpr int kNumFaultKinds = 7;
const char* FaultKindName(FaultKind kind);

struct FaultSpec {
  FaultKind kind = FaultKind::kSensorDropout;
  std::int64_t onset_tick = 0;      // first tick (inclusive) the fault is live
  std::int64_t duration_ticks = 1;  // live for [onset, onset + duration)
  // Kind-specific knob: seconds of overrun for kTimingOverrun, number of
  // bit flips for kCanBitFlip, displacement scale (meters) for
  // kDetectionRange. Ignored by the other kinds.
  double magnitude = 1.0;

  // The persisted form (support/record.h), one entry of a fault plan.
  template <class Io, class Self>
  static void Fields(Io& io, Self& f) {
    io("kind",
       certkit::support::Named{f.kind, FaultKindName, kNumFaultKinds});
    io("onset", f.onset_tick);
    io("duration", f.duration_ticks);
    io("magnitude", f.magnitude);
  }
};

// Empty when the injector can run `spec`, otherwise why not: onset < 0,
// duration < 1, onset + duration past INT64_MAX, or a magnitude that is
// non-finite or outside int range (kCanBitFlip truncates it to an int).
// FaultInjector's constructor CHECKs it; decoders reject such specs.
std::string ValidateFaultSpec(const FaultSpec& spec);

struct FaultCampaignConfig {
  std::uint64_t seed = 7;
  std::vector<FaultSpec> faults;
};

// Queried by the pipeline once per tick and per injection point. Each query
// that actually perturbs the pipeline increments the per-kind injected
// counter — the denominator of the detection-coverage measurement.
class FaultInjector {
 public:
  explicit FaultInjector(const FaultCampaignConfig& config);

  // Must be called at the top of every tick, with a monotonically
  // increasing tick index.
  void BeginTick(std::int64_t tick);

  // True when the camera frame is lost this tick (counts an injection).
  bool SensorDropout();
  // True when the published localization estimate must be frozen.
  bool StaleLocalization();
  // Synthetic seconds added to the tick's execution time (0 when inactive).
  double TimingOverrunSeconds();
  // Applies NaN/range corruption to the obstacle list; fabricates a ghost
  // obstacle when the list is empty. Returns true when anything changed.
  bool CorruptObstacles(std::vector<Obstacle>* obstacles);
  // Flips bits in `frame` when a bit-flip fault is live. Returns true when
  // the frame was mutated.
  bool MutateFrame(CanFrame* frame);
  // True when the command frame must be dropped on the bus.
  bool DropFrame();

  std::int64_t injected(FaultKind kind) const;
  std::int64_t total_injected() const;

 private:
  const FaultSpec* ActiveSpec(FaultKind kind) const;
  void Count(FaultKind kind);

  FaultCampaignConfig config_;
  certkit::support::Xoshiro256 rng_;
  std::int64_t tick_ = -1;
  std::array<std::int64_t, kNumFaultKinds> injected_{};
};

}  // namespace adpilot

#endif  // AD_SAFETY_FAULT_INJECTOR_H_
