// adpilot: per-tick input/output signatures for deterministic replay.
//
// A campaign candidate fully determines its drive (every stochastic element
// is seeded), so a replay artifact does not need to ship raw frames — it
// ships *digests* of the per-tick data streams instead, and a re-execution
// is gated on reproducing every digest bit-for-bit. The TickTap observes
// each tick at five points in the pipeline:
//
//   frame      - the rendered camera tensor fed to perception (0 on a
//                sensor-dropout tick: no frame existed)
//   detections - perception's instantaneous detections (pre-tracking,
//                world frame, includes confidences — this is where a
//                quantized-vs-fp32 divergence first becomes observable
//                even when the downstream plan is unaffected)
//   tracked    - the confirmed obstacle list after fault corruption and
//                range sanitization (what planning actually consumed)
//   command    - the control command sent to the CAN bus
//   state      - the published localization estimate
//
// All digests are FNV-1a/64 over the exact bit patterns (doubles hashed by
// bits, not values), so two runs produce equal signatures iff the streams
// are bit-identical.
#ifndef AD_REPLAY_TAP_H_
#define AD_REPLAY_TAP_H_

#include <cstdint>
#include <vector>

#include "ad/common.h"
#include "nn/tensor.h"
#include "support/record.h"

namespace adpilot {

struct TickReport;  // ad/pipeline.h

// One tick's stream signatures, in pipeline order.
struct TickSignature {
  std::int64_t tick = 0;
  std::uint64_t frame = 0;       // 0 == no frame (sensor dropout)
  std::uint64_t detections = 0;
  std::uint64_t tracked = 0;
  std::uint64_t command = 0;
  std::uint64_t state = 0;
  std::int64_t faults_injected = 0;  // cumulative injector count after tick

  // The persisted form (support/record.h), one entry of a replay artifact.
  template <class Io, class Self>
  static void Fields(Io& io, Self& s) {
    using certkit::support::Hex;
    io("tick", s.tick);
    io("frame", Hex{s.frame});
    io("detections", Hex{s.detections});
    io("tracked", Hex{s.tracked});
    io("command", Hex{s.command});
    io("state", Hex{s.state});
    io("faults_injected", s.faults_injected);
  }
};

// Pipeline observer. Install with ApolloPilot::SetTickTap; OnTick fires
// once per Tick(), after actuation, on the pilot's thread.
class TickTap {
 public:
  virtual ~TickTap() = default;
  virtual void OnTick(const TickSignature& signature) = 0;
};

// The standard tap: records every signature in order.
class TickSignatureRecorder : public TickTap {
 public:
  void OnTick(const TickSignature& signature) override {
    signatures_.push_back(signature);
  }
  const std::vector<TickSignature>& signatures() const { return signatures_; }
  std::vector<TickSignature> Take() { return std::move(signatures_); }

 private:
  std::vector<TickSignature> signatures_;
};

// --- digest primitives (FNV-1a/64 over bit patterns) ---------------------

std::uint64_t DigestTensor(const nn::Tensor& t, std::uint64_t seed);
std::uint64_t DigestVec2(const Vec2& v, std::uint64_t seed);
std::uint64_t DigestObstacles(const std::vector<Obstacle>& obstacles,
                              std::uint64_t seed);
std::uint64_t DigestVehicleState(const VehicleState& s, std::uint64_t seed);
std::uint64_t DigestCommand(const ControlCommand& c, std::uint64_t seed);

// Field-by-field digest of one TickReport (every field, fixed order).
std::uint64_t DigestTickReport(const TickReport& r, std::uint64_t seed);
// Digest of a whole drive: folds DigestTickReport over `reports`. This is
// the digest that gates `certkit replay`.
std::uint64_t DigestTickReports(const std::vector<TickReport>& reports);

}  // namespace adpilot

#endif  // AD_REPLAY_TAP_H_
