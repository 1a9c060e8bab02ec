// certkit obs: the flight recorder — an always-on, bounded-overhead
// black-box event journal with *triggered* dumps.
//
// PR 4's traces and metrics are deliberately post-run artifacts: they are
// exported after a drive or campaign completes, which means a run that dies
// mid-tick leaves no record of the moments around the fault. ISO 26262-6
// Table 4/5 evidence presumes exactly that record — not just *that* a
// monitor fired, but what the pipeline was doing when it did. The flight
// recorder closes the gap:
//
//  * Per-thread lock-free ring buffers of fixed-size binary event records
//    (tick stage begin/end, safety monitor verdicts, degradation
//    transitions, campaign candidate lifecycle, serve request lifecycle).
//    Each record is stamped with a global logical sequence clock; wall-clock
//    nanoseconds are added only when SetFlightWallClock(true) (the --timing
//    convention), so deterministic runs stay deterministic.
//  * Each ring slot is a seqlock (version counter: odd = being written,
//    even = stable), so a dump can drain rings while writers keep writing —
//    torn slots are detected and skipped, never half-read.
//  * Dumps are triggered, not polled: a fatal-signal handler
//    (SIGSEGV/SIGABRT/SIGFPE) writes through a pre-opened fd using only
//    async-signal-safe operations; the safety layer's oracle-violation hook
//    fires on entry to safe-stop when armed; `certkit dump` writes one
//    explicitly. Every trigger produces the same schema-versioned JSON
//    document: last-N events per thread in ring order (monotone in the
//    sequence clock), a full MetricsRegistry snapshot, and the most recent
//    replay-artifact pointer when a campaign exported one.
//
// The recorder is on by default and cheap enough to leave on (see
// bench/obs_overhead: <= 5% of median tick time, self-checked); recording
// never allocates, never locks, and never blocks a writer. Dump schema in
// DESIGN.md; tools/trace_lint validates dumps via flight_validate.h.
#ifndef CERTKIT_OBS_FLIGHT_RECORDER_H_
#define CERTKIT_OBS_FLIGHT_RECORDER_H_

#include <cstdint>
#include <string>

namespace certkit::obs {

// Ring geometry. 64 rings x 256 slots x 40-byte records ≈ 640 KiB of
// static storage — the whole black box, allocated up front.
inline constexpr int kFlightRingCapacity = 256;
inline constexpr int kFlightMaxRings = 64;

// Event vocabulary. The numeric values are part of the record layout but
// not of the dump schema (dumps spell the names out).
enum class FlightEventType : std::uint32_t {
  kStageBegin = 1,       // a = FlightStage, c = tick index
  kStageEnd = 2,         // a = FlightStage, c = tick index
  kMonitorVerdict = 3,   // a = monitor id, b = severity | handled<<8, c = tick
  kSafetyTransition = 4, // a = new state, b = previous state, c = transition #
  kCandidateBegin = 5,   // c = candidate id
  kCandidateEnd = 6,     // a = kept-by-evaluate? unused today, c = candidate id
  kCandidateKept = 7,    // c = candidate id
  kServeBegin = 8,       // c = request index within the batch
  kServeEnd = 9,         // a = ok (0/1), c = request index
};

// Pipeline stage ids: the one stage enum of ApolloPilot::Tick. Its stage
// table is indexed by it, its spans, timers and histograms are named by
// FlightStageName, and the ControlFlowMonitor checks its stage order.
enum class FlightStage : std::uint32_t {
  kTick = 0,
  kScenario = 1,
  kPerception = 2,
  kPrediction = 3,
  kPlanning = 4,
  kControl = 5,
  kSafety = 6,
  kCanBus = 7,
  kLocalization = 8,
};

// Name tables ("unknown" for out-of-range values). Returned pointers are
// string literals — safe to use from the signal-handler dump path.
const char* FlightEventTypeName(std::uint32_t type);
const char* FlightStageName(std::uint32_t stage);
// Safety-state names, index-compatible with adpilot::SafetyStateName
// (0 = nominal, 1 = limp_home, 2 = safe_stop).
const char* FlightSafetyStateName(std::uint32_t state);
// Monitor names, index-compatible with adpilot::MonitorId.
const char* FlightMonitorName(std::uint32_t monitor);

// Recorder switches. Enabled by default; disabling makes RecordFlightEvent
// a branch-and-return (the recorder-off arm of bench/obs_overhead).
void SetFlightRecorderEnabled(bool enabled);
bool FlightRecorderEnabled();
// Wall-clock stamping follows the --timing convention: off by default so
// records (and dumps of them) are deterministic for a fixed workload.
void SetFlightWallClock(bool enabled);

// Appends one record to the calling thread's ring (claiming a ring from
// the static pool on first use; threads beyond kFlightMaxRings drop events
// into the `dropped` counter rather than block). Never allocates, never
// locks. Field meaning per type is documented on FlightEventType.
void RecordFlightEvent(FlightEventType type, std::uint32_t a, std::uint32_t b,
                       std::int64_t c);

// RAII begin/end pair for one pipeline stage of one tick.
class FlightStageScope {
 public:
  FlightStageScope(FlightStage stage, std::int64_t tick);
  FlightStageScope(const FlightStageScope&) = delete;
  FlightStageScope& operator=(const FlightStageScope&) = delete;
  ~FlightStageScope();

 private:
  FlightStage stage_;
  std::int64_t tick_;
};

struct FlightRecorderStats {
  std::int64_t events = 0;   // records accepted (deterministic per workload)
  std::int64_t dropped = 0;  // records refused (ring pool exhausted)
  int rings_in_use = 0;      // live thread rings right now (wall-clock-ish)
  int ring_capacity = kFlightRingCapacity;
};
FlightRecorderStats GetFlightRecorderStats();

// Records the replay artifact most recently exported by the campaign layer
// so a dump can point the reader at the matching repro. Thread-safe; the
// dump path reads it via a seqlock (no lock taken in signal context).
void SetFlightArtifactPath(const std::string& path);

enum class FlightDumpTrigger { kSignal, kOracle, kExplicit };

// Core dump writer: drains every ring plus the metrics registry into `fd`
// as one JSON document. Uses only async-signal-safe operations (write(2),
// stack buffers, hand-rolled number formatting — no malloc, no locks), so
// it is callable from the fatal-signal handler; the other triggers reuse
// it for byte-identical output. Returns false if any write fails.
bool WriteFlightDumpFd(int fd, FlightDumpTrigger trigger, int signal_number);

// Convenience wrappers for non-signal contexts: open/truncate `path` (or
// build a std::string) and delegate to the fd writer.
bool WriteFlightDump(const std::string& path, FlightDumpTrigger trigger,
                     int signal_number = 0);
std::string FlightDumpString(FlightDumpTrigger trigger, int signal_number = 0);

// Arms the black box for fatal signals: opens `path` eagerly (so the
// handler never calls open(2)) and installs SIGSEGV/SIGABRT/SIGFPE
// handlers. On the first fatal signal the handler writes one dump through
// the pre-opened fd, then restores the default disposition and re-raises,
// preserving the process's termination status. Returns false if the dump
// file cannot be opened (no handlers installed in that case).
bool InstallFlightSignalHandlers(const std::string& path);

// Arms the oracle-violation trigger: the first OnFlightOracleViolation()
// after arming writes one dump to `path` and latches (campaigns drive
// candidates into safe-stop routinely; one black box per run is the
// useful artifact). Unarmed, OnFlightOracleViolation is a no-op.
void ArmFlightOracleDump(const std::string& path);
// Called by the safety layer (DegradationManager) on entry to safe-stop.
void OnFlightOracleViolation();

// Test support: zeroes every ring, the sequence clock, and the event/drop
// counters, clears the artifact pointer, and resets the oracle latch.
// Callers must quiesce writer threads first; ring claims survive (threads
// keep their rings).
void ResetFlightRecorderForTesting();

}  // namespace certkit::obs

#endif  // CERTKIT_OBS_FLIGHT_RECORDER_H_
