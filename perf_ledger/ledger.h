// certkit perf ledger: shared types of the benchmark binary.
//
// The ledger measures certkit from the outside. Every number comes from a
// call into a module's public functions, timed here, or from a counter the
// program already keeps. Nothing under src/ is instrumented for it.
//
// A run measures one workload. The untraced run times the deployed entry
// point (ApolloPilot::Tick, CampaignRunner::Run, AnalysisDriver) and yields
// the end-to-end rows. The traced run drives the same work through the
// modules' entry points one stage at a time, inside spans, and yields the
// per-layer rows. Spans live in memory and are written out as a Chrome
// trace when the run ends.
#ifndef PERF_LEDGER_LEDGER_H_
#define PERF_LEDGER_LEDGER_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace certkit::timing {
class ExecutionTimer;
}  // namespace certkit::timing

namespace ledger {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Pool width of the parallel workloads: nproc of the 4-core reference host.
constexpr int kJobs = 4;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;  // scratch space for caches and the trace file
};

// One ledger row. `n` is the number of samples behind a quantile or mean;
// 0 marks a count, a ratio of counts, or a single measurement.
struct Row {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::int64_t n = 0;
};

// What a workload hands back: the operations it attempted and failed (an
// operation is a tick, a candidate or an analysis pass) and its rows.
struct Outcome {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Row> rows;
  std::vector<std::string> failures;  // first few diagnostics

  void Add(const std::string& name, double value, const std::string& unit,
           std::int64_t n = 0) {
    rows.push_back(Row{name, value, unit, n});
  }
  void Fail(std::int64_t operations, const std::string& what) {
    failed += operations;
    if (failures.size() < 8) failures.push_back(what);
  }
};

// Stops a measurement loop once the timed work adds up to the run length.
// A wall-clock cap of two run lengths bounds the untimed work around it
// (reference runs, output digests, cache resets), so a run always ends.
class Budget {
 public:
  explicit Budget(double seconds)
      : seconds_(seconds), start_(Clock::now()) {}
  void Spend(double seconds) { spent_ += seconds; }
  bool More() const {
    return spent_ < seconds_ && SecondsSince(start_) < 2.0 * seconds_;
  }

 private:
  double seconds_;
  double spent_ = 0.0;
  Clock::time_point start_;
};

// The host's cores are shared: its speed switches between two states about
// 1.6x apart, for seconds or minutes at a time, and interference only ever
// slows work down. So a workload repeats each unit of work (a pilot's
// drive, an analysis round, a campaign) until the run length is spent and
// computes its end-to-end statistics over each unit's fastest repetition:
// its cost whenever the run saw the host in its fast state. Set-up counts
// as a unit of its own; setup_s is the median over units of their fastest
// set-ups. Returns the index of the smallest of one unit's timed seconds
// (non-empty).
std::size_t Fastest(const std::vector<double>& seconds);

// Nearest-rank quantile (timing::NearestRankQuantile) of unsorted samples.
double Quantile(std::vector<double> samples, double q);
// The same nearest-rank quantile of a program timer's samples, to 1 ns. The
// timer keeps its samples private, so this bisects on CountOver; the timer's
// own p95 (NearestRankQuantile inside GetStats) pins the two together.
double TimerQuantile(const certkit::timing::ExecutionTimer& timer, double q);
double Sum(const std::vector<double>& samples);
// Peak resident set of this process, MiB (getrusage ru_maxrss).
double PeakRssMb();
// User and system CPU seconds of this process so far.
void CpuSeconds(double* user, double* sys);

// --- spans -----------------------------------------------------------------

// Turns span recording on for the traced run. Spans of the first few
// operations also go to the Chrome trace; every span counts towards the
// totals.
void EnableSpans();

// A timed region on the calling thread. Spans on one thread nest strictly
// (RAII). `name` must be a string literal. `op` identifies the operation
// (tick, candidate, pass) the span belongs to; a negative op (warm-up work)
// records nothing.
class Span {
 public:
  Span(const char* name, std::int64_t op);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool active_ = false;
};

struct SpanTotal {
  double seconds = 0.0;       // summed duration
  double self_seconds = 0.0;  // summed duration minus child spans
  std::int64_t count = 0;
};

// Total of every span named `name`, over all threads. Call after every
// thread that recorded spans has been joined.
SpanTotal SpanTotalOf(const std::string& name);

// Writes the recorded spans as Chrome trace-event JSON to `path` and
// checks the file with obs::ValidateChromeTrace, the validator behind
// tools/trace_lint. Returns false with *error on failure.
bool WriteChromeTrace(const std::string& path, std::string* error);

// --- workloads -------------------------------------------------------------

void RunTickRelease(const Args& args, Outcome* out);
void RunCampaignFleet(const Args& args, Outcome* out);
void RunAnalysisCorpus(const Args& args, Outcome* out);

}  // namespace ledger

#endif  // PERF_LEDGER_LEDGER_H_
