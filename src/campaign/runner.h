// certkit campaign: the coverage-guided campaign loop.
//
// One generation = breed a batch of candidates (serial, seeded), evaluate
// the batch on the thread pool (each worker runs a full ApolloPilot under a
// cov::ThreadCapture), then merge covers and oracle verdicts serially in
// candidate-index order. Candidates that add coverage facts or produce a
// previously unseen oracle outcome join the corpus and become mutation
// parents.
//
// Determinism contract (mirrors the PR-1 driver): breeding and merging are
// serial and seeded; evaluation is a pure function of the candidate; and
// ParallelMap puts result i in slot i — so a fixed --seed produces
// byte-identical campaign JSON for any --jobs count. Wall-clock throughput
// is reported only behind include_timing, which callers leave off when they
// compare outputs.
#ifndef CERTKIT_CAMPAIGN_RUNNER_H_
#define CERTKIT_CAMPAIGN_RUNNER_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "ad/replay_tap.h"
#include "ad/safety/monitors.h"
#include "campaign/candidate.h"
#include "campaign/coverage_map.h"
#include "campaign/mutation.h"
#include "campaign/oracle.h"
#include "coverage/coverage.h"
#include "obs/trace.h"

namespace certkit::campaign {

class CorpusStore;

struct CampaignConfig {
  std::uint64_t seed = 1;
  int jobs = 1;          // fleet threads, caller included; <= 0: one per core
  int population = 12;   // candidates bred per generation
  int generations = 4;
  int ticks = 25;        // run length of seed-pool candidates
  std::string unit_prefix = "yolo/";  // units reported in the JSON
  bool include_timing = false;  // adds wall-clock fields (nondeterministic)
  // Greybox-style seeding: pre-merge the fixed Figure-5 scenario set's
  // cover before generation 0, so the campaign explicitly hunts coverage
  // *beyond* the existing tests and its final numbers dominate the baseline.
  bool seed_with_fig5 = false;
  // When non-empty, every corpus-kept candidate is exported to
  // `<artifact_dir>/finding_<id>.json` — a versioned replay artifact
  // (campaign/replay.h) that re-executes the finding bit-identically via
  // `certkit replay`. The directory is created on first write.
  std::string artifact_dir;
  // When non-empty, the campaign persists: a framed checkpoint
  // (`<dir>/checkpoint.ckpt`, campaign/checkpoint.h) is written after every
  // merged generation, kept candidates land in the content-addressed store
  // under `<dir>/corpus`, and a later run with the same flags resumes
  // bit-identically where the previous one stopped.
  std::string checkpoint_dir;
  // Sharded mode (`--shard i/N`): this invocation breeds the full batch
  // serially (identical across shards), evaluates only candidates with
  // index % shard_count == shard_index, and writes a shard delta into the
  // checkpoint dir for `certkit merge-corpus` to fold. shard_count == 1
  // with the flag absent is the normal unsharded loop.
  int shard_index = 0;
  int shard_count = 1;
  // Stop (checkpoint intact) after merging this many generations in this
  // invocation; 0 = run to completion. This is how a campaign is "killed"
  // deterministically in tests — resuming continues bit-identically.
  int stop_after_generations = 0;
};

// A candidate's evaluation: its captured cover, oracle verdict, replay
// signatures, and (when tracing is enabled) the spans its pilot run fired —
// captured thread-locally like the cover, so they are a pure function of
// the candidate.
struct EvalResult {
  cov::CoverSet cover;
  OracleVerdict verdict;
  std::vector<obs::SpanEvent> spans;
  // Replay evidence: the FNV digest over every TickReport (the bit-identity
  // gate of `certkit replay`) and the per-tick stream signatures that
  // localize a divergence to (tick, stream).
  std::uint64_t report_digest = 0;
  std::vector<adpilot::TickSignature> tick_signatures;
};

struct GenerationStats {
  int generation = 0;
  int evaluated = 0;
  int kept = 0;                       // candidates that joined the corpus
  std::int64_t new_facts = 0;         // probe facts first seen this gen
  std::int64_t distinct_outcomes = 0; // oracle signatures seen so far
  std::vector<cov::CoverageRow> rows; // cumulative, after this generation
  cov::CoverageRow average;
  double seconds = 0.0;               // wall clock (include_timing only)

  // The checkpointed form (support/record.h): exact doubles, so a resumed
  // run re-renders the campaign JSON's %.4f rows bit-identically.
  template <class Io, class Self>
  static void Fields(Io& io, Self& s) {
    io("generation", s.generation);
    io("evaluated", s.evaluated);
    io("kept", s.kept);
    io("new_facts", s.new_facts);
    io("distinct_outcomes", s.distinct_outcomes);
    io("rows", s.rows);
    io("average", s.average);
    io("seconds", s.seconds);
  }
};

// The campaign's complete serial state between generations. Everything the
// loop reads or mutates outside a candidate evaluation lives here, so a
// state round-tripped through the checkpoint serializer (checkpoint.h) and
// a state that never left memory drive byte-identical continuations.
struct CampaignState {
  int next_generation = 0;
  SchedulerState scheduler;
  std::array<std::uint64_t, 4> select_rng{};
  std::vector<Candidate> corpus;
  Oracle oracle;
  CoverageMap cover;
  std::vector<GenerationStats> generations;
  std::int64_t evaluated_total = 0;

  // The checkpoint's body, after its schema and fingerprint.
  template <class Io, class Self>
  static void Fields(Io& io, Self& s) {
    io("next_generation", s.next_generation);
    io("scheduler", s.scheduler);
    io("select_rng", support::Hex{s.select_rng});
    io("evaluated_total", s.evaluated_total);
    io("oracle", s.oracle);
    io("cover", s.cover);
    io("corpus", s.corpus);
    io("generations", s.generations);
  }
};

// One shard's evaluations of its candidate slice for one generation.
// Deltas omit tick signatures (artifact export is an unsharded feature), so
// they stay small enough to ship between machines.
struct ShardEval {
  int index = 0;  // candidate index within the bred batch
  std::uint64_t candidate_hash = 0;
  OracleVerdict verdict;
  std::string outcome;
  std::uint64_t report_digest = 0;
  cov::CoverSet cover;

  template <class Io, class Self>
  static void Fields(Io& io, Self& e) {
    io("index", e.index);
    io("candidate", support::Hex{e.candidate_hash});
    io("verdict", e.verdict);
    io("outcome", e.outcome);
    io("report_digest", support::Hex{e.report_digest});
    io("cover", e.cover);
  }
};

struct ShardDelta {
  int generation = 0;
  int shard_index = 0;
  int shard_count = 1;
  std::vector<ShardEval> evals;

  // The shard delta's body, after its schema and fingerprint.
  template <class Io, class Self>
  static void Fields(Io& io, Self& d) {
    io("generation", d.generation);
    io("shard_index", d.shard_index);
    io("shard_count", d.shard_count);
    io("evals", d.evals);
  }
};

struct CampaignResult {
  CampaignConfig config;
  std::vector<GenerationStats> generations;
  std::vector<Candidate> corpus;
  std::int64_t evaluated_total = 0;
  std::int64_t distinct_outcomes = 0;
  adpilot::SafetySummary safety_totals;
  std::int64_t collisions = 0;
  std::int64_t non_finite_commands = 0;
  std::int64_t safe_stops = 0;
  cov::CoverSet merged;  // final campaign cover (tests diff against this)
  std::vector<cov::CoverageRow> final_rows;
  cov::CoverageRow final_average;
  double total_seconds = 0.0;
  // False when stop_after_generations halted the run before the configured
  // generation count; the checkpoint holds everything needed to continue.
  bool complete = true;
  int next_generation = 0;
};

class CampaignRunner {
 public:
  explicit CampaignRunner(const CampaignConfig& config);

  CampaignResult Run();

  // Resume-aware loop: continues from `state` (FreshState() for a new
  // campaign, or a checkpoint-restored state), honoring checkpoint_dir and
  // stop_after_generations. Run() is RunFrom(FreshState()). `state` is left
  // at the post-run position so callers can checkpoint or continue it.
  CampaignResult RunFrom(CampaignState* state);

  // The generation-0 state Run() starts from: scheduler and selection RNG
  // seeded from config, cover optionally pre-merged with the Figure-5
  // baseline. Pure function of the config.
  static CampaignState FreshState(const CampaignConfig& config);

  // Breeds the next generation's batch from `state` (serial, seeded) and
  // advances the scheduler/selection streams in place. Every shard of a
  // generation breeds the identical batch — that is what makes the shard
  // slices disjoint and the merge exact.
  static std::vector<Candidate> Breed(const CampaignConfig& config,
                                      CampaignState* state);

  // Serially merges one generation's evaluations in candidate order:
  // coverage facts, oracle outcomes, corpus keeps (persisted to `store`
  // when enabled), artifact export, metrics, and the generation's stats
  // row. Consumes evals' spans. Does not advance next_generation.
  static void MergeGeneration(const CampaignConfig& config,
                              const std::vector<Candidate>& batch,
                              std::vector<EvalResult>* evals,
                              CampaignState* state, const CorpusStore* store);

  // Renders the final CampaignResult for `state` (no evaluation).
  static CampaignResult Finalize(const CampaignConfig& config,
                                 const CampaignState& state);

  // Sharded mode: breeds the full batch, evaluates only this shard's slice
  // (index % shard_count == shard_index) in parallel, and returns the
  // delta. `state` is advanced past breeding but NOT past the generation —
  // merging deltas (below, or `certkit merge-corpus`) does that.
  ShardDelta RunShardGeneration(CampaignState* state);

  // Folds one complete generation of shard deltas into `state`, exactly as
  // the unsharded serial merge would have: validates the set (one delta per
  // shard, hashes matching the re-bred batch), merges in candidate-index
  // order, advances next_generation. Order of `deltas` does not matter.
  bool MergeShardDeltas(const std::vector<ShardDelta>& deltas,
                        CampaignState* state, std::string* error);

  // Evaluates one candidate end-to-end: builds the pilot, installs the fault
  // plan, runs `candidate.ticks` cycles under a ThreadCapture, and returns
  // the captured cover plus the oracle verdict. Pure function of the
  // candidate; safe to call from pool workers. Accelerator-simulating
  // candidates run one at a time, so their device launches on the shared
  // gpusim device do not interleave within a tick (a latency policy, not a
  // correctness need).
  static EvalResult Evaluate(const Candidate& candidate);

 private:
  CampaignConfig config_;
};

// Coverage probe declarations happen lazily, on each instrumented unit's
// first execution in the process. A fresh process that merges shard deltas
// or finalizes a resumed-complete campaign without evaluating anything
// would rate covers against undeclared units and report wrong ratios. This
// runs one fixed throwaway candidate (once per process) so every unit the
// campaign can touch has declared its probes; results are discarded.
void EnsureCoverageDeclarations();

// Renders `result` as the campaign JSON document (schema in DESIGN.md).
std::string CampaignJson(const CampaignResult& result);

}  // namespace certkit::campaign

#endif  // CERTKIT_CAMPAIGN_RUNNER_H_
