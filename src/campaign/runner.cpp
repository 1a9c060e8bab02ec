#include "campaign/runner.h"

#include <chrono>
#include <cstdio>
#include <mutex>
#include <optional>
#include <sstream>

#include "ad/pipeline.h"
#include "campaign/baseline.h"
#include "campaign/checkpoint.h"
#include "campaign/corpus_store.h"
#include "campaign/mutation.h"
#include "campaign/replay.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "support/check.h"
#include "support/thread_pool.h"

namespace certkit::campaign {

namespace {

// At most one accelerator candidate (closed/open backend) runs at a time;
// CPU-naive candidates run lock-free. The lock guards no shared state (the
// conv tuner keeps none, and the shared gpusim device pool takes one launch
// at a time from any thread). It is a latency policy: without it,
// accelerator candidates wait on each other's device launches inside their
// ticks, and a build that lifted it raised the perf ledger's campaign_fleet
// op_p50_ms from 4.84 to 7.51 ms (medians of 5 pairs on a 4-vCPU host).
std::mutex g_accel_mu;

double Elapsed(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       since)
      .count();
}

}  // namespace

CampaignRunner::CampaignRunner(const CampaignConfig& config)
    : config_(config) {
  CERTKIT_CHECK(config.population >= 1);
  CERTKIT_CHECK(config.generations >= 1);
}

EvalResult CampaignRunner::Evaluate(const Candidate& candidate) {
  using namespace adpilot;
  std::unique_lock<std::mutex> accel_lock(g_accel_mu, std::defer_lock);
  if (candidate.backend != nn::Backend::kCpuNaive) accel_lock.lock();

  PilotConfig cfg;
  cfg.scenario = candidate.scenario;
  cfg.perception.backend = candidate.backend;
  cfg.perception.detector_input_h = candidate.detector_input_h;
  cfg.perception.detector_input_w = candidate.detector_input_w;
  cfg.perception.quantized_weights = candidate.quantized;
  // Generous real-time budget: the watchdog must only trip on the fault
  // plan's synthetic overruns (magnitudes far above this), never on actual
  // execution time — otherwise sanitizer builds would change the verdict.
  // TSan with 8 concurrent serve requests on one core has been observed to
  // push a real tick past 5 s, so the budget is minutes, not seconds.
  cfg.safety.tick_deadline = 1000.0;

  FaultCampaignConfig fault_cfg;
  fault_cfg.seed = candidate.fault_seed;
  fault_cfg.faults = candidate.faults;

  EvalResult result;
  obs::RecordFlightEvent(obs::FlightEventType::kCandidateBegin, 0, 0,
                         candidate.id);
  cov::ThreadCapture capture;
  // Span capture mirrors the coverage capture: thread-local, so this
  // worker's spans are exactly this candidate's spans, with a logical clock
  // starting at 0 — the trace track is a pure function of the candidate.
  std::optional<obs::SpanCapture> trace_capture;
  if (obs::TracingEnabled()) trace_capture.emplace();
  {
    obs::Span candidate_span("candidate", "campaign");
    ApolloPilot pilot(cfg);
    FaultInjector injector(fault_cfg);
    pilot.SetFaultInjector(&injector);
    // Replay capture rides along on every evaluation: per-tick stream
    // signatures plus the whole-drive report digest. The recorder costs one
    // digest pass per tick, and makes any kept candidate exportable as a
    // replay artifact without re-running it.
    TickSignatureRecorder recorder;
    pilot.SetTickTap(&recorder);
    std::vector<TickReport> reports;
    reports.reserve(static_cast<std::size_t>(candidate.ticks));
    for (int t = 0; t < candidate.ticks; ++t) {
      reports.push_back(pilot.Tick());
    }
    result.verdict = Judge(pilot, reports);
    result.report_digest = DigestTickReports(reports);
    result.tick_signatures = recorder.Take();
  }
  result.cover = capture.Take();
  if (trace_capture.has_value()) result.spans = trace_capture->Take();
  obs::RecordFlightEvent(obs::FlightEventType::kCandidateEnd, 0, 0,
                         candidate.id);
  return result;
}

void EnsureCoverageDeclarations() {
  static std::once_flag flag;
  std::call_once(flag, [] {
    // Smallest evaluation that still executes every instrumented unit the
    // campaign's candidates can touch: one tick of the default scenario on
    // the CPU backend drives the full detector forward (preprocess, every
    // layer type, decode, NMS), and each unit declares all of its probes on
    // first execution. The result is discarded — only the declaration side
    // effect matters. Must not run under an active ThreadCapture (Evaluate
    // installs its own).
    Candidate warmup;
    warmup.ticks = 1;
    warmup.backend = nn::Backend::kCpuNaive;
    (void)CampaignRunner::Evaluate(warmup);
  });
}

CampaignState CampaignRunner::FreshState(const CampaignConfig& config) {
  CampaignState state;
  MutationScheduler scheduler(config.seed, config.ticks);
  state.scheduler = scheduler.Save();
  // Parent selection draws from its own serial stream so adding mutation
  // operators never perturbs which parents get picked.
  state.select_rng =
      support::Xoshiro256(config.seed ^ 0xA5A5A5A5DEADBEEFULL).state();
  if (config.seed_with_fig5) {
    state.cover.Merge(CaptureFigure5Baseline());
  }
  return state;
}

std::vector<Candidate> CampaignRunner::Breed(const CampaignConfig& config,
                                             CampaignState* state) {
  MutationScheduler scheduler(config.seed, config.ticks);
  scheduler.Restore(state->scheduler);
  support::Xoshiro256 select_rng(config.seed);
  select_rng.set_state(state->select_rng);

  const int gen = state->next_generation;
  std::vector<Candidate> batch;
  batch.reserve(static_cast<std::size_t>(config.population));
  for (int i = 0; i < config.population; ++i) {
    if (gen == 0 || state->corpus.empty()) {
      batch.push_back(scheduler.SeedCandidate(gen * config.population + i));
    } else {
      const auto pick = static_cast<std::size_t>(select_rng.UniformInt(
          0, static_cast<std::int64_t>(state->corpus.size()) - 1));
      batch.push_back(scheduler.Mutate(state->corpus[pick]));
    }
  }
  state->scheduler = scheduler.Save();
  state->select_rng = select_rng.state();
  return batch;
}

void CampaignRunner::MergeGeneration(const CampaignConfig& config,
                                     const std::vector<Candidate>& batch,
                                     std::vector<EvalResult>* evals,
                                     CampaignState* state,
                                     const CorpusStore* store) {
  const bool tracing = obs::TracingEnabled();
  auto& metrics = obs::MetricsRegistry::Instance();
  const int gen = state->next_generation;

  GenerationStats stats;
  stats.generation = gen;
  stats.evaluated = static_cast<int>(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EvalResult& eval = (*evals)[i];
    const std::int64_t new_facts = state->cover.Merge(eval.cover);
    const bool novel_outcome = state->oracle.Observe(eval.verdict);
    stats.new_facts += new_facts;
    if (new_facts > 0 || novel_outcome) {
      state->corpus.push_back(batch[i]);
      ++stats.kept;
      obs::RecordFlightEvent(obs::FlightEventType::kCandidateKept, 0, 0,
                             batch[i].id);
      if (!config.artifact_dir.empty()) {
        const std::string artifact =
            WriteFindingArtifact(config.artifact_dir, batch[i], eval);
        // Point the black box at the newest repro so a later crash dump
        // names an artifact that actually replays this run.
        if (!artifact.empty()) obs::SetFlightArtifactPath(artifact);
      }
      if (store != nullptr && store->enabled()) {
        CorpusEntry entry;
        entry.candidate = batch[i];
        entry.verdict = eval.verdict;
        entry.outcome = OutcomeSignature(eval.verdict);
        entry.report_digest = eval.report_digest;
        entry.cover = eval.cover;
        (void)store->Put(entry);  // store loss is repaired by recompute
      }
    }
    if (tracing) {
      char label[64];
      std::snprintf(label, sizeof(label), "campaign g%d/c%02d", gen,
                    static_cast<int>(i));
      obs::TraceRecorder::Instance().AddTrack(label, std::move(eval.spans));
    }
  }
  metrics.GetCounter("campaign/evaluated").Add(stats.evaluated);
  metrics.GetCounter("campaign/kept").Add(stats.kept);
  metrics.GetCounter("campaign/new_facts").Add(stats.new_facts);
  state->evaluated_total += stats.evaluated;
  stats.distinct_outcomes = state->oracle.distinct_outcomes();
  stats.rows = state->cover.Rows(config.unit_prefix);
  stats.average = cov::Average(stats.rows);
  state->generations.push_back(std::move(stats));
}

CampaignResult CampaignRunner::Finalize(const CampaignConfig& config,
                                        const CampaignState& state) {
  CampaignResult result;
  result.config = config;
  result.generations = state.generations;
  result.corpus = state.corpus;
  result.evaluated_total = state.evaluated_total;
  result.distinct_outcomes = state.oracle.distinct_outcomes();
  result.safety_totals = state.oracle.totals();
  result.collisions = state.oracle.collisions();
  result.non_finite_commands = state.oracle.non_finite_commands();
  result.safe_stops = state.oracle.safe_stops();
  result.merged = state.cover.merged();
  result.final_rows = state.cover.Rows(config.unit_prefix);
  result.final_average = cov::Average(result.final_rows);
  result.complete = state.next_generation >= config.generations;
  result.next_generation = state.next_generation;
  return result;
}

namespace {

std::string StoreDir(const CampaignConfig& config) {
  return config.checkpoint_dir.empty() ? std::string()
                                       : config.checkpoint_dir + "/corpus";
}

// Resume repair: any corpus candidate whose store entry is missing or
// corrupt is simply re-evaluated — Evaluate is a pure function of the
// candidate, so the recomputed entry is byte-identical to the lost one.
void RepairCorpusStore(const CorpusStore& store, const CampaignState& state) {
  if (!store.enabled()) return;
  for (const Candidate& candidate : state.corpus) {
    CorpusEntry entry;
    if (store.Load(CandidateHash(candidate), &entry)) continue;
    EvalResult eval = CampaignRunner::Evaluate(candidate);
    entry.candidate = candidate;
    entry.verdict = eval.verdict;
    entry.outcome = OutcomeSignature(eval.verdict);
    entry.report_digest = eval.report_digest;
    entry.cover = eval.cover;
    (void)store.Put(entry);
  }
}

}  // namespace

CampaignResult CampaignRunner::Run() {
  CampaignState state = FreshState(config_);
  return RunFrom(&state);
}

CampaignResult CampaignRunner::RunFrom(CampaignState* state) {
  const auto t_start = std::chrono::steady_clock::now();

  // Fleet observability. The control capture records the serial skeleton
  // (one "generation" span per generation) on this thread; candidate spans
  // land in the workers' own captures and are merged below in candidate
  // order, so the trace is byte-identical for any --jobs. The queue-depth
  // gauge is the *logical* fleet queue — candidates enqueued at each
  // fan-out — not a scheduler sample, precisely so it stays deterministic.
  const bool tracing = obs::TracingEnabled();
  auto& metrics = obs::MetricsRegistry::Instance();
  obs::Gauge& queue_gauge = metrics.GetGauge("campaign/fleet/queue_depth");
  if (config_.include_timing) {
    metrics.GetGauge("campaign/fleet/jobs")
        .Set(static_cast<double>(config_.jobs));
  }
  std::optional<obs::SpanCapture> control_capture;
  if (tracing) control_capture.emplace();

  const CorpusStore store(StoreDir(config_));
  if (state->next_generation > 0) {
    // A resumed campaign may finalize (or repair) without evaluating
    // anything in this process; make sure probe declarations exist first.
    EnsureCoverageDeclarations();
    RepairCorpusStore(store, *state);
  }

  support::ThreadPool pool(support::ThreadPool::ResolveJobs(config_.jobs) - 1);

  int merged_this_run = 0;
  while (state->next_generation < config_.generations) {
    if (config_.stop_after_generations > 0 &&
        merged_this_run >= config_.stop_after_generations) {
      break;
    }
    const auto t_gen = std::chrono::steady_clock::now();
    obs::Span gen_span("generation", "campaign");
    // --- breed (serial, seeded) ---
    std::vector<Candidate> batch = Breed(config_, state);

    // --- evaluate (parallel; slot i holds candidate i's result) ---
    queue_gauge.Set(static_cast<double>(batch.size()));
    std::vector<EvalResult> evals = support::ParallelMap<EvalResult>(
        pool, batch.size(),
        [&batch](std::size_t i) { return Evaluate(batch[i]); });
    queue_gauge.Set(0.0);

    // --- merge (serial, stable candidate order) ---
    MergeGeneration(config_, batch, &evals, state, &store);
    state->generations.back().seconds = Elapsed(t_gen);
    state->next_generation += 1;
    ++merged_this_run;
    if (!config_.checkpoint_dir.empty()) {
      const support::Status saved =
          WriteCampaignCheckpoint(config_.checkpoint_dir, config_, *state);
      if (!saved.ok()) {
        std::fprintf(stderr, "warning: checkpoint not written: %s\n",
                     saved.ToString().c_str());
      }
    }
  }

  if (control_capture.has_value()) {
    obs::TraceRecorder::Instance().AddTrack("campaign control",
                                            control_capture->Take());
  }

  CampaignResult result = Finalize(config_, *state);
  result.total_seconds = Elapsed(t_start);
  return result;
}

ShardDelta CampaignRunner::RunShardGeneration(CampaignState* state) {
  CERTKIT_CHECK(config_.shard_count >= 1);
  CERTKIT_CHECK(config_.shard_index >= 0 &&
                config_.shard_index < config_.shard_count);
  CERTKIT_CHECK(state->next_generation < config_.generations);

  ShardDelta delta;
  delta.generation = state->next_generation;
  delta.shard_index = config_.shard_index;
  delta.shard_count = config_.shard_count;

  // Breed the FULL batch — identical on every shard, because breeding is a
  // pure function of the checkpointed serial state. Only this shard's slice
  // gets evaluated.
  const std::vector<Candidate> batch = Breed(config_, state);
  std::vector<std::size_t> slice;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (static_cast<int>(i % static_cast<std::size_t>(config_.shard_count)) ==
        config_.shard_index) {
      slice.push_back(i);
    }
  }

  auto& metrics = obs::MetricsRegistry::Instance();
  obs::Gauge& queue_gauge = metrics.GetGauge("campaign/fleet/queue_depth");
  support::ThreadPool pool(support::ThreadPool::ResolveJobs(config_.jobs) - 1);
  queue_gauge.Set(static_cast<double>(slice.size()));
  std::vector<EvalResult> evals = support::ParallelMap<EvalResult>(
      pool, slice.size(),
      [&](std::size_t i) { return Evaluate(batch[slice[i]]); });
  queue_gauge.Set(0.0);

  delta.evals.reserve(slice.size());
  for (std::size_t i = 0; i < slice.size(); ++i) {
    ShardEval se;
    se.index = static_cast<int>(slice[i]);
    se.candidate_hash = CandidateHash(batch[slice[i]]);
    se.verdict = evals[i].verdict;
    se.outcome = OutcomeSignature(evals[i].verdict);
    se.report_digest = evals[i].report_digest;
    se.cover = std::move(evals[i].cover);
    delta.evals.push_back(std::move(se));
  }
  return delta;
}

bool CampaignRunner::MergeShardDeltas(const std::vector<ShardDelta>& deltas,
                                      CampaignState* state,
                                      std::string* error) {
  if (deltas.empty()) {
    *error = "no shard deltas to merge";
    return false;
  }
  const int n = deltas.front().shard_count;
  const int gen = state->next_generation;
  if (static_cast<int>(deltas.size()) != n) {
    *error = "expected " + std::to_string(n) + " shard deltas, got " +
             std::to_string(deltas.size());
    return false;
  }
  std::vector<const ShardDelta*> by_shard(static_cast<std::size_t>(n),
                                          nullptr);
  for (const ShardDelta& d : deltas) {
    if (d.shard_count != n) {
      *error = "shard deltas disagree on shard count";
      return false;
    }
    if (d.generation != gen) {
      *error = "shard delta for generation " + std::to_string(d.generation) +
               " does not match checkpoint generation " + std::to_string(gen);
      return false;
    }
    if (d.shard_index < 0 || d.shard_index >= n) {
      *error = "shard index " + std::to_string(d.shard_index) +
               " out of range 0.." + std::to_string(n - 1);
      return false;
    }
    if (by_shard[static_cast<std::size_t>(d.shard_index)] != nullptr) {
      *error = "duplicate delta for shard " + std::to_string(d.shard_index);
      return false;
    }
    by_shard[static_cast<std::size_t>(d.shard_index)] = &d;
  }

  // The merge process typically never evaluated a candidate; declare probes
  // before computing coverage rows.
  EnsureCoverageDeclarations();

  // Re-breed the batch (cheap and exact) to recover candidate identities,
  // then reassemble the full evaluation vector in candidate-index order —
  // merge order of the delta FILES cannot matter because the fold below is
  // by index, not by arrival. Breeding advances the RNG streams; snapshot
  // them so a failed merge leaves `state` exactly as it was.
  const SchedulerState saved_scheduler = state->scheduler;
  const std::array<std::uint64_t, 4> saved_select = state->select_rng;
  const auto restore_streams = [&]() {
    state->scheduler = saved_scheduler;
    state->select_rng = saved_select;
  };
  const std::vector<Candidate> batch = Breed(config_, state);
  std::vector<EvalResult> evals(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const ShardDelta* d = by_shard[i % static_cast<std::size_t>(n)];
    const ShardEval* found = nullptr;
    for (const ShardEval& se : d->evals) {
      if (se.index == static_cast<int>(i)) {
        found = &se;
        break;
      }
    }
    if (found == nullptr) {
      *error = "shard " + std::to_string(d->shard_index) +
               " is missing candidate " + std::to_string(i);
      restore_streams();
      return false;
    }
    if (found->candidate_hash != CandidateHash(batch[i])) {
      *error = "shard " + std::to_string(d->shard_index) + " candidate " +
               std::to_string(i) +
               " hash mismatch (stale delta for another campaign state?)";
      restore_streams();
      return false;
    }
    evals[i].verdict = found->verdict;
    evals[i].report_digest = found->report_digest;
    evals[i].cover = found->cover;
  }

  const CorpusStore store(StoreDir(config_));
  MergeGeneration(config_, batch, &evals, state, &store);
  state->next_generation += 1;
  return true;
}

std::string CampaignJson(const CampaignResult& result) {
  const bool timing = result.config.include_timing;
  std::ostringstream out;
  out << "{\"campaign\":{\"seed\":" << result.config.seed
      << ",\"population\":" << result.config.population
      << ",\"generations\":" << result.config.generations
      << ",\"unit_prefix\":" << support::JsonEscape(result.config.unit_prefix);
  if (timing) out << ",\"jobs\":" << result.config.jobs;
  out << "},\"generations\":[";
  for (std::size_t g = 0; g < result.generations.size(); ++g) {
    const GenerationStats& s = result.generations[g];
    if (g > 0) out << ",";
    out << "{\"generation\":" << s.generation << ",\"evaluated\":"
        << s.evaluated << ",\"kept\":" << s.kept << ",\"new_facts\":"
        << s.new_facts << ",\"distinct_outcomes\":" << s.distinct_outcomes
        << ",\"coverage\":" << CoverageRowsJson(s.rows)
        << ",\"average\":" << CoverageRowJson(s.average);
    if (timing) {
      char buf[128];
      std::snprintf(buf, sizeof(buf),
                    ",\"seconds\":%.3f,\"candidates_per_sec\":%.2f",
                    s.seconds,
                    s.seconds > 0.0 ? s.evaluated / s.seconds : 0.0);
      out << buf;
    }
    out << "}";
  }
  out << "],\"corpus\":[";
  for (std::size_t i = 0; i < result.corpus.size(); ++i) {
    if (i > 0) out << ",";
    out << CandidateJson(result.corpus[i]);
  }
  out << "],\"oracle\":{\"distinct_outcomes\":" << result.distinct_outcomes
      << ",\"violations\":" << result.safety_totals.total
      << ",\"warnings\":" << result.safety_totals.warnings
      << ",\"criticals\":" << result.safety_totals.criticals
      << ",\"handled\":" << result.safety_totals.handled
      << ",\"by_monitor\":{";
  for (int m = 0; m < adpilot::kNumMonitors; ++m) {
    if (m > 0) out << ",";
    out << support::JsonEscape(
               adpilot::MonitorName(static_cast<adpilot::MonitorId>(m)))
        << ":" << result.safety_totals.by_monitor[m];
  }
  out << "},\"collisions\":" << result.collisions
      << ",\"non_finite_commands\":" << result.non_finite_commands
      << ",\"safe_stops\":" << result.safe_stops
      << "},\"final_coverage\":" << CoverageRowsJson(result.final_rows)
      << ",\"final_average\":" << CoverageRowJson(result.final_average);
  if (timing) {
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  ",\"timing\":{\"jobs\":%d,\"total_seconds\":%.3f,"
                  "\"candidates_per_sec\":%.2f}",
                  result.config.jobs, result.total_seconds,
                  result.total_seconds > 0.0
                      ? result.evaluated_total / result.total_seconds
                      : 0.0);
    out << buf;
  }
  out << "}";
  return out.str();
}

}  // namespace certkit::campaign
