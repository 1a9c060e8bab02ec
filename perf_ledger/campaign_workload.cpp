// campaign_fleet: the instrumented flavour that campaign, replay and serve
// run. CampaignRunner at jobs = nproc from a seeded config, coverage probes
// on, over the breeder's candidates: backend (closed, open or cpu; fp32),
// fault plans and letterbox shapes.
//
// Untraced, the ledger times CampaignRunner::RunFrom(FreshState()), which
// is Run() with the set-up split off, and checks each campaign's JSON
// against the same campaign at one job. Traced, it drives FreshState ->
// Breed -> Evaluate on a pool of the same width -> MergeGeneration ->
// Finalize itself, then the same generations at one job, then with probes
// off.
#include <cmath>
#include <map>

#include "campaign/runner.h"
#include "coverage/coverage.h"
#include "ledger.h"
#include "support/thread_pool.h"
#include "timing/timing.h"

namespace ledger {

namespace {

using certkit::campaign::Candidate;
using certkit::campaign::CampaignConfig;
using certkit::campaign::CampaignRunner;
using certkit::campaign::CampaignState;
using certkit::campaign::EvalResult;

// The deployed generation: CampaignConfig's defaults, 12 candidates of 25
// ticks. The timed run is generation 0, the breeder's seed pool, whose
// candidates cycle through every backend, letterbox shape and fault kind
// by index: every seed gets the same mix and moves only worlds and fault
// magnitudes. Later generations are mutations whose backend, shape and
// length are drawn from the seed, so their cost moves with it. The traced
// run adds one mutated generation, so Breed's mutation path is timed there.
constexpr int kGenerations = 1;
constexpr int kTracedGenerations = 2;

CampaignConfig ConfigFor(std::uint64_t seed, int jobs, int generations) {
  CampaignConfig cfg;
  cfg.seed = seed;
  cfg.jobs = jobs;
  cfg.generations = generations;
  return cfg;
}

// One campaign through the runner, as `certkit campaign` runs it.
struct RunResult {
  std::string json;
  double seconds = 0.0;
  std::int64_t ticks = 0;
  std::int64_t evaluated = 0;
  double tick_p50_s = 0.0, tick_p90_s = 0.0;
  bool quantiles_agree = true;  // TimerQuantile vs the timer's own p95
};

// The set-up a campaign process pays before its first generation: the
// throwaway one-tick evaluation EnsureCoverageDeclarations runs (pilot and
// detector construction, first probe hits) and FreshState.
CampaignState SetUp(const CampaignConfig& cfg) {
  Candidate warmup;
  warmup.ticks = 1;
  warmup.backend = nn::Backend::kCpuNaive;
  (void)CampaignRunner::Evaluate(warmup);
  return CampaignRunner::FreshState(cfg);
}

// Set-up is short and the host's speed changes every few seconds, so it is
// sampled in windows of this many set-ups spread over the run: before the
// reference run, after each of its candidates, before every block and after
// the last one.
constexpr int kSetUps = 3;

// One window of set-ups, appended to `windows`; returns the last state.
CampaignState SetUpWindow(const CampaignConfig& cfg,
                          std::vector<std::vector<double>>* windows) {
  CampaignState state;
  std::vector<double> window;
  for (int i = 0; i < kSetUps; ++i) {
    const auto t0 = Clock::now();
    state = SetUp(cfg);
    window.push_back(SecondsSince(t0));
  }
  windows->push_back(std::move(window));
  return state;
}

RunResult RunCampaign(const CampaignConfig& cfg, CampaignState state) {
  RunResult r;
  CampaignRunner runner(cfg);
  // The latency of every pilot tick, recorded by ApolloPilot::Tick itself.
  certkit::timing::ExecutionTimer& ticks =
      certkit::timing::TimerRegistry::Instance().GetOrCreate("adpilot/tick");
  ticks.Reset();
  const auto t0 = Clock::now();
  const certkit::campaign::CampaignResult result = runner.RunFrom(&state);
  r.seconds = SecondsSince(t0);
  r.ticks = ticks.sample_count();
  r.tick_p50_s = TimerQuantile(ticks, 0.5);
  r.tick_p90_s = TimerQuantile(ticks, 0.9);
  r.quantiles_agree =
      std::abs(TimerQuantile(ticks, 0.95) - ticks.GetStats().p95) <= 1e-9;
  r.evaluated = result.evaluated_total;
  r.json = certkit::campaign::CampaignJson(result);
  return r;
}

// The one-job reference (untimed): the campaign composed serially from the
// runner's public steps, with a set-up window after every candidate. The
// traced run checks that this composition matches Run().
std::string SerialReference(const CampaignConfig& one,
                            std::vector<std::vector<double>>* setup_s) {
  CampaignState state = SetUpWindow(one, setup_s);
  for (int g = 0; g < one.generations; ++g) {
    const std::vector<Candidate> batch = CampaignRunner::Breed(one, &state);
    std::vector<EvalResult> evals;
    for (const Candidate& cand : batch) {
      evals.push_back(CampaignRunner::Evaluate(cand));
      (void)SetUpWindow(one, setup_s);
    }
    CampaignRunner::MergeGeneration(one, batch, &evals, &state, nullptr);
    state.next_generation += 1;
  }
  return certkit::campaign::CampaignJson(CampaignRunner::Finalize(one, state));
}

void RunUntraced(const Args& args, Outcome* out) {
  certkit::campaign::EnsureCoverageDeclarations();
  const CampaignConfig cfg = ConfigFor(args.seed, kJobs, kGenerations);
  std::vector<std::vector<double>> setup_s;
  const std::string reference =
      SerialReference(ConfigFor(args.seed, 1, kGenerations), &setup_s);
  std::vector<RunResult> blocks;
  std::vector<double> block_seconds;
  Budget budget(args.seconds);
  while (budget.More()) {
    RunResult run = RunCampaign(cfg, SetUpWindow(cfg, &setup_s));
    budget.Spend(run.seconds + Sum(setup_s.back()));
    out->attempted += run.evaluated;
    if (run.json != reference) {
      out->Fail(run.evaluated, "block " + std::to_string(blocks.size()) +
                                   ": campaign JSON differs between jobs " +
                                   std::to_string(kJobs) + " and 1");
    }
    if (!run.quantiles_agree) {
      out->Fail(run.evaluated, "tick quantiles disagree with the tick timer");
    }
    block_seconds.push_back(run.seconds);
    blocks.push_back(std::move(run));
  }
  (void)SetUpWindow(cfg, &setup_s);
  // The campaign is one unit, and so is each set-up slot of a window. A
  // tick's latency in the fleet depends on which candidates share the
  // cores with it, so each tick quantile is also taken from the block where
  // it was smallest.
  const RunResult& best = blocks[Fastest(block_seconds)];
  std::vector<double> best_setup_s;
  for (int slot = 0; slot < kSetUps; ++slot) {
    std::vector<double> repeats;
    for (const std::vector<double>& window : setup_s) {
      repeats.push_back(window[slot]);
    }
    best_setup_s.push_back(repeats[Fastest(repeats)]);
  }
  std::vector<double> p50_s, p90_s;
  for (const RunResult& run : blocks) {
    p50_s.push_back(run.tick_p50_s);
    p90_s.push_back(run.tick_p90_s);
  }
  const double ticks_per_s = static_cast<double>(best.ticks) / best.seconds;
  out->Add("campaign_ticks_per_s", ticks_per_s, "1/s", best.ticks);
  out->Add("work_per_s", ticks_per_s, "1/s", best.ticks);
  // An op is a pilot tick inside the fleet.
  out->Add("op_p50_ms", p50_s[Fastest(p50_s)] * 1e3, "ms", best.ticks);
  out->Add("op_p90_ms", p90_s[Fastest(p90_s)] * 1e3, "ms", best.ticks);
  out->Add("setup_s", Quantile(best_setup_s, 0.5), "s",
           static_cast<std::int64_t>(best_setup_s.size()));
  out->Add("blocks", static_cast<double>(blocks.size()), "count");
}

// Per-candidate measurements of one evaluation pass.
struct EvalPass {
  double wall = 0.0;
  std::vector<double> candidate_s;
};

// Evaluates `batch` on `pool`, one span and one timing per candidate.
std::vector<EvalResult> EvaluateBatch(certkit::support::ThreadPool& pool,
                                      const std::vector<Candidate>& batch,
                                      std::int64_t first_op, EvalPass* pass) {
  std::vector<double> seconds(batch.size());
  const auto t0 = Clock::now();
  std::vector<EvalResult> evals =
      certkit::support::ParallelMap<EvalResult>(
          pool, batch.size(), [&](std::size_t i) {
            Span span("campaign.candidate",
                      first_op < 0 ? -1
                                   : first_op + static_cast<std::int64_t>(i));
            const auto c0 = Clock::now();
            EvalResult r = CampaignRunner::Evaluate(batch[i]);
            seconds[i] = SecondsSince(c0);
            return r;
          });
  pass->wall += SecondsSince(t0);
  pass->candidate_s.insert(pass->candidate_s.end(), seconds.begin(),
                           seconds.end());
  return evals;
}

// Run() recomposed from the runner's public steps. Returns the campaign
// JSON and fills the bred batches and the per-phase times.
struct Composition {
  std::string json;
  std::vector<std::vector<Candidate>> batches;
  double breed_s = 0.0, merge_s = 0.0, generations_s = 0.0;
  double user_s = 0.0, sys_s = 0.0;  // CPU time of the evaluate phases
  EvalPass eval;
  std::int64_t evaluated = 0, kept = 0, new_facts = 0;
};

// `op` numbers the spans (candidates, then generations); nullptr runs the
// composition without spans.
Composition Compose(const CampaignConfig& cfg, std::int64_t* op) {
  Composition c;
  std::int64_t untraced = 0;
  std::int64_t& next = op != nullptr ? *op : untraced;
  const auto span_op = [&](std::int64_t v) { return op != nullptr ? v : -1; };
  certkit::support::ThreadPool pool(cfg.jobs - 1);  // the caller drains too
  CampaignState state;
  {
    Span span("campaign.fresh_state", span_op(next));
    state = CampaignRunner::FreshState(cfg);
  }
  for (int g = 0; g < cfg.generations; ++g) {
    const std::int64_t gen_op = span_op(next);
    Span gen_span("campaign.generation", gen_op);
    const auto t_gen = Clock::now();
    std::vector<Candidate> batch;
    {
      Span span("campaign.breed", gen_op);
      const auto t0 = Clock::now();
      batch = CampaignRunner::Breed(cfg, &state);
      c.breed_s += SecondsSince(t0);
    }
    std::vector<EvalResult> evals;
    {
      Span span("campaign.evaluate", gen_op);
      double user0 = 0.0, sys0 = 0.0, user1 = 0.0, sys1 = 0.0;
      CpuSeconds(&user0, &sys0);
      evals = EvaluateBatch(pool, batch, span_op(next), &c.eval);
      CpuSeconds(&user1, &sys1);
      c.user_s += user1 - user0;
      c.sys_s += sys1 - sys0;
    }
    next += static_cast<std::int64_t>(batch.size());
    {
      Span span("campaign.merge", gen_op);
      const auto t0 = Clock::now();
      CampaignRunner::MergeGeneration(cfg, batch, &evals, &state, nullptr);
      state.next_generation += 1;
      c.merge_s += SecondsSince(t0);
    }
    c.generations_s += SecondsSince(t_gen);
    c.evaluated += state.generations.back().evaluated;
    c.kept += state.generations.back().kept;
    c.new_facts += state.generations.back().new_facts;
    c.batches.push_back(std::move(batch));
  }
  Span span("campaign.finalize", span_op(next));
  c.json = certkit::campaign::CampaignJson(
      CampaignRunner::Finalize(cfg, state));
  return c;
}

const char* BackendMetric(nn::Backend backend) {
  switch (backend) {
    case nn::Backend::kClosedSim:
      return "campaign.tick_ms.closed_sim";
    case nn::Backend::kOpenSim:
      return "campaign.tick_ms.open_sim";
    case nn::Backend::kCpuNaive:
      break;
  }
  return "campaign.tick_ms.cpu_naive";
}

// The run's campaign four ways: through Run(), composed at the pool width
// with spans, composed at one job, and its bred candidates serially with
// probes off. A fixed amount of work, so the counts repeat exactly.
void RunTraced(const Args& args, Outcome* out) {
  certkit::campaign::EnsureCoverageDeclarations();
  const CampaignConfig cfg = ConfigFor(args.seed, kJobs, kTracedGenerations);
  const RunResult run = RunCampaign(cfg, SetUp(cfg));
  std::int64_t op = 0;
  const Composition wide = Compose(cfg, &op);
  const Composition serial =
      Compose(ConfigFor(args.seed, 1, kTracedGenerations), nullptr);
  out->attempted += wide.evaluated;
  if (wide.json != run.json || serial.json != run.json) {
    out->Fail(wide.evaluated, "composed campaign JSON differs from Run()");
  }

  // Probes off, serial, over exactly the candidates the campaign bred.
  double probes_off_s = 0.0;
  certkit::cov::SetProbesEnabled(false);
  for (const auto& batch : wide.batches) {
    for (const Candidate& cand : batch) {
      const auto t0 = Clock::now();
      (void)CampaignRunner::Evaluate(cand);
      probes_off_s += SecondsSince(t0);
    }
  }
  certkit::cov::SetProbesEnabled(true);

  std::map<std::string, std::pair<double, std::int64_t>> backend_time_ticks;
  std::size_t i = 0;
  for (const auto& batch : serial.batches) {
    for (const Candidate& cand : batch) {
      auto& [seconds, ticks] = backend_time_ticks[BackendMetric(cand.backend)];
      seconds += serial.eval.candidate_s[i++];
      ticks += cand.ticks;
    }
  }

  const auto generations = static_cast<std::int64_t>(wide.batches.size());
  const auto gens = static_cast<double>(generations);
  out->Add("campaign.breed_ms", wide.breed_s / gens * 1e3, "ms", generations);
  out->Add("campaign.evaluate_ms", wide.eval.wall / gens * 1e3, "ms",
           generations);
  out->Add("campaign.merge_ms", wide.merge_s / gens * 1e3, "ms", generations);
  out->Add("campaign.candidate_p50_ms",
           Quantile(wide.eval.candidate_s, 0.5) * 1e3, "ms",
           static_cast<std::int64_t>(wide.eval.candidate_s.size()));
  for (const char* metric :
       {"campaign.tick_ms.closed_sim", "campaign.tick_ms.open_sim",
        "campaign.tick_ms.cpu_naive"}) {
    const auto& [seconds, ticks] = backend_time_ticks[metric];
    out->Add(metric, ticks > 0 ? seconds / static_cast<double>(ticks) * 1e3
                               : 0.0,
             "ms", ticks);
  }
  out->Add("campaign.evaluate_parallel_eff",
           Sum(wide.eval.candidate_s) / (kJobs * wide.eval.wall), "ratio");
  out->Add("campaign.evaluate_sys_share",
           wide.sys_s / (wide.user_s + wide.sys_s), "ratio");
  out->Add("campaign.jobs1_speedup", serial.generations_s / wide.generations_s,
           "x");
  out->Add("coverage.probe_overhead_x", Sum(serial.eval.candidate_s) / probes_off_s,
           "x");
  out->Add("campaign.trace_overhead_pct",
           100.0 * (wide.generations_s / run.seconds - 1.0), "%");
  out->Add("campaign.evaluated", static_cast<double>(wide.evaluated), "count");
  out->Add("campaign.kept", static_cast<double>(wide.kept), "count");
  out->Add("campaign.new_facts", static_cast<double>(wide.new_facts), "count");
  out->Add("campaign.keep_ratio",
           static_cast<double>(wide.kept) / static_cast<double>(wide.evaluated),
           "ratio");
}

}  // namespace

void RunCampaignFleet(const Args& args, Outcome* out) {
  certkit::cov::SetProbesEnabled(true);  // the instrumented flavour
  if (args.trace) {
    RunTraced(args, out);
  } else {
    RunUntraced(args, out);
  }
}

}  // namespace ledger
