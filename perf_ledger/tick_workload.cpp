// tick_release: the deployed tick. ApolloPilot::Tick with coverage probes
// off and the int8 detector, closed loop and back to back, over fresh
// pilots. Each pilot gets a seeded world of 0-32 vehicles and 0-32
// pedestrians and no faults.
//
// Untraced, the ledger times real Tick calls, a block of pilots at a time,
// and checks each pilot's TickReport stream against an untimed reference
// pass. Traced, a shadow pilot drives Tick's stage sequence through the
// modules' public entry points, one span per stage, and the detector one
// layer at a time; its TickReport stream must equal the real pilot's.
#include <algorithm>
#include <memory>

#include "ad/pipeline.h"
#include "coverage/coverage.h"
#include "kernels/gemm.h"
#include "ledger.h"
#include "nn/detector.h"
#include "support/alloc_counter.h"
#include "support/fnv.h"
#include "support/rng.h"
#include "timing/timing.h"

namespace ledger {

namespace {

using namespace adpilot;
using certkit::support::kFnvOffsetBasis;

constexpr int kWarmupTicks = 5;
constexpr int kTicksPerPilot = 20;
// Pilots per block. Their actor counts are stratified over 0-32, so every
// seed gets the same spread of densities; the seed picks the counts within
// each stratum and the worlds' layouts. How many actors a pilot sees
// depends on the layout, and the slowest tenth of ticks comes from the few
// most crowded views, so a block holds many short drives rather than a few
// long ones.
constexpr int kPilotsPerBlock = 48;
// The traced run is a fixed amount of work, so its counts repeat exactly.
constexpr int kTracedPilots = 2 * kPilotsPerBlock;

// A generous tick budget: the deadline watchdog compares wall time, and a
// machine stall must not turn into a logged violation that changes the
// command stream between the timed and the reference pass.
constexpr double kTickDeadline = 10.0;

int Stratum(int k, certkit::support::Xoshiro256* rng) {
  const int max = ScenarioConfig::kMaxVehicles;
  const int lo = k * (max + 1) / kPilotsPerBlock;
  const int hi = (k + 1) * (max + 1) / kPilotsPerBlock - 1;
  return static_cast<int>(rng->UniformInt(lo, std::max(lo, hi)));
}

std::vector<PilotConfig> Configs(std::uint64_t seed) {
  certkit::support::Xoshiro256 rng(seed);
  std::vector<int> pedestrian_strata(kPilotsPerBlock);
  for (int k = 0; k < kPilotsPerBlock; ++k) pedestrian_strata[k] = k;
  for (int k = kPilotsPerBlock - 1; k > 0; --k) {
    std::swap(pedestrian_strata[k],
              pedestrian_strata[rng.UniformInt(0, k)]);
  }
  std::vector<PilotConfig> configs;
  for (int k = 0; k < kPilotsPerBlock; ++k) {
    PilotConfig cfg;
    cfg.scenario.num_vehicles = Stratum(k, &rng);
    cfg.scenario.num_pedestrians = Stratum(pedestrian_strata[k], &rng);
    cfg.scenario.seed = rng.Next();
    cfg.scenario = ClampScenarioConfig(cfg.scenario);
    cfg.perception.backend = nn::Backend::kCpuNaive;
    cfg.perception.quantized_weights = true;
    cfg.safety.tick_deadline = kTickDeadline;
    configs.push_back(cfg);
  }
  return configs;
}

// Untimed reference: the digest of a fresh pilot's TickReport stream over
// the measured ticks.
std::uint64_t ReferenceDigest(const PilotConfig& cfg) {
  ApolloPilot pilot(cfg);
  for (int t = 0; t < kWarmupTicks; ++t) pilot.Tick();
  std::uint64_t digest = kFnvOffsetBasis;
  for (int t = 0; t < kTicksPerPilot; ++t) {
    digest = DigestTickReport(pilot.Tick(), digest);
  }
  return digest;
}

// The stage timers Tick records into grow by one sample per tick; their
// buffers must be at capacity before the allocation window opens.
void ReserveTickTimers() {
  static const char* kTimers[] = {
      "adpilot/tick",     "adpilot/perception", "adpilot/prediction",
      "adpilot/planning", "adpilot/control",    "adpilot/canbus",
      "adpilot/localization", "adpilot/safety", "adpilot/tick_effective",
  };
  auto& registry = certkit::timing::TimerRegistry::Instance();
  for (const char* name : kTimers) {
    registry.GetOrCreate(name).Reserve(kTicksPerPilot + 8);
  }
}

// The span name of each detector layer kind.
const char* LayerSpan(const std::string& kind) {
  if (kind == "conv") return "nn.conv";
  if (kind == "batchnorm") return "nn.batchnorm";
  if (kind == "activation") return "nn.activation";
  if (kind == "maxpool") return "nn.maxpool";
  if (kind == "upsample") return "nn.upsample";
  return "nn.other";
}

// ApolloPilot::Tick recomposed from the modules' public entry points. The
// detector runs layer by layer on its real activations (Perception keeps
// its detector private, so the shadow owns an identically built one and
// the tracker it feeds). Every step mirrors src/ad/pipeline.cpp in order;
// the TickReport digest proves the recomposition exact.
class ShadowPilot {
 public:
  explicit ShadowPilot(const PilotConfig& config)
      : config_(config),
        scenario_(config.scenario),
        detector_(DetectorConfigFor(config.perception)),
        tracker_(config.perception.tracker),
        behavior_(config.behavior),
        canbus_(Pose{{0.0, -config.scenario.lane_width / 2.0}, 0.0},
                config.vehicle),
        range_(config.safety),
        plausibility_(config.safety),
        watchdog_(config.safety),
        degradation_(config.safety) {
    nn::InitBlobDetectorWeights(&detector_);
    if (config.perception.quantized_weights) {
      nn::QuantizeDetectorWeights(&detector_);
    }
    const double spacing = 10.0;
    const int segments =
        static_cast<int>(config_.scenario.road_length / spacing) + 1;
    graph_ = LaneGraph::StraightRoad(config_.scenario.num_lanes, segments,
                                     spacing, config_.scenario.lane_width);
    const Pose initial = canbus_.vehicle().state().pose;
    auto route = FindRoute(graph_, graph_.NearestNode(initial.position),
                           graph_.NearestNode({config_.goal_x,
                                               initial.position.y}));
    route_ = std::move(route).value();
    localizer_ = std::make_unique<EkfLocalizer>(initial, 0.0,
                                                config_.localization);
    last_published_est_ = localizer_->state();
    activations_.resize(detector_.network().layer_count());
  }

  nn::TinyYoloDetector& detector() { return detector_; }
  const std::vector<nn::Tensor>& activations() const { return activations_; }

  TickReport Tick(std::int64_t op) {
    Span tick_span("ad.tick", op);
    const auto tick_start = Clock::now();
    const double dt = config_.tick;
    const bool safety_on = config_.safety.enabled;
    TickReport report;
    ++tick_index_;
    time_ += dt;
    report.time = time_;
    const std::int64_t log_at_tick_start = log_.size();
    control_flow_.BeginTick(tick_index_);

    {
      Span span("ad.scenario", op);
      scenario_.Step(dt);
    }

    const VehicleState est = localizer_->state();
    last_published_est_ = est;
    report.localized = est;
    if (safety_on) {
      Span span("ad.safety", op);
      plausibility_.Check(tick_index_, est, &log_);
    }

    {
      Span span("ad.render", op);
      scenario_.RenderCameraFrameInto(est.pose, &frame_);
    }
    control_flow_.Enter(TickStage::kPerception);
    {
      Span span("ad.perception", op);
      Detect(op);
      detections_.clear();
      for (const nn::Detection& d : boxes_) {
        const Vec2 ego = CameraModel::PixelToEgo(d.x, d.y);
        Obstacle o;
        o.id = -1;
        o.cls = d.cls == 0 ? ObstacleClass::kVehicle
                           : ObstacleClass::kPedestrian;
        o.position = est.pose.EgoToWorld(ego);
        o.length = d.h * CameraModel::kMetersPerPixel;
        o.width = d.w * CameraModel::kMetersPerPixel;
        o.confidence = d.score;
        detections_.push_back(o);
      }
      tracker_.UpdateInto(detections_, dt, &tracked_);
    }
    report.detections = detections_.size();
    if (safety_on) {
      Span span("ad.safety", op);
      range_.CheckAndSanitizeObstacles(tick_index_, est.pose, &tracked_,
                                       &log_);
    }
    last_tracked_ = tracked_;
    report.tracked_obstacles = tracked_.size();

    control_flow_.Enter(TickStage::kPrediction);
    {
      Span span("ad.prediction", op);
      PredictObstaclesInto(tracked_, config_.prediction, &predictions_);
    }

    BehaviorDecision decision;
    {
      Span span("ad.planning", op);
      decision = behavior_.Decide(est, predictions_);
      control_flow_.Enter(TickStage::kPlanning);
      ApplyBehaviorInto(config_.planner, decision, &planner_config_);
      PlanTrajectoryInto(est, route_, predictions_, planner_config_,
                         &planner_scratch_, &plan_);
    }
    report.behavior = decision.behavior;
    report.plan_collision_free = plan_.collision_free;

    control_flow_.Enter(TickStage::kControl);
    ControlCommand cmd;
    {
      Span span("ad.control", op);
      cmd = controller_.Compute(est, plan_.trajectory, dt);
    }
    bool overridden = false;
    if (safety_on) {
      Span span("ad.safety", op);
      overridden |= range_.CheckCommand(tick_index_, &cmd, &log_);
      watchdog_.Check(tick_index_, SecondsSince(tick_start), &log_);
      std::size_t warnings = 0, criticals = 0;
      log_.TallySince(violations_tallied_, &warnings, &criticals);
      violations_tallied_ = log_.size();
      degradation_.Update(warnings, criticals);
      overridden |= degradation_.ApplyToCommand(&cmd, est.speed);
    }
    report.safety_state = degradation_.state();
    report.command = cmd;
    report.command_overridden = overridden;

    control_flow_.Enter(TickStage::kCanBus);
    const std::int64_t delivered_before = canbus_.frames_delivered();
    const std::int64_t rejected_before = canbus_.frames_rejected();
    ChassisFeedback fb;
    {
      Span span("ad.canbus", op);
      canbus_.SendCommand(cmd);
      fb = canbus_.Step(dt, config_.localization.gnss_noise,
                        config_.localization.speed_noise);
    }
    if (safety_on) {
      Span span("ad.safety", op);
      if (canbus_.frames_rejected() > rejected_before) {
        log_.Record({tick_index_, MonitorId::kCanBus, Severity::kWarning,
                     /*handled=*/true,
                     "corrupted command frame rejected by checksum"});
      } else if (canbus_.frames_delivered() == delivered_before) {
        log_.Record({tick_index_, MonitorId::kCanBus, Severity::kWarning,
                     /*handled=*/true,
                     "command frame lost; holding last valid command"});
      }
    }

    control_flow_.Enter(TickStage::kLocalization);
    {
      Span span("ad.localization", op);
      localizer_->Predict(fb.state.acceleration, fb.state.yaw_rate, dt);
      localizer_->UpdatePosition(fb.gnss_position);
      localizer_->UpdateSpeed(fb.wheel_speed);
    }
    {
      Span span("ad.safety", op);
      plausibility_.Propagate(fb.state.acceleration, fb.state.yaw_rate, dt);
      if (safety_on) control_flow_.EndTick(&log_);
    }
    report.ground_truth = fb.state;
    report.new_violations =
        static_cast<std::size_t>(log_.size() - log_at_tick_start);

    for (const Obstacle& o : scenario_.ground_truth()) {
      const double d = fb.state.pose.position.DistanceTo(o.position) -
                       std::max(o.length, o.width) / 2.0;
      if (!report.obstacle_in_range || d < report.min_obstacle_distance) {
        report.min_obstacle_distance = d;
      }
      report.obstacle_in_range = true;
    }
    return report;
  }

 private:
  static nn::DetectorConfig DetectorConfigFor(const PerceptionConfig& p) {
    nn::DetectorConfig det;
    det.input_h = p.detector_input_h > 0 ? p.detector_input_h
                                         : CameraModel::kImageSize;
    det.input_w = p.detector_input_w > 0 ? p.detector_input_w
                                         : CameraModel::kImageSize;
    det.num_classes = 2;
    det.score_threshold = p.score_threshold;
    det.backend = p.backend;
    return det;
  }

  // TinyYoloDetector::DetectBatchInto for a batch of one, stage by stage.
  void Detect(std::int64_t op) {
    Span detect_span("nn.detect", op);
    const nn::DetectorConfig& det = detector_.config();
    {
      Span span("nn.preprocess", op);
      nn::PreprocessInto(frame_, det.input_h, det.input_w, &input_);
    }
    nn::Network& net = detector_.network();
    const nn::Tensor* cur = &input_;
    for (std::size_t i = 0; i < net.layer_count(); ++i) {
      nn::Layer& layer = net.layer(i);
      Span span(LayerSpan(layer.Name()), op);
      layer.ForwardInto(*cur, &activations_[i]);
      cur = &activations_[i];
    }
    {
      Span span("nn.decode", op);
      nn::DecodeDetectionsInto(*cur, det, &boxes_);
    }
    {
      Span span("nn.nms", op);
      nn::NmsInPlace(&boxes_, det.nms_iou_threshold);
    }
  }

  PilotConfig config_;
  Scenario scenario_;
  LaneGraph graph_;
  Route route_;
  nn::TinyYoloDetector detector_;
  Tracker tracker_;
  BehaviorPlanner behavior_;
  std::unique_ptr<EkfLocalizer> localizer_;
  TrajectoryController controller_;
  CanBus canbus_;
  SafetyLog log_;
  RangeMonitor range_;
  PlausibilityMonitor plausibility_;
  DeadlineWatchdog watchdog_;
  ControlFlowMonitor control_flow_;
  DegradationManager degradation_;
  double time_ = 0.0;
  std::int64_t tick_index_ = 0;
  std::int64_t violations_tallied_ = 0;
  // Tick keeps these for its fault paths and copies them every tick; the
  // shadow does the same copies so its work matches.
  VehicleState last_published_est_;
  std::vector<Obstacle> last_tracked_;

  nn::Tensor frame_;
  nn::Tensor input_;
  std::vector<nn::Tensor> activations_;
  std::vector<nn::Detection> boxes_;
  std::vector<Obstacle> detections_;
  std::vector<Obstacle> tracked_;
  std::vector<PredictedObstacle> predictions_;
  PlannerConfig planner_config_;
  PlannerScratch planner_scratch_;
  PlanResult plan_;
};

// The shadow tick's stages; together they should cover the real Tick.
const char* const kTickStages[] = {
    "ad.scenario", "ad.render",  "ad.perception", "ad.prediction",
    "ad.planning", "ad.control", "ad.safety",     "ad.canbus",
    "ad.localization"};

double StageSeconds() {
  double seconds = 0.0;
  for (const char* stage : kTickStages) seconds += SpanTotalOf(stage).seconds;
  return seconds;
}

// The int8 GEMM of each conv at its real shape: C[M,N] = A[M,K] * BT[N,K]^T
// with M = output channels, N = output pixels, K = input channels x k x k.
struct GemmCase {
  kernels::GemmShape shape;
  std::vector<std::int16_t> a, bt;
  std::vector<std::int32_t> c;
};

std::vector<GemmCase> ConvGemmCases(ShadowPilot* shadow,
                                    certkit::support::Xoshiro256* rng) {
  std::vector<GemmCase> cases;
  nn::Network& net = shadow->detector().network();
  for (std::size_t i = 0; i < net.layer_count(); ++i) {
    auto* conv = dynamic_cast<nn::ConvLayer*>(&net.layer(i));
    if (conv == nullptr) continue;
    const nn::Tensor& out = shadow->activations()[i];
    GemmCase g;
    g.shape.m = conv->out_channels();
    g.shape.n = out.n() * out.h() * out.w();
    g.shape.k = static_cast<int>(conv->mutable_weights().size()) /
                conv->out_channels();
    g.a.resize(static_cast<std::size_t>(g.shape.m) * g.shape.k);
    g.bt.resize(static_cast<std::size_t>(g.shape.n) * g.shape.k);
    g.c.resize(static_cast<std::size_t>(g.shape.m) * g.shape.n);
    for (auto& v : g.a) v = static_cast<std::int16_t>(rng->UniformInt(-127, 127));
    for (auto& v : g.bt) v = static_cast<std::int16_t>(rng->UniformInt(-127, 127));
    cases.push_back(std::move(g));
  }
  return cases;
}

void AddTickLatency(const std::vector<double>& tick_us, Outcome* out) {
  const auto n = static_cast<std::int64_t>(tick_us.size());
  out->Add("tick_p50_us", Quantile(tick_us, 0.50), "us", n);
  out->Add("tick_p90_us", Quantile(tick_us, 0.90), "us", n);
  out->Add("tick_p99_us", Quantile(tick_us, 0.99), "us", n);
  out->Add("op_p50_ms", Quantile(tick_us, 0.50) / 1e3, "ms", n);
  out->Add("op_p90_ms", Quantile(tick_us, 0.90) / 1e3, "ms", n);
  out->Add("work_per_s", static_cast<double>(n) / (Sum(tick_us) / 1e6),
           "1/s", n);
}

void RunUntraced(const Args& args, Outcome* out) {
  const std::vector<PilotConfig> configs = Configs(args.seed);
  std::vector<std::uint64_t> references;
  for (const PilotConfig& cfg : configs) {
    references.push_back(ReferenceDigest(cfg));
  }
  auto& timers = certkit::timing::TimerRegistry::Instance();
  // One drive per pilot per block: set-up (construction and warm-up), then
  // the timed ticks.
  struct Drive {
    double seconds = 0.0;
    double setup_s = 0.0;
    std::vector<double> tick_us;
  };
  std::vector<std::vector<Drive>> drives(configs.size());
  Budget budget(args.seconds);
  for (int block = 0; budget.More(); ++block) {
    for (std::size_t k = 0; k < configs.size(); ++k) {
      Drive drive;
      timers.ResetAll();  // Tick's own timers grow one sample per tick
      const auto t_setup = Clock::now();
      ApolloPilot pilot(configs[k]);
      for (int t = 0; t < kWarmupTicks; ++t) pilot.Tick();
      drive.setup_s = SecondsSince(t_setup);
      drive.seconds = drive.setup_s;

      std::uint64_t digest = kFnvOffsetBasis;
      for (int t = 0; t < kTicksPerPilot; ++t) {
        const auto t0 = Clock::now();
        const TickReport report = pilot.Tick();
        const double seconds = SecondsSince(t0);
        drive.tick_us.push_back(seconds * 1e6);
        drive.seconds += seconds;
        digest = DigestTickReport(report, digest);
      }
      out->attempted += kTicksPerPilot;
      if (digest != references[k]) {
        out->Fail(kTicksPerPilot,
                  "block " + std::to_string(block) + " pilot " +
                      std::to_string(k) +
                      ": TickReport stream differs from the reference pass");
      }
      budget.Spend(drive.seconds);
      drives[k].push_back(std::move(drive));
    }
  }
  std::vector<double> tick_us, setup_s;
  for (const std::vector<Drive>& repeats : drives) {
    std::vector<double> seconds, setups;
    for (const Drive& d : repeats) {
      seconds.push_back(d.seconds);
      setups.push_back(d.setup_s);
    }
    const Drive& best = repeats[Fastest(seconds)];
    tick_us.insert(tick_us.end(), best.tick_us.begin(), best.tick_us.end());
    setup_s.push_back(setups[Fastest(setups)]);
  }
  AddTickLatency(tick_us, out);
  out->Add("setup_s", Quantile(setup_s, 0.5), "s",
           static_cast<std::int64_t>(setup_s.size()));
  out->Add("blocks", static_cast<double>(drives.front().size()), "count");
}

void RunTraced(const Args& args, Outcome* out) {
  const std::vector<PilotConfig> configs = Configs(args.seed);
  certkit::support::Xoshiro256 gemm_rng(args.seed ^ 0x6E6D6DULL);
  auto& timers = certkit::timing::TimerRegistry::Instance();
  std::vector<double> real_us;
  // Per pilot: shadow stage time over real Tick time, and shadow whole-tick
  // time over real Tick time. Ratios within one pilot compare runs made
  // milliseconds apart, so the host's speed state cancels.
  std::vector<double> attributed, overhead;
  std::uint64_t allocs = 0;
  std::int64_t detections = 0, tracked = 0, ticks = 0;
  double gemm_ops = 0.0;
  for (int pilots = 0; pilots < kTracedPilots; ++pilots) {
    const PilotConfig& cfg = configs[pilots % configs.size()];
    timers.ResetAll();

    // Real ticks: latency, allocations and the digests to match.
    ApolloPilot pilot(cfg);
    for (int t = 0; t < kWarmupTicks; ++t) pilot.Tick();
    ReserveTickTimers();
    double real_s = 0.0;
    std::uint64_t report_digest = kFnvOffsetBasis;
    std::uint64_t command_digest = kFnvOffsetBasis;
    {
      certkit::support::AllocScope scope;
      for (int t = 0; t < kTicksPerPilot; ++t) {
        const auto t0 = Clock::now();
        const TickReport report = pilot.Tick();
        const double seconds = SecondsSince(t0);
        real_us.push_back(seconds * 1e6);
        real_s += seconds;
        report_digest = DigestTickReport(report, report_digest);
        command_digest = DigestCommand(report.command, command_digest);
        detections += static_cast<std::int64_t>(report.detections);
        tracked += static_cast<std::int64_t>(report.tracked_obstacles);
      }
      allocs += scope.allocations();
    }

    // Shadow ticks over the same world, one span per stage. Warm-up ticks
    // carry op -1, which records nothing.
    ShadowPilot shadow(cfg);
    for (int t = 0; t < kWarmupTicks; ++t) shadow.Tick(-1);
    std::vector<GemmCase> gemms = ConvGemmCases(&shadow, &gemm_rng);
    std::uint64_t shadow_reports = kFnvOffsetBasis;
    std::uint64_t shadow_commands = kFnvOffsetBasis;
    const double stages_before = StageSeconds();
    const double ticks_before = SpanTotalOf("ad.tick").seconds;
    for (int t = 0; t < kTicksPerPilot; ++t, ++ticks) {
      const TickReport report = shadow.Tick(ticks);
      shadow_reports = DigestTickReport(report, shadow_reports);
      shadow_commands = DigestCommand(report.command, shadow_commands);
      Span span("kernels.gemm_s16", ticks);
      for (GemmCase& g : gemms) {
        kernels::micro::GemmS16S32DotT(g.a.data(), g.bt.data(), g.c.data(),
                                       g.shape);
        gemm_ops += 2.0 * g.shape.m * g.shape.n * g.shape.k;
      }
    }
    attributed.push_back((StageSeconds() - stages_before) / real_s);
    overhead.push_back((SpanTotalOf("ad.tick").seconds - ticks_before) /
                       real_s);
    out->attempted += kTicksPerPilot;
    if (shadow_commands != command_digest || shadow_reports != report_digest) {
      out->Fail(kTicksPerPilot, "pilot " + std::to_string(pilots) +
                                    ": shadow tick diverged from Tick");
    }
  }

  const double n = static_cast<double>(ticks);
  const auto per_tick_us = [&](const char* span) {
    return SpanTotalOf(span).seconds / n * 1e6;
  };
  for (const char* stage : kTickStages) {
    out->Add(std::string(stage) + "_us", per_tick_us(stage), "us", ticks);
  }
  out->Add("ad.perception_self_us",
           SpanTotalOf("ad.perception").self_seconds / n * 1e6, "us", ticks);
  for (const char* layer :
       {"nn.detect", "nn.preprocess", "nn.conv", "nn.batchnorm",
        "nn.activation", "nn.maxpool", "nn.upsample", "nn.decode",
        "nn.nms"}) {
    out->Add(std::string(layer) + "_us", per_tick_us(layer), "us", ticks);
  }
  const SpanTotal gemm = SpanTotalOf("kernels.gemm_s16");
  out->Add("kernels.gemm_s16_us", gemm.seconds / n * 1e6, "us", ticks);
  out->Add("kernels.gemm_s16_gops", gemm_ops / gemm.seconds / 1e9, "GOPS",
           ticks);
  out->Add("ad.tick_attributed_pct", 100.0 * Quantile(attributed, 0.5), "%",
           kTracedPilots);
  out->Add("ad.tick_trace_overhead_pct",
           100.0 * (Quantile(overhead, 0.5) - 1.0), "%", kTracedPilots);
  out->Add("ad.steady_allocs_per_tick", static_cast<double>(allocs) / n,
           "count");
  out->Add("ad.detections_per_tick", static_cast<double>(detections) / n,
           "count");
  out->Add("ad.tracked_per_tick", static_cast<double>(tracked) / n, "count");
  AddTickLatency(real_us, out);
}

}  // namespace

void RunTickRelease(const Args& args, Outcome* out) {
  certkit::cov::SetProbesEnabled(false);  // the release flavour
  if (args.trace) {
    RunTraced(args, out);
  } else {
    RunUntraced(args, out);
  }
}

}  // namespace ledger
