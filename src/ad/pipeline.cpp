#include "ad/pipeline.h"

#include <algorithm>
#include <iterator>

#include "coverage/coverage.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "support/check.h"
#include "support/fnv.h"
#include "timing/timing.h"

namespace adpilot {

namespace {

using certkit::obs::FlightStage;

// The stage table, indexed by obs::FlightStage: the sinks each Tick stage
// feeds besides its trace span and flight record. A stage's span, timer and
// histogram are named after its FlightStageName.
struct StageRow {
  const char* category;  // trace-event category
  // Architectural coverage (ISO 26262-6 Table 12): the stage's function
  // probe. A probed stage also gets a "Tick -> <stage>" call probe and
  // control-flow monitoring; nullptr for an unprobed stage.
  const char* function;
  // Feeds the adpilot/<stage> ExecutionTimer that WCET/pWCET estimation
  // reads and the adpilot/stage_seconds/<stage> histogram.
  bool timed;
};

constexpr StageRow kStageTable[] = {
    {"pipeline", nullptr, true},                     // tick
    {"pipeline", nullptr, false},                    // scenario
    {"pipeline", "perception::Process", true},       // perception
    {"pipeline", "prediction::Predict", true},       // prediction
    {"pipeline", "planning::PlanTrajectory", true},  // planning
    {"pipeline", "control::Compute", true},          // control
    {"safety", nullptr, true},                       // safety
    {"pipeline", "canbus::Step", true},              // canbus
    {"pipeline", "localization::Update", true},      // localization
};
constexpr std::size_t kNumStages = std::size(kStageTable);
static_assert(kNumStages ==
              static_cast<std::size_t>(FlightStage::kLocalization) + 1);

// Probe declaration order after routing::FindRoute. Probe ids, and so the
// Table 12 report's listing of uncovered stages, follow it.
constexpr FlightStage kProbeOrder[] = {
    FlightStage::kPerception,   FlightStage::kPrediction,
    FlightStage::kLocalization, FlightStage::kPlanning,
    FlightStage::kControl,      FlightStage::kCanBus};

// One stage's resolved sinks. Registry references are stable across
// MetricsRegistry::ResetAll / TimerRegistry::ResetAll (both reset values in
// place), so caching them is safe.
struct StageSinks {
  const char* name = nullptr;
  const char* category = nullptr;
  int function = -1;  // coverage probe ids; -1 for an unprobed stage
  int call = -1;
  certkit::timing::ExecutionTimer* timer = nullptr;
  certkit::obs::Histogram* hist = nullptr;
};

struct PipelineSinks {
  certkit::cov::Unit* unit = nullptr;
  int routing = -1;  // function probe entered by the constructor
  StageSinks stages[kNumStages];
  certkit::obs::Counter* ticks = nullptr;
};

PipelineSinks& Sinks() {
  static PipelineSinks sinks = [] {
    auto& timers = certkit::timing::TimerRegistry::Instance();
    auto& metrics = certkit::obs::MetricsRegistry::Instance();
    // Stage costs on this workload sit between ~10us (control) and ~10ms
    // (perception on the simulated detector); half-decade buckets cover the
    // whole range with an overflow bucket for pathological cycles.
    const std::vector<double> bounds = {1e-5, 5e-5, 1e-4, 5e-4, 1e-3,
                                        5e-3, 1e-2, 5e-2, 1e-1, 5e-1};
    PipelineSinks q;
    for (std::size_t i = 0; i < kNumStages; ++i) {
      StageSinks& stage = q.stages[i];
      stage.name =
          certkit::obs::FlightStageName(static_cast<std::uint32_t>(i));
      stage.category = kStageTable[i].category;
      if (!kStageTable[i].timed) continue;
      stage.timer =
          &timers.GetOrCreate(std::string("adpilot/") + stage.name);
      stage.hist = &metrics.GetHistogram(
          std::string("adpilot/stage_seconds/") + stage.name, bounds);
    }
    q.unit = &certkit::cov::Registry::Instance().GetOrCreate(
        "adpilot/pipeline.cc");
    q.routing = q.unit->DeclareFunctionProbe("routing::FindRoute");
    for (const FlightStage stage : kProbeOrder) {
      const auto i = static_cast<std::size_t>(stage);
      q.stages[i].function =
          q.unit->DeclareFunctionProbe(kStageTable[i].function);
      q.stages[i].call = q.unit->DeclareCallProbe("Tick", q.stages[i].name);
    }
    q.ticks = &metrics.GetCounter("adpilot/ticks");
    return q;
  }();
  return sinks;
}

// The one instrumentation point of a Tick stage. Construction opens, in
// order, the coverage probes and the control-flow entry (probed stages
// only), the obs::Span feeding the trace, timer and histogram, and the
// flight-recorder record; destruction closes them in reverse.
class StageScope {
 public:
  // Opens the whole tick `tick`, whose stages report to `monitor`.
  StageScope(FlightStage stage, std::int64_t tick,
             ControlFlowMonitor* monitor)
      : tick_(tick),
        monitor_(monitor),
        sinks_(Enter(stage, monitor)),
        span_(sinks_.name, sinks_.category, sinks_.timer, sinks_.hist),
        flight_(stage, tick) {}
  // Opens a stage inside the open tick.
  StageScope(FlightStage stage, const StageScope& tick)
      : StageScope(stage, tick.tick_, tick.monitor_) {}
  StageScope(const StageScope&) = delete;
  StageScope& operator=(const StageScope&) = delete;

  // Wall-clock seconds since the stage opened.
  double ElapsedSeconds() const { return span_.ElapsedSeconds(); }

 private:
  static const StageSinks& Enter(FlightStage stage,
                                 ControlFlowMonitor* monitor) {
    const PipelineSinks& all = Sinks();
    const StageSinks& sinks = all.stages[static_cast<std::size_t>(stage)];
    if (sinks.function >= 0) {
      all.unit->EnterFunction(sinks.function);
      all.unit->CallSite(sinks.call);
      monitor->Enter(stage);
    }
    return sinks;
  }

  const std::int64_t tick_;
  ControlFlowMonitor* const monitor_;
  const StageSinks& sinks_;
  certkit::obs::Span span_;
  certkit::obs::FlightStageScope flight_;
};

}  // namespace

ApolloPilot::ApolloPilot(const PilotConfig& config)
    : config_(config),
      scenario_(config.scenario),
      perception_(config.perception),
      behavior_(config.behavior),
      canbus_(Pose{{0.0, -config.scenario.lane_width / 2.0}, 0.0},
              config.vehicle),
      range_monitor_(config.safety),
      plausibility_monitor_(config.safety),
      watchdog_(config.safety),
      degradation_(config.safety) {
  // Route: lane graph down the road, start near the ego, goal at goal_x.
  const double spacing = 10.0;
  const int segments =
      static_cast<int>(config_.scenario.road_length / spacing) + 1;
  graph_ = LaneGraph::StraightRoad(config_.scenario.num_lanes, segments,
                                   spacing, config_.scenario.lane_width);
  const Pose initial = canbus_.vehicle().state().pose;
  const int start = graph_.NearestNode(initial.position);
  const int goal =
      graph_.NearestNode({config_.goal_x, initial.position.y});
  Sinks().unit->EnterFunction(Sinks().routing);
  auto route = FindRoute(graph_, start, goal);
  CERTKIT_CHECK_MSG(route.ok(), "no route to goal: "
                                    << route.status().ToString());
  route_ = std::move(route).value();

  localizer_ = std::make_unique<EkfLocalizer>(initial, 0.0,
                                              config_.localization);
  last_published_est_ = localizer_->state();
}

void ApolloPilot::SetFaultInjector(FaultInjector* injector) {
  injector_ = injector;
  if (injector_ == nullptr) {
    canbus_.SetFrameFault(nullptr);
    return;
  }
  canbus_.SetFrameFault([this](CanFrame* frame) {
    if (injector_->DropFrame()) return false;
    injector_->MutateFrame(frame);
    return true;
  });
}

TickReport ApolloPilot::Tick() {
  ++tick_index_;
  // The whole tick is a stage too: one adpilot/tick sample per call, and
  // the flight record the crash-surviving journal keys the tick by.
  const StageScope tick(FlightStage::kTick, tick_index_,
                        &control_flow_monitor_);
  Sinks().ticks->Add();
  const double dt = config_.tick;
  const bool safety_on = config_.safety.enabled;
  TickReport report;
  time_ += dt;
  report.time = time_;
  // Replay capture (tap installed only): stream signatures accumulate as
  // each pipeline point produces its data, and fire in one OnTick at the
  // end. The digests hash exact bit patterns, so they cost a pass over the
  // frame/lists and nothing else.
  TickSignature tick_sig;
  const bool tapped = tick_tap_ != nullptr;
  tick_sig.tick = tick_index_;
  const std::int64_t log_before_tick = safety_log_.size();

  if (injector_ != nullptr) injector_->BeginTick(tick_index_);
  control_flow_monitor_.BeginTick(tick_index_);

  // 1. World advances.
  {
    const StageScope stage(FlightStage::kScenario, tick);
    scenario_.Step(dt);
  }

  // 2. Localization estimate (used as the ego pose everywhere downstream).
  // A stale-localization fault freezes the published estimate at its last
  // value; the plausibility monitor compares whatever is published against
  // its dead-reckoning envelope (propagated from last tick's odometry).
  VehicleState est = localizer_->state();
  if (injector_ != nullptr && injector_->StaleLocalization()) {
    est = last_published_est_;
  }
  last_published_est_ = est;
  report.localized = est;
  if (tapped) {
    tick_sig.state =
        DigestVehicleState(est, certkit::support::kFnvOffsetBasis);
  }
  if (safety_on) {
    plausibility_monitor_.Check(tick_index_, est, &safety_log_);
  }

  // 3. Perception on the camera frame rendered at the *estimated* pose.
  // A sensor-dropout fault loses the frame: the perception stage does not
  // run (the control-flow monitor flags the missing stage) and the pipeline
  // coasts on the previous tick's tracks.
  std::vector<Obstacle>& tracked = tracked_scratch_;
  if (injector_ != nullptr && injector_->SensorDropout()) {
    tracked = last_tracked_;
    report.detections = 0;
  } else {
    if (frame_scratch_.empty()) frame_scratch_.resize(1);
    scenario_.RenderCameraFrameInto(est.pose, &frame_scratch_[0]);
    const nn::Tensor& frame = frame_scratch_[0];
    if (tapped) {
      tick_sig.frame =
          DigestTensor(frame, certkit::support::kFnvOffsetBasis);
    }
    {
      const StageScope stage(FlightStage::kPerception, tick);
      // Batch-of-one through the batch engine: bit-identical to the
      // single-frame path, but every intermediate is member scratch.
      perception_.ProcessBatchInto(frame_scratch_, est.pose, dt, &tracked);
    }
    report.detections = perception_.last_detections().size();
    if (tapped) {
      tick_sig.detections = DigestObstacles(
          perception_.last_detections(), certkit::support::kFnvOffsetBasis);
    }
  }
  if (injector_ != nullptr) injector_->CorruptObstacles(&tracked);
  // Table 4 range check on the perception output; implausible obstacles are
  // discarded before they reach prediction/planning.
  if (safety_on) {
    range_monitor_.CheckAndSanitizeObstacles(tick_index_, est.pose, &tracked,
                                             &safety_log_);
  }
  last_tracked_ = tracked;
  report.tracked_obstacles = tracked.size();
  if (tapped) {
    tick_sig.tracked =
        DigestObstacles(tracked, certkit::support::kFnvOffsetBasis);
  }

  // 4. Prediction.
  std::vector<PredictedObstacle>& predictions = predictions_scratch_;
  {
    const StageScope stage(FlightStage::kPrediction, tick);
    PredictObstaclesInto(tracked, config_.prediction, &predictions);
  }

  // 5. Planning along the route.
  // 5a. Behavior decision (cruise / follow / overtake / stop).
  const BehaviorDecision decision = behavior_.Decide(est, predictions);
  report.behavior = decision.behavior;

  PlanResult& plan = plan_scratch_;
  {
    const StageScope stage(FlightStage::kPlanning, tick);
    ApplyBehaviorInto(config_.planner, decision, &planner_config_scratch_);
    PlanTrajectoryInto(est, route_, predictions, planner_config_scratch_,
                       &planner_scratch_, &plan);
  }
  report.plan_collision_free = plan.collision_free;

  // 6. Control.
  ControlCommand cmd;
  {
    const StageScope stage(FlightStage::kControl, tick);
    cmd = controller_.Compute(est, plan.trajectory, dt);
  }
  bool overridden = false;

  if (safety_on) {
    const StageScope stage(FlightStage::kSafety, tick);
    // Table 4 range check on the actuation output (critical on failure).
    overridden |= range_monitor_.CheckCommand(tick_index_, &cmd, &safety_log_);

    // Deadline watchdog over the tick's elapsed time (plus any injected
    // overrun). Checked before actuation so a timing fault can degrade this
    // very cycle.
    const double overrun =
        injector_ != nullptr ? injector_->TimingOverrunSeconds() : 0.0;
    watchdog_.Check(tick_index_, tick.ElapsedSeconds() + overrun,
                    &safety_log_);

    // Close the tick's verdict: everything logged since the last tally
    // (including last tick's post-actuation monitors) drives degradation.
    std::size_t warnings = 0, criticals = 0;
    safety_log_.TallySince(violations_tallied_, &warnings, &criticals);
    violations_tallied_ = safety_log_.size();
    degradation_.Update(warnings, criticals);
    overridden |= degradation_.ApplyToCommand(&cmd, est.speed);
  }
  report.safety_state = degradation_.state();
  report.command = cmd;
  report.command_overridden = overridden;
  if (tapped) {
    tick_sig.command = DigestCommand(cmd, certkit::support::kFnvOffsetBasis);
  }

  // 7. Actuation over the CAN bus; chassis feedback drives localization.
  const std::int64_t delivered_before = canbus_.frames_delivered();
  const std::int64_t rejected_before = canbus_.frames_rejected();
  ChassisFeedback fb;
  {
    const StageScope stage(FlightStage::kCanBus, tick);
    canbus_.SendCommand(cmd);
    fb = canbus_.Step(dt, config_.localization.gnss_noise,
                      config_.localization.speed_noise);
  }
  if (safety_on) {
    // Bus supervision: a corrupted frame was rejected by the receiver-side
    // checksum, a lost frame never arrived. Both are handled by the bus
    // holding the last valid command.
    if (canbus_.frames_rejected() > rejected_before) {
      safety_log_.Record({tick_index_, MonitorId::kCanBus, Severity::kWarning,
                          /*handled=*/true,
                          "corrupted command frame rejected by checksum"});
    } else if (canbus_.frames_delivered() == delivered_before) {
      safety_log_.Record({tick_index_, MonitorId::kCanBus, Severity::kWarning,
                          /*handled=*/true,
                          "command frame lost; holding last valid command"});
    }
  }

  {
    const StageScope stage(FlightStage::kLocalization, tick);
    localizer_->Predict(fb.state.acceleration, fb.state.yaw_rate, dt);
    localizer_->UpdatePosition(fb.gnss_position);
    localizer_->UpdateSpeed(fb.wheel_speed);
  }
  // Advance the dead-reckoning envelope with this tick's odometry; it is
  // compared against the published estimate at the top of the next tick.
  plausibility_monitor_.Propagate(fb.state.acceleration, fb.state.yaw_rate,
                                  dt);

  report.ground_truth = fb.state;

  if (safety_on) {
    control_flow_monitor_.EndTick(&safety_log_);
  }
  report.new_violations =
      static_cast<std::size_t>(safety_log_.size() - log_before_tick);

  // Safety bookkeeping against ground truth. An empty world is reported as
  // the explicit no-obstacle state, not a sentinel distance.
  for (const Obstacle& o : scenario_.ground_truth()) {
    const double d =
        fb.state.pose.position.DistanceTo(o.position) -
        std::max(o.length, o.width) / 2.0;
    if (!report.obstacle_in_range || d < report.min_obstacle_distance) {
      report.min_obstacle_distance = d;
    }
    report.obstacle_in_range = true;
  }
  if (report.obstacle_in_range) {
    min_clearance_ = std::min(min_clearance_, report.min_obstacle_distance);
    clearance_sampled_ = true;
  }
  if (tapped) {
    tick_sig.faults_injected =
        injector_ != nullptr ? injector_->total_injected() : 0;
    tick_tap_->OnTick(tick_sig);
  }
  return report;
}

std::vector<TickReport> ApolloPilot::Run(double seconds) {
  CERTKIT_CHECK(seconds > 0.0);
  std::vector<TickReport> reports;
  const int ticks = static_cast<int>(seconds / config_.tick);
  reports.reserve(static_cast<std::size_t>(ticks));
  for (int i = 0; i < ticks; ++i) {
    reports.push_back(Tick());
  }
  return reports;
}

bool ApolloPilot::ReachedGoal() const {
  return canbus_.vehicle().state().pose.position.x >= config_.goal_x;
}

}  // namespace adpilot
