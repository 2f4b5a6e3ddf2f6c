// Autoscaler tests: the pluggable ScalePolicy layer (unit-driven with
// synthetic ScaleSignals), the 3-seed reactive golden parity pin (the
// refactored autoscaler must reproduce the pre-refactor ClusterManager tick
// bit-for-bit under legacy_floor_average + graceful_drain=false), and the
// graceful-drain mechanism properties: drains lose nothing, crashes racing a
// drain abort it cleanly, and drain timeouts force-kill into the re-dispatch
// path.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/time_units.h"
#include "fleet/fleet.h"
#include "model/model_spec.h"
#include "serving/autoscaler.h"
#include "workload/tracegen.h"

namespace deepserve {
namespace {

// ---------------- ScalePolicy units ----------------

serving::ScaleSignals Sig(int live, int64_t queue, int pending = 0) {
  serving::ScaleSignals s;
  s.tick_interval = MsToNs(500);
  s.live_tes = live;
  s.total_queue_depth = queue;
  s.pending_scale_ups = pending;
  return s;
}

TEST(ScalePolicyFactoryTest, RejectsUnknownPolicy) {
  serving::AutoscalerConfig config;
  config.policy = "psychic";
  auto policy = serving::MakeScalePolicy(config);
  ASSERT_FALSE(policy.ok());
  EXPECT_EQ(policy.status().code(), StatusCode::kInvalidArgument);
}

TEST(ScalePolicyFactoryTest, MakesAllThree) {
  for (const char* name : {"reactive", "predictive", "slo"}) {
    serving::AutoscalerConfig config;
    config.policy = name;
    auto policy = serving::MakeScalePolicy(config);
    ASSERT_TRUE(policy.ok()) << name;
    EXPECT_EQ(policy.value()->name(), name);
  }
}

// The historical bug the refactor fixes: floor(total/live) under-reports the
// average queue depth. On the down side the floor makes `avg <= D` true for
// any total < (D+1)*live, so the legacy tick sheds capacity while the exact
// comparison (total <= D*live) correctly holds it.
TEST(ReactivePolicyTest, LegacyFloorShedsWhereExactAverageHolds) {
  serving::AutoscalerConfig config;
  config.policy = "reactive";
  config.scale_up_queue_depth = 4;
  config.scale_down_queue_depth = 1;
  config.min_tes = 1;
  config.max_tes = 8;

  config.legacy_floor_average = true;
  auto legacy = serving::MakeScalePolicy(config).value();
  config.legacy_floor_average = false;
  auto exact = serving::MakeScalePolicy(config).value();

  // live=4, total=7: true average 1.75 > 1, but floor(7/4) = 1 <= 1.
  serving::ScaleDecision from_legacy = legacy->Tick(Sig(4, 7));
  serving::ScaleDecision from_exact = exact->Tick(Sig(4, 7));
  EXPECT_EQ(from_legacy.scale_down, 1);
  EXPECT_EQ(from_exact.scale_down, 0);

  // Up-side the two are equivalent: floor(total/live) >= U iff total >= U*live.
  EXPECT_EQ(legacy->Tick(Sig(4, 16)).scale_up, 1);
  EXPECT_EQ(exact->Tick(Sig(4, 16)).scale_up, 1);
  EXPECT_EQ(legacy->Tick(Sig(4, 15)).scale_up, 0);
  EXPECT_EQ(exact->Tick(Sig(4, 15)).scale_up, 0);
}

TEST(ReactivePolicyTest, SingleScaleUpInFlightCap) {
  serving::AutoscalerConfig config;
  config.policy = "reactive";
  config.scale_up_queue_depth = 4;
  config.max_tes = 8;
  auto policy = serving::MakeScalePolicy(config).value();
  EXPECT_EQ(policy->Tick(Sig(2, 100)).scale_up, 1);
  EXPECT_EQ(policy->Tick(Sig(2, 100, /*pending=*/1)).scale_up, 0);
}

TEST(ReactivePolicyTest, RespectsMinAndMax) {
  serving::AutoscalerConfig config;
  config.policy = "reactive";
  config.scale_up_queue_depth = 4;
  config.scale_down_queue_depth = 1;
  config.min_tes = 2;
  config.max_tes = 3;
  auto policy = serving::MakeScalePolicy(config).value();
  EXPECT_EQ(policy->Tick(Sig(3, 100)).scale_up, 0) << "at max_tes";
  EXPECT_EQ(policy->Tick(Sig(2, 0)).scale_down, 0) << "at min_tes";
}

// Drives the predictive policy through a linear arrival-rate ramp with EMPTY
// queues: capacity must be requested from the forecast alone, before any
// backpressure a reactive policy could see.
TEST(PredictivePolicyTest, ScalesAheadOfRampWithEmptyQueues) {
  serving::AutoscalerConfig config;
  config.policy = "predictive";
  config.te_capacity_rps = 1.0;
  config.min_tes = 1;
  config.max_tes = 8;
  auto predictive = serving::MakeScalePolicy(config).value();
  config.policy = "reactive";
  auto reactive = serving::MakeScalePolicy(config).value();

  const DurationNs tick = MsToNs(500);
  const double dt = NsToS(tick);
  int64_t predictive_ups = 0;
  int64_t reactive_ups = 0;
  double admitted = 0.0;
  int live = 1;
  for (int k = 0; k < 40; ++k) {
    double rate = 0.4 * static_cast<double>(k);  // 0 -> 8 rps over 20 s
    admitted += rate * dt;
    serving::ScaleSignals s = Sig(live, /*queue=*/0);
    s.now = tick * (k + 1);
    s.admitted_requests = static_cast<int64_t>(admitted);
    s.scale_up_lead = SToNs(3.0);
    serving::ScaleDecision d = predictive->Tick(s);
    predictive_ups += d.scale_up;
    live += d.scale_up;  // pretend scale-ups land instantly
    reactive_ups += reactive->Tick(s).scale_up;
  }
  EXPECT_GT(predictive_ups, 0) << "forecast never requested capacity";
  EXPECT_EQ(reactive_ups, 0) << "queues were empty; reactive had no trigger";
  EXPECT_GT(live, 2);
}

TEST(PredictivePolicyTest, ForecastsAreScoredOnceTargetTimeArrives) {
  serving::AutoscalerConfig config;
  config.policy = "predictive";
  auto policy = serving::MakeScalePolicy(config).value();
  const DurationNs tick = MsToNs(500);
  bool scored = false;
  for (int k = 0; k < 20; ++k) {
    serving::ScaleSignals s = Sig(1, 0);
    s.now = tick * (k + 1);
    s.admitted_requests = k;  // steady 2 rps
    s.scale_up_lead = SToNs(2.0);
    serving::ScaleDecision d = policy->Tick(s);
    if (d.forecast_abs_err >= 0.0) {
      scored = true;
      EXPECT_LT(d.forecast_abs_err, 4.0) << "steady rate, forecast way off";
    }
  }
  EXPECT_TRUE(scored) << "no forecast was ever scored against reality";
}

// After the load vanishes, the down-streak arms once and stays armed: one TE
// retired per tick while the surplus persists (not one per streak window).
TEST(PredictivePolicyTest, ArmedDownStreakRetiresOneTePerTick) {
  serving::AutoscalerConfig config;
  config.policy = "predictive";
  config.te_capacity_rps = 1.0;
  config.down_stable_ticks = 3;
  config.min_tes = 1;
  config.max_tes = 8;
  auto policy = serving::MakeScalePolicy(config).value();
  const DurationNs tick = MsToNs(500);
  int live = 4;
  int tick_index = 0;
  auto advance = [&](double rate_rps, int64_t queue) {
    static double admitted = 0.0;
    admitted += rate_rps * NsToS(tick);
    serving::ScaleSignals s = Sig(live, queue);
    s.now = tick * (++tick_index);
    s.admitted_requests = static_cast<int64_t>(admitted);
    s.scale_up_lead = SToNs(1.0);
    return policy->Tick(s);
  };
  // Warm up the EWMA at saturation so live=4 is justified, then go quiet.
  for (int k = 0; k < 10; ++k) {
    advance(4.0, /*queue=*/8);
  }
  std::vector<int> downs;
  for (int k = 0; k < 8; ++k) {
    serving::ScaleDecision d = advance(0.0, /*queue=*/0);
    downs.push_back(d.scale_down);
    live -= d.scale_down;
  }
  // First down_stable_ticks-1 ticks build the streak, then one TE per tick
  // until min_tes.
  int total_downs = 0;
  for (int d : downs) {
    total_downs += d;
  }
  EXPECT_EQ(total_downs, 3) << "expected 4 -> 1 retirement";
  EXPECT_EQ(live, 1);
  // The retirements are consecutive once armed.
  EXPECT_EQ(downs.back(), 0) << "kept shedding below min_tes";
}

TEST(SloPolicyTest, ScalesOnViolationRateNotQueueDepth) {
  serving::AutoscalerConfig config;
  config.policy = "slo";
  config.slo_scale_up_violation_rate = 0.05;
  config.slo_scale_down_violation_rate = 0.005;
  config.down_stable_ticks = 2;
  config.scale_down_queue_depth = 4;
  config.min_tes = 1;
  config.max_tes = 8;
  auto policy = serving::MakeScalePolicy(config).value();
  const DurationNs tick = MsToNs(500);

  // Baseline tick.
  serving::ScaleSignals s = Sig(2, 0);
  s.now = tick;
  policy->Tick(s);

  // 5 violations against 5 completions: 50% violation rate -> scale up.
  s = Sig(2, 0);
  s.now = tick * 2;
  s.completed_requests = 5;
  s.ttft_violations = 3;
  s.tbt_violations = 1;
  s.deadline_misses = 1;
  EXPECT_EQ(policy->Tick(s).scale_up, 1);

  // Quiet ticks: no new violations -> scale down after down_stable_ticks.
  int downs = 0;
  for (int k = 3; k < 6; ++k) {
    s = Sig(2, 0);
    s.now = tick * k;
    s.completed_requests = 5 + k;
    s.ttft_violations = 3;
    s.tbt_violations = 1;
    s.deadline_misses = 1;
    downs += policy->Tick(s).scale_down;
  }
  EXPECT_GE(downs, 1);
}

// ---------------- Reactive golden parity ----------------
//
// Replays the exact pre-refactor harness: the numbers below were captured
// from the seed commit's hand-rolled ClusterManager::AutoscalerTick loop.
// The extracted ReactivePolicy under legacy_floor_average=true and
// graceful_drain=false must reproduce every field, including the FNV-1a hash
// over (id, first_token_time, finish_time) of each completion.

struct GoldenRun {
  int64_t scale_ups = 0;
  int64_t scale_downs = 0;
  int64_t completed = 0;
  int64_t errored = 0;
  int final_ready = 0;
  TimeNs end_time = 0;
  uint64_t timeline_hash = 0;
};

GoldenRun RunReactiveGolden(uint64_t seed) {
  fleet::FleetSpec fleet_spec;
  fleet_spec.cluster.num_machines = 2;
  fleet_spec.je.policy = serving::SchedulingPolicy::kLoadOnly;
  fleet::Fleet fleet(fleet_spec);
  sim::Simulator& sim = fleet.sim();
  serving::ClusterManager& manager = fleet.manager();
  manager.ReservePrewarmedPods(8);
  manager.ReservePrewarmedTes(8);
  for (int m = 0; m < fleet.cluster().num_machines(); ++m) {
    manager.PreloadModelToDram(m, model::ModelSpec::Tiny1B());
  }
  sim.Run();

  flowserve::EngineConfig engine;
  engine.model = model::ModelSpec::Tiny1B();
  engine.npu_spec = fleet_spec.cluster.npu_spec;
  engine.parallelism = {1, 1, 1};
  fleet.AddTe(flowserve::EngineRole::kColocated, engine);

  serving::AutoscalerConfig as;
  as.check_interval = MsToNs(500);
  as.scale_up_queue_depth = 4;
  as.scale_down_queue_depth = 0;
  as.min_tes = 1;
  as.max_tes = 4;
  as.policy = "reactive";
  as.legacy_floor_average = true;
  as.graceful_drain = false;
  serving::ScaleRequest request;
  request.engine = engine;
  manager.StartAutoscaler(&fleet.je(), as, request);

  auto trace_config = workload::TraceGenerator::InternalTrace(12.0, 30.0, seed);
  trace_config.prefill = workload::LengthDistribution{512, 0.3, 64, 2048};
  trace_config.decode = workload::LengthDistribution{64, 0.4, 8, 256};
  auto trace = workload::TraceGenerator(trace_config).Generate();
  const TimeNs t0 = sim.Now();
  for (auto& spec : trace) {
    spec.arrival += t0;
  }

  GoldenRun out;
  uint64_t hash = 1469598103934665603ull;
  auto mix = [&hash](uint64_t v) {
    hash ^= v;
    hash *= 1099511628211ull;
  };
  fleet::ReplayHooks hooks;
  hooks.on_complete = [&](const workload::RequestSpec& spec, TimeNs,
                          const flowserve::Sequence& seq) {
    mix(spec.id);
    mix(static_cast<uint64_t>(seq.first_token_time));
    mix(static_cast<uint64_t>(seq.finish_time));
  };
  fleet.Submit(trace, hooks);
  sim.RunUntil(t0 + SToNs(180));
  manager.StopAutoscaler();
  sim.Run();

  for (const auto& te : manager.tes()) {
    if (te->ready()) {
      ++out.final_ready;
    }
  }
  out.completed = fleet.tally().completed;
  out.errored = fleet.tally().errored;
  out.scale_ups = manager.stats().scale_ups;
  out.scale_downs = manager.stats().scale_downs;
  out.end_time = sim.Now();
  out.timeline_hash = hash;
  return out;
}

TEST(ReactiveGoldenParityTest, BitIdenticalToPreRefactorAutoscaler) {
  struct GoldenRow {
    uint64_t seed;
    int64_t scale_ups;
    int64_t scale_downs;
    int64_t completed;
    int64_t errored;
    int final_ready;
    TimeNs end_time;
    uint64_t timeline_hash;
  };
  // Captured from the pre-ScalePolicy ClusterManager autoscaler loop.
  const GoldenRow kGolden[] = {
      {11ull, 6, 6, 373, 0, 1, 180560063275, 0x4d1b75db833b121dull},
      {23ull, 5, 5, 396, 0, 1, 180560063275, 0xeb878e9f32f7f2edull},
      {47ull, 5, 5, 347, 0, 1, 180560063275, 0x734b3141df4b37cull},
  };
  for (const GoldenRow& row : kGolden) {
    GoldenRun run = RunReactiveGolden(row.seed);
    EXPECT_EQ(run.scale_ups, row.scale_ups) << "seed " << row.seed;
    EXPECT_EQ(run.scale_downs, row.scale_downs) << "seed " << row.seed;
    EXPECT_EQ(run.completed, row.completed) << "seed " << row.seed;
    EXPECT_EQ(run.errored, row.errored) << "seed " << row.seed;
    EXPECT_EQ(run.final_ready, row.final_ready) << "seed " << row.seed;
    EXPECT_EQ(run.end_time, row.end_time) << "seed " << row.seed;
    EXPECT_EQ(run.timeline_hash, row.timeline_hash) << "seed " << row.seed;
  }
}

// ---------------- Graceful-drain mechanism ----------------

workload::RequestSpec MakeRequest(workload::RequestId id, int64_t prefill, int64_t decode) {
  workload::RequestSpec spec;
  spec.id = id;
  spec.decode_len = decode;
  for (int64_t i = 0; i < prefill; ++i) {
    spec.prompt.push_back(600 + static_cast<TokenId>((id * 131 + i) % 8000));
  }
  return spec;
}

class DrainTest : public ::testing::Test {
 protected:
  DrainTest() : fleet_(MakeSpec()) {
    engine_.model = model::ModelSpec::Tiny1B();
    engine_.parallelism = {1, 1, 1};
    engine_.role = flowserve::EngineRole::kColocated;
    for (int i = 0; i < 2; ++i) {
      tes_.push_back(fleet_.AddTe(flowserve::EngineRole::kColocated, engine_));
    }
  }

  static fleet::FleetSpec MakeSpec() {
    fleet::FleetSpec spec;
    spec.cluster.num_machines = 1;
    spec.je.policy = serving::SchedulingPolicy::kLoadOnly;
    return spec;
  }

  // An autoscaler whose reactive down-trigger always holds: it sheds one TE
  // per tick toward min_tes as soon as it starts ticking.
  serving::AutoscalerConfig ShedConfig() {
    serving::AutoscalerConfig config;
    config.policy = "reactive";
    config.check_interval = MsToNs(50);
    config.scale_up_queue_depth = 1 << 20;
    config.scale_down_queue_depth = 1 << 20;
    config.min_tes = 1;
    config.max_tes = 2;
    config.graceful_drain = true;
    return config;
  }

  void SubmitAll(int count) {
    for (int i = 0; i < count; ++i) {
      je_.HandleRequest(MakeRequest(i + 1, 512, 128),
                        {nullptr,
                         [this](const flowserve::Sequence&) { ++completed_; },
                         [this](const Status&) { ++errored_; }});
    }
  }

  fleet::Fleet fleet_;
  sim::Simulator& sim_ = fleet_.sim();
  serving::ClusterManager& manager_ = fleet_.manager();
  serving::JobExecutor& je_ = fleet_.je();
  flowserve::EngineConfig engine_;
  std::vector<serving::TaskExecutor*> tes_;
  int64_t completed_ = 0;
  int64_t errored_ = 0;
};

TEST_F(DrainTest, GracefulDrainLosesNoInflightWork) {
  constexpr int kRequests = 8;
  SubmitAll(kRequests);
  serving::ScaleRequest request;
  request.engine = engine_;
  manager_.StartAutoscaler(&je_, ShedConfig(), request);
  // Let the work land and the first tick pick a (busy) victim, then run out.
  sim_.RunUntil(SToNs(60));
  manager_.StopAutoscaler();
  sim_.Run();

  EXPECT_EQ(completed_, kRequests) << "drain dropped in-flight work";
  EXPECT_EQ(errored_, 0);
  const serving::AutoscalerStats& stats = manager_.autoscaler()->stats();
  EXPECT_EQ(stats.drains_started, 1);
  EXPECT_EQ(stats.drains_completed, 1);
  EXPECT_EQ(stats.drain_timeouts, 0);
  EXPECT_GT(stats.drained_seqs, 0) << "victim was idle; drain proved nothing";
  EXPECT_GT(stats.drain_ns_total, 0);
  // Exactly one TE retired, one survivor.
  int ready = 0;
  int stopped = 0;
  for (const auto& te : manager_.tes()) {
    ready += te->ready() ? 1 : 0;
    stopped += te->state() == serving::TeState::kStopped ? 1 : 0;
  }
  EXPECT_EQ(ready, 1);
  EXPECT_EQ(stopped, 1);
}

TEST_F(DrainTest, LegacyInstantStopSkipsBusyTes) {
  constexpr int kRequests = 8;
  SubmitAll(kRequests);
  serving::AutoscalerConfig config = ShedConfig();
  config.graceful_drain = false;
  serving::ScaleRequest request;
  request.engine = engine_;
  manager_.StartAutoscaler(&je_, config, request);
  sim_.RunUntil(SToNs(60));
  manager_.StopAutoscaler();
  sim_.Run();

  EXPECT_EQ(completed_, kRequests);
  EXPECT_EQ(errored_, 0);
  const serving::AutoscalerStats& stats = manager_.autoscaler()->stats();
  EXPECT_EQ(stats.drains_started, 0);
  EXPECT_GE(stats.legacy_stops, 1) << "idle TE was never instantly stopped";
}

TEST_F(DrainTest, CrashRacingDrainAbortsItAndConservesRequests) {
  constexpr int kRequests = 8;
  SubmitAll(kRequests);
  serving::AutoscalerConfig config = ShedConfig();
  config.drain_timeout = SToNs(5);  // bound how long the abort takes to surface
  serving::ScaleRequest request;
  request.engine = engine_;
  manager_.StartAutoscaler(&je_, config, request);
  // First tick at 50 ms starts the drain; crash the draining TE mid-drain.
  sim_.ScheduleAt(MsToNs(80), [this] {
    for (const auto& te : manager_.tes()) {
      if (te->draining()) {
        ASSERT_TRUE(manager_.KillTe(te->id()).ok());
        return;
      }
    }
    FAIL() << "no TE was draining at crash time";
  });
  sim_.RunUntil(SToNs(60));
  manager_.StopAutoscaler();
  sim_.Run();

  EXPECT_EQ(completed_, kRequests) << "crash-racing-drain lost requests";
  EXPECT_EQ(errored_, 0);
  const serving::AutoscalerStats& stats = manager_.autoscaler()->stats();
  EXPECT_GE(stats.drains_started, 1);
  EXPECT_GE(stats.drains_aborted, 1) << "abort was never detected";
  EXPECT_EQ(stats.drained_seqs, 0);
}

TEST_F(DrainTest, DrainTimeoutForceKillsIntoRedispatch) {
  constexpr int kRequests = 8;
  SubmitAll(kRequests);
  serving::AutoscalerConfig config = ShedConfig();
  // Far too short for 512/128-token jobs: the drain must time out.
  config.drain_timeout = MsToNs(1);
  serving::ScaleRequest request;
  request.engine = engine_;
  manager_.StartAutoscaler(&je_, config, request);
  sim_.RunUntil(SToNs(60));
  manager_.StopAutoscaler();
  sim_.Run();

  EXPECT_EQ(completed_, kRequests) << "force-killed stragglers were not re-dispatched";
  EXPECT_EQ(errored_, 0);
  const serving::AutoscalerStats& stats = manager_.autoscaler()->stats();
  EXPECT_GE(stats.drain_timeouts, 1);
  EXPECT_EQ(stats.drains_completed, 0);
}

}  // namespace
}  // namespace deepserve
