// End-to-end determinism golden test: the full stack — PD-disaggregated and
// colocated TEs, the predictive autoscaler with graceful drain, a seeded
// chaos plan, and the metrics registry — must replay bit-identically for the
// same seed. The comparison covers the completion timeline hash (id, first
// token, finish time per request), every ClusterManager/autoscaler counter,
// and MetricsRegistry::Fingerprint() (one word over the full sorted metric
// dump). A different seed must produce a different timeline.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/time_units.h"
#include "faults/fault_injector.h"
#include "fleet/fleet.h"
#include "model/model_spec.h"
#include "obs/metrics.h"
#include "workload/tracegen.h"
#include "test_util.h"

namespace deepserve {
namespace {

struct Outcome {
  int64_t requests = 0;
  int64_t completed = 0;
  int64_t errored = 0;
  int64_t double_terminated = 0;
  uint64_t timeline_hash = 0;
  TimeNs end_time = 0;
  int64_t crashes = 0;
  int64_t replacements = 0;
  int64_t scale_ups = 0;
  int64_t scale_downs = 0;
  int64_t drains_completed = 0;
  int64_t drained_seqs = 0;
  int64_t cm_crashes = 0;
  int64_t cm_failovers = 0;
  int64_t je_crashes = 0;
  int64_t je_failovers = 0;
  uint64_t metrics_fingerprint = 0;
  std::string metrics_dump;

  bool operator==(const Outcome& other) const {
    return requests == other.requests && completed == other.completed &&
           errored == other.errored && double_terminated == other.double_terminated &&
           timeline_hash == other.timeline_hash && end_time == other.end_time &&
           crashes == other.crashes && replacements == other.replacements &&
           scale_ups == other.scale_ups && scale_downs == other.scale_downs &&
           drains_completed == other.drains_completed && drained_seqs == other.drained_seqs &&
           cm_crashes == other.cm_crashes && cm_failovers == other.cm_failovers &&
           je_crashes == other.je_crashes && je_failovers == other.je_failovers &&
           metrics_fingerprint == other.metrics_fingerprint &&
           metrics_dump == other.metrics_dump;
  }
};

// The cluster flavor a stack runs on. kAllGen2Mix spells out the homogeneous
// default through the heterogeneous machine_specs path — it must be
// bit-identical to kHomogeneous. kMixedGen is a genuine Gen1+Gen2 fleet with
// cost-aware placement and dispatch turned on.
enum class ClusterMode { kHomogeneous, kAllGen2Mix, kMixedGen };

// `ctrl_faults` puts the CM and JE on a shared replicated control log and
// mixes cm/je leader crashes into the chaos plan, extending the bit-identical
// replay pin across leader outages and log-replay takeovers.
Outcome RunStack(uint64_t seed, bool enable_faults, bool ctrl_faults = false,
                 ClusterMode mode = ClusterMode::kHomogeneous) {
  obs::MetricsRegistry metrics;
  fleet::FleetSpec fleet_spec;
  fleet_spec.cluster.num_machines = 3;
  if (mode == ClusterMode::kAllGen2Mix) {
    fleet_spec.cluster.machine_specs = hw::ParseNpuMix("gen2:3").value();
  } else if (mode == ClusterMode::kMixedGen) {
    fleet_spec.cluster.machine_specs = hw::ParseNpuMix("gen1:2,gen2:1").value();
  }
  const bool mixed = mode == ClusterMode::kMixedGen;
  if (ctrl_faults) {
    fleet_spec.ctrl.replicas = 3;
    fleet_spec.ctrl.quorum = 2;
    fleet_spec.ctrl.replication_latency = MsToNs(1);
    fleet_spec.ctrl.lease_duration = MsToNs(300);
  }
  fleet_spec.je.policy = serving::SchedulingPolicy::kLoadOnly;
  fleet_spec.je.cost_aware = mixed;
  fleet::Fleet fleet(fleet_spec, {nullptr, &metrics});
  sim::Simulator& sim = fleet.sim();
  serving::ClusterManager& manager = fleet.manager();
  serving::JobExecutor& je = fleet.je();
  manager.ReservePrewarmedPods(6);
  manager.ReservePrewarmedTes(6);
  for (int m = 0; m < fleet.cluster().num_machines(); ++m) {
    manager.PreloadModelToDram(m, model::ModelSpec::Tiny1B());
  }
  sim.Run();

  // One colocated TE (the autoscaler's group) plus a disaggregated
  // prefill/decode pair sharing the dispatch layer.
  auto engine_for = [mixed](flowserve::EngineRole role) {
    flowserve::EngineConfig config = SmallEngine(role);
    config.npu_spec_from_placement = mixed;  // TE cost models track their silicon
    return config;
  };
  fleet.AddTes(engine_for(flowserve::EngineRole::kColocated), /*colocated=*/1, /*prefill=*/1,
               /*decode=*/1);
  fleet.Link();

  serving::AutoscalerConfig as;
  as.policy = "predictive";
  as.check_interval = MsToNs(500);
  as.scale_up_queue_depth = 4;
  as.scale_down_queue_depth = 1;
  as.min_tes = 1;
  as.max_tes = 3;
  as.te_capacity_rps = 2.0;
  as.down_stable_ticks = 3;
  serving::ScaleRequest request;
  request.engine = engine_for(flowserve::EngineRole::kColocated);
  manager.StartAutoscaler(&je, as, request);

  faults::FaultInjector injector(&sim, &manager, seed);
  if (ctrl_faults) {
    injector.RegisterJobExecutor(&je);
  }
  if (enable_faults) {
    faults::FaultPlanConfig plan;
    plan.count = 5;
    plan.window_start = SToNs(2);
    plan.window_end = SToNs(25);
    if (ctrl_faults) {
      plan.count = 7;
      plan.cm_crash_weight = 1.5;
      plan.je_crash_weight = 1.5;
    }
    injector.ScheduleAll(faults::FaultInjector::GeneratePlan(seed, plan));
  }

  auto trace_config = workload::TraceGenerator::InternalTrace(2.0, 30.0, seed);
  trace_config.prefill = workload::LengthDistribution{512, 0.3, 64, 2048};
  trace_config.decode = workload::LengthDistribution{64, 0.4, 8, 256};
  auto trace =
      workload::TraceGenerator(trace_config).GenerateBursty(0.5, 6.0, 12.0, /*sharpness=*/3.0);
  const TimeNs t0 = sim.Now();

  Outcome out;
  out.requests = static_cast<int64_t>(trace.size());
  uint64_t hash = 1469598103934665603ull;
  auto mix = [&hash](uint64_t v) {
    hash ^= v;
    hash *= 1099511628211ull;
  };
  for (auto& spec : trace) {
    spec.arrival += t0;
  }
  fleet::ReplayHooks hooks;
  hooks.on_complete = [&](const workload::RequestSpec& spec, TimeNs,
                          const flowserve::Sequence& seq) {
    mix(spec.id);
    mix(static_cast<uint64_t>(seq.first_token_time));
    mix(static_cast<uint64_t>(seq.finish_time));
  };
  hooks.on_error = [&](const workload::RequestSpec& spec, const Status&) { mix(spec.id * 2 + 1); };
  fleet.Submit(trace, hooks);
  sim.RunUntil(t0 + SToNs(40));
  manager.StopAutoscaler();
  sim.Run();

  out.completed = fleet.tally().completed;
  out.errored = fleet.tally().errored;
  out.double_terminated = fleet.tally().double_terminated;
  out.timeline_hash = hash;
  out.end_time = sim.Now();
  out.crashes = manager.stats().crashes;
  out.replacements = manager.stats().replacements;
  out.scale_ups = manager.stats().scale_ups;
  out.scale_downs = manager.stats().scale_downs;
  const serving::AutoscalerStats& as_stats = manager.autoscaler()->stats();
  out.drains_completed = as_stats.drains_completed;
  out.drained_seqs = as_stats.drained_seqs;
  out.cm_crashes = manager.stats().cm_crashes;
  out.cm_failovers = manager.stats().cm_failovers;
  out.je_crashes = je.stats().je_crashes;
  out.je_failovers = je.stats().je_failovers;
  out.metrics_fingerprint = metrics.Fingerprint();
  out.metrics_dump = metrics.Dump();
  return out;
}

TEST(DeterminismTest, SameSeedReplaysBitIdentically) {
  for (uint64_t seed : {5ull, 42ull}) {
    Outcome first = RunStack(seed, /*enable_faults=*/true);
    Outcome second = RunStack(seed, /*enable_faults=*/true);
    EXPECT_TRUE(first == second) << "seed " << seed << " diverged;\nfirst:\n"
                                 << first.metrics_dump << "\nsecond:\n" << second.metrics_dump;
    // The run must have been eventful enough to mean something.
    EXPECT_GT(first.completed, 0) << "seed " << seed;
    EXPECT_GT(first.metrics_fingerprint, 0ull) << "seed " << seed;
  }
}

TEST(DeterminismTest, ControlPlaneCrashRunsReplayBitIdenticallyWithZeroLoss) {
  // Three seeds, cm/je crashes in the mix: the fingerprint (timeline hash +
  // every counter + full metrics dump) must replay bit-identically, every
  // request must terminate exactly once, and every leader crash must have
  // failed over by the end of the run.
  bool any_ctrl = false;
  for (uint64_t seed : {3ull, 11ull, 29ull}) {
    Outcome first = RunStack(seed, /*enable_faults=*/true, /*ctrl_faults=*/true);
    Outcome second = RunStack(seed, /*enable_faults=*/true, /*ctrl_faults=*/true);
    EXPECT_TRUE(first == second) << "seed " << seed << " diverged;\nfirst:\n"
                                 << first.metrics_dump << "\nsecond:\n" << second.metrics_dump;
    EXPECT_EQ(first.completed + first.errored, first.requests)
        << "seed " << seed << " lost a request across a leader outage";
    EXPECT_EQ(first.double_terminated, 0) << "seed " << seed;
    EXPECT_EQ(first.cm_failovers, first.cm_crashes) << "seed " << seed;
    EXPECT_EQ(first.je_failovers, first.je_crashes) << "seed " << seed;
    EXPECT_GT(first.completed, 0) << "seed " << seed;
    any_ctrl = any_ctrl || first.cm_crashes + first.je_crashes > 0;
  }
  EXPECT_TRUE(any_ctrl) << "no control-plane crash fired across the three seeds";
}

TEST(DeterminismTest, SameSeedSameMetricsWithoutFaults) {
  Outcome first = RunStack(7, /*enable_faults=*/false);
  Outcome second = RunStack(7, /*enable_faults=*/false);
  EXPECT_TRUE(first == second);
  EXPECT_EQ(first.crashes, 0);
  EXPECT_EQ(first.errored, 0);
}

TEST(DeterminismTest, AllGen2MixBitIdenticalToHomogeneous) {
  // Golden parity: spelling the homogeneous default through the heterogeneous
  // machine_specs path must not move a single event — timeline hash, every
  // counter, and the full metrics dump — across three seeds with chaos on.
  for (uint64_t seed : {5ull, 17ull, 42ull}) {
    Outcome homogeneous =
        RunStack(seed, /*enable_faults=*/true, /*ctrl_faults=*/false, ClusterMode::kHomogeneous);
    Outcome mix =
        RunStack(seed, /*enable_faults=*/true, /*ctrl_faults=*/false, ClusterMode::kAllGen2Mix);
    EXPECT_TRUE(homogeneous == mix)
        << "seed " << seed << ": all-Gen2 machine_specs diverged from homogeneous;\n"
        << "homogeneous:\n" << homogeneous.metrics_dump << "\nmix:\n" << mix.metrics_dump;
    EXPECT_GT(homogeneous.completed, 0) << "seed " << seed;
  }
}

TEST(DeterminismTest, MixedGenerationClusterReplaysBitIdentically) {
  // A genuine Gen1+Gen2 fleet with cost-aware placement and dispatch on, plus
  // the seeded chaos plan (crashes land on whatever generation hosts the
  // victim TE), must still replay bit-identically.
  for (uint64_t seed : {5ull, 11ull, 42ull}) {
    Outcome first =
        RunStack(seed, /*enable_faults=*/true, /*ctrl_faults=*/false, ClusterMode::kMixedGen);
    Outcome second =
        RunStack(seed, /*enable_faults=*/true, /*ctrl_faults=*/false, ClusterMode::kMixedGen);
    EXPECT_TRUE(first == second) << "seed " << seed << " diverged on the mixed cluster;\nfirst:\n"
                                 << first.metrics_dump << "\nsecond:\n" << second.metrics_dump;
    EXPECT_EQ(first.completed + first.errored, first.requests) << "seed " << seed;
    EXPECT_EQ(first.double_terminated, 0) << "seed " << seed;
    EXPECT_GT(first.completed, 0) << "seed " << seed;
  }
}

TEST(DeterminismTest, DifferentSeedsDiverge) {
  Outcome a = RunStack(5, /*enable_faults=*/true);
  Outcome b = RunStack(6, /*enable_faults=*/true);
  EXPECT_NE(a.timeline_hash, b.timeline_hash)
      << "different trace+fault seeds produced the same timeline";
}

}  // namespace
}  // namespace deepserve
