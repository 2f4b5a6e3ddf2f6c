// Control-plane failover: MTTR and goodput with the CM leader crashed in the
// middle of a flash crowd, replicated vs single-replica ablation.
//
// Both modes run the same scenario — a colocated fleet under a bursty flash
// crowd, a cm@ leader crash at the peak, and a TE crash while the control
// plane is down. With --ctrl-replicas >= 2 a standby replays the shared log,
// waits out the lease, and takes over: the TE death is detected at takeover
// and a replacement is scaled up, so goodput dips and recovers. With one
// replica the control plane never comes back: the TE crash goes undetected,
// no replacement is built, and the requests that died with the TE hang
// forever — detection is what turns data loss into a client-visible error,
// and detection is a control-plane act. Conservation is therefore strict in
// the replicated mode (every request terminates exactly once) and accounted
// in the ablation (terminations + undetected in-flight losses == submitted).
//
// Flags (in addition to the ObsSession observability flags):
//   --ctrl-replicas=N     control-log replicas for the replicated run
//                         (default 3; the ablation always also runs 1)
//   --ctrl-latency-ms=X   control-log replication latency (default 1)
//   --ctrl-lease-ms=X     leader lease a standby waits out (default 500)
//   --fault-schedule=SPEC fault plan (default "cm@6;npu@9": leader crash at
//                         the crowd peak, TE crash during the outage)
//   --seed=N              trace seed (default 42)
//   --rps=R --peak-rps=P --duration-s=D   flash-crowd shape
//   --smoke               fixed small run; exits non-zero unless both modes
//                         conserve requests, the replicated run fails over,
//                         and a second replicated run replays bit-identically

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/common.h"
#include "common/time_units.h"
#include "faults/fault_injector.h"

using namespace deepserve;

namespace {

struct Options {
  bench::CtrlOptions ctrl;
  std::string schedule = "cm@6;npu@9";
  uint64_t seed = 42;
  double rps = 2.0;
  double peak_rps = 10.0;
  double duration_s = 20.0;
  bool smoke = false;
};

struct RunResult {
  int64_t submitted = 0;
  int64_t completed = 0;
  int64_t errored = 0;
  int64_t double_terminated = 0;
  int64_t goodput_tokens = 0;
  uint64_t timeline_hash = 0;
  double makespan_s = 0.0;
  serving::ClusterManagerStats cm;
  serving::JeStats je;

  bool Replays(const RunResult& other) const {
    return submitted == other.submitted && completed == other.completed &&
           errored == other.errored && timeline_hash == other.timeline_hash &&
           cm.cm_failovers == other.cm.cm_failovers &&
           cm.replacements == other.cm.replacements;
  }
};

RunResult RunOnce(const Options& options, int replicas) {
  fleet::FleetSpec fleet_spec =
      bench::TestbedSpec(/*num_machines=*/4, serving::SchedulingPolicy::kLoadOnly);
  bench::CtrlOptions ablated = options.ctrl;
  ablated.replicas = replicas;
  fleet_spec.ctrl = ablated.ToConfig();
  fleet::Fleet bed(fleet_spec, bench::ActiveObs());
  serving::JobExecutor& je = bed.je();
  serving::ClusterManager& manager = bed.manager();

  flowserve::EngineConfig engine = bench::Engine34BTp4Paper(flowserve::EngineRole::kColocated);
  bed.AddTes(engine, /*colocated=*/3, /*prefill=*/0, /*decode=*/0);
  bed.Link();

  serving::FaultDetectionConfig detection;
  detection.missed_heartbeats = 3;
  detection.heartbeat_interval = MsToNs(500);
  manager.SetFaultDetection(detection);
  serving::ScaleRequest replacement;
  replacement.engine = engine;
  manager.SetReplacementPolicy(replacement,
                               [&je](serving::TaskExecutor* te) { je.AddColocatedTe(te); });
  manager.ReservePrewarmedPods(8);
  manager.ReservePrewarmedTes(8);
  for (int m = 0; m < bed.cluster().num_machines(); ++m) {
    manager.PreloadModelToDram(m, engine.model);
  }
  bed.sim().Run();

  workload::TraceConfig trace_config =
      workload::TraceGenerator::InternalTrace(options.rps, options.duration_s, options.seed);
  std::vector<workload::RequestSpec> trace =
      workload::TraceGenerator(trace_config)
          .GenerateBursty(options.rps, options.peak_rps, options.duration_s / 2.0);
  const TimeNs t0 = bed.sim().Now();

  // Preloading advanced sim time; schedule clauses are relative to the trace
  // start, so shift the plan (and below, the arrivals) by t0.
  faults::FaultInjector injector(&bed.sim(), &manager, options.seed);
  injector.RegisterJobExecutor(&je);
  auto plan = faults::FaultInjector::ParseSchedule(options.schedule);
  if (!plan.ok()) {
    std::fprintf(stderr, "--fault-schedule: %s\n", plan.status().ToString().c_str());
    std::exit(2);
  }
  for (auto& event : *plan) {
    event.time += t0;
  }
  injector.ScheduleAll(*plan);

  RunResult result;
  result.submitted = static_cast<int64_t>(trace.size());
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
    result.goodput_tokens += spec.decode_len;
    mix(spec.id);
    mix(static_cast<uint64_t>(seq.first_token_time));
    mix(static_cast<uint64_t>(seq.finish_time));
  };
  hooks.on_error = [&](const workload::RequestSpec& spec, const Status&) { mix(spec.id * 2 + 1); };
  bed.Replay(trace, hooks);
  result.completed = bed.tally().completed;
  result.errored = bed.tally().errored;
  result.double_terminated = bed.tally().double_terminated;

  result.timeline_hash = hash;
  result.makespan_s = NsToS(bed.sim().Now() - t0);
  result.cm = manager.stats();
  result.je = je.stats();
  return result;
}

void PrintRun(const char* label, const RunResult& r) {
  std::printf("%-34s %14s\n", label, "");
  bench::PrintRule();
  std::printf("%-34s %14" PRId64 "\n", "requests submitted", r.submitted);
  std::printf("%-34s %14" PRId64 "\n", "completed", r.completed);
  std::printf("%-34s %14" PRId64 "\n", "errored (on_error)", r.errored);
  std::printf("%-34s %14" PRId64 "\n", "CM leader crashes", r.cm.cm_crashes);
  std::printf("%-34s %14" PRId64 "\n", "CM failovers", r.cm.cm_failovers);
  std::printf("%-34s %14.1f\n", "CM outage total (ms)", NsToMs(r.cm.cm_outage_total));
  std::printf("%-34s %14" PRId64 "\n", "control ops deferred", r.cm.deferred_ops);
  std::printf("%-34s %14" PRId64 "\n", "JE leader crashes", r.je.je_crashes);
  std::printf("%-34s %14" PRId64 "\n", "JE failovers", r.je.je_failovers);
  std::printf("%-34s %14" PRId64 "\n", "TE crashes", r.cm.crashes);
  std::printf("%-34s %14" PRId64 "\n", "TE crashes detected", r.cm.detections);
  std::printf("%-34s %14" PRId64 "\n", "replacement TEs readied", r.cm.replacements);
  std::printf("%-34s %14.1f\n", "TE replacement MTTR (ms)", r.cm.mean_mttr_ms());
  std::printf("%-34s %14" PRId64 "\n", "in-flight requests lost", r.cm.lost_requests);
  std::printf("%-34s %14" PRId64 "\n", "hung (lost, never detected)",
              r.submitted - r.completed - r.errored);
  std::printf("%-34s %14.1f\n", "makespan (s)", r.makespan_s);
  std::printf("%-34s %14.1f\n", "goodput (completed tok/s)",
              r.makespan_s > 0 ? static_cast<double>(r.goodput_tokens) / r.makespan_s : 0.0);
  bench::PrintRule();
}

bool Conserved(const RunResult& r) {
  return r.completed + r.errored == r.submitted && r.double_terminated == 0;
}

// The single-replica invariant: requests may hang (their TE died while the
// control plane was down for good, so no failure handler ever fires), but
// only those — the hung count must equal the undetected in-flight losses.
bool AccountedFor(const RunResult& r) {
  return r.completed + r.errored + r.cm.lost_requests == r.submitted &&
         r.double_terminated == 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  options.ctrl.replicas = 3;  // this bench's point is the replicated mode
  bench::OptionRegistry registry;
  options.ctrl.Register(registry);
  registry.Flag("fault-schedule", &options.schedule,
                "fault plan; cm@T crashes the CM leader, je@T[:k] a JE leader");
  registry.Flag("seed", &options.seed, "trace seed");
  registry.Flag("rps", &options.rps, "flash-crowd base arrival rate");
  registry.Flag("peak-rps", &options.peak_rps, "flash-crowd peak arrival rate");
  registry.Flag("duration-s", &options.duration_s, "trace duration in seconds");
  registry.Flag("smoke", &options.smoke,
                "small fixed run; non-zero exit on conservation/failover/replay failure");
  std::vector<char*> obs_args = registry.Parse(argc, argv);
  if (options.smoke) {
    options.rps = 2.0;
    options.peak_rps = 8.0;
    options.duration_s = 12.0;
    options.schedule = "cm@4;npu@6";
  }
  bench::ObsSession obs(static_cast<int>(obs_args.size()), obs_args.data());

  bench::PrintHeader("Control-plane failover: CM leader crash mid-flash-crowd "
                     "(replicated vs single replica)");
  std::printf("schedule \"%s\", %.1f->%.1f RPS over %.0fs, lease %.0fms, "
              "replication latency %.1fms\n",
              options.schedule.c_str(), options.rps, options.peak_rps, options.duration_s,
              options.ctrl.lease_ms, options.ctrl.latency_ms);
  bench::PrintRule();

  RunResult replicated = RunOnce(options, options.ctrl.replicas);
  char label[64];
  std::snprintf(label, sizeof(label), "MODE: replicated (x%d)", options.ctrl.replicas);
  PrintRun(label, replicated);
  RunResult single = RunOnce(options, 1);
  PrintRun("MODE: single replica", single);

  double mttr_ms = replicated.cm.cm_failovers > 0
                       ? NsToMs(replicated.cm.cm_outage_total) /
                             static_cast<double>(replicated.cm.cm_failovers)
                       : 0.0;
  std::printf("failover MTTR: %.1f ms per CM crash (single replica: outage is "
              "permanent); replacements %" PRId64 " vs %" PRId64 "\n",
              mttr_ms, replicated.cm.replacements, single.cm.replacements);

  if (options.smoke) {
    RunResult replay = RunOnce(options, options.ctrl.replicas);
    bool ok = true;
    if (!Conserved(replicated) || !AccountedFor(single)) {
      std::fprintf(stderr,
                   "CONSERVATION VIOLATED: replicated %" PRId64 "+%" PRId64 "/%" PRId64
                   " (x2 %" PRId64 "), single %" PRId64 "+%" PRId64 "/%" PRId64
                   " (x2 %" PRId64 ")\n",
                   replicated.completed, replicated.errored, replicated.submitted,
                   replicated.double_terminated, single.completed, single.errored,
                   single.submitted, single.double_terminated);
      ok = false;
    }
    if (replicated.cm.cm_crashes < 1 ||
        replicated.cm.cm_failovers != replicated.cm.cm_crashes) {
      std::fprintf(stderr, "FAILOVER MISSING: %" PRId64 " crashes, %" PRId64 " failovers\n",
                   replicated.cm.cm_crashes, replicated.cm.cm_failovers);
      ok = false;
    }
    if (single.cm.cm_failovers != 0) {
      std::fprintf(stderr, "single-replica run failed over (%" PRId64 ")?\n",
                   single.cm.cm_failovers);
      ok = false;
    }
    if (!replicated.Replays(replay)) {
      std::fprintf(stderr, "REPLAY DIVERGED: hash %016" PRIx64 " vs %016" PRIx64 "\n",
                   replicated.timeline_hash, replay.timeline_hash);
      ok = false;
    }
    if (!ok) return 1;
    std::printf("smoke: conservation + failover + bit-identical replay hold "
                "(%" PRId64 " requests, hash %016" PRIx64 ")\n",
                replicated.submitted, replicated.timeline_hash);
  }
  return 0;
}
