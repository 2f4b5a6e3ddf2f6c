// Goodput under chaos: a colocated serving fleet driven at a fixed RPS while
// a deterministic fault plan crashes TEs, degrades links, and plants
// stragglers. Recovery is the full pipeline — heartbeat detection, JE
// re-dispatch, replacement scale-up — and the output table reports goodput,
// lost work, and MTTR. The run is bit-identical for a given --fault-seed /
// --fault-schedule; --no-faults reproduces the fault-free baseline.
//
// Flags (in addition to the ObsSession observability flags):
//   --fault-seed=N        master seed for the generated chaos plan (default 42)
//   --fault-schedule=SPEC explicit plan, e.g. "npu@5;link@10:0.25x20;slow@30:3x10"
//                         (overrides --fault-seed's generated plan)
//   --detect-ms=X         NPU-crash detection latency target in ms (default
//                         1500 = 3 missed 500ms heartbeats); shell crashes
//                         detect at X/10
//   --no-faults           disable injection (baseline run)
//   --rps=R --duration-s=D  workload shape (default 6 RPS for 20s)
//   --smoke               small fixed run that exits non-zero if any accepted
//                         request fails to terminate in exactly one of
//                         on_complete / on_error (CI conservation check)

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench/common.h"
#include "common/time_units.h"
#include "faults/fault_injector.h"
#include "serving/frontend.h"

using namespace deepserve;

namespace {

struct Options {
  uint64_t fault_seed = 42;
  std::string schedule;
  double detect_ms = 1500.0;
  bool no_faults = false;
  bool smoke = false;
  double rps = 6.0;
  double duration_s = 20.0;
};

}  // namespace

int main(int argc, char** argv) {
  Options options;
  bench::OptionRegistry registry;
  registry.Flag("fault-seed", &options.fault_seed,
                "master seed for the generated chaos plan");
  registry.Flag("fault-schedule", &options.schedule,
                "explicit plan, e.g. \"npu@5;link@10:0.25x20;slow@30:3x10\" "
                "(overrides --fault-seed's generated plan)");
  registry.Flag("detect-ms", &options.detect_ms,
                "NPU-crash detection latency target in ms (shell crashes detect at /10)");
  registry.Flag("rps", &options.rps, "request arrival rate");
  registry.Flag("duration-s", &options.duration_s, "trace duration in seconds");
  registry.Flag("no-faults", &options.no_faults, "disable injection (baseline run)");
  registry.Flag("smoke", &options.smoke,
                "small fixed run that exits non-zero on a conservation violation");
  std::vector<char*> obs_args = registry.Parse(argc, argv);
  if (options.smoke) {
    options.rps = 4.0;
    options.duration_s = 10.0;
  }
  bench::ObsSession obs(static_cast<int>(obs_args.size()), obs_args.data());

  bench::PrintHeader("Fault recovery: goodput under chaos (detection -> "
                     "re-dispatch -> re-scale)");

  fleet::FleetSpec fleet_spec =
      bench::TestbedSpec(/*num_machines=*/4, serving::SchedulingPolicy::kLoadOnly);
  fleet_spec.frontend = true;
  fleet::Fleet bed(fleet_spec, bench::ActiveObs());
  flowserve::EngineConfig engine = bench::Engine34BTp4Paper(flowserve::EngineRole::kColocated);
  bed.AddTes(engine, /*colocated=*/4, /*prefill=*/0, /*decode=*/0);
  bed.Link();

  serving::JobExecutor& je = bed.je();
  serving::ClusterManager& manager = bed.manager();
  serving::FaultDetectionConfig detection;
  detection.missed_heartbeats = 3;
  detection.heartbeat_interval = MsToNs(options.detect_ms / 3.0);
  detection.shell_crash_detect_latency = MsToNs(options.detect_ms / 10.0);
  manager.SetFaultDetection(detection);
  serving::ScaleRequest replacement;
  replacement.engine = engine;
  manager.SetReplacementPolicy(replacement,
                               [&je](serving::TaskExecutor* te) { je.AddColocatedTe(te); });
  // Fast re-scale (§6): pre-warmed pods/TEs plus weights already DRAM-resident
  // (the steady state of a serving fleet) turn a tens-of-seconds cold
  // replacement into seconds, so MTTR ~ detection latency + warm scale-up.
  manager.ReservePrewarmedPods(8);
  manager.ReservePrewarmedTes(8);
  for (int m = 0; m < bed.cluster().num_machines(); ++m) {
    bed.cluster().machine(m)->page_cache().Insert(engine.model.name,
                                                  engine.model.WeightBytes(), bed.sim().Now());
  }

  faults::FaultInjector injector(&bed.sim(), &manager, options.fault_seed);
  std::vector<faults::FaultEvent> plan;
  if (!options.no_faults) {
    if (!options.schedule.empty()) {
      auto parsed = faults::FaultInjector::ParseSchedule(options.schedule);
      if (!parsed.ok()) {
        std::fprintf(stderr, "--fault-schedule: %s\n", parsed.status().ToString().c_str());
        return 1;
      }
      plan = *parsed;
    } else {
      faults::FaultPlanConfig config;
      config.count = 5;
      config.window_start = SToNs(1);
      config.window_end = SToNs(options.duration_s);
      plan = faults::FaultInjector::GeneratePlan(options.fault_seed, config);
    }
    injector.ScheduleAll(plan);
  }

  workload::TraceConfig trace_config =
      workload::TraceGenerator::InternalTrace(options.rps, options.duration_s);
  std::vector<workload::RequestSpec> trace = workload::TraceGenerator(trace_config).Generate();

  int64_t goodput_tokens = 0;
  fleet::ReplayHooks hooks;
  hooks.on_complete = [&](const workload::RequestSpec& spec, TimeNs, const flowserve::Sequence&) {
    goodput_tokens += spec.decode_len;
  };
  bed.Replay(trace, hooks);
  // A pre-dispatch rejection is its request's one termination.
  const auto [completed, errored, rejected, double_terminated] = bed.tally();

  double makespan_s = NsToS(bed.sim().Now());
  const serving::ClusterManagerStats& cm = manager.stats();
  const serving::FrontendStats& fe = bed.frontend()->stats();
  std::printf("workload: %zu requests at %.1f RPS over %.0fs  (fault seed %" PRIu64 "%s)\n",
              trace.size(), options.rps, options.duration_s, options.fault_seed,
              options.no_faults ? ", faults DISABLED" : "");
  if (!plan.empty()) {
    std::printf("fault plan:\n");
    for (const auto& event : plan) {
      std::printf("  t=%6.2fs  %-14s factor=%.2f duration=%.1fs target=%d\n",
                  NsToMs(event.time) / 1000.0,
                  std::string(faults::FaultKindToString(event.kind)).c_str(), event.factor,
                  NsToMs(event.duration) / 1000.0, event.target);
    }
  }
  bench::PrintRule();
  std::printf("%-34s %12s\n", "metric", "value");
  bench::PrintRule();
  std::printf("%-34s %12" PRId64 "\n", "requests submitted", fe.requests);
  std::printf("%-34s %12" PRId64 "\n", "dispatched", fe.chat_dispatched);
  std::printf("%-34s %12" PRId64 "\n", "rejected pre-dispatch", fe.rejected_total());
  std::printf("%-34s %12" PRId64 "\n", "completed", completed);
  std::printf("%-34s %12" PRId64 "\n", "errored (on_error)", errored);
  std::printf("%-34s %12" PRId64 "\n", "JE re-dispatches", je.stats().retries);
  std::printf("%-34s %12" PRId64 "\n", "TE crashes", cm.crashes);
  std::printf("%-34s %12" PRId64 "\n", "crashes detected", cm.detections);
  std::printf("%-34s %12" PRId64 "\n", "replacement TEs readied", cm.replacements);
  std::printf("%-34s %12" PRId64 "\n", "in-flight requests lost", cm.lost_requests);
  std::printf("%-34s %12" PRId64 "\n", "KV tokens destroyed", cm.lost_kv_tokens);
  std::printf("%-34s %12.1f\n", "mean MTTR (ms)", cm.mean_mttr_ms());
  std::printf("%-34s %12.1f\n", "makespan (s)", makespan_s);
  std::printf("%-34s %12.1f\n", "goodput (completed tok/s)",
              makespan_s > 0 ? static_cast<double>(goodput_tokens) / makespan_s : 0.0);
  bench::PrintRule();

  if (options.smoke) {
    int64_t submitted = static_cast<int64_t>(trace.size());
    bool conserved = completed + errored + rejected == submitted && double_terminated == 0 &&
                     fe.requests == fe.chat_dispatched + fe.rejected_total();
    if (!conserved) {
      std::fprintf(stderr,
                   "CONSERVATION VIOLATED: submitted=%" PRId64 " completed=%" PRId64
                   " errored=%" PRId64 " rejected=%" PRId64 " double_terminated=%" PRId64 "\n",
                   submitted, completed, errored, rejected, double_terminated);
      return 1;
    }
    std::printf("smoke: conservation holds (%" PRId64 " completed + %" PRId64 " errored + %" PRId64
                " rejected == %" PRId64 " submitted, 0 double-terminations)\n",
                completed, errored, rejected, submitted);
  }
  return 0;
}
