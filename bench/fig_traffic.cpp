// Traffic-management ablation: a flash crowd over four JE replicas with one
// slow TE, replayed under the frontend routing policies
// (src/serving/route_policy.h):
//
//   rr               blind round-robin — keeps feeding the slow replica;
//   rr+eject         round-robin plus consecutive-error outlier ejection;
//   p2c+eject        power-of-two-choices by outstanding load, plus ejection;
//   wlc+eject        weighted least-connections, plus ejection;
//   wlc+eject+hedge  wlc + ejection + straggler hedging (p95-based delay,
//                    loser cancelled across TEs).
//
// Every request carries a completion deadline and the engines run the "slo"
// scheduling policy, so the slow TE sheds the requests it can no longer meet
// — exactly the consecutive-error signal outlier ejection consumes. Reported
// per variant: goodput (in-deadline decode tokens/s), p99 TTFT, termination
// counts, ejections, and hedges.
//
// Flags (see --help): workload shape (--base-rps/--peak-rps/--period-s/
// --duration-s/--deadline-ms/--slow-factor/--seed) plus the shared traffic
// knobs (--hedge-ms/--retry-budget/--outlier-*) applied to the variants that
// use them. --smoke runs a small fixed shape and exits non-zero unless
// conservation holds everywhere, p2c+eject and wlc+eject beat plain rr on
// both goodput and p99 TTFT, and the rr+eject run replays bit-identically.

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "bench/common.h"
#include "common/time_units.h"
#include "faults/fault_injector.h"
#include "serving/frontend.h"
#include "serving/route_policy.h"

using namespace deepserve;

namespace {

struct Options {
  double base_rps = 1.0;
  double peak_rps = 6.0;
  double period_s = 15.0;
  double duration_s = 30.0;
  double deadline_ms = 10000.0;
  double slow_factor = 6.0;
  uint64_t seed = 42;
  bool smoke = false;
  bench::RouteOptions route;  // hedge/budget/outlier knobs for the variants
};

struct Variant {
  const char* label;
  const char* policy;
  bool eject;
  bool hedge;
};

constexpr Variant kVariants[] = {
    {"rr", "rr", false, false},
    {"rr+eject", "rr", true, false},
    {"p2c+eject", "p2c", true, false},
    {"wlc+eject", "wlc", true, false},
    {"wlc+eject+hedge", "wlc", true, true},
};

struct RunResult {
  int64_t completed = 0;
  int64_t errored = 0;   // post-dispatch on_error (sheds on the slow TE)
  int64_t rejected = 0;  // pre-dispatch non-OK Status
  int64_t double_terminated = 0;
  int64_t goodput_tokens = 0;  // decode tokens from in-deadline completions
  int64_t ejections = 0;
  int64_t readmissions = 0;
  int64_t hedges = 0;
  int64_t hedge_wins = 0;
  double makespan_s = 0.0;
  SampleStats ttft_ms;
  uint64_t timeline_hash = 1469598103934665603ull;

  double goodput() const {
    return makespan_s > 0 ? static_cast<double>(goodput_tokens) / makespan_s : 0.0;
  }
};

RunResult RunVariant(const Options& options, const Variant& variant,
                     const std::vector<workload::RequestSpec>& trace) {
  fleet::FleetSpec fleet_spec =
      bench::TestbedSpec(/*num_machines=*/4, serving::SchedulingPolicy::kLoadOnly);
  fleet_spec.num_jes = 4;
  fleet_spec.frontend = true;
  fleet_spec.route = options.route.ToConfig(options.seed);
  fleet_spec.route.policy = variant.policy;
  if (!variant.eject) {
    fleet_spec.route.eject_consecutive_errors = 0;
  }
  if (!variant.hedge) {
    fleet_spec.route.hedge_floor = 0;
  }
  fleet::Fleet bed(fleet_spec, bench::ActiveObs());
  flowserve::EngineConfig engine = bench::Engine34BTp4Paper(flowserve::EngineRole::kColocated);
  // Deadline-aware engines: the slow TE sheds requests it can no longer meet,
  // which is the error signal the outlier monitor consumes.
  engine.sched.policy = "slo";
  for (size_t i = 0; i < bed.num_jes(); ++i) {
    bed.AddTe(flowserve::EngineRole::kColocated, engine, i);
  }
  bed.Link();

  // The slow TE: replica 0's engine stretches every step for the whole run.
  faults::FaultInjector injector(&bed.sim(), &bed.manager(), options.seed);
  char schedule[64];
  std::snprintf(schedule, sizeof(schedule), "slow@1:%.1fx%.0f#0", options.slow_factor,
                options.duration_s);
  auto plan = faults::FaultInjector::ParseSchedule(schedule);
  if (!plan.ok()) {
    std::fprintf(stderr, "fault schedule: %s\n", plan.status().ToString().c_str());
    std::abort();
  }
  injector.ScheduleAll(*plan);

  RunResult result;
  uint64_t* hash = &result.timeline_hash;
  auto mix = [hash](uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      *hash ^= (value >> (8 * i)) & 0xff;
      *hash *= 1099511628211ull;
    }
  };
  fleet::ReplayHooks hooks;
  hooks.on_complete = [&](const workload::RequestSpec& spec, TimeNs first,
                          const flowserve::Sequence& seq) {
    mix(spec.id * 2);
    mix(static_cast<uint64_t>(seq.finish_time));
    if (seq.finish_time <= spec.deadline) {
      result.goodput_tokens += spec.decode_len;
    }
    result.ttft_ms.Add(NsToMs(first - spec.arrival));
  };
  hooks.on_error = [&](const workload::RequestSpec& spec, const Status&) { mix(spec.id * 2 + 1); };
  // A pre-dispatch rejection is this request's one termination.
  hooks.on_reject = hooks.on_error;
  bed.Replay(trace, hooks);
  result.completed = bed.tally().completed;
  result.errored = bed.tally().errored;
  result.rejected = bed.tally().rejected;
  result.double_terminated = bed.tally().double_terminated;

  const serving::FrontendStats& fe = bed.frontend()->stats();
  result.ejections = fe.ejections;
  result.readmissions = fe.readmissions;
  result.hedges = fe.hedges_launched;
  result.hedge_wins = fe.hedge_wins;
  result.makespan_s = NsToS(bed.sim().Now());
  mix(static_cast<uint64_t>(fe.ejections));
  mix(static_cast<uint64_t>(fe.hedges_launched));
  mix(static_cast<uint64_t>(bed.sim().Now()));
  if (fe.requests != fe.chat_dispatched + fe.rejected_total()) {
    std::fprintf(stderr, "%s: frontend accounting violated\n", variant.label);
    std::abort();
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  options.route.outlier_errors = 3;  // ejection on by default for the ablation
  bench::OptionRegistry registry;
  registry.Flag("base-rps", &options.base_rps, "trough arrival rate of the flash-crowd wave");
  registry.Flag("peak-rps", &options.peak_rps, "crest arrival rate of the flash-crowd wave");
  registry.Flag("period-s", &options.period_s, "wave period in seconds");
  registry.Flag("duration-s", &options.duration_s, "trace horizon in seconds");
  registry.Flag("deadline-ms", &options.deadline_ms, "per-request completion deadline");
  registry.Flag("slow-factor", &options.slow_factor,
                "step-time multiplier planted on replica 0's TE");
  registry.Flag("seed", &options.seed, "trace / p2c seed");
  registry.Flag("smoke", &options.smoke,
                "small fixed run; exits non-zero unless conservation holds, p2c/wlc "
                "beat rr on goodput and p99 TTFT, and rr+eject replays bit-identically");
  options.route.hedge_ms = 2000.0;  // hedge only true stragglers at this scale
  options.route.Register(registry);
  std::vector<char*> obs_args = registry.Parse(argc, argv);
  if (options.smoke) {
    options.base_rps = 1.0;
    options.peak_rps = 5.0;
    options.period_s = 10.0;
    options.duration_s = 40.0;
    options.deadline_ms = 12000.0;
    options.slow_factor = 3.0;            // slow enough to hurt, not to shed everything
    options.route.outlier_base_s = 15.0;  // keep the slow TE benched once caught
  }
  bench::ObsSession obs(static_cast<int>(obs_args.size()), obs_args.data());

  bench::PrintHeader("Traffic management: flash crowd + one slow TE, routing "
                     "policies ablated");

  workload::TraceConfig trace_config =
      workload::TraceGenerator::InternalTrace(options.base_rps, options.duration_s,
                                              options.seed);
  std::vector<workload::RequestSpec> trace =
      workload::TraceGenerator(trace_config)
          .GenerateBursty(options.base_rps, options.peak_rps, options.period_s,
                          /*sharpness=*/3.0);
  for (auto& spec : trace) {
    spec.deadline = spec.arrival + MsToNs(options.deadline_ms);
  }

  std::printf("workload: %zu requests, %.1f->%.1f RPS bursts over %.0fs; replica 0 "
              "runs %.1fx slow; deadline %.0fms (seed %" PRIu64 ")\n",
              trace.size(), options.base_rps, options.peak_rps, options.duration_s,
              options.slow_factor, options.deadline_ms, options.seed);
  bench::PrintRule();
  std::printf("%-16s %5s %5s %5s %10s %10s %7s %7s\n", "variant", "done", "err", "rej",
              "goodput", "p99 TTFT", "ejects", "hedges");
  std::printf("%-16s %5s %5s %5s %10s %10s %7s %7s\n", "", "", "", "", "(tok/s)", "(ms)", "",
              "");
  bench::PrintRule();

  std::map<std::string, RunResult> results;
  int64_t submitted = static_cast<int64_t>(trace.size());
  bool conserved = true;
  for (const Variant& variant : kVariants) {
    RunResult result = RunVariant(options, variant, trace);
    std::printf("%-16s %5" PRId64 " %5" PRId64 " %5" PRId64 " %10.1f %10.1f %7" PRId64
                " %7" PRId64 "\n",
                variant.label, result.completed, result.errored, result.rejected,
                result.goodput(), result.ttft_ms.p99(), result.ejections, result.hedges);
    conserved = conserved &&
                result.completed + result.errored + result.rejected == submitted &&
                result.double_terminated == 0;
    results[variant.label] = result;
  }
  bench::PrintRule();

  if (options.smoke) {
    if (!conserved) {
      std::fprintf(stderr, "CONSERVATION VIOLATED in at least one variant\n");
      return 1;
    }
    const RunResult& rr = results["rr"];
    const RunResult& p2c = results["p2c+eject"];
    const RunResult& wlc = results["wlc+eject"];
    if (!(p2c.goodput() > rr.goodput() && wlc.goodput() > rr.goodput())) {
      std::fprintf(stderr,
                   "GOODPUT REGRESSION: rr=%.1f p2c+eject=%.1f wlc+eject=%.1f tok/s\n",
                   rr.goodput(), p2c.goodput(), wlc.goodput());
      return 1;
    }
    if (!(p2c.ttft_ms.p99() < rr.ttft_ms.p99() && wlc.ttft_ms.p99() < rr.ttft_ms.p99())) {
      std::fprintf(stderr, "P99 TTFT REGRESSION: rr=%.1f p2c+eject=%.1f wlc+eject=%.1f ms\n",
                   rr.ttft_ms.p99(), p2c.ttft_ms.p99(), wlc.ttft_ms.p99());
      return 1;
    }
    if (results["rr+eject"].ejections <= 0) {
      std::fprintf(stderr, "EJECTION NO-OP: the slow TE was never ejected\n");
      return 1;
    }
    RunResult replay = RunVariant(options, kVariants[1], trace);  // rr+eject
    if (replay.timeline_hash != results["rr+eject"].timeline_hash) {
      std::fprintf(stderr, "REPLAY DIVERGED: rr+eject is not bit-identical\n");
      return 1;
    }
    std::printf("smoke: conservation + policy ordering + ejection + bit-identical "
                "replay all hold\n");
  }
  return 0;
}
