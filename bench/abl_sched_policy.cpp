// Scheduling-policy ablation: the same overloaded trace replayed under the
// three engine scheduling policies (src/flowserve/sched/):
//
//   fcfs              the historical engine behaviour (service-class FCFS,
//                     no deadline awareness, no chunk bounding);
//   slo               EDF admission + TBT-bounded prefill chunks + shedding
//                     of expired/unmeetable requests (DEADLINE_EXCEEDED);
//   priority-preempt  strict service classes: admission of a higher class
//                     may evict strictly lower classes.
//
// Every request carries a completion deadline (arrival + --deadline-ms) and a
// service class (interactive/normal/batch round-robin). The fleet is driven
// past saturation, so fcfs blows deadlines across the board, slo sheds the
// unmeetable tail to protect goodput, and priority-preempt protects the
// interactive class's TTFT. Reported per policy: goodput (in-deadline
// tokens/s), p99 TTFT/TBT, shed rate, and the worst decode-bearing step.
//
// Flags (in addition to the ObsSession observability flags):
//   --rps=R          offered load (default 2.5; fleet saturates ~1)
//   --duration-s=D   trace horizon (default 20)
//   --deadline-ms=X  per-request completion deadline (default 15000)
//   --tbt-ms=X       slo TBT budget for decode-bearing steps (default 250)
//   --seed=N         trace seed (default 42)
//   --policy=P       run only one policy (default: all three)
//   --smoke          small fixed run; exits non-zero unless conservation
//                    holds, slo keeps max_decode_step under the budget while
//                    shedding via on_error, and the slo run replays
//                    bit-identically

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "bench/common.h"
#include "common/time_units.h"
#include "serving/frontend.h"

using namespace deepserve;

namespace {

struct Options {
  double rps = 2.5;
  double duration_s = 20.0;
  double deadline_ms = 15000.0;
  double tbt_ms = 250.0;
  uint64_t seed = 42;
  std::string policy;  // empty = all
  bool smoke = false;
};

struct RunResult {
  int64_t submitted = 0;
  int64_t completed = 0;
  int64_t errored = 0;  // on_error terminations (sheds + pre-dispatch rejects)
  int64_t double_terminated = 0;
  int64_t shed = 0;             // engine-level policy sheds
  int64_t deadline_misses = 0;  // engine-level (late finishes + expired sheds)
  int64_t tbt_violations = 0;
  DurationNs max_decode_step = 0;
  int64_t goodput_tokens = 0;  // decode tokens from in-deadline completions
  double makespan_s = 0.0;
  SampleStats ttft_ms;
  SampleStats ttft_interactive_ms;
  SampleStats tbt_ms;
  TimeNs end_time = 0;
  uint64_t timeline_hash = 0;

  double goodput() const {
    return makespan_s > 0 ? static_cast<double>(goodput_tokens) / makespan_s : 0.0;
  }
  double shed_rate() const {
    return submitted > 0 ? static_cast<double>(shed) / static_cast<double>(submitted) : 0.0;
  }
};

RunResult RunPolicy(const Options& options, const std::string& policy,
                    const std::vector<workload::RequestSpec>& trace) {
  fleet::FleetSpec fleet_spec =
      bench::TestbedSpec(/*num_machines=*/1, serving::SchedulingPolicy::kLoadOnly);
  fleet_spec.frontend = true;
  fleet::Fleet bed(fleet_spec, bench::ActiveObs());
  flowserve::EngineConfig engine = bench::Engine34BTp4Paper(flowserve::EngineRole::kColocated);
  engine.sched.policy = policy;
  engine.sched.tbt_budget_ms = options.tbt_ms;
  // The ablation reports engine-level shed/TBT counters off this TE.
  serving::TaskExecutor* te = bed.AddTe(flowserve::EngineRole::kColocated, engine);
  bed.Link();

  RunResult result;
  result.submitted = static_cast<int64_t>(trace.size());
  uint64_t hash = 1469598103934665603ull;
  auto mix = [&hash](uint64_t v) {
    hash ^= v;
    hash *= 1099511628211ull;
  };
  fleet::ReplayHooks hooks;
  hooks.on_complete = [&](const workload::RequestSpec& spec, TimeNs first,
                          const flowserve::Sequence& seq) {
    mix(spec.id * 2);
    mix(static_cast<uint64_t>(seq.finish_time));
    if (spec.deadline == 0 || seq.finish_time <= spec.deadline) {
      result.goodput_tokens += spec.decode_len;
    }
    double ttft = NsToMs(first - spec.arrival);
    result.ttft_ms.Add(ttft);
    if (spec.priority == 0) {
      result.ttft_interactive_ms.Add(ttft);
    }
    if (spec.decode_len > 1) {
      result.tbt_ms.Add(NsToMs(seq.finish_time - first) /
                        static_cast<double>(spec.decode_len - 1));
    }
  };
  hooks.on_error = [&](const workload::RequestSpec& spec, const Status&) { mix(spec.id * 2 + 1); };
  // A pre-dispatch rejection is folded into the error terminations.
  hooks.on_reject = hooks.on_error;
  bed.Replay(trace, hooks);
  result.completed = bed.tally().completed;
  result.errored = bed.tally().errored + bed.tally().rejected;
  result.double_terminated = bed.tally().double_terminated;

  const flowserve::EngineStats& stats = te->engine().stats();
  result.shed = stats.shed;
  result.deadline_misses = stats.deadline_misses;
  result.tbt_violations = stats.tbt_violations;
  result.max_decode_step = stats.max_decode_step;
  result.end_time = bed.sim().Now();
  result.makespan_s = NsToS(result.end_time);
  mix(static_cast<uint64_t>(result.shed));
  mix(static_cast<uint64_t>(result.end_time));
  result.timeline_hash = hash;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  bench::OptionRegistry registry;
  registry.Flag("rps", &options.rps, "offered load (fleet saturates ~1)");
  registry.Flag("duration-s", &options.duration_s, "trace horizon in seconds");
  registry.Flag("deadline-ms", &options.deadline_ms, "per-request completion deadline");
  registry.Flag("tbt-ms", &options.tbt_ms, "slo TBT budget for decode-bearing steps");
  registry.Flag("seed", &options.seed, "trace seed");
  registry.Flag("policy", &options.policy,
                "run only one policy: fcfs | slo | priority-preempt (default: all)");
  registry.Flag("smoke", &options.smoke,
                "small fixed run that exits non-zero on conservation/TBT/replay failures");
  std::vector<char*> obs_args = registry.Parse(argc, argv);
  if (options.smoke) {
    options.rps = 2.5;
    options.duration_s = 8.0;
    options.deadline_ms = 8000.0;
  }
  bench::ObsSession obs(static_cast<int>(obs_args.size()), obs_args.data());

  bench::PrintHeader("Ablation: engine scheduling policy under overload "
                     "(fcfs vs slo vs priority-preempt)");

  workload::TraceConfig trace_config =
      workload::TraceGenerator::InternalTrace(options.rps, options.duration_s, options.seed);
  std::vector<workload::RequestSpec> trace = workload::TraceGenerator(trace_config).Generate();
  TimeNs deadline_budget = MsToNs(options.deadline_ms);
  for (size_t i = 0; i < trace.size(); ++i) {
    // Every request gets a completion deadline and a service class
    // (interactive / normal / batch, round-robin).
    trace[i].deadline = trace[i].arrival + deadline_budget;
    trace[i].priority = static_cast<int>(i % 3);
  }
  std::printf("workload: %zu requests at %.1f RPS over %.0fs, deadline %+.0f ms, "
              "TBT budget %.0f ms (seed %" PRIu64 ")\n",
              trace.size(), options.rps, options.duration_s, options.deadline_ms, options.tbt_ms,
              options.seed);

  std::vector<std::string> policies;
  if (!options.policy.empty()) {
    policies.push_back(options.policy);
  } else {
    policies = {"fcfs", "slo", "priority-preempt"};
  }

  std::map<std::string, RunResult> results;
  for (const std::string& policy : policies) {
    results.emplace(policy, RunPolicy(options, policy, trace));
  }

  bench::PrintRule();
  std::printf("%-28s", "metric");
  for (const std::string& policy : policies) {
    std::printf(" %16s", policy.c_str());
  }
  std::printf("\n");
  bench::PrintRule();
  auto row_i = [&](const char* label, auto getter) {
    std::printf("%-28s", label);
    for (const std::string& policy : policies) {
      std::printf(" %16" PRId64, static_cast<int64_t>(getter(results.at(policy))));
    }
    std::printf("\n");
  };
  auto row_f = [&](const char* label, auto getter) {
    std::printf("%-28s", label);
    for (const std::string& policy : policies) {
      std::printf(" %16.1f", static_cast<double>(getter(results.at(policy))));
    }
    std::printf("\n");
  };
  row_i("completed", [](const RunResult& r) { return r.completed; });
  row_i("errored (on_error)", [](const RunResult& r) { return r.errored; });
  row_i("shed by policy", [](const RunResult& r) { return r.shed; });
  row_f("shed rate (%)", [](const RunResult& r) { return 100.0 * r.shed_rate(); });
  row_i("deadline misses", [](const RunResult& r) { return r.deadline_misses; });
  row_f("goodput (in-deadline tok/s)", [](const RunResult& r) { return r.goodput(); });
  row_f("p99 TTFT (ms)", [](const RunResult& r) { return r.ttft_ms.p99(); });
  row_f("p99 TTFT interactive (ms)",
        [](const RunResult& r) { return r.ttft_interactive_ms.p99(); });
  row_f("p99 TBT (ms)", [](const RunResult& r) { return r.tbt_ms.p99(); });
  row_f("max decode step (ms)",
        [](const RunResult& r) { return NsToMs(r.max_decode_step); });
  row_i("TBT budget violations", [](const RunResult& r) { return r.tbt_violations; });
  row_f("makespan (s)", [](const RunResult& r) { return r.makespan_s; });
  bench::PrintRule();

  if (options.smoke) {
    bool ok = true;
    for (const std::string& policy : policies) {
      const RunResult& r = results.at(policy);
      if (r.completed + r.errored != r.submitted || r.double_terminated != 0) {
        std::fprintf(stderr,
                     "CONSERVATION VIOLATED (%s): submitted=%" PRId64 " completed=%" PRId64
                     " errored=%" PRId64 " double_terminated=%" PRId64 "\n",
                     policy.c_str(), r.submitted, r.completed, r.errored, r.double_terminated);
        ok = false;
      }
    }
    if (results.count("slo") != 0) {
      const RunResult& slo = results.at("slo");
      if (slo.max_decode_step > MsToNs(options.tbt_ms)) {
        std::fprintf(stderr,
                     "TBT BOUND VIOLATED: slo max_decode_step %.1f ms > budget %.1f ms\n",
                     NsToMs(slo.max_decode_step), options.tbt_ms);
        ok = false;
      }
      if (slo.shed == 0 || slo.shed != slo.errored) {
        std::fprintf(stderr,
                     "SHED PATH NOT EXERCISED: shed=%" PRId64 " errored=%" PRId64
                     " (every shed must surface via on_error)\n",
                     slo.shed, slo.errored);
        ok = false;
      }
      RunResult replay = RunPolicy(options, "slo", trace);
      if (replay.timeline_hash != slo.timeline_hash || replay.end_time != slo.end_time) {
        std::fprintf(stderr, "NON-DETERMINISTIC: slo replay diverged (hash %016" PRIx64
                             " vs %016" PRIx64 ")\n",
                     replay.timeline_hash, slo.timeline_hash);
        ok = false;
      }
    }
    if (results.count("fcfs") != 0 && results.count("slo") != 0 &&
        results.at("fcfs").max_decode_step <= MsToNs(options.tbt_ms)) {
      std::fprintf(stderr, "ABLATION VACUOUS: fcfs max_decode_step %.1f ms already under "
                           "the %.1f ms budget\n",
                   NsToMs(results.at("fcfs").max_decode_step), options.tbt_ms);
      ok = false;
    }
    if (!ok) {
      return 1;
    }
    std::printf("smoke: conservation, slo TBT bound (%.0f ms), shed-via-on_error, and "
                "bit-identical replay all hold\n",
                options.tbt_ms);
  }
  return 0;
}
