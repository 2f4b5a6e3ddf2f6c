// Autoscaler policy comparison on a bursty diurnal trace (§6: serverless
// scaling must absorb traffic swings without keeping peak capacity resident).
//
// The same non-homogeneous Poisson trace — rate(t) sweeping base_rps..peak_rps
// on a sinusoid — is replayed against the three ScalePolicy implementations
// (src/serving/autoscaler.h):
//
//   reactive     scale on the *current* queue depth — the historical tick.
//                During a burst ramp it only reacts once queues have already
//                built, so every scale-up arrives one lead time late;
//   predictive   EWMA + slope forecast of the admission rate, evaluated at
//                now + EstimateScaleUpLead(), plus pre-warmed headroom — the
//                capacity is ready when the burst lands;
//   slo          scale on the observed TTFT/TBT/deadline violation rate.
//
// Reported per policy: p99/p50 TTFT, TTFT-SLO violations (bench-side, vs
// --ttft-slo-ms), TE-seconds consumed over the trace window (capacity cost,
// sampled at 500 ms), scale-up/-down counts, and graceful-drain stats.
//
// Flags (plus the ObsSession observability flags):
//   --base-rps=R      trough arrival rate (default 0.3)
//   --peak-rps=R      crest arrival rate (default 3)
//   --period-s=S      diurnal period (default 40)
//   --duration-s=D    trace horizon (default 120)
//   --sharpness=K     burst curve exponent: higher = narrower peaks (default 3)
//   --ttft-slo-ms=X   TTFT budget for violation counting (default 1000)
//   --max-tes=N       autoscaler ceiling (default 4)
//   --seed=N          trace seed (default 42)
//   --policy=P        run only one policy (default: all three)
//   --dump-timeline   per-sample held-TE timeline on stderr
//   --smoke           small fixed run; exits non-zero unless conservation
//                     holds (drains lose nothing), the predictive run replays
//                     bit-identically, and predictive beats reactive on p99
//                     TTFT and SLO violations at no more TE-seconds

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "bench/common.h"
#include "common/stats.h"
#include "common/time_units.h"
#include "model/model_spec.h"

using namespace deepserve;

namespace {

struct Options {
  double base_rps = 0.3;
  double peak_rps = 3.0;
  double period_s = 40.0;
  double duration_s = 120.0;
  double sharpness = 3.0;
  double ttft_slo_ms = 1000.0;
  int max_tes = 4;
  uint64_t seed = 42;
  std::string policy;  // empty = all
  bool smoke = false;
  bool dump_timeline = false;  // per-sample held-TE trace on stderr
};

struct RunResult {
  int64_t submitted = 0;
  int64_t completed = 0;
  int64_t errored = 0;
  int64_t double_terminated = 0;
  int64_t ttft_slo_violations = 0;  // bench-side: TTFT > --ttft-slo-ms
  SampleStats ttft_ms;
  double te_seconds = 0.0;  // ready+draining TE-time over the trace window
  int64_t scale_ups = 0;
  int64_t scale_downs = 0;
  int64_t drains_completed = 0;
  int64_t drained_seqs = 0;
  int64_t drain_timeouts = 0;
  double mean_drain_ms = 0.0;
  double mean_forecast_err = 0.0;
  TimeNs end_time = 0;
  uint64_t timeline_hash = 0;
};

RunResult RunPolicy(const Options& options, const std::string& policy,
                    const std::vector<workload::RequestSpec>& trace) {
  fleet::Fleet bed(bench::TestbedSpec(/*num_machines=*/3, serving::SchedulingPolicy::kLoadOnly),
                   bench::ActiveObs());
  // The paper's online-serving instance (34B TP4 on Gen1, saturating around
  // 1 RPS per TE) so the burst genuinely outruns one TE's capacity.
  flowserve::EngineConfig engine = bench::Engine34BTp4Paper(flowserve::EngineRole::kColocated);
  engine.sched.ttft_budget_ms = options.ttft_slo_ms;  // feeds the slo policy

  bed.manager().ReservePrewarmedPods(options.max_tes * 2);
  bed.manager().ReservePrewarmedTes(options.max_tes * 2);
  for (int m = 0; m < bed.cluster().num_machines(); ++m) {
    bed.manager().PreloadModelToDram(m, engine.model);
  }
  // Drain timeouts force-kill through the crash path; the fleet's failure
  // wiring re-dispatches the victims.
  bed.AddTe(flowserve::EngineRole::kColocated, engine);
  bed.Link();

  serving::AutoscalerConfig config;
  config.policy = policy;
  config.check_interval = MsToNs(500);
  config.scale_up_queue_depth = 4;
  config.scale_down_queue_depth = 1;
  config.min_tes = 1;
  config.max_tes = options.max_tes;
  config.headroom_tes = 1;
  config.te_capacity_rps = 1.0;
  config.down_stable_ticks = 3;
  serving::ScaleRequest request;
  request.engine = engine;
  bed.manager().StartAutoscaler(&bed.je(), config, request);

  // Preload/settle advanced sim time; shift arrivals so trace t=0 is "now".
  const TimeNs t0 = bed.sim().Now();
  const TimeNs horizon = t0 + SToNs(options.duration_s);

  RunResult result;
  result.submitted = static_cast<int64_t>(trace.size());
  uint64_t hash = 1469598103934665603ull;
  auto mix = [&hash](uint64_t v) {
    hash ^= v;
    hash *= 1099511628211ull;
  };
  const TimeNs slo = MsToNs(options.ttft_slo_ms);
  std::vector<workload::RequestSpec> shifted = trace;
  for (auto& spec : shifted) {
    spec.arrival += t0;
  }
  fleet::ReplayHooks hooks;
  hooks.on_complete = [&](const workload::RequestSpec& spec, TimeNs first,
                          const flowserve::Sequence& seq) {
    mix(spec.id * 2);
    mix(static_cast<uint64_t>(seq.finish_time));
    TimeNs ttft = first - spec.arrival;
    result.ttft_ms.Add(NsToMs(ttft));
    if (ttft > slo) {
      ++result.ttft_slo_violations;
    }
  };
  hooks.on_error = [&](const workload::RequestSpec& spec, const Status&) { mix(spec.id * 2 + 1); };
  bed.Submit(shifted, hooks);
  // Capacity-cost sampling: ready + draining TEs, every 500 ms over the
  // trace window (a draining TE still holds its NPUs).
  const DurationNs sample = MsToNs(500);
  for (TimeNs t = t0; t < horizon; t += sample) {
    bed.sim().ScheduleAt(t, [&bed, &result, &options, sample] {
      int held = 0;
      for (const auto& te : bed.manager().tes()) {
        if (te->ready() || te->draining()) {
          ++held;
        }
      }
      result.te_seconds += static_cast<double>(held) * NsToS(sample);
      if (options.dump_timeline) {
        std::fprintf(stderr, "t=%.1f held=%d\n", NsToS(bed.sim().Now()), held);
      }
    });
  }

  bed.sim().RunUntil(horizon);
  bed.manager().StopAutoscaler();
  bed.sim().Run();
  result.completed = bed.tally().completed;
  result.errored = bed.tally().errored;
  result.double_terminated = bed.tally().double_terminated;

  const serving::AutoscalerStats& as = bed.manager().autoscaler()->stats();
  result.scale_ups = bed.manager().stats().scale_ups;
  result.scale_downs = bed.manager().stats().scale_downs;
  result.drains_completed = as.drains_completed;
  result.drained_seqs = as.drained_seqs;
  result.drain_timeouts = as.drain_timeouts;
  result.mean_drain_ms = as.mean_drain_ms();
  result.mean_forecast_err = as.mean_forecast_abs_err();
  result.end_time = bed.sim().Now();
  mix(static_cast<uint64_t>(result.scale_ups));
  mix(static_cast<uint64_t>(result.scale_downs));
  mix(static_cast<uint64_t>(result.end_time));
  result.timeline_hash = hash;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  bench::OptionRegistry registry;
  registry.Flag("base-rps", &options.base_rps, "trough arrival rate of the diurnal wave");
  registry.Flag("peak-rps", &options.peak_rps, "crest arrival rate of the diurnal wave");
  registry.Flag("period-s", &options.period_s, "wave period in seconds");
  registry.Flag("duration-s", &options.duration_s, "trace horizon in seconds");
  registry.Flag("sharpness", &options.sharpness, "wave shape exponent (higher = spikier crests)");
  registry.Flag("ttft-slo-ms", &options.ttft_slo_ms, "TTFT SLO used for the attainment column");
  registry.Flag("max-tes", &options.max_tes, "autoscaler ceiling");
  registry.Flag("seed", &options.seed, "trace seed");
  registry.Flag("policy", &options.policy,
                "run only one policy: reactive | predictive | hybrid (default: all)");
  registry.Flag("dump-timeline", &options.dump_timeline, "per-sample held-TE trace on stderr");
  registry.Flag("smoke", &options.smoke,
                "sharp-spike fixed run; exits non-zero unless predictive beats reactive");
  std::vector<char*> obs_args = registry.Parse(argc, argv);
  if (options.smoke) {
    // Sharp-spike geometry: crests saturate max_tes, so reactive's
    // serialized late scale-ups land post-crest and clear backlog into the
    // trough, letting predictive win latency *and* TE-seconds.
    options.base_rps = 0.2;
    options.peak_rps = 8.0;
    options.period_s = 40.0;
    options.sharpness = 12.0;
    options.duration_s = 80.0;
  }
  bench::ObsSession obs(static_cast<int>(obs_args.size()), obs_args.data());

  bench::PrintHeader("Autoscaling under a bursty diurnal trace "
                     "(reactive vs predictive vs slo ScalePolicy)");

  workload::TraceConfig trace_config = workload::TraceGenerator::InternalTrace(
      options.base_rps, options.duration_s, options.seed);
  std::vector<workload::RequestSpec> trace =
      workload::TraceGenerator(trace_config)
          .GenerateBursty(options.base_rps, options.peak_rps, options.period_s,
                          options.sharpness);
  std::printf("workload: %zu requests, rate %.1f..%.1f RPS over %.0fs (period %.0fs), "
              "TTFT SLO %.0f ms (seed %" PRIu64 ")\n",
              trace.size(), options.base_rps, options.peak_rps, options.duration_s,
              options.period_s, options.ttft_slo_ms, options.seed);

  std::vector<std::string> policies;
  if (!options.policy.empty()) {
    policies.push_back(options.policy);
  } else {
    policies = {"reactive", "predictive", "slo"};
  }

  std::map<std::string, RunResult> results;
  for (const std::string& policy : policies) {
    results.emplace(policy, RunPolicy(options, policy, trace));
  }

  bench::PrintRule();
  std::printf("%-26s", "metric");
  for (const std::string& policy : policies) {
    std::printf(" %14s", policy.c_str());
  }
  std::printf("\n");
  bench::PrintRule();
  auto row_i = [&](const char* label, auto getter) {
    std::printf("%-26s", label);
    for (const std::string& policy : policies) {
      std::printf(" %14" PRId64, static_cast<int64_t>(getter(results.at(policy))));
    }
    std::printf("\n");
  };
  auto row_f = [&](const char* label, auto getter) {
    std::printf("%-26s", label);
    for (const std::string& policy : policies) {
      std::printf(" %14.1f", static_cast<double>(getter(results.at(policy))));
    }
    std::printf("\n");
  };
  row_i("completed", [](const RunResult& r) { return r.completed; });
  row_i("errored", [](const RunResult& r) { return r.errored; });
  row_f("p50 TTFT (ms)", [](const RunResult& r) { return r.ttft_ms.p50(); });
  row_f("p99 TTFT (ms)", [](const RunResult& r) { return r.ttft_ms.p99(); });
  row_i("TTFT SLO violations", [](const RunResult& r) { return r.ttft_slo_violations; });
  row_f("TE-seconds", [](const RunResult& r) { return r.te_seconds; });
  row_i("scale-ups", [](const RunResult& r) { return r.scale_ups; });
  row_i("scale-downs", [](const RunResult& r) { return r.scale_downs; });
  row_i("drains completed", [](const RunResult& r) { return r.drains_completed; });
  row_i("seqs drained in-flight", [](const RunResult& r) { return r.drained_seqs; });
  row_f("mean drain (ms)", [](const RunResult& r) { return r.mean_drain_ms; });
  row_i("drain timeouts", [](const RunResult& r) { return r.drain_timeouts; });
  row_f("mean forecast err (rps)", [](const RunResult& r) { return r.mean_forecast_err; });
  bench::PrintRule();

  if (options.smoke) {
    bool ok = true;
    for (const std::string& policy : policies) {
      const RunResult& r = results.at(policy);
      if (r.completed + r.errored != r.submitted || r.double_terminated != 0 ||
          r.errored != 0) {
        std::fprintf(stderr,
                     "CONSERVATION VIOLATED (%s): submitted=%" PRId64 " completed=%" PRId64
                     " errored=%" PRId64 " double_terminated=%" PRId64
                     " (graceful drain must lose nothing)\n",
                     policy.c_str(), r.submitted, r.completed, r.errored,
                     r.double_terminated);
        ok = false;
      }
    }
    if (results.count("predictive") != 0) {
      const RunResult& predictive = results.at("predictive");
      RunResult replay = RunPolicy(options, "predictive", trace);
      if (replay.timeline_hash != predictive.timeline_hash ||
          replay.end_time != predictive.end_time) {
        std::fprintf(stderr, "NON-DETERMINISTIC: predictive replay diverged (hash %016" PRIx64
                             " vs %016" PRIx64 ")\n",
                     replay.timeline_hash, predictive.timeline_hash);
        ok = false;
      }
    }
    if (results.count("reactive") != 0 && results.count("predictive") != 0) {
      const RunResult& reactive = results.at("reactive");
      const RunResult& predictive = results.at("predictive");
      if (predictive.ttft_ms.p99() >= reactive.ttft_ms.p99()) {
        std::fprintf(stderr, "NO P99 WIN: predictive %.1f ms >= reactive %.1f ms\n",
                     predictive.ttft_ms.p99(), reactive.ttft_ms.p99());
        ok = false;
      }
      if (predictive.ttft_slo_violations > reactive.ttft_slo_violations) {
        std::fprintf(stderr, "NO SLO WIN: predictive %" PRId64 " > reactive %" PRId64
                             " violations\n",
                     predictive.ttft_slo_violations, reactive.ttft_slo_violations);
        ok = false;
      }
      if (predictive.te_seconds > reactive.te_seconds) {
        std::fprintf(stderr, "CAPACITY REGRESSION: predictive %.1f TE-s > reactive %.1f TE-s\n",
                     predictive.te_seconds, reactive.te_seconds);
        ok = false;
      }
      if (reactive.drains_completed == 0 || predictive.drains_completed == 0) {
        std::fprintf(stderr, "DRAIN PATH NOT EXERCISED (reactive %" PRId64
                             ", predictive %" PRId64 ")\n",
                     reactive.drains_completed, predictive.drains_completed);
        ok = false;
      }
    }
    if (!ok) {
      return 1;
    }
    std::printf("smoke: conservation under graceful drain, bit-identical replay, and the "
                "predictive win (p99 TTFT, SLO violations, TE-seconds) all hold\n");
  }
  return 0;
}
