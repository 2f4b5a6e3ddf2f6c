// deepserve_sim — command-line experiment runner.
//
// Builds a fleet on the simulated cluster, replays a synthetic trace through
// the Job Executor, and prints (or exports) the serving metrics. Everything
// is a flag, so new experiments need no recompilation:
//
//   deepserve_sim --model=yi-34b --tp=4 --colocated=2 --prefill-tes=1
//                 --decode-tes=1 --policy=combined --trace=internal
//                 --rps=1.0 --duration=60 --seed=42 --csv=/tmp/run.csv
//
// Engine scheduling policy (src/flowserve/sched/): --sched-policy=fcfs|slo|
// priority-preempt, --tbt-ms=<slo TBT budget>, --deadline-ms=<per-request
// completion deadline; expired/unmeetable requests are shed under slo>.
//
// Frontend traffic management (src/serving/route_policy.h): requests flow
// through a Frontend over --je-replicas JE replicas (each with its own copy
// of the --colocated/--prefill-tes/--decode-tes fleet). --lb-policy picks the
// routing policy (rr|p2c|wlc|slo), --hedge-ms arms straggler hedging,
// --retry-budget caps crash re-dispatches fleet-wide, and --outlier-errors /
// --outlier-base-s / --outlier-max-s configure outlier ejection. Run with
// --help for the full flag table.
//
// Replicated control plane (src/ctrl/): --ctrl-replicas=N puts the CM's TE
// directory and every JE's job table on a shared sequenced log with N
// replicas (--ctrl-latency-ms / --ctrl-lease-ms tune replication lag and the
// leader lease). The default (1) keeps the historical unreplicated control
// plane, bit-identical to builds without the flag.

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "bench/common.h"
#include "common/time_units.h"
#include "fleet/fleet.h"
#include "serving/cluster_manager.h"
#include "serving/route_policy.h"
#include "workload/tracegen.h"

using namespace deepserve;

namespace {

struct Flags {
  std::string model = "yi-34b";
  int tp = 4;
  int colocated = 2;
  int prefill_tes = 0;
  int decode_tes = 0;
  int je_replicas = 1;  // JE replicas behind the frontend (fleet per replica)
  std::string policy = "combined";
  std::string sched_policy = "fcfs";  // engine policy: fcfs|slo|priority-preempt
  double tbt_ms = 0.0;                // slo TBT budget (0 = unbounded)
  double ttft_ms = 0.0;               // TTFT SLO budget, counted only (0 = off)
  double deadline_ms = 0.0;           // per-request deadline (0 = none)
  std::string trace = "internal";
  double rps = 1.0;
  double peak_rps = 0.0;  // bursty trace peak (0 = 4x rps)
  double period = 0.0;    // bursty trace period seconds (0 = duration / 3)
  double duration = 60.0;
  uint64_t seed = 42;
  double predictor_accuracy = 0.9;
  std::string csv;
  std::string gen = "gen2";
  // Heterogeneous cluster: "gen1:2,gen2:2" builds 2 Gen1 + 2 Gen2 machines
  // (machine order follows the mix) and turns on cost-aware placement +
  // dispatch. Empty = homogeneous --gen cluster, bit-identical to before.
  std::string npu_mix;
  double npu_cost_gen1 = 0.0;  // $/NPU-hour override (0 = preset)
  double npu_cost_gen2 = 0.0;
  bool hetero_blind = false;  // ignore generations when placing/dispatching
  bool superpod = false;      // add the UB fabric tier between HCCS and RoCE
  double ub_gbps = 196.0;
  int machines_per_superpod = 0;  // 0 = whole cluster is one SuperPod
  // Autoscaler: empty = off; reactive|predictive|slo runs replica 0's
  // colocated group between min 1 and --max-tes TEs over the trace.
  std::string scale_policy;
  int headroom = 1;
  int drain = 1;  // graceful drain on scale-down (0 = legacy instant stop)
  int max_tes = 8;
  bench::RouteOptions route;  // --lb-policy / --hedge-ms / --retry-budget / --outlier-*
  bench::CtrlOptions ctrl;    // --ctrl-replicas / --ctrl-latency-ms / --ctrl-lease-ms
};

bool ParseFlags(int argc, char** argv, Flags* flags) {
  bench::OptionRegistry registry;
  registry.Flag("model", &flags->model, "model preset (yi-34b, tiny-1b, ...)");
  registry.Flag("tp", &flags->tp, "tensor-parallel degree per TE");
  registry.Flag("colocated", &flags->colocated, "PD-colocated TEs per JE replica");
  registry.Flag("prefill-tes", &flags->prefill_tes, "prefill-only TEs per JE replica");
  registry.Flag("decode-tes", &flags->decode_tes, "decode-only TEs per JE replica");
  registry.Flag("je-replicas", &flags->je_replicas,
                "JE replicas behind the frontend, each with its own fleet");
  registry.Flag("policy", &flags->policy,
                "JE scheduling policy: rr|load|locality|pd-aware|combined");
  registry.Flag("sched-policy", &flags->sched_policy,
                "engine scheduling policy: fcfs|slo|priority-preempt");
  registry.Flag("tbt-ms", &flags->tbt_ms, "slo TBT budget (0 = unbounded)");
  registry.Flag("ttft-ms", &flags->ttft_ms, "TTFT SLO budget, counted only (0 = off)");
  registry.Flag("deadline-ms", &flags->deadline_ms, "per-request deadline (0 = none)");
  registry.Flag("trace", &flags->trace, "trace shape: internal|codegen|bursty");
  registry.Flag("rps", &flags->rps, "arrival rate (bursty: base rate)");
  registry.Flag("peak-rps", &flags->peak_rps, "bursty trace peak (0 = 4x rps)");
  registry.Flag("period", &flags->period, "bursty trace period seconds (0 = duration/3)");
  registry.Flag("duration", &flags->duration, "trace horizon in seconds");
  registry.Flag("seed", &flags->seed, "trace / predictor / p2c seed");
  registry.Flag("predictor", &flags->predictor_accuracy,
                "decode-length predictor accuracy (1.0 = oracle)");
  registry.Flag("csv", &flags->csv, "write per-request metrics CSV here");
  registry.Flag("gen", &flags->gen, "NPU generation: gen1|gen2");
  registry.Flag("npu-mix", &flags->npu_mix,
                "heterogeneous machine mix, e.g. gen1:2,gen2:2 (empty = homogeneous --gen)");
  registry.Flag("npu-cost-gen1", &flags->npu_cost_gen1,
                "Gen1 $/NPU-hour override (0 = preset)");
  registry.Flag("npu-cost-gen2", &flags->npu_cost_gen2,
                "Gen2 $/NPU-hour override (0 = preset)");
  registry.Flag("hetero-blind", &flags->hetero_blind,
                "generation-blind placement and dispatch (baseline)");
  registry.Flag("superpod", &flags->superpod, "enable the SuperPod UB fabric tier");
  registry.Flag("ub-gbps", &flags->ub_gbps, "UB fabric bandwidth in GB/s");
  registry.Flag("machines-per-superpod", &flags->machines_per_superpod,
                "SuperPod size in machines (0 = whole cluster)");
  registry.Flag("scale-policy", &flags->scale_policy,
                "autoscaler policy over replica 0 (empty = off): reactive|predictive|slo");
  registry.Flag("headroom", &flags->headroom, "autoscaler headroom TEs");
  registry.Flag("drain", &flags->drain, "graceful drain on scale-down (0 = instant stop)");
  registry.Flag("max-tes", &flags->max_tes, "autoscaler ceiling");
  flags->route.Register(registry);
  flags->ctrl.Register(registry);
  std::vector<char*> rest = registry.Parse(argc, argv);
  for (size_t i = 1; i < rest.size(); ++i) {
    std::fprintf(stderr, "unknown flag %s (see --help)\n", rest[i]);
    return false;
  }
  return true;
}

Result<serving::SchedulingPolicy> ParsePolicy(const std::string& name) {
  static const std::map<std::string, serving::SchedulingPolicy> kPolicies = {
      {"rr", serving::SchedulingPolicy::kRoundRobin},
      {"load", serving::SchedulingPolicy::kLoadOnly},
      {"locality", serving::SchedulingPolicy::kLocalityOnly},
      {"pd-aware", serving::SchedulingPolicy::kPdAware},
      {"combined", serving::SchedulingPolicy::kCombined},
  };
  auto it = kPolicies.find(name);
  if (it == kPolicies.end()) {
    return InvalidArgumentError("unknown policy " + name +
                                " (rr|load|locality|pd-aware|combined)");
  }
  return it->second;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  if (!ParseFlags(argc, argv, &flags)) {
    return 2;
  }
  auto model = model::ModelSpec::Preset(flags.model);
  if (!model.ok()) {
    std::fprintf(stderr, "%s\n", model.status().ToString().c_str());
    return 2;
  }
  auto policy = ParsePolicy(flags.policy);
  if (!policy.ok()) {
    std::fprintf(stderr, "%s\n", policy.status().ToString().c_str());
    return 2;
  }
  // Validate --lb-policy up front for a clean CLI error (the Frontend itself
  // treats an unknown policy as a programming error).
  auto lb_policy = serving::MakeRoutePolicy(flags.route.ToConfig(flags.seed));
  if (!lb_policy.ok()) {
    std::fprintf(stderr, "%s\n", lb_policy.status().ToString().c_str());
    return 2;
  }

  if (flags.je_replicas < 1) {
    std::fprintf(stderr, "--je-replicas must be >= 1\n");
    return 2;
  }
  fleet::FleetSpec fleet_spec;
  hw::ClusterConfig& cluster_config = fleet_spec.cluster;
  int instances =
      flags.je_replicas * (flags.colocated + flags.prefill_tes + flags.decode_tes);
  cluster_config.npu_spec = flags.gen == "gen1" ? hw::NpuSpec::Gen1() : hw::NpuSpec::Gen2();
  cluster_config.num_machines =
      std::max(1, (instances * flags.tp + cluster_config.npus_per_machine - 1) /
                      cluster_config.npus_per_machine);
  if (!flags.npu_mix.empty()) {
    auto mix = hw::ParseNpuMix(flags.npu_mix);
    if (!mix.ok()) {
      std::fprintf(stderr, "%s\n", mix.status().ToString().c_str());
      return 2;
    }
    for (auto& spec : *mix) {
      if (spec.name == "ascend-gen1" && flags.npu_cost_gen1 > 0) {
        spec.cost_per_hour = flags.npu_cost_gen1;
      }
      if (spec.name == "ascend-gen2" && flags.npu_cost_gen2 > 0) {
        spec.cost_per_hour = flags.npu_cost_gen2;
      }
    }
    cluster_config.machine_specs = *mix;
    cluster_config.num_machines = static_cast<int>(mix->size());
    if (instances * flags.tp > cluster_config.num_machines * cluster_config.npus_per_machine) {
      std::fprintf(stderr, "--npu-mix supplies %d machines but the fleet needs %d NPUs\n",
                   cluster_config.num_machines, instances * flags.tp);
      return 2;
    }
  }
  if (flags.superpod) {
    cluster_config.enable_superpod = true;
    cluster_config.ub_gbps = flags.ub_gbps;
    cluster_config.machines_per_superpod = flags.machines_per_superpod;
  }
  fleet_spec.ctrl = flags.ctrl.ToConfig();
  fleet_spec.je.policy = *policy;
  fleet_spec.je.cost_aware = !flags.npu_mix.empty() && !flags.hetero_blind;
  fleet_spec.num_jes = flags.je_replicas;
  if (flags.predictor_accuracy < 1.0) {
    fleet_spec.predictor = [&flags] {
      return serving::MakeNoisyPredictor(flags.predictor_accuracy, flags.seed);
    };
  }
  fleet_spec.frontend = true;
  fleet_spec.model = flags.model;
  fleet_spec.route = flags.route.ToConfig(flags.seed);
  fleet::Fleet fleet(fleet_spec);
  sim::Simulator& sim = fleet.sim();
  serving::ClusterManager& manager = fleet.manager();
  if (!flags.npu_mix.empty() && flags.hetero_blind) {
    serving::PlacementConfig placement;
    placement.hetero_aware = false;
    manager.SetPlacement(placement);
  }

  flowserve::EngineConfig engine;
  engine.model = *model;
  engine.npu_spec = cluster_config.npu_spec;
  if (!flags.npu_mix.empty()) {
    // Each TE's cost model must reflect the silicon it actually lands on.
    engine.npu_spec = cluster_config.machine_specs.front();
    engine.npu_spec_from_placement = true;
  }
  engine.parallelism = {flags.tp, 1, 1};
  engine.sched.policy = flags.sched_policy;
  engine.sched.tbt_budget_ms = flags.tbt_ms;
  engine.sched.ttft_budget_ms = flags.ttft_ms;
  for (size_t r = 0; r < fleet.num_jes(); ++r) {
    fleet.AddTes(engine, flags.colocated, flags.prefill_tes, flags.decode_tes, r);
  }
  fleet.Link();

  bool autoscale = !flags.scale_policy.empty();
  if (autoscale) {
    // Pre-warm pools + DRAM preload so mid-trace scale-ups ride the fast path.
    manager.ReservePrewarmedPods(flags.max_tes);
    manager.ReservePrewarmedTes(flags.max_tes);
    for (int m = 0; m < cluster_config.num_machines; ++m) {
      manager.PreloadModelToDram(m, *model);
    }
    sim.Run();
  }
  // Preloading advances sim time; shift trace arrivals so t=0 lands "now".
  const TimeNs t0 = sim.Now();

  workload::TraceConfig trace_config =
      flags.trace == "codegen"
          ? workload::TraceGenerator::CodeGenTrace(flags.rps, flags.duration, flags.seed)
          : workload::TraceGenerator::InternalTrace(flags.rps, flags.duration, flags.seed);
  std::vector<workload::RequestSpec> trace;
  if (flags.trace == "bursty") {
    double peak = flags.peak_rps > 0 ? flags.peak_rps : flags.rps * 4.0;
    double period = flags.period > 0 ? flags.period : flags.duration / 3.0;
    trace = workload::TraceGenerator(trace_config).GenerateBursty(flags.rps, peak, period);
  } else {
    trace = workload::TraceGenerator(trace_config).Generate();
  }
  for (auto& spec : trace) {
    spec.arrival += t0;
  }
  if (flags.deadline_ms > 0) {
    for (auto& spec : trace) {
      spec.deadline = spec.arrival + MsToNs(flags.deadline_ms);
    }
  }

  if (autoscale) {
    serving::AutoscalerConfig as_config;
    as_config.policy = flags.scale_policy;
    as_config.headroom_tes = flags.headroom;
    as_config.graceful_drain = flags.drain;
    as_config.min_tes = 1;
    as_config.max_tes = flags.max_tes;
    engine.role = flowserve::EngineRole::kColocated;
    manager.StartAutoscaler(&fleet.je(), as_config, serving::ScaleRequest{engine});
  }
  std::printf("deepserve_sim: %s %s, %d x (%d coloc + %dP%dD) (tp%d, %s), policy=%s, "
              "sched=%s, lb=%s, %.2f rps x %.0fs -> %zu requests\n",
              flags.model.c_str(), flags.gen.c_str(), flags.je_replicas, flags.colocated,
              flags.prefill_tes, flags.decode_tes, flags.tp,
              cluster_config.npu_spec.name.c_str(), flags.policy.c_str(),
              flags.sched_policy.c_str(), flags.route.lb_policy.c_str(), flags.rps,
              flags.duration, trace.size());
  if (!flags.npu_mix.empty()) {
    std::printf("hetero: mix=%s, placement=%s, superpod=%s\n", flags.npu_mix.c_str(),
                flags.hetero_blind ? "blind" : "cost-aware",
                cluster_config.enable_superpod ? "on" : "off");
  }

  fleet.Submit(trace);
  if (autoscale) {
    // The autoscaler's periodic tick keeps the queue non-empty: run to the
    // trace horizon, stop it, then drain the remaining in-flight work.
    sim.RunUntil(t0 + SToNs(flags.duration));
    manager.StopAutoscaler();
  }
  sim.Run();
  const workload::MetricsCollector& metrics = fleet.metrics();
  const int64_t errored = fleet.tally().errored;
  const int64_t rejected = fleet.tally().rejected;

  std::printf("%s\n", metrics.Summary().c_str());
  if (autoscale) {
    const serving::AutoscalerStats& as = manager.autoscaler()->stats();
    std::printf("autoscaler(%s): %lld scale-ups, %lld scale-downs; drains %lld done "
                "(%.1f ms mean, %lld seqs drained), %lld aborted, %lld timed out\n",
                flags.scale_policy.c_str(),
                static_cast<long long>(manager.stats().scale_ups),
                static_cast<long long>(manager.stats().scale_downs),
                static_cast<long long>(as.drains_completed), as.mean_drain_ms(),
                static_cast<long long>(as.drained_seqs),
                static_cast<long long>(as.drains_aborted),
                static_cast<long long>(as.drain_timeouts));
  }
  if (errored > 0 || rejected > 0) {
    std::printf("errored (shed / deadline exceeded): %lld, rejected pre-dispatch: %lld "
                "of %zu\n",
                static_cast<long long>(errored), static_cast<long long>(rejected),
                trace.size());
  }
  int64_t routed_colocated = 0;
  int64_t routed_disaggregated = 0;
  int64_t locality_hits = 0;
  for (size_t r = 0; r < fleet.num_jes(); ++r) {
    routed_colocated += fleet.je(r).stats().routed_colocated;
    routed_disaggregated += fleet.je(r).stats().routed_disaggregated;
    locality_hits += fleet.je(r).stats().locality_hits;
  }
  std::printf("routing: %lld colocated, %lld disaggregated; locality hits %lld\n",
              static_cast<long long>(routed_colocated),
              static_cast<long long>(routed_disaggregated),
              static_cast<long long>(locality_hits));
  if (!flags.npu_mix.empty()) {
    int64_t narrowed = 0;
    int64_t fallbacks = 0;
    for (size_t r = 0; r < fleet.num_jes(); ++r) {
      narrowed += fleet.je(r).stats().cost_narrowed;
      fallbacks += fleet.je(r).stats().cost_fallbacks;
    }
    std::printf("hetero dispatch: %lld cost-narrowed, %lld fallbacks\n",
                static_cast<long long>(narrowed), static_cast<long long>(fallbacks));
  }
  const serving::FrontendStats& fe = fleet.frontend()->stats();
  if (fe.hedges_launched > 0 || fe.ejections > 0 || fe.rejected_total() > 0) {
    std::printf("traffic(%s): %lld hedges (%lld wins, %lld cancels), %lld ejections "
                "(%lld readmissions), %lld rejected\n",
                flags.route.lb_policy.c_str(), static_cast<long long>(fe.hedges_launched),
                static_cast<long long>(fe.hedge_wins),
                static_cast<long long>(fe.hedge_cancels),
                static_cast<long long>(fe.ejections),
                static_cast<long long>(fe.readmissions),
                static_cast<long long>(fe.rejected_total()));
  }
  if (!flags.csv.empty()) {
    Status status = metrics.WriteCsvFile(flags.csv);
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("per-request metrics written to %s\n", flags.csv.c_str());
  }
  return 0;
}
