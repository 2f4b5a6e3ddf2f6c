// Fast scaling end-to-end: a traffic burst hits an underprovisioned service,
// the AUTOSCALER reacts, and pre-warmed pods + DRAM pre-loading + NPU-fork
// bring new TEs up in seconds (§6). Prints the scaling timeline and the
// effect on queueing.

#include <cstdio>

#include "common/time_units.h"
#include "fleet/fleet.h"
#include "workload/tracegen.h"

using namespace deepserve;

int main() {
  fleet::FleetSpec fleet_spec;
  fleet_spec.cluster.num_machines = 8;
  fleet_spec.je.policy = serving::SchedulingPolicy::kLoadOnly;
  fleet::Fleet fleet(fleet_spec);
  sim::Simulator& sim = fleet.sim();
  serving::ClusterManager& manager = fleet.manager();

  // Platform preparation: pre-warmed pools + predictive model pre-loading.
  manager.ReservePrewarmedPods(8);
  manager.ReservePrewarmedTes(8);
  manager.PredictivePreload({model::ModelSpec::Llama3_8B()});
  sim.Run();
  const TimeNs t0 = sim.Now();  // preload streaming finished here

  flowserve::EngineConfig engine;
  engine.model = model::ModelSpec::Llama3_8B();
  engine.parallelism = {1, 1, 1};
  auto first_te = fleet.AddTe(flowserve::EngineRole::kColocated, engine);

  serving::AutoscalerConfig as;
  as.check_interval = SToNs(1.0);
  as.scale_up_queue_depth = 12;
  as.scale_down_queue_depth = 0;
  as.max_tes = 6;
  serving::ScaleRequest request;
  request.engine = engine;
  request.fork_source = first_te->id();  // NPU-fork from the live TE
  manager.StartAutoscaler(&fleet.je(), as, request);

  // Baseline load for 20 s, then a 5x burst for 60 s.
  auto replay = [&](double rps, double start_s, double duration_s, uint64_t seed) {
    auto config = workload::TraceGenerator::InternalTrace(rps, duration_s, seed);
    config.prefill = workload::LengthDistribution{1024, 0.25, 128, 4096};
    auto trace = workload::TraceGenerator(config).Generate();
    for (auto& spec : trace) {
      spec.arrival += t0 + SToNs(start_s);
      spec.id += seed * 1000000;
    }
    fleet.Submit(trace);
  };
  replay(0.5, 0, 20, 1);
  replay(4.0, 20, 60, 2);

  // Observe fleet size every 5 s.
  std::printf("time   ready-TEs  scale-ups  (burst arrives at t=20s)\n");
  for (int t = 5; t <= 120; t += 5) {
    sim.ScheduleAt(t0 + SToNs(t), [&, t] {
      int ready = 0;
      for (const auto& te : manager.tes()) {
        if (te->ready()) {
          ++ready;
        }
      }
      std::printf("%3ds %10d %10lld\n", t, ready,
                  static_cast<long long>(manager.stats().scale_ups));
    });
  }

  sim.RunUntil(t0 + SToNs(200));
  manager.StopAutoscaler();
  sim.Run();

  std::printf("\nburst handled: %s\n", fleet.metrics().Summary().c_str());
  std::printf("scaling: %lld scale-ups (%lld NPU-forks, %lld pre-warmed pods, "
              "%lld pre-warmed TEs, %lld DRAM hits)\n",
              static_cast<long long>(manager.stats().scale_ups),
              static_cast<long long>(manager.stats().npu_forks),
              static_cast<long long>(manager.stats().prewarmed_pod_hits),
              static_cast<long long>(manager.stats().prewarmed_te_hits),
              static_cast<long long>(manager.stats().dram_hits));
  return 0;
}
