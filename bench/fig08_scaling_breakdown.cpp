// Figure 8 + Table 2 — End-to-end scaling breakdown, before and after the
// optimizations, plus a per-optimization ablation (each Table-2 solution
// toggled off individually from the fully optimized configuration).

#include <cstdio>
#include <functional>

#include "bench/common.h"
#include "common/time_units.h"
#include "serving/cluster_manager.h"

namespace deepserve {
namespace {

serving::ScalingBreakdown RunScale(serving::ScalingOptimizations opts, bool prewarm_pools,
                                   bool preload_model) {
  fleet::FleetSpec fleet_spec;
  fleet_spec.cluster.num_machines = 4;
  fleet_spec.scaling = opts;
  fleet::Fleet bed(fleet_spec, bench::ActiveObs());
  sim::Simulator& sim = bed.sim();
  serving::ClusterManager& manager = bed.manager();
  if (prewarm_pools) {
    manager.ReservePrewarmedPods(4);
    manager.ReservePrewarmedTes(4);
  }
  if (preload_model) {
    manager.PreloadModelToDram(0, model::ModelSpec::Yi34B());
    sim.Run();
  }
  serving::ScaleRequest request;
  request.engine = bench::Engine34BTp4(flowserve::EngineRole::kColocated);
  serving::ScalingBreakdown breakdown;
  bool done = false;
  if (!manager
           .ScaleUp(request,
                    [&](serving::TaskExecutor*, const serving::ScalingBreakdown& b) {
                      breakdown = b;
                      done = true;
                    })
           .ok()) {
    std::abort();
  }
  sim.Run();
  if (!done) {
    std::abort();
  }
  return breakdown;
}

void PrintRow(const char* name, const serving::ScalingBreakdown& b) {
  std::printf("%-22s %9.2f %11.2f %8.2f %12.2f %11.2f %9.2f\n", name,
              NsToS(b.scaler_pre), NsToS(b.te_pre_load), NsToS(b.te_load),
              NsToS(b.te_post_load), NsToS(b.scaler_post),
              NsToS(b.total()));
}

}  // namespace
}  // namespace deepserve

int main(int argc, char** argv) {
  deepserve::bench::ObsSession obs(argc, argv);
  using deepserve::bench::PrintHeader;
  using deepserve::bench::PrintRule;
  using deepserve::serving::ScalingOptimizations;
  PrintHeader("Figure 8: scaling E2E breakdown (34B TP=4), seconds per step");
  std::printf("%-22s %9s %11s %8s %12s %11s %9s\n", "config", "ScalerPre", "TE-PreLoad",
              "TE-Load", "TE-PostLoad", "ScalerPost", "TOTAL");
  PrintRule();
  auto before = deepserve::RunScale(ScalingOptimizations::AllOff(), false, false);
  deepserve::PrintRow("before (all off)", before);
  auto after = deepserve::RunScale(ScalingOptimizations{}, true, true);
  deepserve::PrintRow("after (all on)", after);
  PrintRule();

  std::printf("\nTable 2 ablation: each optimization disabled alone (from all-on):\n");
  std::printf("%-22s %9s %11s %8s %12s %11s %9s\n", "disabled", "ScalerPre", "TE-PreLoad",
              "TE-Load", "TE-PostLoad", "ScalerPost", "TOTAL");
  PrintRule();
  struct Case {
    const char* name;
    std::function<void(ScalingOptimizations&)> off;
    bool drop_prewarm = false;
    bool drop_preload = false;
  };
  const Case cases[] = {
      {"prewarmed pods", [](auto& o) { o.prewarmed_pods = false; }},
      {"prewarmed TEs", [](auto& o) { o.prewarmed_tes = false; }},
      {"late-import/par-init", [](auto& o) { o.optimized_preload = false; }},
      {"DRAM pre-loading", [](auto& o) { o.dram_preload = false; }, false, true},
      {"offline profiling", [](auto& o) { o.offline_profiling = false; }},
      {"async block alloc", [](auto& o) { o.async_block_alloc = false; }},
      {"dummy-req warmup", [](auto& o) { o.dummy_warmup = false; }},
      {"proactive push", [](auto& o) { o.proactive_push = false; }},
  };
  for (const auto& c : cases) {
    ScalingOptimizations opts;
    c.off(opts);
    auto b = deepserve::RunScale(opts, !c.drop_prewarm, !c.drop_preload);
    deepserve::PrintRow(c.name, b);
  }
  PrintRule();
  std::printf("\nNote: pre-warmed TE adaptation removes TE-Pre-Load from the critical\n"
              "path; without it that step dominates even after the -35%% init work,\n"
              "matching the paper's observation in Fig. 8.\n");
  return 0;
}
