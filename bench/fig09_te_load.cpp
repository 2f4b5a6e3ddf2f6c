// Figure 9 — TE-Load study.
//
// For Llama3-8B (TP1), 34B (TP4), Llama3-70B (TP8) and Qwen2-72B (TP8):
//   * DRAM-hit: weights streamed from the pre-loaded page cache over PCIe
//     (per-rank shards; ranks sharing a PCIe link contend, so time grows
//     with TP rank even though per-NPU bytes are constant);
//   * DRAM-miss: the SSD staging hop is added;
//   * DRAM-theoretical: weights / PCIe bandwidth, contention-free reference;
//   * NPU-fork over HCCS and over RoCE (cross-node).

#include <cstdio>
#include <string>

#include "bench/common.h"
#include "common/time_units.h"
#include "serving/cluster_manager.h"

namespace deepserve {
namespace {

struct ModelCase {
  model::ModelSpec model;
  int tp;
};

// Returns the TE-Load stage duration in seconds for the given loading mode:
// "dram-hit", "dram-miss", "fork-hccs", "fork-roce".
double Measure(const ModelCase& mc, const std::string& mode) {
  fleet::FleetSpec fleet_spec;
  fleet_spec.cluster.num_machines = 8;
  fleet_spec.cluster.machines_per_scaleup_domain = 4;
  fleet::Fleet bed(fleet_spec, bench::ActiveObs());
  sim::Simulator& sim = bed.sim();
  serving::ClusterManager& manager = bed.manager();
  manager.ReservePrewarmedPods(8);
  manager.ReservePrewarmedTes(8);

  serving::ScaleRequest request;
  request.engine.model = mc.model;
  request.engine.parallelism = {mc.tp, 1, 1};
  request.engine.role = flowserve::EngineRole::kColocated;

  if (mode == "dram-hit") {
    manager.PreloadModelToDram(0, mc.model);
    sim.Run();
  } else if (mode == "fork-hccs" || mode == "fork-roce") {
    auto source = manager.CreateReadyTe(request.engine);
    if (!source.ok()) {
      std::abort();
    }
    request.fork_source = (*source)->id();
    request.fork_link = mode == "fork-hccs" ? hw::LinkType::kHccs : hw::LinkType::kRoce;
  }

  serving::ScalingBreakdown breakdown;
  if (!manager.ScaleUp(request, [&](serving::TaskExecutor*, const auto& b) { breakdown = b; })
           .ok()) {
    std::abort();
  }
  sim.Run();
  return NsToS(breakdown.te_load);
}

}  // namespace
}  // namespace deepserve

int main(int argc, char** argv) {
  deepserve::bench::ObsSession obs(argc, argv);
  using deepserve::bench::PrintHeader;
  using deepserve::bench::PrintRule;
  using deepserve::model::ModelSpec;
  PrintHeader("Figure 9: TE-Load time (seconds) per model and loading path");
  std::printf("%-12s %3s %10s %10s %10s %11s %11s %12s\n", "model", "tp", "dram-hit",
              "dram-miss", "theoretic", "fork-hccs", "fork-roce", "GiB/NPU");
  PrintRule();
  const deepserve::ModelCase cases[] = {
      {ModelSpec::Llama3_8B(), 1},
      {ModelSpec::Yi34B(), 4},
      {ModelSpec::Llama3_70B(), 8},
      {ModelSpec::Qwen2_72B(), 8},
  };
  for (const auto& mc : cases) {
    double hit = deepserve::Measure(mc, "dram-hit");
    double miss = deepserve::Measure(mc, "dram-miss");
    double fork_hccs = deepserve::Measure(mc, "fork-hccs");
    double fork_roce = deepserve::Measure(mc, "fork-roce");
    deepserve::Bytes per_npu =
        deepserve::model::WeightBytesPerNpu(mc.model, {mc.tp, 1, 1});
    // Theoretical: per-NPU weights at full PCIe bandwidth, no sharing.
    double theoretical = static_cast<double>(per_npu) / 32e9;
    std::printf("%-12s %3d %10.2f %10.2f %10.2f %11.2f %11.2f %12.1f\n",
                mc.model.name.c_str(), mc.tp, hit, miss, theoretical, fork_hccs, fork_roce,
                deepserve::BytesToGiB(per_npu));
  }
  PrintRule();
  std::printf(
      "\nExpected shapes (paper): dram-hit > theoretical (tensor init + PCIe\n"
      "sharing, growing with TP rank); dram-miss adds the SSD hop; NPU-fork over\n"
      "HCCS beats local loading and RoCE; fork times are similar across models\n"
      "because per-NPU bytes are roughly constant.\n");
  return 0;
}
