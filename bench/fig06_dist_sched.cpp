// Figure 6 — Distributed Scheduling Algorithm Study.
//
// "We run a 34B model with TP=4, and report JCT / TPOT. We run an internal
// trace sampled from a code generation service. The cluster consists of four
// servers with two PD-colocated TEs and a pair of PD-disaggregated TEs
// (1P1D)." PD-aware scheduling (with decode-length predictors of varying
// accuracy, including the oracle upper bound) is compared against RR across
// RPS levels. Expected shape: parity at low RPS, PD-aware wins at moderate
// RPS, graceful behaviour when overloaded.

#include <cstdio>
#include <memory>

#include "bench/common.h"
#include "serving/predictor.h"

namespace deepserve {
namespace {

struct PolicyCase {
  const char* name;
  serving::SchedulingPolicy policy;
  double predictor_accuracy;  // < 0 => oracle
};

void RunCase(const PolicyCase& c, double rps) {
  fleet::FleetSpec fleet_spec = bench::TestbedSpec(/*num_machines=*/4, c.policy);
  if (c.predictor_accuracy >= 0) {
    fleet_spec.predictor = [&c] {
      return serving::MakeNoisyPredictor(c.predictor_accuracy, 1234);
    };
  }
  fleet::Fleet testbed(fleet_spec, bench::ActiveObs());
  // 2 colocated TEs + one 1P1D pair.
  testbed.AddTes(bench::Engine34BTp4Paper(flowserve::EngineRole::kColocated), 2, 1, 1);
  testbed.Link();
  auto trace_config = workload::TraceGenerator::CodeGenTrace(rps, /*duration_s=*/120.0);
  auto trace = workload::TraceGenerator(trace_config).Generate();
  auto metrics = testbed.Replay(trace);
  std::printf("%-14s %5.1f %5zu %10.0f %10.0f %9.2f %9.2f\n", c.name, rps,
              metrics.completed(), metrics.jct_ms().mean(), metrics.jct_ms().p99(),
              metrics.tpot_ms().p50(), metrics.tpot_ms().p99());
}

}  // namespace
}  // namespace deepserve

int main(int argc, char** argv) {
  deepserve::bench::ObsSession obs(argc, argv);
  using deepserve::bench::PrintHeader;
  using deepserve::bench::PrintRule;
  PrintHeader(
      "Figure 6: distributed scheduling on code-gen trace\n"
      "Fleet: 2x PD-colocated + 1P1D (34B TP=4). PD-aware vs RR, predictor sweep");
  std::printf("%-14s %5s %5s %10s %10s %9s %9s\n", "policy", "rps", "n", "jct-mean",
              "jct-p99", "tpot-p50", "tpot-p99");
  PrintRule();
  const deepserve::PolicyCase cases[] = {
      {"RR", deepserve::serving::SchedulingPolicy::kRoundRobin, -1},
      {"PD(oracle)", deepserve::serving::SchedulingPolicy::kCombined, -1},
      {"PD(90%)", deepserve::serving::SchedulingPolicy::kCombined, 0.9},
      {"PD(50%)", deepserve::serving::SchedulingPolicy::kCombined, 0.5},
  };
  for (double rps : {1.0, 2.0, 4.0, 6.0, 8.0}) {
    for (const auto& c : cases) {
      deepserve::RunCase(c, rps);
    }
    PrintRule();
  }
  return 0;
}
