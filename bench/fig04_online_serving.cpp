// Figure 4 — FLOWSERVE Online Serving Performance.
//
// "We run a 34B model with TP=4 using an internal trace (roughly 2K input
// with 200 output). We test three setups: (1) PD-disaggregated with two
// prefill and two decode, (2) PD-disaggregated with two prefill and one
// decode, and (3) four PD-colocated. We vary RPS from 0.2 to 1.2 in a step
// of 0.2." Reported: TTFT / TPOT percentiles and goodput per setup.

#include <cstdio>

#include "bench/common.h"

namespace deepserve {
namespace {

struct Setup {
  const char* name;
  int colocated;
  int prefill;
  int decode;
};

void RunSetup(const Setup& setup, double rps) {
  fleet::Fleet testbed(bench::TestbedSpec(/*num_machines=*/4, serving::SchedulingPolicy::kLoadOnly),
                       bench::ActiveObs());
  testbed.AddTes(bench::Engine34BTp4Paper(flowserve::EngineRole::kColocated), setup.colocated,
                 setup.prefill, setup.decode);
  testbed.Link();
  auto trace_config = workload::TraceGenerator::InternalTrace(rps, /*duration_s=*/150.0);
  auto trace = workload::TraceGenerator(trace_config).Generate();
  auto metrics = testbed.Replay(trace);
  std::printf("%-8s %4.1f %5zu %9.0f %9.0f %8.2f %8.2f %9.1f %7.1f%%\n", setup.name, rps,
              metrics.completed(), metrics.ttft_ms().p50(), metrics.ttft_ms().p99(),
              metrics.tpot_ms().p50(), metrics.tpot_ms().p99(), metrics.DecodeThroughput(),
              100.0 * metrics.SloAttainment(/*ttft_ms=*/800, /*tpot_ms=*/35));
}

}  // namespace
}  // namespace deepserve

int main(int argc, char** argv) {
  deepserve::bench::ObsSession obs(argc, argv);
  using deepserve::bench::PrintHeader;
  using deepserve::bench::PrintRule;
  PrintHeader(
      "Figure 4: online serving, 34B TP=4, internal trace (~2K in / 200 out)\n"
      "Setups: 2P2D / 2P1D PD-disaggregated vs 4x PD-colocated");
  std::printf("%-8s %4s %5s %9s %9s %8s %8s %9s %8s\n", "setup", "rps", "n", "ttft-p50",
              "ttft-p99", "tpot-p50", "tpot-p99", "tok/s", "SLO-att");
  PrintRule();
  const deepserve::Setup setups[] = {
      {"2P2D", 0, 2, 2},
      {"2P1D", 0, 2, 1},
      {"4C", 4, 0, 0},
  };
  for (const auto& setup : setups) {
    for (double rps = 0.2; rps <= 1.21; rps += 0.2) {
      deepserve::RunSetup(setup, rps);
    }
    PrintRule();
  }
  return 0;
}
