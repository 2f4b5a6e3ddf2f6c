// Figure 5 — PD-disaggregated vs PD-colocated heatmap.
//
// "The y-axis represents the prefill length, and the x-axis shows the ratio
// of decode length to prefill length. For each combination ... we execute a
// batch of identical requests at a fixed RPS on both PD-disaggregated and
// PD-colocated TEs. The heat map cells display ... the ratio of JCT for the
// PD-colocated TE to the PD-disaggregated TE, minus one." 34B, TP=4.
//
// We run the grid at several RPS levels, print each heatmap, then the
// element-wise combined map (§5.3.2) together with the sign-stability
// statistic the paper quotes (>80% of cells keep their sign across RPS).
// The combined map is also emitted in serialized form so it can be fed to
// the scheduler (PdHeatmap::Parse).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench/common.h"
#include "common/time_units.h"
#include "serving/heatmap.h"

namespace deepserve {
namespace {

const std::vector<int64_t> kPrefillLens = {512, 1024, 2048, 4096, 8192};
const std::vector<double> kRatios = {0.05, 0.1, 0.25, 0.5, 1.0, 2.0};

// Mean JCT of a batch of identical requests on the given fleet shape.
double MeanJct(int colocated, int prefill_tes, int decode_tes, int64_t prefill_len,
               int64_t decode_len, double rps) {
  fleet::Fleet testbed(bench::TestbedSpec(/*num_machines=*/2, serving::SchedulingPolicy::kLoadOnly),
                       bench::ActiveObs());
  testbed.AddTes(bench::Engine34BTp4Paper(flowserve::EngineRole::kColocated), colocated,
                 prefill_tes, decode_tes);
  testbed.Link();
  // Controlled study: size the batch so the aggregate KV of concurrent
  // requests fits a single instance (otherwise the cell measures preemption
  // thrash, not the prefill/decode tradeoff the heatmap is about).
  const int64_t kv_tokens_per_instance = 180000;
  int batch = static_cast<int>(
      std::min<int64_t>(12, kv_tokens_per_instance / (prefill_len + decode_len)));
  batch = std::max(batch, 4);
  auto trace = workload::TraceGenerator::FixedBatch(batch, prefill_len, decode_len);
  // Spread arrivals at the fixed RPS.
  for (size_t i = 0; i < trace.size(); ++i) {
    trace[i].arrival = SToNs(static_cast<double>(i) / rps);
  }
  auto metrics = testbed.Replay(trace);
  return metrics.jct_ms().mean();
}

serving::PdHeatmap RunAtRps(double rps, bool print) {
  serving::PdHeatmap map(kPrefillLens, kRatios);
  if (print) {
    std::printf("\nRPS=%.2f   cells: JCT(coloc)/JCT(disagg) - 1   (+ => disagg wins)\n", rps);
    std::printf("%8s", "prefill");
    for (double r : kRatios) {
      std::printf(" %7.2f", r);
    }
    std::printf("\n");
  }
  for (size_t row = 0; row < kPrefillLens.size(); ++row) {
    int64_t plen = kPrefillLens[row];
    if (print) {
      std::printf("%8lld", static_cast<long long>(plen));
    }
    for (size_t col = 0; col < kRatios.size(); ++col) {
      int64_t dlen = std::max<int64_t>(2, static_cast<int64_t>(kRatios[col] *
                                                               static_cast<double>(plen)));
      // Equal resources: 1 prefill + 1 decode TE vs 2 colocated TEs.
      double disagg = MeanJct(0, 1, 1, plen, dlen, rps);
      double coloc = MeanJct(2, 0, 0, plen, dlen, rps);
      double value = coloc / disagg - 1.0;
      map.AddCell(row, col, value);
      if (print) {
        std::printf(" %+7.2f", value);
      }
    }
    if (print) {
      std::printf("\n");
    }
  }
  return map;
}

}  // namespace
}  // namespace deepserve

int main(int argc, char** argv) {
  deepserve::bench::ObsSession obs(argc, argv);
  using deepserve::bench::PrintHeader;
  PrintHeader("Figure 5: PD-disaggregated vs PD-colocated heatmap (34B TP=4)");
  const std::vector<double> rps_levels = {0.2, 0.35, 0.5};
  std::vector<deepserve::serving::PdHeatmap> maps;
  deepserve::serving::PdHeatmap combined(deepserve::kPrefillLens, deepserve::kRatios);
  for (double rps : rps_levels) {
    maps.push_back(deepserve::RunAtRps(rps, /*print=*/true));
    for (size_t r = 0; r < combined.rows(); ++r) {
      for (size_t c = 0; c < combined.cols(); ++c) {
        combined.AddCell(r, c, maps.back().cell(r, c));
      }
    }
  }
  std::printf("\nCombined (element-wise sum across RPS):\n");
  for (size_t r = 0; r < combined.rows(); ++r) {
    std::printf("%8lld", static_cast<long long>(combined.prefill_edges()[r]));
    for (size_t c = 0; c < combined.cols(); ++c) {
      std::printf(" %+7.2f", combined.cell(r, c));
    }
    std::printf("\n");
  }
  // Sign stability across RPS levels (paper: >80% of cells consistent, the
  // remaining ~20% uncertain). Near-zero cells flicker, so we also report
  // agreement over decisive cells (|combined| > 0.02).
  double worst = 1.0;
  for (size_t i = 0; i < maps.size(); ++i) {
    for (size_t j = i + 1; j < maps.size(); ++j) {
      worst = std::min(worst, maps[i].SignAgreement(maps[j]));
    }
  }
  size_t decisive = 0;
  size_t decisive_agree = 0;
  for (size_t r = 0; r < combined.rows(); ++r) {
    for (size_t c = 0; c < combined.cols(); ++c) {
      if (std::abs(combined.cell(r, c)) <= 0.02) {
        continue;
      }
      ++decisive;
      bool sign = combined.cell(r, c) > 0;
      bool all_agree = true;
      for (const auto& m : maps) {
        if ((m.cell(r, c) > 0) != sign) {
          all_agree = false;
        }
      }
      if (all_agree) {
        ++decisive_agree;
      }
    }
  }
  std::printf("\nMinimum pairwise sign agreement across RPS levels: %.0f%% over all cells;"
              "\n%.0f%% of decisive cells (|combined|>0.02) keep their sign at every RPS"
              "\n(paper: >80%% consistent, rest uncertain)\n",
              worst * 100,
              decisive > 0 ? 100.0 * static_cast<double>(decisive_agree) /
                                 static_cast<double>(decisive)
                           : 0.0);
  std::printf("\nSerialized combined heatmap (feed to PdHeatmap::Parse):\n%s\n",
              combined.Serialize().c_str());
  return 0;
}
