// Heterogeneous Gen1/Gen2 serving: cost-aware vs generation-blind placement
// (§3.1: DeepServe pools several NPU generations in one region; placement
// picks per-model silicon rather than treating the fleet as uniform).
//
// A mixed cluster (--npu-mix, Gen2 machines deliberately first so blind
// first-fit lands on the expensive generation) serves the same trace twice
// per RPS point:
//
//   aware   ClusterManager::AllocateNpusForEngine places each TE on the
//           cheapest generation whose HBM fits the model + predicted context
//           (best tokens-per-second-per-dollar first, graceful fallback),
//           and the JE narrows dispatch candidates the same way;
//   blind   the historical first-fit NPU scan plus generation-blind dispatch
//           — what a homogeneity-assuming control plane would do.
//
// Reported per RPS point and mode: completions, p50/p99 TTFT, fleet cost in
// $ (per-TE NPU-hours at each generation's list price), and cost-normalized
// goodput (completed decode tokens per dollar). The hetero-aware win is the
// figure: same goodput at a fraction of the dollar cost while the model fits
// the cheap generation, shrinking as the cheap generation saturates.
//
// Flags (plus the ObsSession observability flags):
//   --npu-mix=M       machine mix (default gen2:2,gen1:2)
//   --tes=N           colocated TEs to place (default 4)
//   --tp=N            tensor-parallel degree per TE (default 4)
//   --rps-list=CSV    arrival-rate sweep (default 0.4,0.8,1.6)
//   --duration-s=D    trace horizon per point (default 60)
//   --seed=N          trace seed (default 42)
//   --smoke           small fixed run; exits non-zero unless conservation
//                     holds in both modes, aware actually lands on cheaper
//                     silicon than blind, beats it on tokens/$, and replays
//                     bit-identically

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench/common.h"
#include "common/stats.h"
#include "common/time_units.h"
#include "model/model_spec.h"

using namespace deepserve;

namespace {

struct Options {
  std::string mix = "gen2:2,gen1:2";
  int tes = 4;
  int tp = 4;
  std::string rps_list = "0.4,0.8,1.6";
  double duration_s = 60.0;
  uint64_t seed = 42;
  bool smoke = false;
};

struct RunResult {
  int64_t submitted = 0;
  int64_t completed = 0;
  int64_t errored = 0;
  int64_t double_terminated = 0;
  SampleStats ttft_ms;
  int gen1_tes = 0;
  int gen2_tes = 0;
  double cost_dollars = 0.0;       // NPU-hours held x per-generation $/hr
  double tokens = 0.0;             // completed decode tokens
  double tokens_per_dollar = 0.0;  // cost-normalized goodput
  TimeNs end_time = 0;
  uint64_t timeline_hash = 0;
};

std::vector<double> ParseRpsList(const std::string& csv) {
  std::vector<double> out;
  size_t start = 0;
  while (start <= csv.size()) {
    size_t comma = csv.find(',', start);
    size_t end = comma == std::string::npos ? csv.size() : comma;
    if (end > start) {
      out.push_back(std::atof(csv.substr(start, end - start).c_str()));
    }
    if (comma == std::string::npos) {
      break;
    }
    start = comma + 1;
  }
  return out;
}

RunResult Run(const Options& options, bool aware,
              const std::vector<workload::RequestSpec>& trace) {
  auto mix = hw::ParseNpuMix(options.mix);
  if (!mix.ok()) {
    std::fprintf(stderr, "%s\n", mix.status().ToString().c_str());
    std::exit(2);
  }
  fleet::FleetSpec fleet_spec = bench::TestbedSpec(static_cast<int>(mix->size()),
                                                   serving::SchedulingPolicy::kLoadOnly);
  fleet_spec.cluster.machine_specs = *mix;
  fleet_spec.cluster.npu_spec = mix->front();
  fleet_spec.je.cost_aware = aware;
  fleet::Fleet bed(fleet_spec, bench::ActiveObs());
  if (!aware) {
    serving::PlacementConfig placement;
    placement.hetero_aware = false;
    bed.manager().SetPlacement(placement);
  }

  flowserve::EngineConfig engine = bench::Engine34BTp4(flowserve::EngineRole::kColocated);
  engine.parallelism = {options.tp, 1, 1};
  engine.npu_spec = mix->front();
  engine.npu_spec_from_placement = true;  // TE cost models track their silicon
  bed.AddTes(engine, options.tes, /*prefill=*/0, /*decode=*/0);
  bed.Link();

  RunResult result;
  for (const auto& te : bed.manager().tes()) {
    const hw::NpuSpec& spec = bed.manager().TeSpec(te->id());
    if (spec.name == hw::NpuSpec::Gen1().name) {
      ++result.gen1_tes;
    } else {
      ++result.gen2_tes;
    }
  }

  const TimeNs t0 = bed.sim().Now();
  result.submitted = static_cast<int64_t>(trace.size());
  uint64_t hash = 1469598103934665603ull;
  auto mix_hash = [&hash](uint64_t v) {
    hash ^= v;
    hash *= 1099511628211ull;
  };
  std::vector<workload::RequestSpec> shifted = trace;
  for (auto& spec : shifted) {
    spec.arrival += t0;
  }
  fleet::ReplayHooks hooks;
  hooks.on_complete = [&](const workload::RequestSpec& spec, TimeNs first,
                          const flowserve::Sequence& seq) {
    result.tokens += static_cast<double>(spec.decode_len);
    mix_hash(spec.id * 2);
    mix_hash(static_cast<uint64_t>(seq.finish_time));
    result.ttft_ms.Add(NsToMs(first - spec.arrival));
  };
  hooks.on_error = [&](const workload::RequestSpec& spec, const Status&) {
    mix_hash(spec.id * 2 + 1);
  };
  bed.Replay(shifted, hooks);
  result.completed = bed.tally().completed;
  result.errored = bed.tally().errored;
  result.double_terminated = bed.tally().double_terminated;
  result.end_time = bed.sim().Now();
  mix_hash(static_cast<uint64_t>(result.end_time));
  result.timeline_hash = hash;

  // Fleet cost: the static fleet holds its NPUs from t0 until the last event
  // drains, at each TE's own generation list price.
  double dollars_per_hour = 0.0;
  for (const auto& te : bed.manager().tes()) {
    dollars_per_hour +=
        bed.manager().TeSpec(te->id()).cost_per_hour * static_cast<double>(options.tp);
  }
  double hours = NsToS(result.end_time - t0) / 3600.0;
  result.cost_dollars = dollars_per_hour * hours;
  result.tokens_per_dollar =
      result.cost_dollars > 0.0 ? result.tokens / result.cost_dollars : 0.0;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  bench::OptionRegistry registry;
  registry.Flag("npu-mix", &options.mix, "machine mix, e.g. gen2:2,gen1:2");
  registry.Flag("tes", &options.tes, "colocated TEs to place");
  registry.Flag("tp", &options.tp, "tensor-parallel degree per TE");
  registry.Flag("rps-list", &options.rps_list, "comma-separated arrival-rate sweep");
  registry.Flag("duration-s", &options.duration_s, "trace horizon per sweep point");
  registry.Flag("seed", &options.seed, "trace seed");
  registry.Flag("smoke", &options.smoke,
                "fixed run; exits non-zero unless the hetero-aware win holds");
  std::vector<char*> obs_args = registry.Parse(argc, argv);
  if (options.smoke) {
    options.rps_list = "0.6";
    options.duration_s = 40.0;
  }
  bench::ObsSession obs(static_cast<int>(obs_args.size()), obs_args.data());

  bench::PrintHeader("Heterogeneous Gen1/Gen2 cluster: cost-aware vs "
                     "generation-blind placement");
  std::vector<double> rps_points = ParseRpsList(options.rps_list);
  std::printf("mix %s, %d TEs (tp%d), %.0fs per point (seed %" PRIu64 ")\n",
              options.mix.c_str(), options.tes, options.tp, options.duration_s,
              options.seed);

  bool ok = true;
  for (double rps : rps_points) {
    workload::TraceConfig trace_config =
        workload::TraceGenerator::InternalTrace(rps, options.duration_s, options.seed);
    std::vector<workload::RequestSpec> trace = workload::TraceGenerator(trace_config).Generate();
    RunResult aware = Run(options, /*aware=*/true, trace);
    RunResult blind = Run(options, /*aware=*/false, trace);

    bench::PrintRule();
    std::printf("%.2f RPS (%zu requests)  %14s %14s\n", rps, trace.size(), "aware", "blind");
    bench::PrintRule();
    auto row_i = [&](const char* label, int64_t a, int64_t b) {
      std::printf("%-24s %14" PRId64 " %14" PRId64 "\n", label, a, b);
    };
    auto row_f = [&](const char* label, double a, double b) {
      std::printf("%-24s %14.1f %14.1f\n", label, a, b);
    };
    char aware_tes[32];
    char blind_tes[32];
    std::snprintf(aware_tes, sizeof(aware_tes), "%dg1+%dg2", aware.gen1_tes, aware.gen2_tes);
    std::snprintf(blind_tes, sizeof(blind_tes), "%dg1+%dg2", blind.gen1_tes, blind.gen2_tes);
    std::printf("%-24s %14s %14s\n", "TE placement", aware_tes, blind_tes);
    row_i("completed", aware.completed, blind.completed);
    row_i("errored", aware.errored, blind.errored);
    row_f("p50 TTFT (ms)", aware.ttft_ms.p50(), blind.ttft_ms.p50());
    row_f("p99 TTFT (ms)", aware.ttft_ms.p99(), blind.ttft_ms.p99());
    row_f("fleet cost ($)", aware.cost_dollars, blind.cost_dollars);
    row_f("goodput (tokens/$)", aware.tokens_per_dollar, blind.tokens_per_dollar);

    if (options.smoke) {
      for (const RunResult* r : {&aware, &blind}) {
        const char* mode = r == &aware ? "aware" : "blind";
        if (r->completed + r->errored != r->submitted || r->double_terminated != 0 ||
            r->errored != 0) {
          std::fprintf(stderr,
                       "CONSERVATION VIOLATED (%s @ %.2f rps): submitted=%" PRId64
                       " completed=%" PRId64 " errored=%" PRId64 " double_terminated=%" PRId64
                       "\n",
                       mode, rps, r->submitted, r->completed, r->errored,
                       r->double_terminated);
          ok = false;
        }
      }
      if (aware.gen1_tes <= blind.gen1_tes) {
        std::fprintf(stderr,
                     "NO PLACEMENT SHIFT: aware put %d TEs on Gen1 vs blind %d — "
                     "cost-aware placement never chose the cheap generation\n",
                     aware.gen1_tes, blind.gen1_tes);
        ok = false;
      }
      if (aware.tokens_per_dollar <= blind.tokens_per_dollar) {
        std::fprintf(stderr,
                     "NO COST WIN: aware %.1f tokens/$ <= blind %.1f tokens/$\n",
                     aware.tokens_per_dollar, blind.tokens_per_dollar);
        ok = false;
      }
      RunResult replay = Run(options, /*aware=*/true, trace);
      if (replay.timeline_hash != aware.timeline_hash || replay.end_time != aware.end_time) {
        std::fprintf(stderr,
                     "NON-DETERMINISTIC: aware replay diverged (hash %016" PRIx64
                     " vs %016" PRIx64 ")\n",
                     replay.timeline_hash, aware.timeline_hash);
        ok = false;
      }
    }
  }
  bench::PrintRule();

  if (options.smoke) {
    if (!ok) {
      return 1;
    }
    std::printf("smoke: conservation in both modes, cost-aware placement lands on cheaper "
                "silicon, wins tokens/$ over blind, and replays bit-identically\n");
  }
  return 0;
}
