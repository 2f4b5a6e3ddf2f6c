// PD-disaggregated serving in detail: one prefill TE and one decode TE, KV
// hand-off over DistFlow, comparing the by-request and by-layer transfer
// modes (§4.5). Shows the per-request timeline: prefill done -> KV delivered
// -> decode task completes.

#include <cstdio>

#include "common/time_units.h"
#include "fleet/fleet.h"
#include "workload/tracegen.h"

using namespace deepserve;

namespace {

void RunMode(flowserve::KvTransferMode mode, const char* label) {
  fleet::FleetSpec fleet_spec;
  fleet_spec.cluster.num_machines = 2;
  fleet::Fleet fleet(fleet_spec);
  sim::Simulator& sim = fleet.sim();

  flowserve::EngineConfig engine;
  engine.model = model::ModelSpec::Yi34B();
  engine.parallelism = {4, 1, 1};
  engine.kv_transfer_mode = mode;

  // Submitted to the TEs directly, bypassing the JE, to show the hand-off.
  auto prefill_te = fleet.AddTe(flowserve::EngineRole::kPrefillOnly, engine);
  auto decode_te = fleet.AddTe(flowserve::EngineRole::kDecodeOnly, engine);
  fleet.Link();

  std::printf("--- %s ---\n", label);
  auto batch = workload::TraceGenerator::FixedBatch(4, 2048, 128, /*seed=*/11);
  for (const auto& spec : batch) {
    TimeNs submit = sim.Now();
    prefill_te->SubmitPrefill(
        spec, decode_te,
        {[submit, &spec](const flowserve::Sequence& seq) {
           std::printf("req %llu: prefill of %lld tokens done, first token @ %.0f ms\n",
                       static_cast<unsigned long long>(spec.id),
                       static_cast<long long>(spec.prefill_len()),
                       NsToMs(seq.first_token_time - submit));
         },
         [submit, &spec](const flowserve::Sequence& seq) {
           std::printf("req %llu: decode finished @ %.0f ms (%lld tokens)\n",
                       static_cast<unsigned long long>(spec.id),
                       NsToMs(seq.finish_time - submit),
                       static_cast<long long>(spec.decode_len));
         },
         nullptr});
  }
  sim.Run();
  Bytes kv_per_req = static_cast<Bytes>(2048) * engine.model.KvBytesPerToken();
  std::printf("KV per request: %.2f GiB; DistFlow moved %.2f GiB total "
              "(by-layer streams all but the last layer during prefill)\n\n",
              BytesToGiB(kv_per_req), BytesToGiB(fleet.transfer().stats().bytes_moved));
}

}  // namespace

int main() {
  std::printf("PD-disaggregated serving: 1P1D, 34B TP=4, 2K-token prompts\n\n");
  RunMode(flowserve::KvTransferMode::kByRequest, "by-request KV transfer");
  RunMode(flowserve::KvTransferMode::kByLayer, "by-layer KV transfer (overlapped)");
  return 0;
}
