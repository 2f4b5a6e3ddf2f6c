// A multi-tenant chat service on the full DeepServe platform: cluster, Job
// Executor with the combined scheduling policy (Algorithm 1), a mixed fleet
// of PD-colocated TEs and a PD-disaggregated pair, and an online trace.
// Prints the request/job/task ledger and fleet-level statistics.

#include <cstdio>

#include "common/time_units.h"
#include "fleet/fleet.h"
#include "workload/tracegen.h"

using namespace deepserve;

int main() {
  fleet::FleetSpec spec;
  spec.cluster.num_machines = 4;
  spec.je.policy = serving::SchedulingPolicy::kCombined;
  spec.predictor = [] { return serving::MakeNoisyPredictor(0.9, 42); };
  fleet::Fleet fleet(spec);
  serving::JobExecutor& je = fleet.je();

  flowserve::EngineConfig engine;
  engine.model = model::ModelSpec::Yi34B();
  engine.parallelism = {4, 1, 1};

  // Fleet: 2 colocated TEs + one 1P1D pair, DistFlow-linked.
  fleet.AddTes(engine, /*colocated=*/2, /*prefill=*/1, /*decode=*/1);
  fleet.Link();

  // 90 seconds of the code-generation trace (varied prompt/decode shapes, so
  // Algorithm 1 exercises both routes) at 1 request/second.
  auto trace = workload::TraceGenerator(workload::TraceGenerator::CodeGenTrace(1.0, 90.0))
                   .Generate();
  workload::MetricsCollector metrics = fleet.Replay(trace);

  std::printf("chat service summary: %s\n\n", metrics.Summary().c_str());
  std::printf("scheduling: %lld requests -> %lld colocated, %lld disaggregated "
              "(%lld locality picks, %lld load picks, %lld prefix hits)\n",
              static_cast<long long>(je.stats().requests),
              static_cast<long long>(je.stats().routed_colocated),
              static_cast<long long>(je.stats().routed_disaggregated),
              static_cast<long long>(je.stats().locality_decisions),
              static_cast<long long>(je.stats().load_decisions),
              static_cast<long long>(je.stats().locality_hits));

  // The request-job-task ledger: show the first disaggregated job's tasks.
  for (const auto& job : je.jobs()) {
    if (job.tasks.size() == 2) {
      std::printf("\njob %llu (request %llu) ran as two tasks:\n",
                  static_cast<unsigned long long>(job.id),
                  static_cast<unsigned long long>(job.request));
      for (serving::TaskId task_id : job.tasks) {
        const auto& task = je.tasks()[task_id - 1];
        std::printf("  task %llu [%s] on TE %d: %.1f ms\n",
                    static_cast<unsigned long long>(task.id),
                    std::string(serving::TaskTypeToString(task.type)).c_str(), task.te,
                    NsToMs(task.completed - task.dispatched));
      }
      break;
    }
  }

  std::printf("\nper-TE load:\n");
  for (const auto& te : fleet.manager().tes()) {
    std::printf("  TE %d (%s): %lld requests, %lld steps, cache hit %.0f%%\n", te->id(),
                std::string(flowserve::EngineRoleToString(te->role())).c_str(),
                static_cast<long long>(te->engine().stats().submitted),
                static_cast<long long>(te->engine().stats().steps),
                100.0 * te->engine().rtc().stats().TokenHitRate());
  }
  std::printf("\nDistFlow: %lld transfers, %.2f GiB moved\n",
              static_cast<long long>(fleet.transfer().stats().transfers),
              BytesToGiB(fleet.transfer().stats().bytes_moved));
  return 0;
}
