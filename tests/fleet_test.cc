// Fleet against hand-wired stacks: for each deployment shape, the serving
// stack wired by hand (cluster, DistFlow, optional shared control log, CM,
// JEs, failure wiring, optional Frontend, first-token replay) and the same
// stack built by Fleet replay one trace, with the same faults, to equal
// timeline hashes and MetricsCollector summaries.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/time_units.h"
#include "faults/fault_injector.h"
#include "fleet/fleet.h"
#include "workload/tracegen.h"
#include "test_util.h"

namespace deepserve {
namespace {

struct Shape {
  fleet::FleetSpec spec;
  flowserve::EngineConfig engine = SmallEngine(flowserve::EngineRole::kColocated);
  int colocated = 0;  // TEs per JE, by role
  int prefill = 0;
  int decode = 0;
  std::string faults;  // FaultInjector schedule
};

// Every completion record in completion order, folded into one word, plus
// the collector's summary line.
struct Outcome {
  uint64_t hash = 1469598103934665603ull;
  size_t completed = 0;
  std::string summary;

  explicit Outcome(const workload::MetricsCollector& metrics)
      : completed(metrics.completed()), summary(metrics.Summary()) {
    for (const workload::RequestRecord& record : metrics.records()) {
      for (uint64_t v : {uint64_t{record.id}, static_cast<uint64_t>(record.first_token),
                         static_cast<uint64_t>(record.completion)}) {
        hash ^= v;
        hash *= 1099511628211ull;
      }
    }
  }
};

std::vector<workload::RequestSpec> Trace() {
  // Long decodes keep every TE busy, so each crash below hits in-flight work.
  auto config = workload::TraceGenerator::InternalTrace(8.0, 20.0, /*seed=*/7);
  config.prefill = workload::LengthDistribution{512, 0.3, 64, 2048};
  config.decode = workload::LengthDistribution{512, 0.3, 128, 2048};
  return workload::TraceGenerator(config).Generate();
}

void InjectFaults(const Shape& shape, faults::FaultInjector* injector) {
  if (!shape.faults.empty()) {
    injector->ScheduleAll(faults::FaultInjector::ParseSchedule(shape.faults).value());
  }
}

Outcome RunByHand(const Shape& shape) {
  const fleet::FleetSpec& spec = shape.spec;
  sim::Simulator sim;
  hw::Cluster cluster(&sim, spec.cluster);
  distflow::TransferEngine transfer(&sim, &cluster, distflow::DistFlowConfig{});
  std::unique_ptr<ctrl::ControlLog> log;
  if (spec.ctrl.replicas > 1) {
    log = std::make_unique<ctrl::ControlLog>(&sim, spec.ctrl);
  }
  serving::ClusterManager manager(&sim, &cluster, &transfer, {}, {}, log.get());
  std::vector<std::unique_ptr<serving::JobExecutor>> jes;
  for (int i = 0; i < spec.num_jes; ++i) {
    jes.push_back(std::make_unique<serving::JobExecutor>(
        &sim, spec.je, serving::PdHeatmap::Default(), serving::MakeOraclePredictor()));
    if (log != nullptr) {
      jes.back()->AttachControl(log.get(), &manager);
    }
  }
  std::vector<distflow::EndpointId> endpoints;
  for (auto& je : jes) {
    flowserve::EngineConfig engine = shape.engine;
    for (int i = 0; i < shape.colocated + shape.prefill + shape.decode; ++i) {
      engine.role = i < shape.colocated                 ? flowserve::EngineRole::kColocated
                    : i < shape.colocated + shape.prefill ? flowserve::EngineRole::kPrefillOnly
                                                          : flowserve::EngineRole::kDecodeOnly;
      serving::TaskExecutor* te = manager.CreateReadyTe(engine).value();
      endpoints.push_back(te->id());
      if (engine.role == flowserve::EngineRole::kColocated) {
        je->AddColocatedTe(te);
      } else if (engine.role == flowserve::EngineRole::kPrefillOnly) {
        je->AddPrefillTe(te);
      } else {
        je->AddDecodeTe(te);
      }
    }
  }
  DS_CHECK_OK(transfer.LinkCluster(endpoints, nullptr));
  sim.Run();
  if (log == nullptr) {
    manager.AddFailureHandler([&jes](serving::TeId id) {
      for (auto& je : jes) {
        je->OnTeFailure(id);
      }
    });
  }
  std::unique_ptr<serving::Frontend> frontend;
  if (spec.frontend) {
    frontend = std::make_unique<serving::Frontend>(&sim, spec.route);
    for (auto& je : jes) {
      frontend->RegisterServingJe(spec.model, je.get());
    }
  }
  faults::FaultInjector injector(&sim, &manager, /*seed=*/1);
  InjectFaults(shape, &injector);

  workload::MetricsCollector metrics;
  std::map<workload::RequestId, TimeNs> first_tokens;
  for (const auto& request : Trace()) {
    sim.ScheduleAt(request.arrival, [&, request] {
      serving::ResponseHandler handler{
          [&first_tokens, id = request.id](const flowserve::Sequence& seq) {
            first_tokens[id] = seq.first_token_time;
          },
          [&, request](const flowserve::Sequence& seq) {
            auto it = first_tokens.find(request.id);
            metrics.Record({request.id, request.arrival,
                            it != first_tokens.end() ? it->second : seq.first_token_time,
                            seq.finish_time, request.prefill_len(), request.decode_len});
          },
          nullptr};
      if (frontend == nullptr) {
        jes[0]->HandleRequest(request, std::move(handler));
      } else {
        (void)frontend->ChatCompletion({spec.model, request, request.deadline}, handler);
      }
    });
  }
  sim.Run();
  return Outcome(metrics);
}

Outcome RunFleet(const Shape& shape) {
  fleet::Fleet fleet(shape.spec);
  for (size_t i = 0; i < fleet.num_jes(); ++i) {
    fleet.AddTes(shape.engine, shape.colocated, shape.prefill, shape.decode, i);
  }
  fleet.Link();
  faults::FaultInjector injector(&fleet.sim(), &fleet.manager(), /*seed=*/1);
  InjectFaults(shape, &injector);

  return Outcome(fleet.Replay(Trace()));
}

void ExpectSameReplay(const Shape& shape) {
  Outcome by_hand = RunByHand(shape);
  Outcome built = RunFleet(shape);
  EXPECT_GT(by_hand.completed, 0u);
  EXPECT_EQ(built.hash, by_hand.hash);
  EXPECT_EQ(built.completed, by_hand.completed);
  EXPECT_EQ(built.summary, by_hand.summary);
}

TEST(FleetTest, ColocatedPlusPdPairMatchesHandWiredStack) {
  Shape shape;
  shape.colocated = 2;
  shape.prefill = 1;
  shape.decode = 1;
  shape.faults = "shell@6#0";  // private logs: the fan-out failure handler
  ExpectSameReplay(shape);
}

TEST(FleetTest, ReplicatedControlLogWithCmCrashMatchesHandWiredStack) {
  Shape shape;
  shape.spec.ctrl.replicas = 3;
  shape.spec.ctrl.quorum = 2;
  shape.spec.ctrl.replication_latency = MsToNs(1);
  shape.spec.ctrl.lease_duration = MsToNs(300);
  shape.colocated = 3;
  shape.faults = "cm@5;shell@5.1#1";  // a TE dies during the CM outage
  ExpectSameReplay(shape);
}

TEST(FleetTest, TwoJesBehindFrontendMatchHandWiredStack) {
  Shape shape;
  shape.spec.num_jes = 2;
  shape.spec.frontend = true;
  shape.spec.model = "tiny-1b";
  shape.spec.route.policy = "p2c";
  shape.spec.route.seed = 3;
  shape.colocated = 2;
  shape.faults = "npu@8#2";
  ExpectSameReplay(shape);
}

TEST(FleetTest, MixedGenerationClusterMatchesHandWiredStack) {
  Shape shape;
  shape.spec.cluster.machine_specs = hw::ParseNpuMix("gen1:2,gen2:1").value();
  shape.spec.cluster.num_machines = 3;
  shape.spec.je.cost_aware = true;
  shape.engine.npu_spec_from_placement = true;  // TE cost models track their silicon
  shape.colocated = 3;
  ExpectSameReplay(shape);
}

// Prompt work of one replay: dispatches (first dispatches plus crash
// re-dispatches), the JE's request copies and key-chain hashes, and the key
// chains every TE's RTC had to hash itself.
struct PromptWork {
  int64_t dispatches = 0;
  int64_t copies = 0;
  int64_t hashes = 0;
  int64_t rtc_hashes = 0;
};

PromptWork ReplayCountingPromptWork(const Shape& shape) {
  fleet::Fleet fleet(shape.spec);
  fleet.AddTes(shape.engine, shape.colocated, shape.prefill, shape.decode);
  fleet.Link();
  faults::FaultInjector injector(&fleet.sim(), &fleet.manager(), /*seed=*/1);
  InjectFaults(shape, &injector);
  fleet.Replay(Trace());
  EXPECT_EQ(fleet.tally().errored, 0);
  const serving::JeStats& je = fleet.je().stats();
  PromptWork work{je.requests + je.retries, je.prompt_copies, je.prompt_hashes, 0};
  for (const auto& te : fleet.manager().tes()) {
    for (int g = 0; g < te->engine().config().parallelism.dp; ++g) {
      work.rtc_hashes += te->engine().rtc(g).stats().prompt_hashes;
    }
  }
  return work;
}

void ExpectOneCopyAndOneHashPerDispatch(const PromptWork& work) {
  EXPECT_GT(work.dispatches, 0);
  EXPECT_EQ(work.copies, work.dispatches);
  EXPECT_EQ(work.hashes, work.dispatches);
  EXPECT_EQ(work.rtc_hashes, 0) << "an engine re-hashed a prompt the JE had hashed";
}

// The JE copies each dispatched request once and hashes its prompt's key
// chain once; the TEs below share both, so no RTC hashes a prompt itself.
TEST(FleetTest, OnePromptCopyAndOneHashPerColocatedDispatch) {
  Shape shape;
  shape.colocated = 2;
  ExpectOneCopyAndOneHashPerDispatch(ReplayCountingPromptWork(shape));
}

TEST(FleetTest, PdPairSharesOnePromptCopyAndHash) {
  Shape shape;
  shape.prefill = 1;
  shape.decode = 1;
  ExpectOneCopyAndOneHashPerDispatch(ReplayCountingPromptWork(shape));
}

TEST(FleetTest, CrashRedispatchCostsOneMoreCopyAndHash) {
  Shape shape;
  shape.colocated = 2;
  shape.faults = "shell@6#0";
  PromptWork work = ReplayCountingPromptWork(shape);
  EXPECT_GT(work.dispatches, static_cast<int64_t>(Trace().size())) << "no request re-dispatched";
  ExpectOneCopyAndOneHashPerDispatch(work);
}

}  // namespace
}  // namespace deepserve
