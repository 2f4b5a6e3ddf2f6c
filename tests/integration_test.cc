// Cross-module integration tests: whole serving pipelines on the simulated
// cluster — platform + engines + RTC + DistFlow together.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/time_units.h"
#include "fleet/fleet.h"
#include "workload/metrics.h"
#include "workload/tracegen.h"
#include "test_util.h"

namespace deepserve {
namespace {

using serving::SchedulingPolicy;

// A whole-platform fixture: a Fleet with one JE on a 4-machine cluster.
class PlatformTest : public ::testing::Test {
 protected:
  void MakeJe(SchedulingPolicy policy) {
    fleet::FleetSpec spec;
    spec.je.policy = policy;
    fleet_ = std::make_unique<fleet::Fleet>(spec);
  }

  void BuildFleet(int colocated, int prefill, int decode) {
    fleet_->AddTes(SmallEngine(flowserve::EngineRole::kColocated, 0), colocated, prefill,
                   decode);
    fleet_->Link();
  }

  workload::MetricsCollector Replay(const std::vector<workload::RequestSpec>& trace) {
    return fleet_->Replay(trace);
  }

  serving::ClusterManager& manager() { return fleet_->manager(); }
  serving::JobExecutor& je() { return fleet_->je(); }

  std::unique_ptr<fleet::Fleet> fleet_;
};

TEST_F(PlatformTest, MixedFleetServesWholeTrace) {
  MakeJe(SchedulingPolicy::kCombined);
  BuildFleet(2, 1, 1);
  auto config = workload::TraceGenerator::InternalTrace(3.0, 30.0, 1);
  config.prefill = workload::LengthDistribution{512, 0.3, 64, 2048};
  config.decode = workload::LengthDistribution{48, 0.4, 4, 256};
  auto trace = workload::TraceGenerator(config).Generate();
  auto metrics = Replay(trace);
  EXPECT_EQ(metrics.completed(), trace.size());
  EXPECT_GT(metrics.ttft_ms().p50(), 0.0);
  EXPECT_GT(metrics.tpot_ms().p50(), 0.0);
  // Metrics are causally ordered for every record.
  for (const auto& record : metrics.records()) {
    EXPECT_GE(record.first_token, record.arrival);
    EXPECT_GE(record.completion, record.first_token);
  }
}

TEST_F(PlatformTest, JobLedgerConsistentAfterRun) {
  MakeJe(SchedulingPolicy::kCombined);
  BuildFleet(1, 1, 1);
  auto trace = workload::TraceGenerator(
                   workload::TraceGenerator::CodeGenTrace(2.0, 20.0, 3))
                   .Generate();
  Replay(trace);
  EXPECT_EQ(je().jobs().size(), trace.size());
  for (const auto& job : je().jobs()) {
    EXPECT_EQ(job.state, serving::JobState::kCompleted);
    EXPECT_GE(job.completed, job.created);
    ASSERT_FALSE(job.tasks.empty());
    ASSERT_LE(job.tasks.size(), 2u);
    for (serving::TaskId task_id : job.tasks) {
      const auto& task = je().tasks()[task_id - 1];
      EXPECT_EQ(task.state, serving::TaskState::kCompleted);
      EXPECT_EQ(task.job, job.id);
      EXPECT_GE(task.completed, task.dispatched);
    }
  }
}

TEST_F(PlatformTest, DisaggregatedKvTransferIsTimedThroughDistFlow) {
  MakeJe(SchedulingPolicy::kCombined);
  BuildFleet(0, 1, 1);
  auto batch = workload::TraceGenerator::FixedBatch(4, 1024, 32);
  Replay(batch);
  // Every request moved KV prefill -> decode over the fabric.
  EXPECT_GE(fleet_->transfer().stats().transfers, 4);
  EXPECT_GT(fleet_->transfer().stats().bytes_moved, 0u);
}

TEST_F(PlatformTest, ByRequestTransferSlowerThanByLayer) {
  auto run = [&](flowserve::KvTransferMode mode) {
    fleet::FleetSpec spec;
    spec.cluster.num_machines = 2;
    fleet::Fleet fleet(spec);
    auto engine_config = SmallEngine(flowserve::EngineRole::kPrefillOnly, 0);
    engine_config.kv_transfer_mode = mode;
    auto prefill = fleet.AddTe(flowserve::EngineRole::kPrefillOnly, engine_config);
    auto decode = fleet.AddTe(flowserve::EngineRole::kDecodeOnly, engine_config);
    fleet.Link();
    TimeNs done = 0;
    auto batch = workload::TraceGenerator::FixedBatch(1, 2048, 64);
    prefill->SubmitPrefill(
        batch[0], decode,
        {nullptr, [&](const flowserve::Sequence& seq) { done = seq.finish_time; }, nullptr});
    fleet.sim().Run();
    return done;
  };
  TimeNs by_req = run(flowserve::KvTransferMode::kByRequest);
  TimeNs by_layer = run(flowserve::KvTransferMode::kByLayer);
  EXPECT_LT(by_layer, by_req);
}

TEST_F(PlatformTest, ScaledUpTeImmediatelyServes) {
  MakeJe(SchedulingPolicy::kLoadOnly);
  BuildFleet(1, 0, 0);
  manager().ReservePrewarmedPods(2);
  manager().ReservePrewarmedTes(2);
  serving::ScaleRequest request;
  request.engine = SmallEngine(flowserve::EngineRole::kColocated, 0);
  bool served = false;
  ASSERT_TRUE(manager()
                  .ScaleUp(request,
                            [&](serving::TaskExecutor* te, const auto&) {
                              ASSERT_NE(te, nullptr);
                              je().AddColocatedTe(te);
                              auto batch = workload::TraceGenerator::FixedBatch(1, 256, 8);
                              te->SubmitUnified(batch[0],
                                                {nullptr,
                                                 [&](const flowserve::Sequence&) {
                                                   served = true;
                                                 },
                                                 nullptr});
                            })
                  .ok());
  fleet_->sim().Run();
  EXPECT_TRUE(served);
}

TEST_F(PlatformTest, DeterministicAcrossRuns) {
  auto run_once = [](uint64_t seed) {
    fleet::FleetSpec spec;
    spec.cluster.num_machines = 2;
    spec.je.policy = SchedulingPolicy::kCombined;
    spec.predictor = [seed] { return serving::MakeNoisyPredictor(0.9, seed); };
    fleet::Fleet fleet(spec);
    fleet.AddTe(flowserve::EngineRole::kColocated,
                SmallEngine(flowserve::EngineRole::kColocated, 0));
    auto trace = workload::TraceGenerator(
                     workload::TraceGenerator::InternalTrace(2.0, 20.0, seed))
                     .Generate();
    workload::MetricsCollector metrics = fleet.Replay(trace);
    std::vector<TimeNs> completions;
    for (const workload::RequestRecord& record : metrics.records()) {
      completions.push_back(record.completion);
    }
    return completions;
  };
  auto a = run_once(7);
  auto b = run_once(7);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << "run diverged at completion " << i;
  }
}

TEST_F(PlatformTest, CachePressureWithLocalityStillCompletesEverything) {
  MakeJe(SchedulingPolicy::kCombined);
  // Tiny KV capacity to force constant eviction/preemption under load.
  auto engine_config = SmallEngine(flowserve::EngineRole::kColocated, 0);
  engine_config.kv_block_capacity_override = 256;
  auto te1 = fleet_->AddTe(flowserve::EngineRole::kColocated, engine_config);
  auto te2 = fleet_->AddTe(flowserve::EngineRole::kColocated, engine_config);
  auto config = workload::TraceGenerator::CodeGenTrace(4.0, 20.0, 9);
  config.prefill = workload::LengthDistribution{768, 0.4, 128, 2048};
  config.decode = workload::LengthDistribution{64, 0.5, 8, 256};
  auto trace = workload::TraceGenerator(config).Generate();
  auto metrics = Replay(trace);
  EXPECT_EQ(metrics.completed(), trace.size());
  // After the run all sequence pins are gone: only cached blocks remain.
  EXPECT_TRUE(te1->engine().idle());
  EXPECT_TRUE(te2->engine().idle());
}

TEST_F(PlatformTest, PopulatePathExercisedUnderTierPressure) {
  MakeJe(SchedulingPolicy::kLocalityOnly);
  auto engine_config = SmallEngine(flowserve::EngineRole::kColocated, 0);
  engine_config.kv_block_capacity_override = 512;
  auto te = fleet_->AddTe(flowserve::EngineRole::kColocated, engine_config);
  // A repeated long prefix interleaved with cache-thrashing filler: the
  // prefix gets demoted to DRAM and later populated back.
  std::vector<workload::RequestSpec> trace;
  Rng rng(4);
  workload::RequestId id = 1;
  auto make = [&](TokenId base, int64_t len, TimeNs at) {
    workload::RequestSpec spec;
    spec.id = id++;
    spec.arrival = at;
    spec.decode_len = 4;
    for (int64_t i = 0; i < len; ++i) {
      spec.prompt.push_back(base + static_cast<TokenId>(i % 3000));
    }
    trace.push_back(spec);
  };
  make(1000, 2048, 0);  // the hot prefix
  for (int i = 0; i < 12; ++i) {  // filler that overflows the NPU pool
    make(static_cast<TokenId>(40000 + i * 4000), 1536, SToNs(0.5 + 0.4 * i));
  }
  make(1000, 2048, SToNs(8.0));  // prefix returns
  auto metrics = Replay(trace);
  EXPECT_EQ(metrics.completed(), trace.size());
  const auto& stats = te->engine().rtc().stats();
  EXPECT_GT(stats.evicted_blocks + stats.discarded_blocks + stats.swapped_out_blocks, 0);
}

}  // namespace
}  // namespace deepserve
