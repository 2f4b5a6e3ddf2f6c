// Frontend routing, multi-tenant priority classes, and SLA-aware adaptive
// chunking tests.

#include <gtest/gtest.h>

#include <vector>

#include "common/time_units.h"
#include "fleet/fleet.h"
#include "flowserve/engine.h"
#include "serving/frontend.h"
#include "sim/simulator.h"
#include "workload/metrics.h"
#include "workload/tracegen.h"
#include "test_util.h"

namespace deepserve {
namespace {

// ---------------- Frontend ----------------

serving::ChatRequest Chat(const std::string& model, workload::RequestSpec spec) {
  serving::ChatRequest request;
  request.model = model;
  request.spec = std::move(spec);
  return request;
}

// Up to three load-only JE replicas on a 2-machine fleet, each test building
// its own Frontend over the ones it takes. The fleet's TE-failure wiring
// notifies every replica.
class FrontendTest : public ::testing::Test {
 protected:
  FrontendTest() : fleet_(Spec()) {}

  static fleet::FleetSpec Spec() {
    fleet::FleetSpec spec;
    spec.cluster.num_machines = 2;
    spec.je.policy = serving::SchedulingPolicy::kLoadOnly;
    spec.num_jes = 3;
    return spec;
  }

  // The next unused JE replica, without TEs.
  serving::JobExecutor* NextJe() { return &fleet_.je(next_je_++); }

  serving::JobExecutor* MakeJeWithTe() {
    last_te_ = fleet_.AddTe(flowserve::EngineRole::kColocated,
                            SmallEngine(flowserve::EngineRole::kColocated), next_je_);
    return NextJe();
  }

  fleet::Fleet fleet_;
  sim::Simulator& sim_ = fleet_.sim();
  serving::ClusterManager* manager_ = &fleet_.manager();
  size_t next_je_ = 0;
  serving::TaskExecutor* last_te_ = nullptr;
};

TEST_F(FrontendTest, RoutesByModelName) {
  serving::Frontend frontend;
  auto je = MakeJeWithTe();
  frontend.RegisterServingJe("tiny-1b", je);
  bool done = false;
  EXPECT_TRUE(frontend
                  .ChatCompletion(Chat("tiny-1b", MakeRequest(1, 128, 8, 900, 6000)),
                                  {nullptr, [&](const flowserve::Sequence&) { done = true; },
                                   nullptr})
                  .ok());
  sim_.Run();
  EXPECT_TRUE(done);
  EXPECT_EQ(frontend.stats().chat_dispatched, 1);
}

TEST_F(FrontendTest, UnknownModelRejectedThroughStatusExactlyOnce) {
  // Exactly-once reporting: a pre-dispatch rejection is the returned Status
  // and nothing else — the handler must NOT also fire (callers that count
  // both would double-count the request).
  serving::Frontend frontend;
  int error_calls = 0;
  Status s = frontend.ChatCompletion(Chat("gpt-17", MakeRequest(1, 64, 4, 900, 6000)),
                                     {nullptr, nullptr, [&](const Status&) { ++error_calls; }});
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(error_calls, 0);  // the Status is the one and only report
  EXPECT_EQ(frontend.stats().rejected(serving::RejectReason::kUnknownModel), 1);
  EXPECT_EQ(frontend.stats().rejected_total(), 1);
  EXPECT_EQ(frontend.stats().errors, 0);  // rejected, not errored-after-dispatch
}

TEST_F(FrontendTest, DeadlineAlreadyMissedRejected) {
  serving::Frontend frontend(&sim_);
  auto je = MakeJeWithTe();
  frontend.RegisterServingJe("tiny-1b", je);
  sim_.ScheduleAt(MsToNs(100), [&] {
    auto request = Chat("tiny-1b", MakeRequest(1, 64, 4, 900, 6000));
    request.deadline = MsToNs(50);  // already in the past
    int error_calls = 0;
    EXPECT_EQ(frontend.ChatCompletion(std::move(request),
                                      {nullptr, nullptr, [&](const Status&) { ++error_calls; }})
                  .code(),
              StatusCode::kDeadlineExceeded);
    EXPECT_EQ(error_calls, 0);  // reported via Status only
  });
  sim_.Run();
  EXPECT_EQ(frontend.stats().rejected(serving::RejectReason::kDeadline), 1);
  EXPECT_EQ(frontend.stats().chat_dispatched, 0);
}

TEST_F(FrontendTest, PriorityOverrideReachesEngine) {
  serving::Frontend frontend;
  auto je = MakeJeWithTe();
  frontend.RegisterServingJe("tiny-1b", je);
  auto request = Chat("tiny-1b", MakeRequest(1, 64, 4, 900, 6000));
  request.spec.priority = 2;
  request.priority = 0;  // envelope overrides the spec
  int seen_priority = -1;
  ASSERT_TRUE(frontend
                  .ChatCompletion(std::move(request),
                                  {nullptr,
                                   [&](const flowserve::Sequence& seq) {
                                     seen_priority = seq.priority;
                                   },
                                   nullptr})
                  .ok());
  sim_.Run();
  EXPECT_EQ(seen_priority, 0);
}

TEST_F(FrontendTest, RoundRobinAcrossJeReplicas) {
  serving::Frontend frontend;
  auto je1 = MakeJeWithTe();
  auto je2 = MakeJeWithTe();
  frontend.RegisterServingJe("tiny-1b", je1);
  frontend.RegisterServingJe("tiny-1b", je2);
  EXPECT_EQ(frontend.je_count("tiny-1b"), 2u);
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(frontend
                    .ChatCompletion(Chat("tiny-1b", MakeRequest(
                                                        static_cast<workload::RequestId>(i + 1),
                                                        64, 4, 900, 6000)),
                                    {nullptr, nullptr, nullptr})
                    .ok());
  }
  sim_.Run();
  EXPECT_EQ(je1->stats().requests, 3);
  EXPECT_EQ(je2->stats().requests, 3);
}

TEST_F(FrontendTest, SkipsJeWithoutCapacity) {
  serving::Frontend frontend;
  serving::JobExecutor* empty_je = NextJe();
  auto good_je = MakeJeWithTe();
  frontend.RegisterServingJe("tiny-1b", empty_je);
  frontend.RegisterServingJe("tiny-1b", good_je);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(frontend
                    .ChatCompletion(Chat("tiny-1b", MakeRequest(
                                                        static_cast<workload::RequestId>(i + 1),
                                                        64, 4, 900, 6000)),
                                    {nullptr, nullptr, nullptr})
                    .ok());
  }
  EXPECT_EQ(empty_je->stats().requests, 0);
  EXPECT_EQ(good_je->stats().requests, 4);
  sim_.Run();
}

TEST_F(FrontendTest, AllReplicasDownMeansUnavailable) {
  serving::Frontend frontend;
  serving::JobExecutor* empty_je = NextJe();
  frontend.RegisterServingJe("tiny-1b", empty_je);
  EXPECT_EQ(frontend
                .ChatCompletion(Chat("tiny-1b", MakeRequest(1, 64, 4, 900, 6000)),
                                {nullptr, nullptr, nullptr})
                .code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(frontend.stats().rejected(serving::RejectReason::kNoCapacity), 1);
}

TEST_F(FrontendTest, CapacityConsultsTeStateNotGroupMembership) {
  // A JE whose only TE has crashed, before the detector notices, still *has*
  // the TE in its group; the old group-membership check would have routed to
  // it. ReadyCapacityWeight must consult TeState instead.
  serving::Frontend frontend;
  auto je = MakeJeWithTe();
  frontend.RegisterServingJe("tiny-1b", je);
  ASSERT_TRUE(manager_->CrashTe(last_te_->id()).ok());
  ASSERT_EQ(je->colocated_count(), 1u);
  EXPECT_EQ(frontend
                .ChatCompletion(Chat("tiny-1b", MakeRequest(1, 64, 4, 900, 6000)),
                                {nullptr, nullptr, nullptr})
                .code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(je->stats().requests, 0);
}

TEST_F(FrontendTest, RoundRobinSkipsFailedReplicaAndResumesOnReplacement) {
  serving::Frontend frontend;
  auto je1 = MakeJeWithTe();
  auto* te1 = last_te_;
  auto je2 = MakeJeWithTe();
  frontend.RegisterServingJe("tiny-1b", je1);
  frontend.RegisterServingJe("tiny-1b", je2);

  // je1's TE fails mid-stream: subsequent requests all land on je2.
  ASSERT_TRUE(manager_->KillTe(te1->id()).ok());
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(frontend
                    .ChatCompletion(Chat("tiny-1b", MakeRequest(
                                                        static_cast<workload::RequestId>(i + 1),
                                                        64, 4, 900, 6000)),
                                    {nullptr, nullptr, nullptr})
                    .ok());
  }
  EXPECT_EQ(je1->stats().requests, 0);
  EXPECT_EQ(je2->stats().requests, 4);
  sim_.Run();

  // A replacement replica registered later re-enters the rotation.
  auto je3 = MakeJeWithTe();
  frontend.RegisterServingJe("tiny-1b", je3);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(frontend
                    .ChatCompletion(Chat("tiny-1b", MakeRequest(
                                                        static_cast<workload::RequestId>(i + 10),
                                                        64, 4, 900, 6000)),
                                    {nullptr, nullptr, nullptr})
                    .ok());
  }
  sim_.Run();
  EXPECT_EQ(je3->stats().requests, 2);
  EXPECT_EQ(je2->stats().requests, 6);
}

TEST_F(FrontendTest, PostDispatchLossDeliversOnError) {
  // The request is accepted (Status OK), then its TE dies with no surviving
  // capacity: the failure must surface through on_error, exactly once.
  serving::Frontend frontend;
  auto je = MakeJeWithTe();
  auto* te = last_te_;
  frontend.RegisterServingJe("tiny-1b", je);

  int completions = 0;
  int errors = 0;
  Status seen = Status::Ok();
  ASSERT_TRUE(frontend
                  .ChatCompletion(Chat("tiny-1b", MakeRequest(1, 2048, 2048, 900, 6000)),
                                  {nullptr,
                                   [&](const flowserve::Sequence&) { ++completions; },
                                   [&](const Status& e) {
                                     ++errors;
                                     seen = e;
                                   }})
                  .ok());
  sim_.RunUntil(MsToNs(100));  // request in flight
  ASSERT_TRUE(manager_->KillTe(te->id()).ok());
  sim_.Run();
  EXPECT_EQ(completions, 0);
  EXPECT_EQ(errors, 1);
  EXPECT_FALSE(seen.ok());
  EXPECT_EQ(frontend.stats().errors, 1);
  EXPECT_EQ(frontend.stats().rejected_total(), 0);
  EXPECT_EQ(frontend.stats().chat_dispatched, 1);
}

TEST_F(FrontendTest, FineTuneRouting) {
  serving::Frontend frontend;
  EXPECT_EQ(frontend.FineTune(serving::FineTuneRequest{}, nullptr).code(),
            StatusCode::kUnavailable);
  serving::FineTuneJobExecutor ft(&sim_, manager_);
  frontend.RegisterFineTuneExecutor(&ft);
  serving::FineTuneRequest request;
  request.base_model = model::ModelSpec::Tiny1B();
  request.parallelism = {8, 1, 1};
  request.dataset_tokens = 100000;
  bool done = false;
  EXPECT_TRUE(frontend.FineTune(request, [&](const serving::FineTuneResult& r) {
    done = r.succeeded;
  }).ok());
  sim_.Run();
  EXPECT_TRUE(done);
  EXPECT_EQ(frontend.stats().finetune_dispatched, 1);
}

// ---------------- Priority classes ----------------

TEST(PriorityTest, InteractiveJumpsTheQueue) {
  sim::Simulator sim;
  auto config = SmallEngine(flowserve::EngineRole::kColocated);
  config.max_batch_seqs = 2;  // force queueing
  flowserve::Engine engine(&sim, config);
  // A pile of batch-class work...
  for (int i = 0; i < 12; ++i) {
    auto spec = MakeRequest(static_cast<workload::RequestId>(i + 1), 1024, 256,
                            static_cast<TokenId>(100 + 501 * i), 6000);
    spec.priority = 2;
    engine.Submit(spec, nullptr, nullptr);
  }
  // ...then one interactive request arrives late.
  TimeNs vip_first = 0;
  sim.ScheduleAt(MsToNs(50), [&] {
    auto vip = MakeRequest(100, 1024, 8, 30000, 6000);
    vip.priority = 0;
    engine.Submit(vip, [&](const flowserve::Sequence& seq) {
      vip_first = seq.first_token_time;
    }, nullptr);
  });
  // An equally-late batch request for comparison.
  TimeNs batch_first = 0;
  sim.ScheduleAt(MsToNs(50), [&] {
    auto late = MakeRequest(101, 1024, 8, 50000, 6000);
    late.priority = 2;
    engine.Submit(late, [&](const flowserve::Sequence& seq) {
      batch_first = seq.first_token_time;
    }, nullptr);
  });
  sim.Run();
  EXPECT_GT(vip_first, 0);
  EXPECT_GT(batch_first, 0);
  EXPECT_LT(vip_first, batch_first);
}

TEST(PriorityTest, PreemptionVictimizesBatchClassFirst) {
  sim::Simulator sim;
  auto config = SmallEngine(flowserve::EngineRole::kColocated);
  config.kv_block_capacity_override = 96;
  flowserve::Engine engine(&sim, config);
  // One interactive and one batch decode fill the KV space; growth pressure
  // must preempt the batch one.
  auto vip = MakeRequest(1, 512, 512, 1000, 6000);
  vip.priority = 0;
  TimeNs vip_done = 0;
  engine.Submit(vip, nullptr,
                [&](const flowserve::Sequence& seq) { vip_done = seq.finish_time; });
  auto batch = MakeRequest(2, 512, 512, 40000, 6000);
  batch.priority = 2;
  TimeNs batch_done = 0;
  engine.Submit(batch, nullptr,
                [&](const flowserve::Sequence& seq) { batch_done = seq.finish_time; });
  sim.Run();
  EXPECT_GT(engine.stats().preemptions, 0);
  EXPECT_GT(vip_done, 0);
  EXPECT_GT(batch_done, 0);
  EXPECT_LT(vip_done, batch_done);  // the interactive request never yielded
}

// ---------------- Adaptive chunking ----------------

TEST(AdaptiveChunkTest, ControllerBoundsWorstTokenStallUnderMixedLoad) {
  auto run = [&](bool adaptive) {
    sim::Simulator sim;
    flowserve::EngineConfig config;
    config.model = model::ModelSpec::Yi34B();
    config.npu_spec = hw::NpuSpec::Gen1();
    config.parallelism = {4, 1, 1};
    config.enable_prefix_caching = false;
    config.prefill_chunk_tokens = 2048;
    config.adaptive_chunking = adaptive;
    config.chunk_target_tpot_ms = 45.0;
    flowserve::Engine engine(&sim, config);
    // Long-lived decodes...
    workload::MetricsCollector metrics;
    Rng rng(2);
    for (int i = 0; i < 8; ++i) {
      workload::RequestSpec spec;
      spec.id = static_cast<workload::RequestId>(i + 1);
      spec.decode_len = 512;
      for (int j = 0; j < 256; ++j) {
        spec.prompt.push_back(static_cast<TokenId>(rng.UniformInt(256, 50000)));
      }
      engine.Submit(spec, nullptr, [&metrics, spec](const flowserve::Sequence& seq) {
        workload::RequestRecord record;
        record.id = spec.id;
        record.arrival = 0;
        record.first_token = seq.first_token_time;
        record.completion = seq.finish_time;
        record.prefill_len = spec.prefill_len();
        record.decode_len = spec.decode_len;
        metrics.Record(record);
      });
    }
    // ...joined by a stream of big prefills that would starve them.
    for (int i = 0; i < 10; ++i) {
      sim.ScheduleAt(SToNs(0.5 + 0.8 * i), [&engine, i] {
        workload::RequestSpec spec;
        spec.id = static_cast<workload::RequestId>(100 + i);
        spec.decode_len = 4;
        for (int j = 0; j < 6144; ++j) {
          spec.prompt.push_back(static_cast<TokenId>(2000 + 77 * i + j % 5000));
        }
        engine.Submit(spec, nullptr, nullptr);
      });
    }
    sim.Run();
    return NsToMs(engine.stats().max_decode_step);
  };
  // Chunking conserves total prefill work, so per-request mean TPOT barely
  // moves; what the controller bounds is the WORST inter-token stall.
  double fixed_worst = run(false);
  double adaptive_worst = run(true);
  EXPECT_LT(adaptive_worst, 0.5 * fixed_worst);
}

TEST(AdaptiveChunkTest, NoRegressionWithoutDecodeLoad) {
  // Pure prefill workloads should see full-size chunks (no false shrinking).
  sim::Simulator sim;
  auto config = SmallEngine(flowserve::EngineRole::kColocated);
  config.adaptive_chunking = true;
  config.chunk_target_tpot_ms = 10.0;
  flowserve::Engine engine(&sim, config);
  bool done = false;
  engine.Submit(MakeRequest(1, 4096, 2, 900, 6000), nullptr,
                [&](const flowserve::Sequence&) { done = true; });
  sim.Run();
  EXPECT_TRUE(done);
  // 4096 tokens at 512/chunk = 8 prefill steps (plus the decode step): the
  // controller never engaged because no step mixed decode with prefill.
  EXPECT_LE(engine.stats().steps, 10);
}

}  // namespace
}  // namespace deepserve
