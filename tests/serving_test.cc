#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "common/time_units.h"
#include "common/types.h"
#include "distflow/distflow.h"
#include "fleet/fleet.h"
#include "hw/cluster.h"
#include "serving/cluster_manager.h"
#include "serving/heatmap.h"
#include "serving/job_executor.h"
#include "serving/predictor.h"
#include "serving/task_executor.h"
#include "sim/simulator.h"
#include "workload/tracegen.h"
#include "test_util.h"

namespace deepserve::serving {
namespace {

using workload::RequestSpec;

// ---------------- Heatmap ----------------

TEST(PdHeatmapTest, BucketLookupAndSign) {
  PdHeatmap map({1024, 4096}, {0.1, 1.0});
  map.Add(512, 0.05, 1.5);    // row 0, col 0
  map.Add(2048, 0.5, -0.4);   // row 1, col 1
  EXPECT_GT(map.Value(800, 0.08), 0);
  EXPECT_LT(map.Value(4000, 0.9), 0);
  EXPECT_TRUE(map.PreferDisaggregated(700, 35));    // ratio 0.05 -> cell (0,0)
  EXPECT_FALSE(map.PreferDisaggregated(2048, 1024));
}

TEST(PdHeatmapTest, OutOfRangeClampsToLastBucket) {
  PdHeatmap map({1024}, {1.0});
  map.Add(999999, 50.0, 2.0);
  EXPECT_GT(map.Value(1, 0.001), 0);  // single cell caught everything
}

TEST(PdHeatmapTest, ElementWiseCombineAcrossRps) {
  PdHeatmap map({1024}, {1.0});
  map.Add(512, 0.5, 1.0);   // RPS level 1
  map.Add(512, 0.5, -0.2);  // RPS level 2
  EXPECT_NEAR(map.Value(512, 0.5), 0.8, 1e-9);
}

TEST(PdHeatmapTest, SerializeParseRoundTrip) {
  PdHeatmap map = PdHeatmap::Default();
  auto parsed = PdHeatmap::Parse(map.Serialize());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->rows(), map.rows());
  EXPECT_EQ(parsed->cols(), map.cols());
  EXPECT_DOUBLE_EQ(parsed->SignAgreement(map), 1.0);
}

TEST(PdHeatmapTest, ParseRejectsGarbage) {
  EXPECT_FALSE(PdHeatmap::Parse("").ok());
  EXPECT_FALSE(PdHeatmap::Parse("2 2\n1 2\n").ok());
}

TEST(PdHeatmapTest, DefaultMatchesPaperObservations) {
  PdHeatmap map = PdHeatmap::Default();
  // Long prefill + short decode -> disaggregated.
  EXPECT_TRUE(map.PreferDisaggregated(8192, 256));
  // Short prefill + long decode -> colocated.
  EXPECT_FALSE(map.PreferDisaggregated(256, 1024));
  // Asymmetry: positive magnitudes dominate negative ones.
  double max_pos = 0;
  double max_neg = 0;
  for (size_t r = 0; r < map.rows(); ++r) {
    for (size_t c = 0; c < map.cols(); ++c) {
      max_pos = std::max(max_pos, map.cell(r, c));
      max_neg = std::max(max_neg, -map.cell(r, c));
    }
  }
  EXPECT_GT(max_pos, max_neg);
}

// ---------------- Predictors ----------------

TEST(PredictorTest, OracleIsExact) {
  OraclePredictor oracle;
  RequestSpec spec;
  spec.decode_len = 321;
  EXPECT_EQ(oracle.Predict(spec), 321);
}

TEST(PredictorTest, NoisyAccuracyApproximatelyHolds) {
  NoisyPredictor predictor(0.9, 7);
  RequestSpec spec;
  spec.decode_len = 200;
  int exact = 0;
  const int n = 5000;
  for (int i = 0; i < n; ++i) {
    if (predictor.Predict(spec) == 200) {
      ++exact;
    }
  }
  // Wrong draws can coincide with 200 occasionally; accept a band.
  EXPECT_NEAR(static_cast<double>(exact) / n, 0.9, 0.03);
}

TEST(PredictorTest, ZeroAccuracyStillInRange) {
  NoisyPredictor predictor(0.0, 11, 8, 4096);
  RequestSpec spec;
  spec.decode_len = 100;
  for (int i = 0; i < 500; ++i) {
    int64_t p = predictor.Predict(spec);
    EXPECT_GE(p, 7);
    EXPECT_LE(p, 4097);
  }
}

TEST(PredictorTest, ConstantPredictor) {
  ConstantPredictor predictor(256);
  RequestSpec spec;
  spec.decode_len = 9999;
  EXPECT_EQ(predictor.Predict(spec), 256);
}

// ---------------- TaskExecutor + JobExecutor ----------------

class ServingTest : public ::testing::Test {
 protected:
  ServingTest() {}

  JobExecutor MakeJe(SchedulingPolicy policy) {
    JeConfig config;
    config.policy = policy;
    config.load_balance_slack = 4;
    return JobExecutor(&sim_, config, PdHeatmap::Default(), MakeOraclePredictor());
  }

  std::unique_ptr<TaskExecutor> MakeTe(TeId id, flowserve::EngineRole role) {
    TeConfig config;
    config.id = id;
    config.engine = SmallEngine(role, 8192);
    return std::make_unique<TaskExecutor>(&sim_, std::move(config));
  }

  sim::Simulator sim_;
};

TEST_F(ServingTest, UnifiedTaskCompletesThroughTe) {
  auto te = MakeTe(1, flowserve::EngineRole::kColocated);
  bool done = false;
  te->SubmitUnified(MakeRequest(1, 256, 16, 500, 9001),
                    {nullptr, [&](const flowserve::Sequence&) { done = true; }, nullptr});
  sim_.Run();
  EXPECT_TRUE(done);
}

TEST_F(ServingTest, PdPairHandoffCompletesRequest) {
  auto prefill = MakeTe(1, flowserve::EngineRole::kPrefillOnly);
  auto decode = MakeTe(2, flowserve::EngineRole::kDecodeOnly);
  TimeNs first = 0;
  TimeNs finish = 0;
  prefill->SubmitPrefill(
      MakeRequest(1, 512, 64, 500, 9001), decode.get(),
      {[&](const flowserve::Sequence& seq) { first = seq.first_token_time; },
       [&](const flowserve::Sequence& seq) { finish = seq.finish_time; }, nullptr});
  sim_.Run();
  EXPECT_GT(first, 0);
  EXPECT_GT(finish, first);
  // Work split across the two engines.
  EXPECT_GT(prefill->engine().stats().prefill_tokens_processed, 0);
  EXPECT_EQ(prefill->engine().stats().decode_tokens_generated, 0);
  EXPECT_EQ(decode->engine().stats().decode_tokens_generated, 63);
}

// The decode-side sequence must inherit the request's service class and
// explicit-cache id across the PD handoff: priority drives the decode
// engine's admission/preemption order, and context_id drives PreserveById at
// completion. (Regression: SubmitPrefilled dropped both.)
TEST_F(ServingTest, PdHandoffPreservesPriorityAndContextId) {
  auto prefill = MakeTe(1, flowserve::EngineRole::kPrefillOnly);
  auto decode = MakeTe(2, flowserve::EngineRole::kDecodeOnly);
  auto spec = MakeRequest(1, 512, 16, 500, 9001);
  spec.priority = 2;
  spec.context_id = "ctx-parity";
  int priority_seen = -1;
  std::string context_seen;
  prefill->SubmitPrefill(spec, decode.get(),
                         {nullptr,
                          [&](const flowserve::Sequence& seq) {
                            priority_seen = seq.priority;
                            context_seen = seq.context_id;
                          },
                          nullptr});
  sim_.Run();
  EXPECT_EQ(priority_seen, 2);
  EXPECT_EQ(context_seen, "ctx-parity");
  // The preserved-by-id context is now matchable on the decode engine.
  EXPECT_TRUE(decode->engine().rtc().MatchByID("ctx-parity").hit());
}

TEST_F(ServingTest, JobAndTaskRecordsForColocatedRoute) {
  auto je = MakeJe(SchedulingPolicy::kCombined);
  auto te = MakeTe(1, flowserve::EngineRole::kColocated);
  je.AddColocatedTe(te.get());
  bool done = false;
  je.HandleRequest(MakeRequest(1, 256, 8, 500, 9001),
                   {nullptr, [&](const flowserve::Sequence&) { done = true; }, nullptr});
  sim_.Run();
  EXPECT_TRUE(done);
  ASSERT_EQ(je.jobs().size(), 1u);
  EXPECT_EQ(je.jobs()[0].state, JobState::kCompleted);
  ASSERT_EQ(je.tasks().size(), 1u);
  EXPECT_EQ(je.tasks()[0].type, TaskType::kUnified);
  EXPECT_EQ(je.tasks()[0].state, TaskState::kCompleted);
}

TEST_F(ServingTest, DisaggregatedJobCreatesTwoTasks) {
  auto je = MakeJe(SchedulingPolicy::kCombined);
  auto prefill = MakeTe(1, flowserve::EngineRole::kPrefillOnly);
  auto decode = MakeTe(2, flowserve::EngineRole::kDecodeOnly);
  je.AddPrefillTe(prefill.get());
  je.AddDecodeTe(decode.get());
  bool done = false;
  // Long prefill, short decode: the heatmap must route this to the PD pair.
  je.HandleRequest(MakeRequest(1, 4096, 32, 500, 9001),
                   {nullptr, [&](const flowserve::Sequence&) { done = true; }, nullptr});
  sim_.Run();
  EXPECT_TRUE(done);
  EXPECT_EQ(je.stats().routed_disaggregated, 1);
  ASSERT_EQ(je.tasks().size(), 2u);
  EXPECT_EQ(je.tasks()[0].type, TaskType::kPrefill);
  EXPECT_EQ(je.tasks()[1].type, TaskType::kDecode);
  EXPECT_EQ(je.tasks()[0].state, TaskState::kCompleted);
  EXPECT_EQ(je.tasks()[1].state, TaskState::kCompleted);
}

TEST_F(ServingTest, PdAwareRoutesByShape) {
  auto je = MakeJe(SchedulingPolicy::kCombined);
  auto coloc = MakeTe(1, flowserve::EngineRole::kColocated);
  auto prefill = MakeTe(2, flowserve::EngineRole::kPrefillOnly);
  auto decode = MakeTe(3, flowserve::EngineRole::kDecodeOnly);
  je.AddColocatedTe(coloc.get());
  je.AddPrefillTe(prefill.get());
  je.AddDecodeTe(decode.get());
  // Long prefill / short decode -> disaggregated; the opposite -> colocated.
  je.HandleRequest(MakeRequest(1, 8192, 64, 500, 9001), {nullptr, nullptr, nullptr});
  je.HandleRequest(MakeRequest(2, 256, 512, 500, 9001), {nullptr, nullptr, nullptr});
  sim_.Run();
  EXPECT_EQ(je.stats().routed_disaggregated, 1);
  EXPECT_EQ(je.stats().routed_colocated, 1);
}

TEST_F(ServingTest, RoundRobinAlternatesSlots) {
  auto je = MakeJe(SchedulingPolicy::kRoundRobin);
  auto te1 = MakeTe(1, flowserve::EngineRole::kColocated);
  auto te2 = MakeTe(2, flowserve::EngineRole::kColocated);
  je.AddColocatedTe(te1.get());
  je.AddColocatedTe(te2.get());
  for (int i = 0; i < 6; ++i) {
    je.HandleRequest(MakeRequest(static_cast<workload::RequestId>(i + 1), 64, 4, 500, 9001),
                     {nullptr, nullptr, nullptr});
  }
  sim_.Run();
  EXPECT_EQ(te1->engine().stats().submitted, 3);
  EXPECT_EQ(te2->engine().stats().submitted, 3);
}

TEST_F(ServingTest, LocalityAwareRoutesSharedPrefixToSameTe) {
  auto je = MakeJe(SchedulingPolicy::kCombined);
  auto te1 = MakeTe(1, flowserve::EngineRole::kColocated);
  auto te2 = MakeTe(2, flowserve::EngineRole::kColocated);
  je.AddColocatedTe(te1.get());
  je.AddColocatedTe(te2.get());
  // Two families with distinct shared prefixes, staggered in time so later
  // members can reuse the KV the earlier ones preserved.
  for (int i = 0; i < 4; ++i) {
    sim_.ScheduleAt(SToNs(static_cast<double>(i) * 2.0), [&je, i] {
      je.HandleRequest(MakeRequest(static_cast<workload::RequestId>(10 + i), 512, 2, 1000, 9001),
                       {nullptr, nullptr, nullptr});
      je.HandleRequest(MakeRequest(static_cast<workload::RequestId>(20 + i), 512, 2, 25000, 9001),
                       {nullptr, nullptr, nullptr});
    });
  }
  sim_.Run();
  EXPECT_GT(je.stats().locality_hits, 0);
  // Each prefix family consistently landed on one TE: both TEs got work and
  // their RTC caches saw reuse.
  EXPECT_GT(te1->engine().stats().submitted, 0);
  EXPECT_GT(te2->engine().stats().submitted, 0);
  EXPECT_GT(te1->engine().stats().reused_tokens + te2->engine().stats().reused_tokens, 0);
}

TEST_F(ServingTest, LoadAwareKicksInWhenUnbalanced) {
  JeConfig config;
  config.policy = SchedulingPolicy::kCombined;
  config.load_balance_slack = 0;  // any imbalance triggers load-aware
  JobExecutor je(&sim_, config, PdHeatmap::Default(), MakeOraclePredictor());
  auto te1 = MakeTe(1, flowserve::EngineRole::kColocated);
  auto te2 = MakeTe(2, flowserve::EngineRole::kColocated);
  je.AddColocatedTe(te1.get());
  je.AddColocatedTe(te2.get());
  // Same prefix every time: pure locality would pile everything on one TE,
  // but load-aware spreads once the queue gap exceeds the slack.
  for (int i = 0; i < 8; ++i) {
    je.HandleRequest(MakeRequest(static_cast<workload::RequestId>(i + 1), 2048, 64, 777, 9001),
                     {nullptr, nullptr, nullptr});
  }
  sim_.Run();
  EXPECT_GT(je.stats().load_decisions, 0);
  EXPECT_GT(te1->engine().stats().submitted, 0);
  EXPECT_GT(te2->engine().stats().submitted, 0);
}

TEST_F(ServingTest, RemoveTeStopsRouting) {
  auto je = MakeJe(SchedulingPolicy::kRoundRobin);
  auto te1 = MakeTe(1, flowserve::EngineRole::kColocated);
  auto te2 = MakeTe(2, flowserve::EngineRole::kColocated);
  je.AddColocatedTe(te1.get());
  je.AddColocatedTe(te2.get());
  je.RemoveTe(1);
  for (int i = 0; i < 4; ++i) {
    je.HandleRequest(MakeRequest(static_cast<workload::RequestId>(i + 1), 64, 2, 500, 9001),
                     {nullptr, nullptr, nullptr});
  }
  sim_.Run();
  EXPECT_EQ(te1->engine().stats().submitted, 0);
  EXPECT_EQ(te2->engine().stats().submitted, 4);
}

TEST_F(ServingTest, NonReadyTesAreSkipped) {
  auto je = MakeJe(SchedulingPolicy::kRoundRobin);
  auto te1 = MakeTe(1, flowserve::EngineRole::kColocated);
  auto te2 = MakeTe(2, flowserve::EngineRole::kColocated);
  te1->set_state(TeState::kLoading);
  je.AddColocatedTe(te1.get());
  je.AddColocatedTe(te2.get());
  je.HandleRequest(MakeRequest(1, 64, 2, 500, 9001), {nullptr, nullptr, nullptr});
  sim_.Run();
  EXPECT_EQ(te1->engine().stats().submitted, 0);
  EXPECT_EQ(te2->engine().stats().submitted, 1);
}

// ---------------- ClusterManager: scaling ----------------

class ScalingTest : public ::testing::Test {
 protected:
  ScalingTest()
      : cluster_(&sim_, MakeClusterConfig()),
        transfer_(&sim_, &cluster_, {}) {}

  static hw::ClusterConfig MakeClusterConfig() {
    hw::ClusterConfig config;
    config.num_machines = 8;
    config.machines_per_scaleup_domain = 4;
    return config;
  }

  ClusterManager MakeManager(ScalingOptimizations opts) {
    return ClusterManager(&sim_, &cluster_, &transfer_, opts);
  }

  sim::Simulator sim_;
  hw::Cluster cluster_;
  distflow::TransferEngine transfer_;
};

TEST_F(ScalingTest, CreateReadyTeAllocatesNpus) {
  auto manager = MakeManager({});
  auto te = manager.CreateReadyTe(SmallEngine(flowserve::EngineRole::kColocated, 8192));
  ASSERT_TRUE(te.ok());
  EXPECT_TRUE((*te)->ready());
  EXPECT_EQ((*te)->config().npus.size(), 1u);
  // Device accounting wired: engine KV traffic shows up on the NPU.
  bool done = false;
  (*te)->SubmitUnified(MakeRequest(1, 256, 8, 500, 9001),
                       {nullptr, [&](const flowserve::Sequence&) { done = true; }, nullptr});
  sim_.Run();
  EXPECT_TRUE(done);
}

TEST_F(ScalingTest, NpuAllocationExhausts) {
  auto manager = MakeManager({});
  auto cfg = SmallEngine(flowserve::EngineRole::kColocated, 8192);
  cfg.parallelism = {8, 1, 1};
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(manager.CreateReadyTe(cfg).ok()) << i;
  }
  EXPECT_FALSE(manager.CreateReadyTe(cfg).ok());
  // Stopping one frees capacity.
  ASSERT_TRUE(manager.StopTe(1).ok());
  EXPECT_TRUE(manager.CreateReadyTe(cfg).ok());
}

TEST_F(ScalingTest, OptimizedPipelineIsMuchFasterThanBaseline) {
  auto run = [&](ScalingOptimizations opts, bool prewarm, bool preload) {
    sim::Simulator sim;
    hw::Cluster cluster(&sim, MakeClusterConfig());
    distflow::TransferEngine transfer(&sim, &cluster, {});
    ClusterManager manager(&sim, &cluster, &transfer, opts);
    if (prewarm) {
      manager.ReservePrewarmedPods(4);
      manager.ReservePrewarmedTes(4);
    }
    if (preload) {
      manager.PreloadModelToDram(0, model::ModelSpec::Tiny1B());
      sim.Run();
    }
    ScaleRequest request;
    request.engine = SmallEngine(flowserve::EngineRole::kColocated, 8192);
    ScalingBreakdown breakdown;
    bool done = false;
    EXPECT_TRUE(manager
                    .ScaleUp(request,
                             [&](TaskExecutor* te, const ScalingBreakdown& b) {
                               breakdown = b;
                               done = te != nullptr;
                             })
                    .ok());
    sim.Run();
    EXPECT_TRUE(done);
    return breakdown;
  };
  ScalingBreakdown slow = run(ScalingOptimizations::AllOff(), false, false);
  ScalingBreakdown fast = run(ScalingOptimizations{}, true, true);
  EXPECT_TRUE(fast.used_prewarmed_pod);
  EXPECT_TRUE(fast.used_prewarmed_te);
  EXPECT_TRUE(fast.dram_hit);
  EXPECT_GT(slow.total(), 5 * fast.total());
  // Every stage individually improves.
  EXPECT_GT(slow.scaler_pre, fast.scaler_pre);
  EXPECT_GT(slow.te_pre_load, fast.te_pre_load);
  EXPECT_GT(slow.te_load, fast.te_load);
  EXPECT_GT(slow.te_post_load, fast.te_post_load);
  EXPECT_GT(slow.scaler_post, fast.scaler_post);
}

TEST_F(ScalingTest, DramMissStagesThroughSsd) {
  auto manager = MakeManager({});
  ScaleRequest request;
  request.engine = SmallEngine(flowserve::EngineRole::kColocated, 8192);
  ScalingBreakdown breakdown;
  ASSERT_TRUE(manager
                  .ScaleUp(request, [&](TaskExecutor*, const ScalingBreakdown& b) {
                    breakdown = b;
                  })
                  .ok());
  sim_.Run();
  EXPECT_FALSE(breakdown.dram_hit);
  EXPECT_EQ(manager.stats().dram_misses, 1);
  // A second scale-up of the same model now hits the page cache and loads
  // faster (SSD hop gone).
  ScalingBreakdown second;
  ASSERT_TRUE(manager
                  .ScaleUp(request, [&](TaskExecutor*, const ScalingBreakdown& b) {
                    second = b;
                  })
                  .ok());
  sim_.Run();
  EXPECT_TRUE(second.dram_hit);
  EXPECT_LT(second.te_load, breakdown.te_load);
}

TEST_F(ScalingTest, NpuForkSkipsLocalLoad) {
  auto manager = MakeManager({});
  auto source = manager.CreateReadyTe(SmallEngine(flowserve::EngineRole::kColocated, 8192));
  ASSERT_TRUE(source.ok());
  ScaleRequest request;
  request.engine = SmallEngine(flowserve::EngineRole::kColocated, 8192);
  request.fork_source = (*source)->id();
  ScalingBreakdown breakdown;
  ASSERT_TRUE(manager
                  .ScaleUp(request, [&](TaskExecutor*, const ScalingBreakdown& b) {
                    breakdown = b;
                  })
                  .ok());
  sim_.Run();
  EXPECT_TRUE(breakdown.used_npu_fork);
  EXPECT_EQ(manager.stats().npu_forks, 1);
}

TEST_F(ScalingTest, ScaleUpManyForksInParallel) {
  auto manager = MakeManager({});
  manager.ReservePrewarmedPods(64);
  manager.ReservePrewarmedTes(64);
  auto source = manager.CreateReadyTe(SmallEngine(flowserve::EngineRole::kColocated, 8192));
  ASSERT_TRUE(source.ok());
  ScaleRequest request;
  request.engine = SmallEngine(flowserve::EngineRole::kColocated, 8192);
  request.fork_source = (*source)->id();
  std::vector<TaskExecutor*> created;
  DurationNs elapsed = 0;
  ASSERT_TRUE(manager
                  .ScaleUpMany(request, 32,
                               [&](std::vector<TaskExecutor*> tes, DurationNs d) {
                                 created = std::move(tes);
                                 elapsed = d;
                               })
                  .ok());
  sim_.Run();
  EXPECT_EQ(created.size(), 32u);
  // "scale up to 64 instances in parallel within seconds": 32 forks of a
  // small model complete in single-digit seconds.
  EXPECT_LT(NsToS(elapsed), 10.0);
  for (TaskExecutor* te : created) {
    EXPECT_TRUE(te->ready());
  }
}

TEST_F(ScalingTest, ScaleUpManyRequiresSource) {
  auto manager = MakeManager({});
  ScaleRequest request;
  request.engine = SmallEngine(flowserve::EngineRole::kColocated, 8192);
  EXPECT_FALSE(manager.ScaleUpMany(request, 4, nullptr).ok());
}

TEST_F(ScalingTest, PredictivePreloadFillsPageCaches) {
  auto manager = MakeManager({});
  manager.PredictivePreload({model::ModelSpec::Tiny1B(), model::ModelSpec::Llama3_8B()});
  sim_.Run();
  for (int m = 0; m < cluster_.num_machines(); ++m) {
    EXPECT_TRUE(cluster_.machine(m)->page_cache().Contains("tiny-1b"));
    EXPECT_TRUE(cluster_.machine(m)->page_cache().Contains("llama3-8b"));
  }
}

TEST_F(ScalingTest, AutoscalerAddsTesUnderLoad) {
  fleet::FleetSpec spec;
  spec.cluster = MakeClusterConfig();
  spec.je.policy = SchedulingPolicy::kLoadOnly;
  fleet::Fleet fleet(spec);
  ClusterManager& manager = fleet.manager();
  JobExecutor& je = fleet.je();
  manager.ReservePrewarmedPods(8);
  manager.ReservePrewarmedTes(8);
  manager.PreloadModelToDram(0, model::ModelSpec::Tiny1B());
  fleet.sim().Run();
  fleet.AddTe(flowserve::EngineRole::kColocated,
              SmallEngine(flowserve::EngineRole::kColocated, 8192));

  AutoscalerConfig as_config;
  as_config.check_interval = MsToNs(500);
  as_config.scale_up_queue_depth = 8;
  as_config.scale_down_queue_depth = -1;  // growth only: assert on end state
  as_config.max_tes = 4;
  ScaleRequest request;
  request.engine = SmallEngine(flowserve::EngineRole::kColocated, 8192);
  manager.StartAutoscaler(&je, as_config, request);

  // Slam the system with enough work to trip the threshold.
  for (int i = 0; i < 64; ++i) {
    je.HandleRequest(MakeRequest(static_cast<workload::RequestId>(i + 1), 2048, 128,
                                 static_cast<TokenId>(100 + 37 * i), 9001),
                     {nullptr, nullptr, nullptr});
  }
  fleet.sim().RunUntil(SToNs(120));
  manager.StopAutoscaler();
  fleet.sim().Run();
  EXPECT_GT(manager.stats().scale_ups, 0);
  EXPECT_GT(je.colocated_count(), 1u);
}

}  // namespace
}  // namespace deepserve::serving
