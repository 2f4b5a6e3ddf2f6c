// Post-training pipeline tests: fine-tuning jobs (preprocess -> train ->
// evaluate) sharing the NPU pool with serving.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/time_units.h"
#include "fleet/fleet.h"
#include "serving/finetune.h"

namespace deepserve::serving {
namespace {

class FineTuneTest : public ::testing::Test {
 protected:
  FineTuneTest() : fleet_(TwoMachines()) {}

  static fleet::FleetSpec TwoMachines() {
    fleet::FleetSpec spec;
    spec.cluster.num_machines = 2;  // 16 NPUs
    return spec;
  }

  FineTuneRequest SmallRequest(uint64_t id) {
    FineTuneRequest request;
    request.id = id;
    request.base_model = model::ModelSpec::Tiny1B();
    request.parallelism = {8, 1, 1};
    request.dataset_tokens = 1'000'000;
    return request;
  }

  fleet::Fleet fleet_;
  sim::Simulator& sim_ = fleet_.sim();
  ClusterManager* manager_ = &fleet_.manager();
  std::unique_ptr<FineTuneJobExecutor> ft_ =
      std::make_unique<FineTuneJobExecutor>(&sim_, manager_);
};

TEST_F(FineTuneTest, PipelineRunsThreeTasksInOrder) {
  FineTuneResult result;
  ASSERT_TRUE(ft_->Submit(SmallRequest(1), [&](const FineTuneResult& r) { result = r; }).ok());
  sim_.Run();
  EXPECT_TRUE(result.succeeded);
  EXPECT_GT(result.preprocess_done, 0);
  EXPECT_GT(result.train_done, result.preprocess_done);
  EXPECT_GT(result.evaluate_done, result.train_done);
  ASSERT_EQ(ft_->jobs().size(), 1u);
  EXPECT_EQ(ft_->jobs()[0].type, JobType::kFineTune);
  EXPECT_EQ(ft_->jobs()[0].state, JobState::kCompleted);
  ASSERT_EQ(ft_->tasks().size(), 3u);
  EXPECT_EQ(ft_->tasks()[0].type, TaskType::kPreprocess);
  EXPECT_EQ(ft_->tasks()[1].type, TaskType::kTrain);
  EXPECT_EQ(ft_->tasks()[2].type, TaskType::kEvaluate);
}

TEST_F(FineTuneTest, TrainingDominatesAndScalesWithDataset) {
  auto small = SmallRequest(1);
  auto big = SmallRequest(2);
  big.dataset_tokens = 10'000'000;
  EXPECT_GT(ft_->EstimateTrainDuration(big), 3 * ft_->EstimateTrainDuration(small));
  // More NPUs shorten training.
  auto wide = SmallRequest(3);
  wide.parallelism = {16, 1, 1};
  EXPECT_LT(ft_->EstimateTrainDuration(wide), ft_->EstimateTrainDuration(small));
}

TEST_F(FineTuneTest, RejectsBadRequests) {
  auto request = SmallRequest(1);
  request.dataset_tokens = 0;
  EXPECT_FALSE(ft_->Submit(request, nullptr).ok());
  request = SmallRequest(2);
  request.parallelism = {64, 1, 1};  // > 16 NPUs in this cluster
  EXPECT_FALSE(ft_->Submit(request, nullptr).ok());
}

TEST_F(FineTuneTest, QueuesWhenClusterBusyAndRunsAfterRelease) {
  // Serving occupies the whole cluster.
  flowserve::EngineConfig engine;
  engine.model = model::ModelSpec::Tiny1B();
  engine.parallelism = {8, 1, 1};
  auto te1 = manager_->CreateReadyTe(engine).value();
  auto te2 = manager_->CreateReadyTe(engine).value();
  (void)te2;
  bool done = false;
  ASSERT_TRUE(ft_->Submit(SmallRequest(1), [&](const FineTuneResult& r) {
    done = r.succeeded;
  }).ok());
  sim_.RunUntil(SToNs(30));
  EXPECT_FALSE(done);  // no NPUs free
  EXPECT_GT(ft_->stats().waiting_for_npus, 0);
  // A serving scale-down releases 8 NPUs; the queued job proceeds.
  ASSERT_TRUE(manager_->StopTe(te1->id()).ok());
  sim_.RunUntil(SToNs(4000));
  EXPECT_TRUE(done);
}

TEST_F(FineTuneTest, SequentialJobsShareNpus) {
  // Two 16-NPU jobs on a 16-NPU cluster must serialize.
  auto wide = SmallRequest(1);
  wide.parallelism = {16, 1, 1};
  TimeNs first_done = 0;
  TimeNs second_done = 0;
  ASSERT_TRUE(ft_->Submit(wide, [&](const FineTuneResult& r) {
    first_done = r.evaluate_done;
  }).ok());
  auto wide2 = SmallRequest(2);
  wide2.parallelism = {16, 1, 1};
  ASSERT_TRUE(ft_->Submit(wide2, [&](const FineTuneResult& r) {
    second_done = r.evaluate_done;
  }).ok());
  sim_.Run();
  EXPECT_GT(first_done, 0);
  EXPECT_GE(second_done, first_done);  // strictly after: NPUs were shared
  EXPECT_EQ(ft_->stats().completed, 2);
}

}  // namespace
}  // namespace deepserve::serving
