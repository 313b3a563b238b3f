// Integration tests: the three downstream tasks end-to-end on a small
// synthetic city, with frozen, fine-tuned and supervised embedding sources.

#include <cmath>

#include <gtest/gtest.h>

#include "baselines/hrnr_lite.h"
#include "core/sarn_model.h"
#include "roadnet/synthetic_city.h"
#include "tasks/embedding_source.h"
#include "tasks/road_property_task.h"
#include "tasks/spd_task.h"
#include "tasks/traj_similarity_task.h"
#include "traj/map_matching.h"
#include "traj/trajectory_generator.h"

namespace sarn::tasks {
namespace {

using tensor::Tensor;

class TasksTest : public testing::Test {
 protected:
  static void SetUpTestSuite() {
    roadnet::SyntheticCityConfig city;
    city.rows = 12;
    city.cols = 12;
    city.speed_noise = 0.05;
    network_ = new roadnet::RoadNetwork(roadnet::GenerateSyntheticCity(city));

    core::SarnConfig sarn_config;
    sarn_config.hidden_dim = 16;
    sarn_config.embedding_dim = 16;
    sarn_config.projection_dim = 8;
    sarn_config.gat_layers = 2;
    sarn_config.gat_heads = 2;
    sarn_config.feature_dim_per_feature = 4;
    sarn_config.max_epochs = 10;
    sarn_config.queue_budget = 400;
    sarn_ = new core::SarnModel(*network_, sarn_config);
    sarn_->Train();

    Rng rng(99);
    random_embeddings_ =
        new Tensor(Tensor::Randn({network_->num_segments(), 16}, rng));
  }
  static void TearDownTestSuite() {
    delete sarn_;
    delete network_;
    delete random_embeddings_;
    sarn_ = nullptr;
    network_ = nullptr;
    random_embeddings_ = nullptr;
  }

  static roadnet::RoadNetwork* network_;
  static core::SarnModel* sarn_;
  static Tensor* random_embeddings_;
};

roadnet::RoadNetwork* TasksTest::network_ = nullptr;
core::SarnModel* TasksTest::sarn_ = nullptr;
Tensor* TasksTest::random_embeddings_ = nullptr;

TEST_F(TasksTest, RoadPropertyMetricsInRangeAndBeatRandomEmbeddings) {
  RoadPropertyConfig config;
  config.epochs = 80;
  RoadPropertyTask task(*network_, config);
  EXPECT_GE(task.num_classes(), 2);

  FrozenEmbeddingSource sarn_source(sarn_->Embeddings());
  RoadPropertyResult sarn_result = task.Evaluate(sarn_source);
  EXPECT_GT(sarn_result.f1, 0.0);
  EXPECT_LE(sarn_result.f1, 1.0);
  EXPECT_GE(sarn_result.auc, 0.5);
  EXPECT_LE(sarn_result.auc, 1.0);

  FrozenEmbeddingSource random_source(*random_embeddings_);
  RoadPropertyResult random_result = task.Evaluate(random_source);
  EXPECT_GT(sarn_result.f1, random_result.f1 - 0.05);  // At least comparable.
}

TEST_F(TasksTest, RoadPropertyMaxLabeledCapRespected) {
  RoadPropertyConfig config;
  config.max_labeled = 50;
  config.epochs = 10;
  RoadPropertyTask task(*network_, config);
  EXPECT_EQ(task.num_labeled(), 50);
}

TEST_F(TasksTest, SpdTaskLearnsDistances) {
  SpdConfig config;
  config.num_train_pairs = 1500;
  config.num_test_pairs = 300;
  config.epochs = 60;
  SpdTask task(*network_, config);
  ASSERT_EQ(task.test_pairs().size(), 300u);
  for (const auto& [a, b, d] : task.test_pairs()) {
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1e7);
  }

  FrozenEmbeddingSource sarn_source(sarn_->Embeddings());
  SpdResult sarn_result = task.Evaluate(sarn_source);
  EXPECT_GT(sarn_result.mae_meters, 0.0);
  EXPECT_TRUE(std::isfinite(sarn_result.mre));

  FrozenEmbeddingSource random_source(*random_embeddings_);
  SpdResult random_result = task.Evaluate(random_source);
  // Informative embeddings must clearly beat random ones on SPD.
  EXPECT_LT(sarn_result.mre, random_result.mre);
}

TEST_F(TasksTest, TrajectorySimilarityPipeline) {
  traj::TrajectoryGeneratorConfig gen_config;
  gen_config.min_route_segments = 8;
  traj::TrajectoryGenerator generator(*network_, gen_config);
  traj::MapMatcher matcher(*network_);
  std::vector<traj::MatchedTrajectory> matched;
  for (const auto& trip : generator.Generate(120)) {
    traj::MatchedTrajectory m = matcher.Match(trip.gps);
    matched.push_back(traj::TruncateSegments(m, 40));
  }

  TrajSimConfig config;
  config.epochs = 2;
  config.pairs_per_epoch = 200;
  config.gru_hidden = 24;
  TrajectorySimilarityTask task(*network_, matched, config);
  EXPECT_GE(task.split().test.size(), 21u);

  FrozenEmbeddingSource sarn_source(sarn_->Embeddings());
  TrajSimResult result = task.Evaluate(sarn_source);
  EXPECT_GE(result.hr5, 0.0);
  EXPECT_LE(result.hr5, 1.0);
  EXPECT_GE(result.hr20, result.hr5 - 0.05);  // HR@20 is easier than HR@5.
  EXPECT_GE(result.r5_20, result.hr5 - 0.05);
  // Any trained predictor must beat random guessing: random HR@20 with
  // 20/23 candidates would be near 20/num_test but HR@5 should exceed the
  // random baseline of 5/(num_test-1).
  double random_hr5 = 5.0 / static_cast<double>(result.num_test - 1);
  EXPECT_GT(result.hr5, random_hr5);
}

TEST_F(TasksTest, GroundTruthDistanceSymmetricCached) {
  traj::TrajectoryGeneratorConfig gen_config;
  gen_config.min_route_segments = 8;
  traj::TrajectoryGenerator generator(*network_, gen_config);
  traj::MapMatcher matcher(*network_);
  std::vector<traj::MatchedTrajectory> matched;
  for (const auto& trip : generator.Generate(110)) {
    matched.push_back(traj::TruncateSegments(matcher.Match(trip.gps), 30));
  }
  TrajSimConfig config;
  TrajectorySimilarityTask task(*network_, matched, config);
  EXPECT_DOUBLE_EQ(task.GroundTruthDistance(1, 5), task.GroundTruthDistance(5, 1));
  EXPECT_DOUBLE_EQ(task.GroundTruthDistance(3, 3), 0.0);
}

TEST_F(TasksTest, SarnFineTuneSourceImprovesOrMatchesFrozen) {
  RoadPropertyConfig config;
  config.epochs = 60;
  RoadPropertyTask task(*network_, config);
  FrozenEmbeddingSource frozen(sarn_->Embeddings());
  RoadPropertyResult frozen_result = task.Evaluate(frozen);
  SarnFineTuneSource fine_tune(*sarn_);
  RoadPropertyResult tuned_result = task.Evaluate(fine_tune);
  // Fine-tuning adds capacity; allow small noise but no collapse.
  EXPECT_GT(tuned_result.f1, frozen_result.f1 - 0.1);
}

TEST_F(TasksTest, HrnrSourceTrainsSupervisedEndToEnd) {
  baselines::HrnrLiteConfig hrnr_config;
  hrnr_config.hidden_dim = 16;
  hrnr_config.embedding_dim = 16;
  hrnr_config.gat_heads = 2;
  hrnr_config.feature_dim_per_feature = 4;
  baselines::HrnrLite hrnr(*network_, hrnr_config);
  ASSERT_FALSE(hrnr.out_of_memory());
  RoadPropertyConfig config;
  config.epochs = 40;
  RoadPropertyTask task(*network_, config);
  HrnrSource source(hrnr);
  RoadPropertyResult result = task.Evaluate(source);
  EXPECT_GT(result.f1, 0.2);  // Supervised end-to-end must be far above chance.
}

}  // namespace
}  // namespace sarn::tasks
