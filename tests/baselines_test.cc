#include <cmath>
#include <filesystem>

#include <gtest/gtest.h>

#include "baselines/gca.h"
#include "baselines/graphcl.h"
#include "baselines/hrnr_lite.h"
#include "baselines/neutraj_lite.h"
#include "baselines/node2vec.h"
#include "baselines/rne_lite.h"
#include "baselines/srn2vec.h"
#include "geo/point.h"
#include "graph/dijkstra.h"
#include "nn/losses.h"
#include "tensor/ops.h"
#include "tensor/optimizer.h"
#include "roadnet/synthetic_city.h"

namespace sarn::baselines {
namespace {

using tensor::Tensor;

class BaselinesTest : public testing::Test {
 protected:
  static void SetUpTestSuite() {
    roadnet::SyntheticCityConfig city;
    city.rows = 10;
    city.cols = 10;
    network_ = new roadnet::RoadNetwork(roadnet::GenerateSyntheticCity(city));
  }
  static void TearDownTestSuite() {
    delete network_;
    network_ = nullptr;
  }

  static void ExpectFiniteEmbeddings(const Tensor& e, int64_t expected_dim) {
    ASSERT_TRUE(e.defined());
    EXPECT_EQ(e.shape()[0], network_->num_segments());
    EXPECT_EQ(e.shape()[1], expected_dim);
    for (float v : e.data()) ASSERT_TRUE(std::isfinite(v));
  }

  static roadnet::RoadNetwork* network_;
};

roadnet::RoadNetwork* BaselinesTest::network_ = nullptr;

TEST_F(BaselinesTest, Node2VecProducesTopologyAwareEmbeddings) {
  Node2VecConfig config;
  config.dim = 32;
  config.walk.walk_length = 20;
  config.walk.walks_per_vertex = 4;
  config.epochs = 1;
  Tensor e = TrainNode2Vec(*network_, config);
  ExpectFiniteEmbeddings(e, 32);

  // Topologically adjacent segments should be more similar than random ones.
  Tensor normalized = tensor::RowL2Normalize(e);
  auto cosine = [&](int64_t a, int64_t b) {
    double dot = 0;
    for (int64_t j = 0; j < 32; ++j) dot += normalized.at(a, j) * normalized.at(b, j);
    return dot;
  };
  double adjacent = 0;
  int count = 0;
  for (const roadnet::TopoEdge& edge : network_->topo_edges()) {
    adjacent += cosine(edge.from, edge.to);
    if (++count >= 300) break;
  }
  Rng rng(1);
  double random = 0;
  for (int i = 0; i < 300; ++i) {
    random += cosine(rng.UniformInt(0, network_->num_segments() - 1),
                     rng.UniformInt(0, network_->num_segments() - 1));
  }
  EXPECT_GT(adjacent / count, random / 300 + 0.1);
}

TEST_F(BaselinesTest, GraphClFeatureMaskingStillLearns) {
  GraphClConfig config;
  config.hidden_dim = 16;
  config.embedding_dim = 16;
  config.projection_dim = 8;
  config.feature_dim_per_feature = 4;
  config.gat_heads = 2;
  config.max_epochs = 4;
  config.feature_mask_rate = 0.3;  // Aggressive masking must not break training.
  GraphClResult result = TrainGraphCl(*network_, config);
  ASSERT_TRUE(result.embeddings.defined());
  for (float v : result.embeddings.data()) ASSERT_TRUE(std::isfinite(v));
}

TEST_F(BaselinesTest, GraphClTrainsAndReducesLoss) {
  GraphClConfig config;
  config.hidden_dim = 16;
  config.embedding_dim = 16;
  config.projection_dim = 8;
  config.feature_dim_per_feature = 4;
  config.gat_heads = 2;
  config.max_epochs = 6;
  GraphClResult first_epoch;
  {
    GraphClConfig one = config;
    one.max_epochs = 1;
    first_epoch = TrainGraphCl(*network_, one);
  }
  GraphClResult result = TrainGraphCl(*network_, config);
  ExpectFiniteEmbeddings(result.embeddings, 16);
  EXPECT_EQ(result.epochs_run, 6);
  EXPECT_LT(result.final_loss, first_epoch.final_loss);
}

TEST_F(BaselinesTest, GraphClResumeIsBitwiseIdenticalToStraightRun) {
  GraphClConfig config;
  config.hidden_dim = 16;
  config.embedding_dim = 16;
  config.projection_dim = 8;
  config.feature_dim_per_feature = 4;
  config.gat_heads = 2;
  config.max_epochs = 4;

  // Uninterrupted reference run.
  GraphClResult straight = TrainGraphCl(*network_, config);
  ASSERT_EQ(straight.epochs_run, 4);

  // Interrupted: 2 epochs with checkpointing, then resume in a fresh call.
  std::string dir = testing::TempDir() + "/graphcl_resume";
  std::filesystem::remove_all(dir);
  GraphClConfig phase1 = config;
  phase1.checkpoint_dir = dir;
  phase1.stop_after_epochs = 2;
  GraphClResult partial = TrainGraphCl(*network_, phase1);
  ASSERT_EQ(partial.epochs_run, 2);

  GraphClConfig phase2 = config;
  phase2.checkpoint_dir = dir;
  GraphClResult resumed = TrainGraphCl(*network_, phase2);
  EXPECT_EQ(resumed.resumed_from_epoch, 2);
  EXPECT_EQ(resumed.epochs_run, 4);

  // Bitwise: loss and every embedding value identical to the straight run.
  ASSERT_EQ(resumed.final_loss, straight.final_loss);
  ASSERT_EQ(resumed.embeddings.shape(), straight.embeddings.shape());
  ASSERT_EQ(resumed.embeddings.data(), straight.embeddings.data());
  std::filesystem::remove_all(dir);
}

TEST_F(BaselinesTest, GcaTrainsWhenWithinBudget) {
  GcaConfig config;
  config.hidden_dim = 16;
  config.embedding_dim = 16;
  config.projection_dim = 8;
  config.feature_dim_per_feature = 4;
  config.gat_heads = 2;
  config.max_epochs = 3;
  GcaResult result = TrainGca(*network_, config);
  ASSERT_FALSE(result.out_of_memory);
  ExpectFiniteEmbeddings(result.embeddings, 16);
  EXPECT_TRUE(std::isfinite(result.final_loss));
}

TEST_F(BaselinesTest, GcaMemoryGuardFires) {
  GcaConfig config;
  config.memory_budget_bytes = 1024;  // Absurdly small: must trip.
  GcaResult result = TrainGca(*network_, config);
  EXPECT_TRUE(result.out_of_memory);
  EXPECT_FALSE(result.embeddings.defined());
}

TEST_F(BaselinesTest, Srn2VecEncodesSpatialProximity) {
  Srn2VecConfig config;
  config.dim = 32;
  config.max_epochs = 6;
  config.pairs_per_epoch = 4096;
  Srn2VecResult result = TrainSrn2Vec(*network_, config);
  ExpectFiniteEmbeddings(result.embeddings, 32);

  Tensor normalized = tensor::RowL2Normalize(result.embeddings);
  auto cosine = [&](int64_t a, int64_t b) {
    double dot = 0;
    for (int64_t j = 0; j < 32; ++j) dot += normalized.at(a, j) * normalized.at(b, j);
    return dot;
  };
  Rng rng(2);
  double near_sum = 0, far_sum = 0;
  int near_count = 0, far_count = 0;
  while (near_count < 200 || far_count < 200) {
    int64_t a = rng.UniformInt(0, network_->num_segments() - 1);
    int64_t b = rng.UniformInt(0, network_->num_segments() - 1);
    if (a == b) continue;
    double dist = geo::HaversineMeters(network_->segment(a).Midpoint(),
                                       network_->segment(b).Midpoint());
    if (dist < 250.0 && near_count < 200) {
      near_sum += cosine(a, b);
      ++near_count;
    } else if (dist > 800.0 && far_count < 200) {
      far_sum += cosine(a, b);
      ++far_count;
    }
  }
  EXPECT_GT(near_sum / near_count, far_sum / far_count + 0.05);
}

TEST_F(BaselinesTest, RneLiteEmbeddingDistanceTracksNetworkDistance) {
  RneLiteConfig config;
  config.dim = 32;
  config.max_epochs = 10;
  RneLiteResult result = TrainRneLite(*network_, config);
  ExpectFiniteEmbeddings(result.embeddings, 32);

  // Check rank correlation on fresh pairs: L1 embedding distance should
  // order pairs roughly like shortest-path distance.
  graph::CsrGraph routing = network_->ToLengthWeightedGraph();
  graph::ShortestPathTree tree = Dijkstra(routing, 0);
  auto l1 = [&](int64_t a, int64_t b) {
    double total = 0;
    for (int64_t j = 0; j < 32; ++j) {
      total += std::fabs(result.embeddings.at(a, j) - result.embeddings.at(b, j));
    }
    return total;
  };
  // Compare near (< 400 m) vs far (> 1.2 km) targets from vertex 0 (the
  // test city is only ~1 km wide).
  double near_l1 = 0, far_l1 = 0;
  int near_count = 0, far_count = 0;
  for (int64_t v = 1; v < network_->num_segments(); ++v) {
    double d = tree.distance[static_cast<size_t>(v)];
    if (d == graph::kInfiniteDistance) continue;
    if (d < 400.0 && near_count < 150) {
      near_l1 += l1(0, v);
      ++near_count;
    } else if (d > 1200.0 && far_count < 150) {
      far_l1 += l1(0, v);
      ++far_count;
    }
  }
  ASSERT_GT(near_count, 10);
  ASSERT_GT(far_count, 10);
  EXPECT_LT(near_l1 / near_count, far_l1 / far_count);
}

TEST_F(BaselinesTest, HrnrLiteForwardAndSupervisedTraining) {
  HrnrLiteConfig config;
  config.hidden_dim = 16;
  config.embedding_dim = 16;
  config.gat_heads = 2;
  config.feature_dim_per_feature = 4;
  HrnrLite model(*network_, config);
  ASSERT_FALSE(model.out_of_memory());
  Tensor h = model.Forward();
  ExpectFiniteEmbeddings(h, 16);

  // End-to-end supervised training on a toy signal (predict road type)
  // must reduce the loss.
  std::vector<int64_t> labels;
  for (const roadnet::RoadSegment& s : network_->segments()) {
    labels.push_back(static_cast<int64_t>(s.type));
  }
  Rng rng(3);
  nn::Linear head(16, roadnet::kNumHighwayTypes, rng);
  std::vector<Tensor> params = model.Parameters();
  for (const Tensor& p : head.Parameters()) params.push_back(p);
  tensor::Adam optimizer(params, 0.01f);
  double first = 0, last = 0;
  for (int step = 0; step < 12; ++step) {
    optimizer.ZeroGrad();
    Tensor loss = nn::CrossEntropyWithLogits(head.Forward(model.Forward()), labels);
    if (step == 0) first = loss.item();
    last = loss.item();
    loss.Backward();
    optimizer.Step();
  }
  EXPECT_LT(last, first);
}

TEST_F(BaselinesTest, HrnrLiteMemoryGuardFires) {
  HrnrLiteConfig config;
  config.memory_budget_bytes = 1024;
  HrnrLite model(*network_, config);
  EXPECT_TRUE(model.out_of_memory());
}

TEST_F(BaselinesTest, NeutrajLiteLearnsDistanceRanking) {
  // Synthetic trajectories: three spatial groups of similar sequences.
  // Within-group distances are small; across-group large.
  std::vector<std::vector<int64_t>> trajectories;
  Rng rng(4);
  auto make_group = [&](int64_t base) {
    for (int t = 0; t < 8; ++t) {
      std::vector<int64_t> seq;
      for (int64_t s = 0; s < 12; ++s) {
        seq.push_back((base + s + rng.UniformInt(0, 1)) % network_->num_segments());
      }
      trajectories.push_back(seq);
    }
  };
  make_group(0);
  make_group(200);
  make_group(400);
  auto group_of = [](size_t i) { return i / 8; };
  auto distance = [&](size_t a, size_t b) {
    return group_of(a) == group_of(b) ? 300.0 : 5000.0;
  };

  NeutrajLiteConfig config;
  config.max_epochs = 5;
  config.pairs_per_epoch = 256;
  NeutrajLite model(network_->num_segments(), config);
  model.Train(trajectories, distance);

  Tensor embedded = model.Embed(trajectories);
  EXPECT_EQ(embedded.shape()[0], static_cast<int64_t>(trajectories.size()));
  auto l1 = [&](size_t a, size_t b) {
    double total = 0;
    for (int64_t j = 0; j < embedded.shape()[1]; ++j) {
      total += std::fabs(embedded.at(static_cast<int64_t>(a), j) -
                         embedded.at(static_cast<int64_t>(b), j));
    }
    return total;
  };
  double within = 0, across = 0;
  int within_count = 0, across_count = 0;
  for (size_t a = 0; a < trajectories.size(); ++a) {
    for (size_t b = a + 1; b < trajectories.size(); ++b) {
      if (group_of(a) == group_of(b)) {
        within += l1(a, b);
        ++within_count;
      } else {
        across += l1(a, b);
        ++across_count;
      }
    }
  }
  EXPECT_LT(within / within_count, across / across_count);
}

}  // namespace
}  // namespace sarn::baselines
