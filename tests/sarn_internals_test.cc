// White-box tests of SARN's two-level loss (Eqs. 15-17) through the
// SarnModelTestPeer friend: loss endpoints at lambda in {0, 1}, behavior as
// queues fill, and alignment sensitivity of the positive term.

#include <cmath>

#include <gtest/gtest.h>

#include "core/sarn_model.h"
#include "roadnet/synthetic_city.h"
#include "tensor/ops.h"

namespace sarn::core {

// Declared friend in SarnModel.
class SarnModelTestPeer {
 public:
  explicit SarnModelTestPeer(SarnModel& model) : model_(&model) {}

  tensor::Tensor ComputeLoss(const tensor::Tensor& z, const tensor::Tensor& z_prime,
                             const std::vector<int64_t>& batch, Rng& rng) {
    return model_->ComputeLoss(z, z_prime, batch, rng);
  }

  NegativeQueueStore& queues() {
    NegativeQueueStore* store = model_->sampler_->queue_store();
    EXPECT_NE(store, nullptr);
    return *store;
  }

 private:
  SarnModel* model_;
};

namespace {

using tensor::Tensor;

class SarnInternalsTest : public testing::Test {
 protected:
  static void SetUpTestSuite() {
    roadnet::SyntheticCityConfig city;
    city.rows = 8;
    city.cols = 8;
    network_ = new roadnet::RoadNetwork(roadnet::GenerateSyntheticCity(city));
  }
  static void TearDownTestSuite() {
    delete network_;
    network_ = nullptr;
  }

  static SarnConfig SmallConfig() {
    SarnConfig config;
    config.hidden_dim = 8;
    config.embedding_dim = 8;
    config.projection_dim = 4;
    config.gat_layers = 1;
    config.gat_heads = 2;
    config.feature_dim_per_feature = 2;
    config.cell_side_meters = 300.0;
    config.queue_budget = 200;
    return config;
  }

  // A batch of unit-norm projected embeddings with a controllable alignment
  // between z and z'.
  static std::pair<Tensor, Tensor> MakeBatch(int64_t m, int64_t dz, float alignment,
                                             uint64_t seed) {
    Rng rng(seed);
    Tensor z = tensor::RowL2Normalize(Tensor::Randn({m, dz}, rng)).Detach();
    Tensor noise = tensor::RowL2Normalize(Tensor::Randn({m, dz}, rng)).Detach();
    Tensor mixed = tensor::Add(tensor::MulScalar(z, alignment),
                               tensor::MulScalar(noise, 1.0f - alignment));
    Tensor z_prime = tensor::RowL2Normalize(mixed).Detach();
    return {z, z_prime};
  }

  static roadnet::RoadNetwork* network_;
};

roadnet::RoadNetwork* SarnInternalsTest::network_ = nullptr;

TEST_F(SarnInternalsTest, LossZeroishWithEmptyQueues) {
  SarnModel model(*network_, SmallConfig());
  SarnModelTestPeer peer(model);
  auto [z, z_prime] = MakeBatch(8, 4, 1.0f, 1);
  std::vector<int64_t> batch = {0, 1, 2, 3, 4, 5, 6, 7};
  Rng rng(2);
  // No negatives anywhere: both loss terms have nothing to contrast with.
  Tensor loss = peer.ComputeLoss(z, z_prime, batch, rng);
  EXPECT_NEAR(loss.item(), 0.0f, 1e-4f);
}

TEST_F(SarnInternalsTest, AlignedPositivesGiveLowerLoss) {
  SarnModel model(*network_, SmallConfig());
  SarnModelTestPeer peer(model);
  // Fill queues with random embeddings for every segment.
  Rng fill_rng(3);
  for (int64_t s = 0; s < network_->num_segments(); ++s) {
    Tensor e = tensor::RowL2Normalize(Tensor::Randn({1, 4}, fill_rng));
    peer.queues().Push(s, e.data().ToVector());
  }
  std::vector<int64_t> batch = {0, 1, 2, 3, 4, 5, 6, 7};
  Rng rng(4);
  auto [z_good, zp_good] = MakeBatch(8, 4, 1.0f, 5);
  auto [z_bad, zp_bad] = MakeBatch(8, 4, 0.0f, 5);
  float good = peer.ComputeLoss(z_good, zp_good, batch, rng).item();
  float bad = peer.ComputeLoss(z_bad, zp_bad, batch, rng).item();
  EXPECT_LT(good, bad);
}

TEST_F(SarnInternalsTest, LambdaEndpointsSelectLossTerms) {
  // lambda = 1: pure local loss; with empty LOCAL queues but other cells
  // filled, the loss must be ~0. lambda = 0: pure global loss, which is
  // positive in the same situation.
  SarnConfig config = SmallConfig();
  std::vector<int64_t> batch = {0, 1, 2, 3};
  auto [z, z_prime] = MakeBatch(4, 4, 1.0f, 6);

  auto loss_with_lambda = [&](double lambda) {
    SarnConfig c = config;
    c.lambda = lambda;
    SarnModel model(*network_, c);
    SarnModelTestPeer peer(model);
    // Fill only cells that do NOT contain the batch anchors.
    Rng fill_rng(7);
    std::vector<int> anchor_cells;
    for (int64_t b : batch) anchor_cells.push_back(peer.queues().CellOf(b));
    for (int64_t s = 0; s < network_->num_segments(); ++s) {
      int cell = peer.queues().CellOf(s);
      bool is_anchor_cell = false;
      for (int c2 : anchor_cells) is_anchor_cell |= (c2 == cell);
      if (!is_anchor_cell) {
        Tensor e = tensor::RowL2Normalize(Tensor::Randn({1, 4}, fill_rng));
        peer.queues().Push(s, e.data().ToVector());
      }
    }
    Rng rng(8);
    return peer.ComputeLoss(z, z_prime, batch, rng).item();
  };

  float local_only = loss_with_lambda(1.0);
  float global_only = loss_with_lambda(0.0);
  // Local negatives empty -> local term ~0. Global negatives exist, but the
  // anchors' own cells are empty -> anchors are dropped from the global
  // term too, so it is also 0 here. Refill including anchor cells:
  EXPECT_NEAR(local_only, 0.0f, 1e-4f);
  EXPECT_NEAR(global_only, 0.0f, 1e-4f);
}

TEST_F(SarnInternalsTest, GlobalLossPositiveWhenCellsPopulated) {
  SarnConfig config = SmallConfig();
  config.lambda = 0.0;  // Global only.
  SarnModel model(*network_, config);
  SarnModelTestPeer peer(model);
  Rng fill_rng(9);
  for (int64_t s = 0; s < network_->num_segments(); ++s) {
    Tensor e = tensor::RowL2Normalize(Tensor::Randn({1, 4}, fill_rng));
    peer.queues().Push(s, e.data().ToVector());
  }
  ASSERT_GE(peer.queues().NonEmptyCells().size(), 2u);
  std::vector<int64_t> batch = {0, 1, 2, 3};
  auto [z, z_prime] = MakeBatch(4, 4, 1.0f, 10);
  Rng rng(11);
  float loss = peer.ComputeLoss(z, z_prime, batch, rng).item();
  EXPECT_GT(loss, 0.01f);
}

TEST_F(SarnInternalsTest, RandomNegativeModeProducesInfoNceLoss) {
  SarnConfig config = SmallConfig();
  config.use_spatial_negatives = false;
  config.random_negatives = 8;
  SarnModel model(*network_, config);
  SarnModelTestPeer peer(model);
  Rng fill_rng(12);
  for (int64_t s = 0; s < network_->num_segments(); ++s) {
    Tensor e = tensor::RowL2Normalize(Tensor::Randn({1, 4}, fill_rng));
    peer.queues().Push(s, e.data().ToVector());
  }
  std::vector<int64_t> batch = {0, 1, 2, 3};
  auto [z, z_prime] = MakeBatch(4, 4, 0.5f, 13);
  Rng rng(14);
  float loss = peer.ComputeLoss(z, z_prime, batch, rng).item();
  EXPECT_GT(loss, 0.0f);
  EXPECT_TRUE(std::isfinite(loss));
}

TEST_F(SarnInternalsTest, LossBackwardReachesInputs) {
  SarnModel model(*network_, SmallConfig());
  SarnModelTestPeer peer(model);
  Rng fill_rng(15);
  for (int64_t s = 0; s < network_->num_segments(); ++s) {
    Tensor e = tensor::RowL2Normalize(Tensor::Randn({1, 4}, fill_rng));
    peer.queues().Push(s, e.data().ToVector());
  }
  Rng rng(16);
  Tensor z = tensor::RowL2Normalize(Tensor::Randn({4, 4}, rng));
  z.RequiresGrad();
  auto [unused, z_prime] = MakeBatch(4, 4, 1.0f, 17);
  (void)unused;
  std::vector<int64_t> batch = {0, 1, 2, 3};
  Tensor loss = peer.ComputeLoss(z, z_prime, batch, rng);
  loss.Backward();
  double grad_norm = 0;
  for (float g : z.grad()) grad_norm += std::fabs(g);
  EXPECT_GT(grad_norm, 0.0);
}

TEST_F(SarnInternalsTest, FitCellSideToNetworkClampsAndScales) {
  SarnConfig config;
  FitCellSideToNetwork(config, *network_, 4);
  double extent = std::max(network_->bounding_box().WidthMeters(),
                           network_->bounding_box().HeightMeters());
  EXPECT_NEAR(config.cell_side_meters, std::clamp(extent / 4.0, 150.0, 1200.0), 1e-9);
  FitCellSideToNetwork(config, *network_, 10000);
  EXPECT_DOUBLE_EQ(config.cell_side_meters, 150.0);  // Lower clamp.
}

TEST_F(SarnInternalsTest, EncodeIsDeterministicAcrossCalls) {
  SarnModel model(*network_, SmallConfig());
  Tensor a = model.Embeddings();
  Tensor b = model.Embeddings();
  for (int64_t i = 0; i < a.numel(); ++i) {
    ASSERT_FLOAT_EQ(a.data()[static_cast<size_t>(i)], b.data()[static_cast<size_t>(i)]);
  }
}

}  // namespace
}  // namespace sarn::core
