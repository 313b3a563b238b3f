// End-to-end tests of the SARN model: training decreases the contrastive
// loss, embeddings are well-formed, and the learned space reflects spatial
// structure (the paper's core claim).

#include "core/sarn_model.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "geo/point.h"
#include "nn/serialization.h"
#include "roadnet/synthetic_city.h"
#include "tensor/ops.h"
#include "tensor/optimizer.h"

namespace sarn::core {
namespace {

using tensor::Tensor;

SarnConfig SmallConfig() {
  SarnConfig config;
  config.hidden_dim = 16;
  config.embedding_dim = 16;
  config.projection_dim = 8;
  config.gat_layers = 2;
  config.gat_heads = 2;
  config.feature_dim_per_feature = 4;
  config.max_epochs = 8;
  config.batch_size = 128;
  config.queue_budget = 400;
  return config;
}

// The rolling checkpoints in `dir`, newest first.
std::vector<std::pair<int, std::string>> Checkpoints(const std::string& dir) {
  std::vector<std::pair<int, std::string>> found;
  snapshot::SnapshotStatus status = nn::ListCheckpoints(dir, &found);
  EXPECT_TRUE(status.ok()) << status.message;
  return found;
}

class SarnModelTest : public testing::Test {
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

  static roadnet::RoadNetwork* network_;
};

roadnet::RoadNetwork* SarnModelTest::network_ = nullptr;

TEST_F(SarnModelTest, EmbeddingsShapeAndFinite) {
  SarnModel model(*network_, SmallConfig());
  Tensor h = model.Embeddings();
  EXPECT_EQ(h.shape(),
            (tensor::Shape{network_->num_segments(), SmallConfig().embedding_dim}));
  for (float v : h.data()) EXPECT_TRUE(std::isfinite(v));
}

TEST_F(SarnModelTest, TrainingDecreasesLoss) {
  SarnConfig config = SmallConfig();
  config.max_epochs = 10;
  SarnModel model(*network_, config);
  TrainStats stats = model.Train();
  ASSERT_GE(stats.epochs_run, 5);
  // Compare the mean of the first two vs last two epochs (epoch 0 has cold
  // queues, so include epoch 1).
  double early = (stats.epoch_losses[1] + stats.epoch_losses[2]) / 2.0;
  double late = (stats.epoch_losses[stats.epochs_run - 2] +
                 stats.epoch_losses[stats.epochs_run - 1]) /
                2.0;
  EXPECT_LT(late, early);
}

TEST_F(SarnModelTest, SpatialEdgesPresentByDefaultAbsentInAblation) {
  SarnModel with(*network_, SmallConfig());
  EXPECT_FALSE(with.spatial_edges().empty());
  SarnConfig ablated = SmallConfig();
  ablated.use_spatial_matrix = false;
  SarnModel without(*network_, ablated);
  EXPECT_TRUE(without.spatial_edges().empty());
}

TEST_F(SarnModelTest, AblationVariantsTrain) {
  for (bool matrix : {true, false}) {
    for (bool negatives : {true, false}) {
      SarnConfig config = SmallConfig();
      config.max_epochs = 3;
      config.use_spatial_matrix = matrix;
      config.use_spatial_negatives = negatives;
      config.random_negatives = 16;
      SarnModel model(*network_, config);
      TrainStats stats = model.Train();
      EXPECT_EQ(stats.epochs_run, 3);
      EXPECT_TRUE(std::isfinite(stats.final_loss));
    }
  }
}

TEST_F(SarnModelTest, TrainedEmbeddingsReflectSpatialStructure) {
  SarnConfig config = SmallConfig();
  config.max_epochs = 12;
  SarnModel model(*network_, config);
  model.Train();
  Tensor h = model.Embeddings();
  Tensor normalized = tensor::RowL2Normalize(h);

  // Average cosine similarity of spatially-close pairs must exceed that of
  // distant random pairs.
  auto cosine = [&](int64_t a, int64_t b) {
    double dot = 0;
    for (int64_t j = 0; j < normalized.shape()[1]; ++j) {
      dot += normalized.at(a, j) * normalized.at(b, j);
    }
    return dot;
  };
  Rng rng(5);
  double near_sum = 0;
  int near_count = 0;
  for (const SpatialEdge& e : model.spatial_edges()) {
    near_sum += cosine(e.a, e.b);
    if (++near_count >= 300) break;
  }
  double far_sum = 0;
  int far_count = 0;
  while (far_count < 300) {
    int64_t a = rng.UniformInt(0, network_->num_segments() - 1);
    int64_t b = rng.UniformInt(0, network_->num_segments() - 1);
    if (a == b) continue;
    double dist = geo::HaversineMeters(network_->segment(a).Midpoint(),
                                       network_->segment(b).Midpoint());
    if (dist < 500.0) continue;
    far_sum += cosine(a, b);
    ++far_count;
  }
  EXPECT_GT(near_sum / near_count, far_sum / far_count + 0.05);
}

TEST_F(SarnModelTest, DeterministicGivenSeed) {
  SarnConfig config = SmallConfig();
  config.max_epochs = 2;
  SetParallelThreads(1);
  SarnModel a(*network_, config);
  a.Train();
  SarnModel b(*network_, config);
  b.Train();
  SetParallelThreads(0);
  Tensor ha = a.Embeddings();
  Tensor hb = b.Embeddings();
  for (int64_t i = 0; i < std::min<int64_t>(ha.numel(), 200); ++i) {
    ASSERT_FLOAT_EQ(ha.data()[static_cast<size_t>(i)], hb.data()[static_cast<size_t>(i)]);
  }
}

TEST_F(SarnModelTest, FineTuneParametersAreFinalLayerOnly) {
  SarnModel model(*network_, SmallConfig());
  EXPECT_LT(model.FineTuneParameters().size(), model.OnlineParameters().size());
  // Fine-tuning step: gradients reach the final layer through
  // EncodeForFineTune.
  Tensor h = model.EncodeForFineTune();
  tensor::Sum(h).Backward();
  for (const Tensor& p : model.FineTuneParameters()) {
    double norm = 0;
    for (float g : p.grad()) norm += std::fabs(g);
    EXPECT_GT(norm, 0.0);
  }
}

// --- Crash-safe checkpoint/resume -------------------------------------------

std::string FreshDir(const std::string& name) {
  std::string dir = testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

void ExpectBitwiseEqualParameters(const SarnModel& a, const SarnModel& b) {
  std::vector<Tensor> pa = a.OnlineParameters();
  std::vector<Tensor> pb = b.OnlineParameters();
  ASSERT_EQ(pa.size(), pb.size());
  for (size_t i = 0; i < pa.size(); ++i) {
    ASSERT_EQ(pa[i].data(), pb[i].data()) << "online parameter " << i << " diverged";
  }
}

// The golden test of the checkpoint subsystem: training k epochs, "crashing",
// and resuming into *fresh* objects must finish bitwise identical to an
// uninterrupted run — for parameters, loss history and embeddings — at both
// 1 and 4 threads.
TEST_F(SarnModelTest, ResumedRunIsBitwiseIdenticalToStraightRun) {
  for (size_t threads : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    SetParallelThreads(threads);
    SarnConfig config = SmallConfig();
    config.max_epochs = 6;

    // Uninterrupted reference run (no checkpointing at all).
    SarnModel straight(*network_, config);
    TrainStats straight_stats = straight.Train();
    ASSERT_EQ(straight_stats.epochs_run, 6);

    // Interrupted run: train 3 epochs with checkpointing, then "crash".
    std::string dir = FreshDir("sarn_resume_" + std::to_string(threads));
    TrainOptions phase1;
    phase1.checkpoint_dir = dir;
    phase1.checkpoint_every = 1;
    phase1.max_epochs = 3;  // Simulated kill after epoch 3.
    {
      SarnModel interrupted(*network_, config);
      TrainStats stats = interrupted.Train(phase1);
      EXPECT_EQ(stats.epochs_run, 3);
      EXPECT_GT(stats.checkpoints_written, 0);
    }  // Model destroyed: resume must work from the files alone.

    // Fresh objects resume from the latest checkpoint and finish the run.
    SarnModel resumed(*network_, config);
    TrainOptions phase2;
    phase2.checkpoint_dir = dir;
    TrainStats resumed_stats = resumed.Train(phase2);
    EXPECT_EQ(resumed_stats.resumed_from_epoch, 3);
    EXPECT_EQ(resumed_stats.epochs_run, 6);

    // Bitwise equality: loss history, final loss, parameters, embeddings.
    ASSERT_EQ(resumed_stats.epoch_losses.size(), straight_stats.epoch_losses.size());
    for (size_t e = 0; e < straight_stats.epoch_losses.size(); ++e) {
      ASSERT_EQ(resumed_stats.epoch_losses[e], straight_stats.epoch_losses[e])
          << "epoch " << e << " loss diverged";
    }
    ASSERT_EQ(resumed_stats.final_loss, straight_stats.final_loss);
    ExpectBitwiseEqualParameters(straight, resumed);
    Tensor ha = straight.Embeddings();
    Tensor hb = resumed.Embeddings();
    ASSERT_EQ(ha.data(), hb.data());
    std::filesystem::remove_all(dir);
  }
  SetParallelThreads(0);
}

TEST_F(SarnModelTest, ResumeSurvivesCorruptLatestCheckpoint) {
  SetParallelThreads(1);
  SarnConfig config = SmallConfig();
  config.max_epochs = 4;
  std::string dir = FreshDir("sarn_resume_corrupt");

  TrainOptions phase1;
  phase1.checkpoint_dir = dir;
  phase1.checkpoint_every = 1;
  phase1.max_epochs = 2;
  {
    SarnModel interrupted(*network_, config);
    interrupted.Train(phase1);
  }
  // Corrupt the newest checkpoint file (flip one byte mid-file); keep an
  // older valid one.
  auto found = Checkpoints(dir);
  ASSERT_GE(found.size(), 2u);
  {
    std::fstream f(found.front().second,
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekg(0, std::ios::end);
    auto size = static_cast<long>(f.tellg());
    f.seekp(size / 2);
    char byte = 0;
    f.seekg(size / 2);
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x10);
    f.seekp(size / 2);
    f.write(&byte, 1);
  }

  SarnModel resumed(*network_, config);
  TrainOptions phase2;
  phase2.checkpoint_dir = dir;
  TrainStats stats = resumed.Train(phase2);
  // Fell back to the older valid checkpoint (epoch 1) and still finished.
  EXPECT_EQ(stats.resumed_from_epoch, 1);
  EXPECT_EQ(stats.epochs_run, 4);
  SetParallelThreads(0);
  std::filesystem::remove_all(dir);
}

TEST_F(SarnModelTest, CheckpointRotationKeepsLastK) {
  SetParallelThreads(1);
  SarnConfig config = SmallConfig();
  config.max_epochs = 5;
  std::string dir = FreshDir("sarn_rotation");
  TrainOptions options;
  options.checkpoint_dir = dir;
  options.checkpoint_every = 1;
  options.keep_last = 2;
  SarnModel model(*network_, config);
  TrainStats stats = model.Train(options);
  EXPECT_EQ(stats.epochs_run, 5);
  auto found = Checkpoints(dir);
  ASSERT_EQ(found.size(), 2u);
  EXPECT_EQ(found[0].first, 5);
  EXPECT_EQ(found[1].first, 4);
  SetParallelThreads(0);
  std::filesystem::remove_all(dir);
}

TEST_F(SarnModelTest, ResumeRejectsCheckpointFromDifferentSeed) {
  SetParallelThreads(1);
  SarnConfig config = SmallConfig();
  config.max_epochs = 3;
  std::string dir = FreshDir("sarn_seed_mismatch");
  TrainOptions options;
  options.checkpoint_dir = dir;
  options.max_epochs = 2;
  {
    SarnModel model(*network_, config);
    model.Train(options);
  }
  // A model with a different seed must not adopt that checkpoint silently.
  SarnConfig other = config;
  other.seed = config.seed + 99;
  SarnModel model(*network_, other);
  // Point at the mismatched dir: resume skips it and trains from scratch.
  TrainOptions resume_options;
  resume_options.checkpoint_dir = dir;
  TrainStats stats = model.Train(resume_options);
  EXPECT_EQ(stats.resumed_from_epoch, 0);
  EXPECT_EQ(stats.epochs_run, 3);
  SetParallelThreads(0);
  std::filesystem::remove_all(dir);
}

// A checkpoint written by one variant composition must never be adopted —
// silently or otherwise — by a model composed of different registry pieces.
TEST_F(SarnModelTest, ResumeRejectsCheckpointFromDifferentVariant) {
  SetParallelThreads(1);
  SarnConfig rfn_config = SmallConfig();
  rfn_config.max_epochs = 3;
  rfn_config.encoder = "rfn";
  std::string dir = FreshDir("sarn_variant_mismatch_resume");
  TrainOptions options;
  options.checkpoint_dir = dir;
  options.max_epochs = 2;
  {
    SarnModel model(*network_, rfn_config);
    model.Train(options);
  }
  SarnConfig gat_config = rfn_config;
  gat_config.encoder = "gat";
  SarnModel model(*network_, gat_config);
  TrainOptions resume_options;
  resume_options.checkpoint_dir = dir;
  TrainStats stats = model.Train(resume_options);
  EXPECT_EQ(stats.resumed_from_epoch, 0);  // Skipped, trained from scratch.
  EXPECT_EQ(stats.epochs_run, 3);
  SetParallelThreads(0);
  std::filesystem::remove_all(dir);
}

// The typed export path: LoadWeights must report
// kVariantMismatch with a message naming BOTH compositions, and leave the
// model untouched — never a silent shape mismatch.
TEST_F(SarnModelTest, LoadWeightsReportsVariantMismatch) {
  SetParallelThreads(1);
  SarnConfig rfn_config = SmallConfig();
  rfn_config.max_epochs = 1;
  rfn_config.encoder = "rfn";
  rfn_config.negatives = "in-batch";
  std::string dir = FreshDir("sarn_variant_mismatch_load");
  TrainOptions options;
  options.checkpoint_dir = dir;
  {
    SarnModel model(*network_, rfn_config);
    model.Train(options);
  }
  auto found = Checkpoints(dir);
  ASSERT_FALSE(found.empty());
  const std::string path = found.front().second;

  SarnConfig gat_config = rfn_config;
  gat_config.encoder = "gat";
  gat_config.negatives = "spatial";
  SarnModel model(*network_, gat_config);
  Tensor before = model.Embeddings();
  ModelLoadStatus status = model.LoadWeights(path);
  EXPECT_EQ(status.error, ModelLoadError::kVariantMismatch);
  EXPECT_NE(status.message.find("encoder=rfn"), std::string::npos) << status.message;
  EXPECT_NE(status.message.find("encoder=gat"), std::string::npos) << status.message;
  EXPECT_NE(status.message.find("negatives=in-batch"), std::string::npos)
      << status.message;
  Tensor after = model.Embeddings();
  ASSERT_EQ(before.data(), after.data());  // Model untouched on failure.

  // The matching composition restores cleanly from the same file.
  SarnModel matching(*network_, rfn_config);
  EXPECT_TRUE(matching.LoadWeights(path).ok());
  SetParallelThreads(0);
  std::filesystem::remove_all(dir);
}

// The variant tag is required: an arena whose model sections lack
// sarn/variant is refused by name, never adopted as some default
// composition.
TEST_F(SarnModelTest, CheckpointWithoutVariantTagIsRejected) {
  SetParallelThreads(1);
  SarnConfig config = SmallConfig();
  config.max_epochs = 1;
  std::string dir = FreshDir("sarn_variant_required");
  TrainOptions options;
  options.checkpoint_dir = dir;
  {
    SarnModel model(*network_, config);
    model.Train(options);
  }
  auto found = Checkpoints(dir);
  ASSERT_FALSE(found.empty());
  const std::string path = found.front().second;
  // Re-seal the same sections minus sarn/variant.
  std::string stripped;
  {
    std::shared_ptr<const snapshot::MappedSnapshot> arena;
    ASSERT_TRUE(snapshot::MappedSnapshot::Map(path, {}, &arena).ok());
    snapshot::SnapshotWriter writer;
    for (const auto& section : arena->sections()) {
      if (section.name == kSectionVariant) continue;
      writer.Add(section.name, section.dtype, section.data, section.bytes);
    }
    stripped = writer.Finish();
  }
  ASSERT_TRUE(snapshot::WriteSnapshotFile(path, stripped).ok());

  SarnModel model(*network_, config);
  Tensor before = model.Embeddings();
  ModelLoadStatus status = model.LoadWeights(path);
  EXPECT_EQ(status.error, ModelLoadError::kParseError);
  EXPECT_NE(status.message.find(kSectionVariant), std::string::npos)
      << status.message;
  ASSERT_EQ(before.data(), model.Embeddings().data());
  // Resume skips it as a mismatch and trains from scratch.
  TrainStats stats = model.Train(options);
  EXPECT_EQ(stats.resumed_from_epoch, 0);
  SetParallelThreads(0);
  std::filesystem::remove_all(dir);
}

TEST_F(SarnModelTest, EarlyStoppingBoundsEpochs) {
  SarnConfig config = SmallConfig();
  config.max_epochs = 50;
  config.patience = 2;
  SarnModel model(*network_, config);
  TrainStats stats = model.Train();
  EXPECT_LE(stats.epochs_run, 50);
  EXPECT_EQ(stats.epoch_losses.size(), static_cast<size_t>(stats.epochs_run));
}

}  // namespace
}  // namespace sarn::core
