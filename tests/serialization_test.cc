#include "nn/serialization.h"

#include <cstdio>
#include <filesystem>
#include <fstream>

#include <gtest/gtest.h>

#include "core/sarn_model.h"
#include "nn/linear.h"
#include "roadnet/synthetic_city.h"
#include "snapshot/arena.h"
#include "tensor/ops.h"

namespace sarn::nn {
namespace {

using tensor::Tensor;

std::string TempPath(const std::string& name) { return testing::TempDir() + "/" + name; }

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// A small two-section arena in the shape of a checkpoint: kBytes sections
// filled by ByteWriters. Corruption of such arenas is swept by
// snapshot_corruption_test; these tests pin the directory handling.
std::string MakeCheckpoint() {
  snapshot::SnapshotWriter writer;
  ByteWriter a;
  a.PutI64(7);
  a.PutF64(2.5);
  writer.Add("test/a", snapshot::SectionType::kBytes, a.Take());
  ByteWriter b;
  b.PutFloats({1.0f, 2.0f, 3.0f});
  writer.Add("test/b", snapshot::SectionType::kBytes, b.Take());
  return writer.Finish();
}

snapshot::SnapshotStatus SaveCheckpoint(const std::string& path) {
  return snapshot::WriteSnapshotFile(path, MakeCheckpoint());
}

std::vector<std::pair<int, std::string>> Checkpoints(const std::string& dir) {
  std::vector<std::pair<int, std::string>> found;
  snapshot::SnapshotStatus status = ListCheckpoints(dir, &found);
  EXPECT_TRUE(status.ok()) << status.message;
  return found;
}

TEST(SerializationTest, RejectsWrongCount) {
  Rng rng(3);
  Linear a(4, 3, rng);
  ByteWriter out;
  WriteTensors(out, a.Parameters());
  const std::string payload = out.Take();
  std::vector<Tensor> too_few = {a.Parameters()[0]};
  ByteReader in(payload);
  EXPECT_EQ(ReadTensorsInto(in, too_few).error,
            snapshot::SnapshotError::kShapeMismatch);
}

// --- Checkpoint-style arenas --------------------------------------------------

TEST(CheckpointArenaTest, RoundTripPreservesSections) {
  std::string path = TempPath("ckpt_roundtrip.sarnckpt");
  ASSERT_TRUE(SaveCheckpoint(path).ok());

  std::shared_ptr<const snapshot::MappedSnapshot> arena;
  snapshot::SnapshotStatus status = snapshot::MappedSnapshot::Map(path, {}, &arena);
  ASSERT_TRUE(status.ok()) << status.message;
  ASSERT_EQ(arena->sections().size(), 2u);
  EXPECT_EQ(arena->sections()[0].name, "test/a");
  EXPECT_EQ(arena->sections()[1].name, "test/b");
  EXPECT_EQ(arena->sections()[0].dtype, snapshot::SectionType::kBytes);
  // Typed values survive.
  ByteReader in(arena->BytesOf(*arena->Find("test/a")));
  int64_t v = 0;
  double d = 0.0;
  EXPECT_TRUE(in.GetI64(&v));
  EXPECT_TRUE(in.GetF64(&d));
  EXPECT_TRUE(in.AtEnd());
  EXPECT_EQ(v, 7);
  EXPECT_EQ(d, 2.5);
  std::remove(path.c_str());
}

TEST(CheckpointArenaTest, AtomicWriteLeavesNoTmpFile) {
  std::string path = TempPath("ckpt_atomic.sarnckpt");
  ASSERT_TRUE(SaveCheckpoint(path).ok());
  EXPECT_TRUE(std::filesystem::exists(path));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  std::remove(path.c_str());
}

TEST(CheckpointArenaTest, TensorShapeMismatchNeverHalfLoads) {
  Rng rng(11);
  Linear source(4, 3, rng);
  ByteWriter out;
  WriteTensors(out, source.Parameters());
  std::string payload = out.Take();

  Linear wrong(4, 5, rng);  // Different output width.
  std::vector<float> before = wrong.Parameters()[0].data().ToVector();
  ByteReader in(payload);
  snapshot::SnapshotStatus status = ReadTensorsInto(in, wrong.Parameters());
  EXPECT_EQ(status.error, snapshot::SnapshotError::kShapeMismatch) << status.message;
  // Strong guarantee: the mismatched target is untouched, not half-loaded.
  EXPECT_EQ(wrong.Parameters()[0].data(), before);
}

TEST(CheckpointArenaTest, WriteReadTensorsIsBitwise) {
  Rng rng(13);
  Linear source(6, 4, rng);
  Linear dest(6, 4, rng);  // Different init values.
  ByteWriter out;
  WriteTensors(out, source.Parameters());
  std::string payload = out.Take();
  ByteReader in(payload);
  ASSERT_TRUE(ReadTensorsInto(in, dest.Parameters()).ok());
  for (size_t p = 0; p < source.Parameters().size(); ++p) {
    EXPECT_EQ(source.Parameters()[p].data(), dest.Parameters()[p].data());
  }
}

TEST(CheckpointArenaTest, ListAndPruneCheckpoints) {
  std::string dir = TempPath("ckpt_dir_rotation");
  std::filesystem::create_directories(dir);
  for (int epoch : {1, 2, 3, 4, 5}) {
    ASSERT_TRUE(SaveCheckpoint(dir + "/" + CheckpointFileName(epoch)).ok());
  }
  WriteFile(dir + "/unrelated.txt", "ignore me");

  auto found = Checkpoints(dir);
  ASSERT_EQ(found.size(), 5u);
  EXPECT_EQ(found.front().first, 5);  // Newest first.
  EXPECT_EQ(found.back().first, 1);

  PruneCheckpoints(dir, 2);
  found = Checkpoints(dir);
  ASSERT_EQ(found.size(), 2u);
  EXPECT_EQ(found[0].first, 5);
  EXPECT_EQ(found[1].first, 4);
  EXPECT_TRUE(std::filesystem::exists(dir + "/unrelated.txt"));
  std::filesystem::remove_all(dir);
}

TEST(CheckpointArenaTest, ResumeSkipsCorruptAndUsesOlderValid) {
  // The trainer-facing contract: a corrupt newest checkpoint must not stop
  // resume — the loader reports it and the trainer falls back to the next.
  std::string dir = TempPath("ckpt_dir_fallback");
  std::filesystem::create_directories(dir);
  ASSERT_TRUE(SaveCheckpoint(dir + "/" + CheckpointFileName(1)).ok());
  ASSERT_TRUE(SaveCheckpoint(dir + "/" + CheckpointFileName(2)).ok());
  // Corrupt the newest.
  std::string newest = dir + "/" + CheckpointFileName(2);
  std::string bytes = ReadFile(newest);
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x01);
  WriteFile(newest, bytes);

  int loaded_epoch = -1;
  for (const auto& [epoch, path] : Checkpoints(dir)) {
    std::shared_ptr<const snapshot::MappedSnapshot> arena;
    if (snapshot::MappedSnapshot::Map(path, {}, &arena).ok()) {
      loaded_epoch = epoch;
      break;
    }
  }
  EXPECT_EQ(loaded_epoch, 1);
  std::filesystem::remove_all(dir);
}

TEST(SerializationTest, SarnModelCheckpointRoundTrip) {
  roadnet::SyntheticCityConfig city;
  city.rows = 8;
  city.cols = 8;
  roadnet::RoadNetwork network = roadnet::GenerateSyntheticCity(city);
  core::SarnConfig config;
  config.hidden_dim = 8;
  config.embedding_dim = 8;
  config.projection_dim = 4;
  config.gat_layers = 1;
  config.gat_heads = 2;
  config.feature_dim_per_feature = 2;
  config.max_epochs = 2;
  core::SarnModel trained(network, config);
  trained.Train();
  std::string path = TempPath("sarn_model.ckpt");
  ASSERT_TRUE(trained.SaveWeights(path).ok());

  config.seed = 777;  // Different init.
  core::SarnModel restored(network, config);
  core::ModelLoadStatus status = restored.LoadWeights(path);
  ASSERT_TRUE(status.ok()) << status.message;
  Tensor a = trained.Embeddings();
  Tensor b = restored.Embeddings();
  for (int64_t i = 0; i < a.numel(); ++i) {
    ASSERT_FLOAT_EQ(a.data()[static_cast<size_t>(i)], b.data()[static_cast<size_t>(i)]);
  }
  std::remove(path.c_str());
}

// --- Degenerate paths ----------------------------------------------------------
// A missing path, a 0-byte file and a directory must each come back as a
// typed error from every reader and writer — never a crash, never a
// half-written file.

class DegeneratePathTest : public testing::Test {
 protected:
  void SetUp() override {
    root_ = TempPath("sarn_degenerate_paths");
    std::filesystem::remove_all(root_);
    std::filesystem::create_directories(root_ + "/adir");
    WriteFile(root_ + "/empty.bin", "");
    roadnet::SyntheticCityConfig city;
    city.rows = 6;
    city.cols = 6;
    network_ = roadnet::GenerateSyntheticCity(city);
    config_.hidden_dim = 8;
    config_.embedding_dim = 8;
    config_.projection_dim = 4;
    config_.gat_layers = 1;
    config_.gat_heads = 2;
    config_.feature_dim_per_feature = 2;
    config_.max_epochs = 1;
  }
  void TearDown() override { std::filesystem::remove_all(root_); }

  std::string root_;
  roadnet::RoadNetwork network_;
  core::SarnConfig config_;
};

TEST_F(DegeneratePathTest, LoadWeightsIsTyped) {
  core::SarnModel model(network_, config_);
  struct Case {
    std::string path;
    core::ModelLoadError error;
    const char* says;
  };
  const Case cases[] = {
      {root_ + "/missing.ckpt", core::ModelLoadError::kFileNotFound, "cannot open"},
      {root_ + "/empty.bin", core::ModelLoadError::kParseError, "[truncated]"},
      {root_ + "/adir", core::ModelLoadError::kFileNotFound, "not a regular file"},
  };
  const std::vector<float> before = model.OnlineParameters()[0].data().ToVector();
  for (const Case& c : cases) {
    core::ModelLoadStatus status = model.LoadWeights(c.path);
    EXPECT_EQ(status.error, c.error) << c.path << ": " << status.message;
    EXPECT_NE(status.message.find(c.says), std::string::npos) << status.message;
  }
  EXPECT_EQ(model.OnlineParameters()[0].data(), before);
}

TEST_F(DegeneratePathTest, ListCheckpointsIsTyped) {
  std::vector<std::pair<int, std::string>> found = {{1, "untouched"}};
  EXPECT_EQ(ListCheckpoints(root_ + "/missing", &found).error,
            snapshot::SnapshotError::kIoError);
  EXPECT_EQ(ListCheckpoints(root_ + "/empty.bin", &found).error,
            snapshot::SnapshotError::kIoError);
  EXPECT_EQ(found.size(), 1u);  // Only set on success.
  EXPECT_TRUE(ListCheckpoints(root_ + "/adir", &found).ok());
  EXPECT_TRUE(found.empty());
}

TEST_F(DegeneratePathTest, CheckpointDirThatIsAFileAbortsBeforeTraining) {
  core::SarnModel model(network_, config_);
  core::TrainOptions options;
  options.checkpoint_dir = root_ + "/empty.bin";
  core::TrainStats stats = model.Train(options);
  EXPECT_TRUE(stats.aborted);
  EXPECT_EQ(stats.epochs_run, 0);
  EXPECT_NE(stats.abort_reason.find("empty.bin"), std::string::npos)
      << stats.abort_reason;
}

TEST_F(DegeneratePathTest, UnwritableWeightsPathIsIoErrorAndLeavesNoTmp) {
  core::SarnModel model(network_, config_);
  for (const std::string& path : {root_ + "/nodir/w.bin", root_ + "/adir"}) {
    snapshot::SnapshotStatus status = model.SaveWeights(path);
    EXPECT_EQ(status.error, snapshot::SnapshotError::kIoError) << path;
    EXPECT_FALSE(std::filesystem::exists(path + ".tmp")) << path;
  }
  EXPECT_TRUE(std::filesystem::is_directory(root_ + "/adir"));
}

// The variant tag travels inside training checkpoints (section
// "sarn/variant"); its serialization must round-trip and reject truncation
// rather than half-read.
TEST(SerializationTest, VariantTagRoundTrip) {
  core::VariantTag tag;
  tag.encoder = "rfn";
  tag.augmentation = "third-law";
  tag.negatives = "in-batch";
  ByteWriter out;
  core::WriteVariantTag(out, tag);
  const std::string bytes = out.Take();

  ByteReader in(bytes);
  core::VariantTag restored;
  ASSERT_TRUE(core::ReadVariantTag(in, &restored));
  EXPECT_EQ(restored, tag);
  EXPECT_EQ(core::VariantTagString(restored),
            "encoder=rfn augmentation=third-law negatives=in-batch");

  // ByteReader views its input; keep the truncated copy alive past the read.
  const std::string half = bytes.substr(0, bytes.size() / 2);
  ByteReader truncated(half);
  core::VariantTag partial;
  EXPECT_FALSE(core::ReadVariantTag(truncated, &partial));
}

}  // namespace
}  // namespace sarn::nn
