// Tests of the pluggable encoder/augmentation plane (DESIGN.md §16).
//
// The anchor is the golden-trace pin: default-config SARN training must be
// bitwise identical to the pre-refactor implementation — same epoch-loss
// bits, same embedding bits — at 1 and 4 threads. The golden file was generated from the tree as it
// stood *before* SarnModel was split into Encoder/Augmentation/
// NegativeSampler components and before GAT training switched to the fused
// grad kernels and compiled GEMMs, so any change that perturbs the RNG
// stream, the float operation order or the reduction order fails this test.
//
// Regenerate (only when a change is *supposed* to shift the numerics):
//   SARN_WRITE_GOLDEN=1 ./encoder_plane_test --gtest_filter='*RewriteGolden*'

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "core/sarn_model.h"
#include "core/variant_registry.h"
#include "roadnet/synthetic_city.h"
#include "tasks/embedding_source.h"
#include "tasks/road_property_task.h"
#include "tensor/ops.h"

namespace sarn::core {

namespace {

using tensor::Tensor;

constexpr char kGoldenFile[] = SARN_TEST_DATA_DIR "/golden_sarn_trace.txt";

SarnConfig GoldenConfig() {
  // Default-config SARN (encoder/augmentation/negatives all defaulted), with
  // only the structural sizes scaled down so four epochs run in test time.
  SarnConfig config;
  config.hidden_dim = 16;
  config.embedding_dim = 16;
  config.projection_dim = 8;
  config.gat_layers = 2;
  config.gat_heads = 2;
  config.feature_dim_per_feature = 4;
  config.max_epochs = 4;
  config.batch_size = 128;
  config.queue_budget = 400;
  config.cell_side_meters = 300.0;
  return config;
}

roadnet::RoadNetwork GoldenCity() {
  roadnet::SyntheticCityConfig city;
  city.rows = 10;
  city.cols = 10;
  return roadnet::GenerateSyntheticCity(city);
}

uint64_t DoubleBits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

// FNV-1a over the raw float bits of a tensor, row-major.
uint64_t TensorDigest(const Tensor& t) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (float v : t.data()) {
    uint32_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    for (int shift = 0; shift < 32; shift += 8) {
      h ^= (bits >> shift) & 0xffu;
      h *= 0x100000001b3ull;
    }
  }
  return h;
}

struct Trace {
  std::vector<uint64_t> loss_bits;
  uint64_t embedding_digest = 0;
};

Trace RunTrace(const roadnet::RoadNetwork& network, size_t threads) {
  size_t saved = GetParallelThreads();
  SetParallelThreads(threads);
  SarnModel model(network, GoldenConfig());
  TrainStats stats = model.Train(TrainOptions{});
  Trace trace;
  for (double loss : stats.epoch_losses) trace.loss_bits.push_back(DoubleBits(loss));
  trace.embedding_digest = TensorDigest(model.Embeddings());
  SetParallelThreads(saved);
  return trace;
}

std::string FormatTrace(size_t threads, const Trace& trace) {
  std::ostringstream out;
  out << "threads=" << threads << " losses=";
  for (size_t i = 0; i < trace.loss_bits.size(); ++i) {
    if (i > 0) out << ",";
    out << std::hex << trace.loss_bits[i] << std::dec;
  }
  out << " embeddings=" << std::hex << trace.embedding_digest << std::dec;
  return out.str();
}

// Parses "threads=N losses=hex,hex,... embeddings=hex" lines.
std::map<size_t, Trace> ReadGoldenFile() {
  std::map<size_t, Trace> golden;
  std::ifstream in(kGoldenFile);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    size_t threads = 0;
    Trace trace;
    std::istringstream fields(line);
    std::string field;
    while (fields >> field) {
      if (field.rfind("threads=", 0) == 0) {
        threads = static_cast<size_t>(std::stoull(field.substr(8)));
      } else if (field.rfind("losses=", 0) == 0) {
        std::istringstream values(field.substr(7));
        std::string value;
        while (std::getline(values, value, ',')) {
          trace.loss_bits.push_back(std::stoull(value, nullptr, 16));
        }
      } else if (field.rfind("embeddings=", 0) == 0) {
        trace.embedding_digest = std::stoull(field.substr(11), nullptr, 16);
      }
    }
    if (threads > 0) golden[threads] = trace;
  }
  return golden;
}

TEST(GoldenTrace, RewriteGoldenFile) {
  if (std::getenv("SARN_WRITE_GOLDEN") == nullptr) {
    GTEST_SKIP() << "set SARN_WRITE_GOLDEN=1 to regenerate " << kGoldenFile;
  }
  const auto network = GoldenCity();
  std::ofstream out(kGoldenFile);
  ASSERT_TRUE(out.good()) << "cannot write " << kGoldenFile;
  out << "# Pre-refactor default-config SARN training trace (epoch-loss bits\n"
      << "# and embedding digest); see encoder_plane_test.cc.\n";
  for (size_t threads : {size_t{1}, size_t{4}}) {
    out << FormatTrace(threads, RunTrace(network, threads)) << "\n";
  }
}

class GoldenTraceTest : public testing::TestWithParam<size_t> {};

TEST_P(GoldenTraceTest, BitwiseIdenticalToPreRefactorTrace) {
  const size_t threads = GetParam();
  auto golden = ReadGoldenFile();
  ASSERT_TRUE(golden.count(threads))
      << "no golden entry for threads=" << threads << " in " << kGoldenFile;
  const auto network = GoldenCity();
  Trace trace = RunTrace(network, threads);
  const Trace& expected = golden[threads];
  ASSERT_EQ(trace.loss_bits.size(), expected.loss_bits.size());
  for (size_t i = 0; i < trace.loss_bits.size(); ++i) {
    EXPECT_EQ(trace.loss_bits[i], expected.loss_bits[i])
        << "epoch " << i << " loss bits diverge at threads=" << threads;
  }
  EXPECT_EQ(trace.embedding_digest, expected.embedding_digest)
      << "embedding bits diverge at threads=" << threads;
}

INSTANTIATE_TEST_SUITE_P(Threads, GoldenTraceTest,
                         testing::Values(size_t{1}, size_t{4}),
                         [](const auto& info) {
                           return "threads" + std::to_string(info.param);
                         });

// --- Registry round-trip ------------------------------------------------------
//
// Every registered variant name must construct through SarnModel, train two
// epochs, and evaluate on a downstream task. Each name is exercised against
// the paper defaults for the other two dimensions, so a broken factory or a
// loss/augmentation incompatible with the trainer contract fails by name.

struct VariantCase {
  std::string field;  // "encoder" | "augmentation" | "negatives".
  std::string name;
};

std::vector<VariantCase> AllVariantCases() {
  VariantRegistry& registry = VariantRegistry::Instance();
  std::vector<VariantCase> cases;
  for (const std::string& name : registry.EncoderNames())
    cases.push_back({"encoder", name});
  for (const std::string& name : registry.AugmentationNames())
    cases.push_back({"augmentation", name});
  for (const std::string& name : registry.SamplerNames())
    cases.push_back({"negatives", name});
  return cases;
}

TEST(VariantRegistryRoundTrip, EveryRegisteredNameTrainsAndEvaluates) {
  const auto network = GoldenCity();
  for (const VariantCase& variant : AllVariantCases()) {
    SCOPED_TRACE(variant.field + "=" + variant.name);
    SarnConfig config = GoldenConfig();
    config.max_epochs = 2;
    if (variant.field == "encoder") config.encoder = variant.name;
    if (variant.field == "augmentation") config.augmentation = variant.name;
    if (variant.field == "negatives") config.negatives = variant.name;
    SarnModel model(network, config);
    TrainStats stats = model.Train(TrainOptions{});
    EXPECT_EQ(stats.epochs_run, 2);
    EXPECT_TRUE(std::isfinite(stats.final_loss));
    Tensor embeddings = model.Embeddings();
    ASSERT_EQ(embeddings.shape(),
              (tensor::Shape{network.num_segments(), config.embedding_dim}));
    for (float v : embeddings.data()) ASSERT_TRUE(std::isfinite(v));
    tasks::FrozenEmbeddingSource source(embeddings);
    tasks::RoadPropertyTask task(network, {});
    tasks::RoadPropertyResult result = task.Evaluate(source);
    EXPECT_GE(result.f1, 0.0);
    EXPECT_LE(result.f1, 1.0);
  }
}

TEST(VariantRegistryRoundTrip, RegistryEnumeratesTheBuiltIns) {
  VariantRegistry& registry = VariantRegistry::Instance();
  EXPECT_TRUE(registry.HasEncoder("gat"));
  EXPECT_TRUE(registry.HasEncoder("rfn"));
  EXPECT_TRUE(registry.HasAugmentation("spatial-importance"));
  EXPECT_TRUE(registry.HasAugmentation("third-law"));
  EXPECT_TRUE(registry.HasAugmentation("uniform-drop"));
  EXPECT_TRUE(registry.HasAugmentation("adaptive-drop"));
  EXPECT_TRUE(registry.HasSampler("spatial"));
  EXPECT_TRUE(registry.HasSampler("random"));
  EXPECT_TRUE(registry.HasSampler("in-batch"));
  EXPECT_TRUE(registry.HasSampler("all-vertex"));
  EXPECT_FALSE(registry.HasEncoder("no-such-encoder"));
}

// The legacy SARN-w/o-NL switch resolves to the "random" sampler, so the
// variant tag (and with it the checkpoint identity) matches the named form.
TEST(VariantRegistryRoundTrip, LegacyAblationSwitchResolvesToRandom) {
  const auto network = GoldenCity();
  SarnConfig legacy = GoldenConfig();
  legacy.use_spatial_negatives = false;
  SarnConfig named = GoldenConfig();
  named.negatives = "random";

  SarnModel legacy_model(network, legacy);
  SarnModel named_model(network, named);
  EXPECT_EQ(std::string(legacy_model.negatives_name()), "random");
  EXPECT_EQ(legacy_model.variant_tag(), named_model.variant_tag());
}

}  // namespace
}  // namespace sarn::core
