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
// Composition-keyed lines pin every other registered variant the same way:
// gat with the random, in-batch and all-vertex samplers; the third-law,
// uniform-drop and adaptive-drop augmentations; rfn with the spatial and
// all-vertex samplers. They were recorded from the full-graph trainer, so
// they also pin receptive-field steps (DESIGN.md §17) to its bits.
//
// The golden config is too small for any GEMM to reach the thread pool, so
// ThreadSplitTrace trains the default model dims at 1 and 4 threads and
// requires equal bits from a run whose regions really split.
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
#include <tuple>
#include <utility>
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

// A registered encoder/augmentation/negatives composition.
struct Composition {
  std::string encoder;
  std::string augmentation;
  std::string negatives;

  // The golden-file key: "encoder,augmentation,negatives".
  std::string Key() const { return encoder + "," + augmentation + "," + negatives; }
};

const std::vector<Composition>& PinnedCompositions() {
  static const std::vector<Composition> kCompositions = {
      {"gat", "spatial-importance", "random"},
      {"gat", "spatial-importance", "in-batch"},
      {"gat", "spatial-importance", "all-vertex"},
      {"gat", "third-law", "spatial"},
      {"gat", "uniform-drop", "spatial"},
      {"gat", "adaptive-drop", "spatial"},
      {"rfn", "spatial-importance", "spatial"},
      {"rfn", "spatial-importance", "all-vertex"},
  };
  return kCompositions;
}

Trace TrainTrace(const roadnet::RoadNetwork& network, const SarnConfig& config,
                 size_t threads) {
  size_t saved = GetParallelThreads();
  SetParallelThreads(threads);
  SarnModel model(network, config);
  TrainStats stats = model.Train(TrainOptions{});
  Trace trace;
  for (double loss : stats.epoch_losses) trace.loss_bits.push_back(DoubleBits(loss));
  trace.embedding_digest = TensorDigest(model.Embeddings());
  SetParallelThreads(saved);
  return trace;
}

Trace RunTrace(const roadnet::RoadNetwork& network, size_t threads,
               const Composition* composition = nullptr) {
  SarnConfig config = GoldenConfig();
  if (composition != nullptr) {
    config.encoder = composition->encoder;
    config.augmentation = composition->augmentation;
    config.negatives = composition->negatives;
  }
  return TrainTrace(network, config, threads);
}

std::string FormatTrace(size_t threads, const Trace& trace,
                        const Composition* composition = nullptr) {
  std::ostringstream out;
  if (composition != nullptr) out << "composition=" << composition->Key() << " ";
  out << "threads=" << threads << " losses=";
  for (size_t i = 0; i < trace.loss_bits.size(); ++i) {
    if (i > 0) out << ",";
    out << std::hex << trace.loss_bits[i] << std::dec;
  }
  out << " embeddings=" << std::hex << trace.embedding_digest << std::dec;
  return out.str();
}

// Parses "[composition=e,a,n ]threads=N losses=hex,hex,... embeddings=hex"
// lines, keyed by (composition key, threads); the default composition's
// lines carry no key ("").
std::map<std::pair<std::string, size_t>, Trace> ReadGoldenFile() {
  std::map<std::pair<std::string, size_t>, Trace> golden;
  std::ifstream in(kGoldenFile);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    size_t threads = 0;
    std::string key;
    Trace trace;
    std::istringstream fields(line);
    std::string field;
    while (fields >> field) {
      if (field.rfind("composition=", 0) == 0) {
        key = field.substr(12);
      } else if (field.rfind("threads=", 0) == 0) {
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
    if (threads > 0) golden[{key, threads}] = trace;
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
  out << "# Composition-keyed traces, recorded from the full-graph trainer.\n";
  for (const Composition& composition : PinnedCompositions()) {
    for (size_t threads : {size_t{1}, size_t{4}}) {
      out << FormatTrace(threads, RunTrace(network, threads, &composition),
                         &composition)
          << "\n";
    }
  }
}

void ExpectMatchesGolden(size_t threads, const Composition* composition) {
  const std::string key = composition != nullptr ? composition->Key() : "";
  auto golden = ReadGoldenFile();
  ASSERT_TRUE(golden.count({key, threads}))
      << "no golden entry for composition=\"" << key << "\" threads=" << threads
      << " in " << kGoldenFile;
  const auto network = GoldenCity();
  Trace trace = RunTrace(network, threads, composition);
  const Trace& expected = golden[{key, threads}];
  ASSERT_EQ(trace.loss_bits.size(), expected.loss_bits.size());
  for (size_t i = 0; i < trace.loss_bits.size(); ++i) {
    EXPECT_EQ(trace.loss_bits[i], expected.loss_bits[i])
        << "epoch " << i << " loss bits diverge at threads=" << threads;
  }
  EXPECT_EQ(trace.embedding_digest, expected.embedding_digest)
      << "embedding bits diverge at threads=" << threads;
}

class GoldenTraceTest : public testing::TestWithParam<size_t> {};

TEST_P(GoldenTraceTest, BitwiseIdenticalToPreRefactorTrace) {
  ExpectMatchesGolden(GetParam(), nullptr);
}

INSTANTIATE_TEST_SUITE_P(Threads, GoldenTraceTest,
                         testing::Values(size_t{1}, size_t{4}),
                         [](const auto& info) {
                           return "threads" + std::to_string(info.param);
                         });

class CompositionTraceTest
    : public testing::TestWithParam<std::tuple<size_t, size_t>> {};

TEST_P(CompositionTraceTest, BitwiseIdenticalToFullGraphTrace) {
  const auto [index, threads] = GetParam();
  ExpectMatchesGolden(threads, &PinnedCompositions()[index]);
}

INSTANTIATE_TEST_SUITE_P(
    Compositions, CompositionTraceTest,
    testing::Combine(testing::Range(size_t{0}, PinnedCompositions().size()),
                     testing::Values(size_t{1}, size_t{4})),
    [](const auto& info) {
      const Composition& c = PinnedCompositions()[std::get<0>(info.param)];
      std::string name = c.encoder + "_" + c.augmentation + "_" + c.negatives +
                         "_threads" + std::to_string(std::get<1>(info.param));
      for (char& ch : name) {
        if (ch == '-') ch = '_';
      }
      return name;
    });

// The golden config's GEMMs (hidden 16) all sit under the pool's
// multiply-add floor, so its 4-thread run splits nothing. At the default
// model dims (hidden 64, 4 heads, 12 per feature) the train-step GEMMs do
// split, so this pins the 1-vs-4-thread bitwise contract through the whole
// model on a schedule that really runs pool regions.
TEST(ThreadSplitTrace, DefaultDimsBitwiseIdenticalAtOneAndFourThreads) {
  SarnConfig config;
  config.max_epochs = 2;
  const auto network = GoldenCity();
  const Trace serial = TrainTrace(network, config, 1);
  const uint64_t regions_before = GetParallelPoolStats().regions;
  const Trace split = TrainTrace(network, config, 4);
  EXPECT_GT(GetParallelPoolStats().regions, regions_before)
      << "no region reached the pool at 4 threads";
  ASSERT_EQ(split.loss_bits.size(), serial.loss_bits.size());
  for (size_t i = 0; i < serial.loss_bits.size(); ++i) {
    EXPECT_EQ(split.loss_bits[i], serial.loss_bits[i])
        << "epoch " << i << " loss bits diverge between 1 and 4 threads";
  }
  EXPECT_EQ(split.embedding_digest, serial.embedding_digest)
      << "embedding bits diverge between 1 and 4 threads";
}

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
