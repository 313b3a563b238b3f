#include "common/rng.h"

#include <algorithm>
#include <map>
#include <numeric>
#include <set>

#include <gtest/gtest.h>

#include "common/binary_io.h"

namespace sarn {
namespace {

TEST(RngTest, SameSeedSameSequence) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.UniformInt(0, 1000000), b.UniformInt(0, 1000000));
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int differences = 0;
  for (int i = 0; i < 50; ++i) {
    if (a.UniformInt(0, 1 << 30) != b.UniformInt(0, 1 << 30)) ++differences;
  }
  EXPECT_GT(differences, 40);
}

TEST(RngTest, UniformIntInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.UniformInt(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(RngTest, UniformRealInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.Uniform(2.0, 3.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(RngTest, NormalHasRoughlyRightMoments) {
  Rng rng(11);
  double sum = 0.0, sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double v = rng.Normal(3.0, 2.0);
    sum += v;
    sq += v * v;
  }
  double mean = sum / n;
  double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 3.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.3);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(13);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(RngTest, DiscreteRespectsWeights) {
  Rng rng(17);
  std::vector<double> weights = {1.0, 3.0, 0.0, 6.0};
  std::vector<int> counts(4, 0);
  const int n = 30000;
  for (int i = 0; i < n; ++i) ++counts[rng.Discrete(weights)];
  EXPECT_EQ(counts[2], 0);
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.1, 0.02);
  EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.3, 0.02);
  EXPECT_NEAR(counts[3] / static_cast<double>(n), 0.6, 0.02);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(19);
  std::vector<int> values(100);
  std::iota(values.begin(), values.end(), 0);
  std::vector<int> shuffled = values;
  rng.Shuffle(shuffled);
  EXPECT_NE(shuffled, values);  // Astronomically unlikely to be identity.
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, values);
}

TEST(RngTest, SampleWithoutReplacementDistinct) {
  Rng rng(23);
  for (size_t k : {0UL, 1UL, 10UL, 90UL, 100UL}) {
    std::vector<size_t> sample = rng.SampleWithoutReplacement(100, k);
    EXPECT_EQ(sample.size(), k);
    std::set<size_t> unique(sample.begin(), sample.end());
    EXPECT_EQ(unique.size(), k);
    for (size_t v : sample) EXPECT_LT(v, 100u);
  }
}

TEST(RngTest, WeightedSampleWithoutReplacementSkipsZeroWeights) {
  Rng rng(29);
  std::vector<double> weights = {0.0, 5.0, 0.0, 5.0, 0.0};
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<size_t> sample = rng.WeightedSampleWithoutReplacement(weights, 2);
    ASSERT_EQ(sample.size(), 2u);
    std::set<size_t> unique(sample.begin(), sample.end());
    EXPECT_EQ(unique.size(), 2u);
    for (size_t v : sample) EXPECT_TRUE(v == 1 || v == 3);
  }
}

TEST(RngTest, WeightedSampleReturnsFewerWhenNotEnoughPositive) {
  Rng rng(31);
  std::vector<double> weights = {0.0, 1.0, 0.0};
  std::vector<size_t> sample = rng.WeightedSampleWithoutReplacement(weights, 3);
  ASSERT_EQ(sample.size(), 1u);
  EXPECT_EQ(sample[0], 1u);
}

TEST(RngTest, WeightedSampleBiasFollowsWeights) {
  Rng rng(37);
  // Item 1 has 9x the weight of item 0; when sampling 1 of 2 it should be
  // picked ~90% of the time.
  std::vector<double> weights = {1.0, 9.0};
  int ones = 0;
  const int n = 5000;
  for (int i = 0; i < n; ++i) {
    std::vector<size_t> sample = rng.WeightedSampleWithoutReplacement(weights, 1);
    ASSERT_EQ(sample.size(), 1u);
    ones += sample[0] == 1 ? 1 : 0;
  }
  EXPECT_NEAR(ones / static_cast<double>(n), 0.9, 0.03);
}

// --- Checkpoint state round-trips -------------------------------------------

TEST(RngTest, StateRoundTripContinuesIdentically) {
  // Save mid-stream, restore into a *fresh* Rng with a different seed: the
  // restored stream must continue bitwise identical to the original across
  // every distribution the trainer uses.
  Rng original(12345);
  for (int i = 0; i < 257; ++i) original.UniformInt(0, 1 << 20);  // Advance.
  ByteWriter writer;
  original.SaveState(writer);

  Rng restored(999);  // Wrong seed on purpose; LoadState must replace it.
  ByteReader reader(writer.buffer());
  ASSERT_TRUE(restored.LoadState(reader));
  EXPECT_TRUE(reader.AtEnd());

  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(original.UniformInt(0, 1 << 30), restored.UniformInt(0, 1 << 30));
  }
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(original.Uniform(0.0, 1.0), restored.Uniform(0.0, 1.0));
    EXPECT_EQ(original.Normal(0.0, 1.0), restored.Normal(0.0, 1.0));
    EXPECT_EQ(original.Bernoulli(0.4), restored.Bernoulli(0.4));
  }
  std::vector<int> a(64), b(64);
  std::iota(a.begin(), a.end(), 0);
  std::iota(b.begin(), b.end(), 0);
  original.Shuffle(a);
  restored.Shuffle(b);
  EXPECT_EQ(a, b);
}

TEST(RngTest, LoadStateRejectsGarbage) {
  Rng rng(5);
  int64_t before = rng.UniformInt(0, 1 << 30);
  Rng probe(5);
  probe.UniformInt(0, 1 << 30);

  ByteWriter writer;
  writer.PutString("definitely not an mt19937_64 state");
  ByteReader reader(writer.buffer());
  EXPECT_FALSE(rng.LoadState(reader));
  // Stream unchanged by the failed load: still tracks the probe.
  EXPECT_EQ(rng.UniformInt(0, 1 << 30), probe.UniformInt(0, 1 << 30));
  (void)before;
}

TEST(RngTest, LoadStateRejectsTruncatedInput) {
  Rng rng(7);
  ByteWriter writer;
  rng.SaveState(writer);
  std::string cut = writer.buffer().substr(0, writer.buffer().size() / 2);
  Rng other(7);
  ByteReader reader(cut);
  EXPECT_FALSE(other.LoadState(reader));
}

}  // namespace
}  // namespace sarn
