#include "nn/losses.h"

#include <cmath>

#include <gtest/gtest.h>

#include "tensor/ops.h"

namespace sarn::nn {
namespace {

using tensor::Tensor;

TEST(LossesTest, MseZeroForIdentical) {
  Tensor a = Tensor::FromVector({3}, {1, 2, 3});
  EXPECT_FLOAT_EQ(MseLoss(a, a).item(), 0.0f);
}

TEST(LossesTest, MseKnownValue) {
  Tensor p = Tensor::FromVector({2}, {1, 3});
  Tensor t = Tensor::FromVector({2}, {0, 1});
  EXPECT_FLOAT_EQ(MseLoss(p, t).item(), (1.0f + 4.0f) / 2.0f);
}

TEST(LossesTest, CrossEntropyUniformLogits) {
  Tensor logits = Tensor::Zeros({4, 3});
  EXPECT_NEAR(CrossEntropyWithLogits(logits, {0, 1, 2, 0}).item(), std::log(3.0f), 1e-5f);
}

TEST(LossesTest, CrossEntropyConfidentCorrectIsSmall) {
  Tensor logits = Tensor::FromVector({1, 2}, {10.0f, -10.0f});
  EXPECT_LT(CrossEntropyWithLogits(logits, {0}).item(), 1e-4f);
}

TEST(LossesTest, CrossEntropyConfidentWrongIsLarge) {
  Tensor logits = Tensor::FromVector({1, 2}, {10.0f, -10.0f});
  EXPECT_GT(CrossEntropyWithLogits(logits, {1}).item(), 10.0f);
}

TEST(LossesTest, BceMatchesManualComputation) {
  Tensor logits = Tensor::FromVector({2}, {0.0f, 2.0f});
  float expected =
      (-std::log(0.5f) - std::log(1.0f / (1.0f + std::exp(-2.0f)))) / 2.0f;
  EXPECT_NEAR(BinaryCrossEntropyWithLogits(logits, {1.0f, 1.0f}).item(), expected, 1e-5f);
}

TEST(LossesTest, BceStableForExtremeLogits) {
  Tensor logits = Tensor::FromVector({2}, {-80.0f, 80.0f});
  float loss = BinaryCrossEntropyWithLogits(logits, {0.0f, 1.0f}).item();
  EXPECT_TRUE(std::isfinite(loss));
  EXPECT_NEAR(loss, 0.0f, 1e-4f);
}

TEST(LossesTest, InfoNceUniformSimilaritiesGiveLogK1) {
  // Equal positive and negative similarities: -log(1/(K+1)).
  Tensor pos = Tensor::Zeros({4});
  Tensor neg = Tensor::Zeros({4, 7});
  EXPECT_NEAR(InfoNceLoss(pos, neg, 1.0f).item(), std::log(8.0f), 1e-5f);
}

TEST(LossesTest, InfoNceDecreasesWithBetterPositive) {
  Tensor neg = Tensor::Zeros({2, 5});
  float worse = InfoNceLoss(Tensor::Full({2}, 0.1f), neg, 0.5f).item();
  float better = InfoNceLoss(Tensor::Full({2}, 2.0f), neg, 0.5f).item();
  EXPECT_LT(better, worse);
}

TEST(LossesTest, InfoNceIncreasesWithHarderNegatives) {
  Tensor pos = Tensor::Full({2}, 1.0f);
  float easy = InfoNceLoss(pos, Tensor::Full({2, 5}, -1.0f), 0.5f).item();
  float hard = InfoNceLoss(pos, Tensor::Full({2, 5}, 1.0f), 0.5f).item();
  EXPECT_GT(hard, easy);
}

TEST(LossesTest, InfoNceTemperatureSharpens) {
  // With pos > neg, smaller temperature pushes loss towards zero.
  Tensor pos = Tensor::Full({2}, 1.0f);
  Tensor neg = Tensor::Full({2, 5}, 0.5f);
  float cool = InfoNceLoss(pos, neg, 0.05f).item();
  float warm = InfoNceLoss(pos, neg, 1.0f).item();
  EXPECT_LT(cool, warm);
}

TEST(LossesTest, InfoNceGradientPullsPositiveUp) {
  Tensor pos = Tensor::Zeros({3});
  pos.RequiresGrad();
  Tensor neg = Tensor::Zeros({3, 4});
  neg.RequiresGrad();
  InfoNceLoss(pos, neg, 0.5f).Backward();
  for (float g : pos.grad()) EXPECT_LT(g, 0.0f);  // Increasing pos lowers loss.
  for (float g : neg.grad()) EXPECT_GT(g, 0.0f);  // Increasing neg raises loss.
}

}  // namespace
}  // namespace sarn::nn
