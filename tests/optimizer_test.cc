#include "tensor/optimizer.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/binary_io.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"

namespace sarn::tensor {
namespace {

// Quadratic bowl: loss = ||x - target||^2. Any sane optimizer must converge.
float QuadraticStep(Adam& opt, Tensor& x, const Tensor& target) {
  opt.ZeroGrad();
  Tensor loss = Sum(Square(Sub(x, target)));
  float value = loss.item();
  loss.Backward();
  opt.Step();
  return value;
}

TEST(AdamTest, ConvergesOnQuadratic) {
  Tensor x = Tensor::FromVector({3}, {5.0f, -3.0f, 1.0f});
  x.RequiresGrad();
  Tensor target = Tensor::FromVector({3}, {1.0f, 2.0f, -1.0f});
  Adam opt({x}, 0.1f);
  for (int i = 0; i < 500; ++i) QuadraticStep(opt, x, target);
  for (int i = 0; i < 3; ++i) EXPECT_NEAR(x.at(i), target.at(i), 1e-2f);
}

TEST(AdamTest, FirstStepMagnitudeIsLearningRate) {
  // With bias correction, the first Adam step is ~lr in the gradient
  // direction regardless of gradient scale.
  for (float scale : {0.01f, 1.0f, 100.0f}) {
    Tensor x = Tensor::FromVector({1}, {0.0f});
    x.RequiresGrad();
    Adam opt({x}, 0.05f);
    opt.ZeroGrad();
    Tensor loss = MulScalar(Sum(x), scale);
    loss.Backward();
    opt.Step();
    EXPECT_NEAR(x.at(0), -0.05f, 1e-4f) << "scale " << scale;
  }
}

TEST(AdamTest, StepCountIncrements) {
  Tensor x = Tensor::FromVector({1}, {1.0f});
  x.RequiresGrad();
  Adam opt({x}, 0.01f);
  EXPECT_EQ(opt.step_count(), 0);
  QuadraticStep(opt, x, Tensor::FromVector({1}, {0.0f}));
  EXPECT_EQ(opt.step_count(), 1);
}

TEST(AdamTest, ZeroGradClearsAllParameters) {
  Tensor a = Tensor::FromVector({2}, {1, 2});
  a.RequiresGrad();
  Tensor b = Tensor::FromVector({2}, {3, 4});
  b.RequiresGrad();
  Adam opt({a, b}, 0.1f);
  Sum(Add(Square(a), Square(b))).Backward();
  EXPECT_NE(a.grad()[0], 0.0f);
  EXPECT_NE(b.grad()[0], 0.0f);
  opt.ZeroGrad();
  for (float g : a.grad()) EXPECT_EQ(g, 0.0f);
  for (float g : b.grad()) EXPECT_EQ(g, 0.0f);
}

TEST(AdamDeathTest, RejectsNonGradParameters) {
  Tensor x = Tensor::FromVector({1}, {1.0f});  // No RequiresGrad.
  EXPECT_DEATH(Adam({x}, 0.1f), "require grad");
}

// --- Checkpoint state round-trips -------------------------------------------

TEST(AdamTest, StateRoundTripContinuesBitwise) {
  // Two optimizers over identical parameters: run A for 5 steps, serialize,
  // load into B (fresh moments), then both must take *bitwise* identical
  // steps — the moments and bias-correction step count fully transferred.
  Tensor xa = Tensor::FromVector({3}, {5.0f, -3.0f, 1.0f});
  xa.RequiresGrad();
  Tensor target = Tensor::FromVector({3}, {1.0f, 2.0f, -1.0f});
  Adam a({xa}, 0.1f);
  for (int i = 0; i < 5; ++i) QuadraticStep(a, xa, target);

  Tensor xb = Tensor::FromVector({3}, {xa.at(0), xa.at(1), xa.at(2)});
  xb.RequiresGrad();
  Adam b({xb}, 0.05f);  // Different LR: must be overwritten by LoadState.
  ByteWriter writer;
  a.SaveState(writer);
  ByteReader reader(writer.buffer());
  ASSERT_TRUE(b.LoadState(reader));
  EXPECT_TRUE(reader.AtEnd());
  EXPECT_EQ(b.step_count(), 5);
  EXPECT_EQ(b.learning_rate(), a.learning_rate());

  for (int i = 0; i < 5; ++i) {
    QuadraticStep(a, xa, target);
    QuadraticStep(b, xb, target);
    for (int j = 0; j < 3; ++j) {
      ASSERT_EQ(xa.at(j), xb.at(j)) << "step " << i << " param " << j;
    }
  }
}

TEST(AdamTest, StateLayoutIsLrStepThenMoments) {
  // Checkpoints store this byte layout; a change would stop older training
  // checkpoints from resuming.
  Tensor x = Tensor::FromVector({2}, {1, 2});
  x.RequiresGrad();
  Adam a({x}, 0.25f);
  QuadraticStep(a, x, Tensor::FromVector({2}, {0, 0}));
  QuadraticStep(a, x, Tensor::FromVector({2}, {0, 0}));
  ByteWriter writer;
  a.SaveState(writer);
  ByteReader reader(writer.buffer());
  float lr = 0.0f;
  int64_t step = 0;
  ASSERT_TRUE(reader.GetF32(&lr));
  ASSERT_TRUE(reader.GetI64(&step));
  EXPECT_EQ(lr, 0.25f);
  EXPECT_EQ(step, 2);
  for (const char* moment : {"m", "v"}) {
    uint64_t count = 0;
    std::vector<float> buffer;
    ASSERT_TRUE(reader.GetU64(&count)) << moment;
    EXPECT_EQ(count, 1u) << moment;
    ASSERT_TRUE(reader.GetFloats(&buffer)) << moment;
    ASSERT_EQ(buffer.size(), 2u) << moment;
    EXPECT_NE(buffer[0], 0.0f) << moment;
  }
  EXPECT_TRUE(reader.AtEnd());
}

TEST(AdamTest, LoadStateRejectsMismatchedParameterShapes) {
  Tensor x3 = Tensor::FromVector({3}, {1, 2, 3});
  x3.RequiresGrad();
  Adam a({x3}, 0.1f);
  Tensor t = Tensor::FromVector({3}, {0, 0, 0});
  QuadraticStep(a, x3, t);

  Tensor x2 = Tensor::FromVector({2}, {1, 2});
  x2.RequiresGrad();
  Adam b({x2}, 0.1f);
  ByteWriter writer;
  a.SaveState(writer);
  ByteReader reader(writer.buffer());
  EXPECT_FALSE(b.LoadState(reader));
  EXPECT_EQ(b.step_count(), 0);  // State untouched on failure.
}

TEST(AdamTest, LoadStateRejectsTruncatedInput) {
  Tensor x = Tensor::FromVector({2}, {1, 2});
  x.RequiresGrad();
  Adam a({x}, 0.1f);
  QuadraticStep(a, x, Tensor::FromVector({2}, {0, 0}));
  ByteWriter writer;
  a.SaveState(writer);
  std::string truncated = writer.buffer().substr(0, writer.buffer().size() - 3);

  Tensor y = Tensor::FromVector({2}, {1, 2});
  y.RequiresGrad();
  Adam b({y}, 0.1f);
  ByteReader reader(truncated);
  EXPECT_FALSE(b.LoadState(reader));
  EXPECT_EQ(b.step_count(), 0);
}

TEST(CosineScheduleTest, StateRoundTripRestoresPosition) {
  Tensor x = Tensor::FromVector({1}, {1.0f});
  x.RequiresGrad();
  Adam opt({x}, 0.1f);
  CosineAnnealingSchedule a(0.1f, 20);
  a.OnEpoch(opt, 7);
  EXPECT_EQ(a.last_epoch(), 7);

  CosineAnnealingSchedule b(0.1f, 20);
  ByteWriter writer;
  a.SaveState(writer);
  ByteReader reader(writer.buffer());
  ASSERT_TRUE(b.LoadState(reader));
  EXPECT_EQ(b.last_epoch(), 7);
}

TEST(CosineScheduleTest, LoadStateRejectsDifferentHorizon) {
  CosineAnnealingSchedule a(0.1f, 20);
  CosineAnnealingSchedule b(0.1f, 30);  // Different max_epochs.
  ByteWriter writer;
  a.SaveState(writer);
  ByteReader reader(writer.buffer());
  EXPECT_FALSE(b.LoadState(reader));
  EXPECT_EQ(b.last_epoch(), -1);
}

TEST(CosineScheduleTest, EndpointsAndMidpoint) {
  CosineAnnealingSchedule schedule(/*lr_max=*/0.1f, /*max_epochs=*/100);
  EXPECT_NEAR(schedule.LearningRateAt(0), 0.1f, 1e-6f);
  EXPECT_NEAR(schedule.LearningRateAt(50), 0.05f, 1e-6f);
  EXPECT_NEAR(schedule.LearningRateAt(100), 0.0f, 1e-6f);
}

TEST(CosineScheduleTest, MonotoneDecreasing) {
  CosineAnnealingSchedule schedule(0.1f, 50);
  for (int e = 1; e <= 50; ++e) {
    EXPECT_LE(schedule.LearningRateAt(e), schedule.LearningRateAt(e - 1) + 1e-7f);
  }
}

TEST(CosineScheduleTest, ClampsOutOfRangeEpochs) {
  CosineAnnealingSchedule schedule(0.1f, 10);
  EXPECT_EQ(schedule.LearningRateAt(-5), schedule.LearningRateAt(0));
  EXPECT_EQ(schedule.LearningRateAt(99), 0.0f);
}

TEST(CosineScheduleTest, OnEpochUpdatesOptimizer) {
  Tensor x = Tensor::FromVector({1}, {1.0f});
  x.RequiresGrad();
  Adam opt({x}, 0.1f);
  CosineAnnealingSchedule schedule(0.1f, 10);
  schedule.OnEpoch(opt, 10);
  EXPECT_NEAR(opt.learning_rate(), 0.0f, 1e-6f);
}

}  // namespace
}  // namespace sarn::tensor
