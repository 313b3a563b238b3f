// Property-based verification of every differentiable op: the analytic
// gradient produced by Backward() must match central finite differences of
// the forward function, for randomized inputs.

#include <cmath>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "tensor/ops.h"
#include "tensor/tensor.h"

namespace sarn::tensor {
namespace {

struct OpCase {
  std::string name;
  // Builds the op output from inputs (not yet reduced to scalar).
  std::function<Tensor(const std::vector<Tensor>&)> op;
  std::vector<Shape> input_shapes;
  bool positive_inputs = false;  // For log/sqrt/div domains.
};

// Projects an op output to a scalar with fixed pseudo-random weights, so the
// check exercises non-uniform upstream gradients.
Tensor ProjectToScalar(const Tensor& out, uint64_t seed) {
  Rng rng(seed);
  Tensor weights = Tensor::Uniform({out.numel()}, rng, 0.5f, 1.5f);
  Tensor flat = out.rank() == 1 ? out : Reshape(out, {out.numel()});
  return Sum(Mul(flat, weights));
}

class GradCheckTest : public testing::TestWithParam<OpCase> {};

TEST_P(GradCheckTest, AnalyticMatchesNumeric) {
  const OpCase& c = GetParam();
  Rng rng(1234);
  std::vector<Tensor> inputs;
  for (const Shape& shape : c.input_shapes) {
    Tensor t = c.positive_inputs ? Tensor::Uniform(shape, rng, 0.5f, 2.0f)
                                 : Tensor::Uniform(shape, rng, -1.5f, 1.5f);
    t.RequiresGrad();
    inputs.push_back(t);
  }

  Tensor loss = ProjectToScalar(c.op(inputs), /*seed=*/99);
  loss.Backward();

  const float eps = 1e-3f;
  for (size_t t = 0; t < inputs.size(); ++t) {
    std::vector<float> analytic = inputs[t].grad().ToVector();
    for (size_t i = 0; i < analytic.size(); ++i) {
      float original = inputs[t].data()[i];
      NoGradGuard guard;
      inputs[t].mutable_data()[i] = original + eps;
      float up = ProjectToScalar(c.op(inputs), 99).item();
      inputs[t].mutable_data()[i] = original - eps;
      float down = ProjectToScalar(c.op(inputs), 99).item();
      inputs[t].mutable_data()[i] = original;
      float numeric = (up - down) / (2.0f * eps);
      float scale = std::max({1.0f, std::fabs(numeric), std::fabs(analytic[i])});
      EXPECT_NEAR(analytic[i], numeric, 0.02f * scale)
          << c.name << " input " << t << " element " << i;
    }
  }
}

std::vector<OpCase> MakeCases() {
  std::vector<OpCase> cases;
  auto add = [&cases](std::string name, std::function<Tensor(const std::vector<Tensor>&)> op,
                      std::vector<Shape> shapes, bool positive = false) {
    cases.push_back({std::move(name), std::move(op), std::move(shapes), positive});
  };

  add("Add", [](const auto& in) { return Add(in[0], in[1]); }, {{3, 4}, {3, 4}});
  add("AddRowBroadcast", [](const auto& in) { return Add(in[0], in[1]); }, {{3, 4}, {4}});
  add("AddScalarTensor", [](const auto& in) { return Add(in[0], in[1]); }, {{3, 4}, {1}});
  add("Sub", [](const auto& in) { return Sub(in[0], in[1]); }, {{3, 4}, {3, 4}});
  add("SubRowBroadcast", [](const auto& in) { return Sub(in[0], in[1]); }, {{3, 4}, {4}});
  add("SubSmallerLeft", [](const auto& in) { return Sub(in[0], in[1]); }, {{1}, {5}});
  add("Mul", [](const auto& in) { return Mul(in[0], in[1]); }, {{3, 4}, {3, 4}});
  add("MulRowBroadcast", [](const auto& in) { return Mul(in[0], in[1]); }, {{3, 4}, {4}});
  add("AddScalar", [](const auto& in) { return AddScalar(in[0], 2.5f); }, {{3, 3}});
  add("MulScalar", [](const auto& in) { return MulScalar(in[0], -1.7f); }, {{3, 3}});
  add("Neg", [](const auto& in) { return Neg(in[0]); }, {{4}});
  add("Exp", [](const auto& in) { return Exp(in[0]); }, {{3, 3}});
  add("Log", [](const auto& in) { return Log(in[0]); }, {{3, 3}}, true);
  add("Square", [](const auto& in) { return Square(in[0]); }, {{3, 3}});
  add("Relu", [](const auto& in) { return Relu(in[0]); }, {{4, 4}});
  add("LeakyRelu", [](const auto& in) { return LeakyRelu(in[0], 0.2f); }, {{4, 4}});
  add("Elu", [](const auto& in) { return Elu(in[0]); }, {{4, 4}});
  add("Sigmoid", [](const auto& in) { return Sigmoid(in[0]); }, {{4, 4}});
  add("Tanh", [](const auto& in) { return Tanh(in[0]); }, {{4, 4}});
  add("MatMul", [](const auto& in) { return MatMul(in[0], in[1]); }, {{3, 4}, {4, 2}});
  add("MatMulTall", [](const auto& in) { return MatMul(in[0], in[1]); }, {{5, 2}, {2, 5}});
  add("Transpose", [](const auto& in) { return Transpose(in[0]); }, {{3, 5}});
  add("Reshape", [](const auto& in) { return Reshape(in[0], {2, 6}); }, {{3, 4}});
  add("Sum", [](const auto& in) { return Sum(in[0]); }, {{3, 4}});
  add("Mean", [](const auto& in) { return Mean(in[0]); }, {{3, 4}});
  add("SumAxis0", [](const auto& in) { return SumAxis(in[0], 0); }, {{3, 4}});
  add("SumAxis1", [](const auto& in) { return SumAxis(in[0], 1); }, {{3, 4}});
  add("RowSoftmax", [](const auto& in) { return RowSoftmax(in[0]); }, {{3, 5}});
  add("RowLogSoftmax", [](const auto& in) { return RowLogSoftmax(in[0]); }, {{3, 5}});
  add("RowL2Normalize", [](const auto& in) { return RowL2Normalize(in[0]); }, {{3, 4}},
      true);
  add("DotRows", [](const auto& in) { return DotRows(in[0], in[1]); }, {{4, 3}, {4, 3}});
  add("ScaleRows", [](const auto& in) { return ScaleRows(in[0], in[1]); }, {{4, 3}, {4}});
  add("Rows", [](const auto& in) { return Rows(in[0], {2, 0, 2, 1}); }, {{3, 4}});
  add("TakePerRow", [](const auto& in) { return TakePerRow(in[0], {1, 0, 2}); }, {{3, 3}});
  add("ConcatAxis0", [](const auto& in) { return Concat({in[0], in[1]}, 0); },
      {{2, 3}, {4, 3}});
  add("ConcatAxis1", [](const auto& in) { return Concat({in[0], in[1]}, 1); },
      {{3, 2}, {3, 4}});
  add("EdgeSoftmax",
      [](const auto& in) { return EdgeSoftmax(in[0], {0, 0, 1, 1, 1, 2}, 3); }, {{6}});
  add("ScatterAddRows",
      [](const auto& in) { return ScatterAddRows(in[0], {1, 0, 1, 2}, 3); }, {{4, 3}});
  add("GatLikeComposite",
      [](const auto& in) {
        // Attention-weighted aggregation: the exact composite the GAT layer
        // uses (EdgeSoftmax * messages -> ScatterAdd).
        std::vector<int64_t> dst = {0, 0, 1, 1};
        Tensor alpha = EdgeSoftmax(in[0], dst, 2);
        Tensor weighted = Mul(in[1], Reshape(alpha, {4, 1}));
        return ScatterAddRows(weighted, dst, 2);
      },
      {{4}, {4, 1}});
  add("NormalizedDotComposite",
      [](const auto& in) {
        return DotRows(RowL2Normalize(in[0]), RowL2Normalize(in[1]));
      },
      {{3, 4}, {3, 4}}, true);
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllOps, GradCheckTest, testing::ValuesIn(MakeCases()),
                         [](const testing::TestParamInfo<OpCase>& info) {
                           return info.param.name;
                         });

}  // namespace
}  // namespace sarn::tensor
