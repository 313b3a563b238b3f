#include "nn/losses.h"

#include "common/check.h"
#include "tensor/ops.h"

namespace sarn::nn {

using tensor::Tensor;

Tensor MseLoss(const Tensor& prediction, const Tensor& target) {
  return tensor::Mean(tensor::Square(tensor::Sub(prediction, target)));
}

Tensor CrossEntropyWithLogits(const Tensor& logits, const std::vector<int64_t>& labels) {
  SARN_CHECK_EQ(logits.rank(), 2);
  SARN_CHECK_EQ(logits.shape()[0], static_cast<int64_t>(labels.size()));
  Tensor log_probs = tensor::RowLogSoftmax(logits);
  Tensor picked = tensor::TakePerRow(log_probs, labels);
  return tensor::Neg(tensor::Mean(picked));
}

Tensor BinaryCrossEntropyWithLogits(const Tensor& logits,
                                    const std::vector<float>& targets) {
  SARN_CHECK_EQ(logits.numel(), static_cast<int64_t>(targets.size()));
  // Stable BCE: max(x, 0) - x*t + log(1 + exp(-|x|)).
  // Expressed with tracked ops: relu(x) - x*t + log1p(exp(-|x|)).
  Tensor x = logits.rank() == 1 ? logits : tensor::Reshape(logits, {logits.numel()});
  Tensor t = Tensor::FromVector({x.numel()}, targets);
  Tensor term1 = tensor::Relu(x);
  Tensor term2 = tensor::Mul(x, t);
  Tensor softplus = tensor::Log(
      tensor::AddScalar(tensor::Exp(tensor::Neg(tensor::Abs(x))), 1.0f));
  return tensor::Mean(tensor::Add(tensor::Sub(term1, term2), softplus));
}

Tensor InfoNceLoss(const Tensor& positive_sim, const Tensor& negative_sim,
                   float temperature) {
  SARN_CHECK_GT(temperature, 0.0f);
  SARN_CHECK_EQ(negative_sim.rank(), 2);
  int64_t m = negative_sim.shape()[0];
  SARN_CHECK_EQ(positive_sim.numel(), m);
  Tensor pos_col = positive_sim.rank() == 2 ? positive_sim
                                            : tensor::Reshape(positive_sim, {m, 1});
  // Column 0 is the positive; a cross entropy with label 0 per row is exactly
  // Eq. 2 / Eq. 15 / Eq. 16.
  Tensor logits =
      tensor::MulScalar(tensor::Concat({pos_col, negative_sim}, 1), 1.0f / temperature);
  std::vector<int64_t> labels(static_cast<size_t>(m), 0);
  return CrossEntropyWithLogits(logits, labels);
}

}  // namespace sarn::nn
