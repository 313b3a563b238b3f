// Loss functions shared across models. SARN's two-level contrastive loss
// (core/sarn_loss.h) composes the InfoNCE primitive defined here.

#ifndef SARN_NN_LOSSES_H_
#define SARN_NN_LOSSES_H_

#include <cstdint>
#include <vector>

#include "tensor/tensor.h"

namespace sarn::nn {

/// Mean squared error over all elements.
tensor::Tensor MseLoss(const tensor::Tensor& prediction, const tensor::Tensor& target);

/// Multi-class cross entropy from raw logits [m, k] and integer labels [m].
tensor::Tensor CrossEntropyWithLogits(const tensor::Tensor& logits,
                                      const std::vector<int64_t>& labels);

/// Binary cross entropy from a single logit column [m] (or [m,1]) and 0/1
/// targets; numerically stable formulation.
tensor::Tensor BinaryCrossEntropyWithLogits(const tensor::Tensor& logits,
                                            const std::vector<float>& targets);

/// InfoNCE (paper Eq. 2): `positive_sim` [m] holds Λ(z_i, z_i⁺), and
/// `negative_sim` [m, K] the similarities to the K negatives of each anchor.
/// Returns mean over the batch of -log softmax(sim/τ)[positive].
tensor::Tensor InfoNceLoss(const tensor::Tensor& positive_sim,
                           const tensor::Tensor& negative_sim, float temperature);

}  // namespace sarn::nn

#endif  // SARN_NN_LOSSES_H_
