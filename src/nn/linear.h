// Dense layers: Linear, activation helpers and Ffn (multi-layer perceptron).

#ifndef SARN_NN_LINEAR_H_
#define SARN_NN_LINEAR_H_

#include <vector>

#include "nn/module.h"
#include "tensor/tensor.h"

namespace sarn::nn {

/// Supported nonlinearities for Ffn hidden layers.
enum class Activation { kNone, kRelu, kLeakyRelu, kElu, kSigmoid, kTanh };

/// Applies the chosen activation elementwise (autograd-tracked).
tensor::Tensor Apply(Activation activation, const tensor::Tensor& x);

/// y = x W + b with Glorot-uniform W. Input [m, in] -> output [m, out].
class Linear : public Module {
 public:
  Linear(int64_t in_features, int64_t out_features, Rng& rng, bool bias = true);

  tensor::Tensor Forward(const tensor::Tensor& x) const;

  std::vector<tensor::Tensor> Parameters() const override;

  int64_t out_features() const { return weight_.shape()[1]; }

 private:
  tensor::Tensor weight_;  // [in, out]
  tensor::Tensor bias_;    // [out] or undefined
};

/// Feed-forward network: Linear -> act -> ... -> Linear. `layer_sizes` is
/// {in, hidden..., out}; the activation is applied between layers (not after
/// the last).
class Ffn : public Module {
 public:
  Ffn(const std::vector<int64_t>& layer_sizes, Activation activation, Rng& rng);

  tensor::Tensor Forward(const tensor::Tensor& x) const;

  std::vector<tensor::Tensor> Parameters() const override;

  size_t num_layers() const { return layers_.size(); }

 private:
  std::vector<Linear> layers_;
  Activation activation_;
};

}  // namespace sarn::nn

#endif  // SARN_NN_LINEAR_H_
