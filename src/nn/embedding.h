// Embedding table and the paper's per-feature road-segment input embedding.

#ifndef SARN_NN_EMBEDDING_H_
#define SARN_NN_EMBEDDING_H_

#include <vector>

#include "nn/module.h"
#include "tensor/tensor.h"

namespace sarn::nn {

/// A learnable lookup table [num_entries, dim]; Forward gathers rows for the
/// given ids (equivalent to one-hot * linear, as the paper describes, but
/// without materialising the one-hot vectors).
class Embedding : public Module {
 public:
  Embedding(int64_t num_entries, int64_t dim, Rng& rng);

  tensor::Tensor Forward(const std::vector<int64_t>& ids) const;

  std::vector<tensor::Tensor> Parameters() const override;

  int64_t dim() const { return table_.shape()[1]; }
  const tensor::Tensor& table() const { return table_; }

 private:
  tensor::Tensor table_;
};

/// The paper's feature embedding layer (§4.3): each of the seven road-segment
/// feature values (type id, plus discretised length, radian, and the four
/// endpoint coordinates) is mapped through its own embedding table; the
/// per-feature outputs are concatenated into one vector of size
/// sum(feature_dims).
///
/// Inputs arrive as pre-discretised bin ids per feature (see
/// roadnet::SegmentFeaturizer), shaped feature-major:
/// ids[f][r] = bin id of feature f for row r.
class FeatureEmbedding : public Module {
 public:
  /// `vocab_sizes[f]` is the bin count of feature f; `dims[f]` its embedding
  /// width. Both must have the same length.
  FeatureEmbedding(const std::vector<int64_t>& vocab_sizes,
                   const std::vector<int64_t>& dims, Rng& rng);

  /// ids must contain one id-vector per feature, all of equal length m.
  /// Returns [m, sum(dims)].
  tensor::Tensor Forward(const std::vector<std::vector<int64_t>>& ids) const;

  std::vector<tensor::Tensor> Parameters() const override;

  int64_t output_dim() const { return output_dim_; }
  size_t num_features() const { return tables_.size(); }

 private:
  std::vector<Embedding> tables_;
  int64_t output_dim_ = 0;
};

}  // namespace sarn::nn

#endif  // SARN_NN_EMBEDDING_H_
