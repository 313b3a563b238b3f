// The pluggable graph-encoder interface of the contrastive plane
// (DESIGN.md §16).
//
// An Encoder maps embedded segment features [n, d_f] plus one graph view to
// per-segment representations [n, d]. It is momentum-pair aware by
// construction: SarnModel builds two identically-architected instances (the
// trainable online encoder and the momentum target), aligns them with
// CopyWeightsFrom, and drives the MoCo update over their Parameters() lists
// — so an implementation must return its parameters in a deterministic
// order and must not keep hidden trainable state outside Parameters().
//
// Implementations registered by name (variant_registry.h):
//  * "gat" — the paper's GAT over the combined A^s + A^t edge list;
//  * "rfn" — relational fusion (nn/rfn.h): topological and spatial
//            aggregates computed separately per layer, then fused.

#ifndef SARN_CORE_ENCODER_H_
#define SARN_CORE_ENCODER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "core/augmentation.h"
#include "core/sarn_config.h"
#include "nn/module.h"
#include "tensor/tensor.h"

namespace sarn::core {

class Encoder : public nn::Module {
 public:
  virtual const char* name() const = 0;

  /// x: [n, d_f] embedded features of the view (already masked if the view
  /// masks attributes); returns [n, out_dim()].
  virtual tensor::Tensor Forward(const tensor::Tensor& x,
                                 const GraphView& view) const = 0;

  /// Parameters of the final layer only (SARN* fine-tunes just this layer).
  virtual std::vector<tensor::Tensor> FinalLayerParameters() const = 0;

  virtual int64_t out_dim() const = 0;
};

/// The paper's GAT encoder over the combined (topological + spatial) edge
/// list of a view. Consumes `rng` exactly like the pre-refactor inlined
/// construction (per-head weights, attention vectors, residuals, in order).
std::unique_ptr<Encoder> MakeGatEncoder(const SarnConfig& config, int64_t input_dim,
                                        Rng& rng);

/// Relational fusion encoder (nn/rfn.h) over the per-relation edge splits.
std::unique_ptr<Encoder> MakeRfnEncoder(const SarnConfig& config, int64_t input_dim,
                                        Rng& rng);

}  // namespace sarn::core

#endif  // SARN_CORE_ENCODER_H_
