// Relational fusion encoder, after Relational Fusion Networks (Jepsen et
// al., arXiv 2006.09030): road networks carry more than one edge relation,
// and aggregating each relation separately — then fusing — beats flattening
// them into a single adjacency.
//
// Each layer computes three terms over the input representations h:
//   self:     h W_self
//   topo:     mean over incoming topological edges of h_src, then W_topo
//   spatial:  mean over incident spatial edges of h_src, then W_spatial
// and fuses them by summation followed by the activation. A relation with no
// edges in the current view contributes nothing (its term is skipped), so
// the encoder degrades gracefully to a topology-only or self-only network.
// This is the "node-relational" half of the RFN recipe, sized to be a
// drop-in head-to-head against the GAT encoder over A^s + A^t.

#ifndef SARN_NN_RFN_H_
#define SARN_NN_RFN_H_

#include <cstdint>
#include <span>
#include <vector>

#include "nn/gat.h"
#include "nn/linear.h"
#include "nn/module.h"
#include "tensor/tensor.h"

namespace sarn::nn {

/// One relational fusion layer: out = act(self(h) + topo(agg_t) + spat(agg_s)).
class RfnLayer : public Module {
 public:
  RfnLayer(int64_t in_dim, int64_t out_dim, Activation activation, Rng& rng);

  /// x: [n, in_dim]; edges[0, num_topo) is the topological relation and the
  /// rest the spatial one (callers pass both directions of undirected
  /// spatial edges), each aggregated src -> dst with a uniform mean per dst.
  /// Either relation may be empty. The all-rows case of the LayerGraph
  /// forward.
  tensor::Tensor Forward(const tensor::Tensor& x, const EdgeList& edges,
                         size_t num_topo) const;

  /// x: [graph.num_in, in_dim] -> [graph.num_out, output_dim()], over
  /// graph.topo and graph.spatial.
  tensor::Tensor Forward(const tensor::Tensor& x, const LayerGraph& graph) const;

  std::vector<tensor::Tensor> Parameters() const override;

  int64_t output_dim() const { return self_.out_features(); }

 private:
  Linear self_;
  Linear topo_;
  Linear spatial_;
  Activation activation_;
};

/// A stack of RfnLayers: `num_layers - 1` ELU layers of width `hidden_dim`,
/// then one linear layer to `out_dim` (mirrors GatEncoder's depth layout).
class RfnEncoder : public Module {
 public:
  RfnEncoder(int64_t in_dim, int64_t hidden_dim, int64_t out_dim, int num_layers,
             Rng& rng);

  tensor::Tensor Forward(const tensor::Tensor& x, const EdgeList& edges,
                         size_t num_topo) const;

  /// One LayerGraph per layer; x: [layers[0].num_in, in_dim] ->
  /// [layers.back().num_out, out_dim()].
  tensor::Tensor Forward(const tensor::Tensor& x,
                         std::span<const LayerGraph> layers) const;

  std::vector<tensor::Tensor> Parameters() const override;

  /// Parameters of the final layer only (SARN* fine-tunes just this layer).
  std::vector<tensor::Tensor> FinalLayerParameters() const;

  int64_t out_dim() const { return layers_.back().output_dim(); }
  size_t num_layers() const { return layers_.size(); }

 private:
  std::vector<RfnLayer> layers_;
};

}  // namespace sarn::nn

#endif  // SARN_NN_RFN_H_
