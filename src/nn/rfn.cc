#include "nn/rfn.h"

#include "common/check.h"
#include "tensor/ops.h"

namespace sarn::nn {
namespace {

using tensor::Tensor;

// Uniform-mean aggregation over a relation: for every destination vertex,
// the mean of its incoming sources' rows (softmax of constant scores =
// 1/deg per edge, the same trick GatLayer uses for its no-attention path).
// Vertices with no incoming edges of this relation get a zero row. Reads the
// input rows `x` and writes `num_out` output rows.
Tensor MeanAggregate(const Tensor& x, const LayerEdges& edges, int64_t num_out) {
  int64_t e_count = static_cast<int64_t>(edges.size());
  Tensor alpha =
      tensor::EdgeSoftmax(Tensor::Zeros({e_count}), edges.dst_out, num_out);
  Tensor messages = tensor::ScaleRows(tensor::Rows(x, edges.src), alpha);
  return tensor::ScatterAddRows(messages, edges.dst_out, num_out);  // [num_out, d]
}

}  // namespace

RfnLayer::RfnLayer(int64_t in_dim, int64_t out_dim, Activation activation, Rng& rng)
    : self_(in_dim, out_dim, rng),
      topo_(in_dim, out_dim, rng, /*bias=*/false),
      spatial_(in_dim, out_dim, rng, /*bias=*/false),
      activation_(activation) {}

Tensor RfnLayer::Forward(const Tensor& x, const EdgeList& edges, size_t num_topo) const {
  SARN_CHECK_EQ(x.shape().size(), 2u);
  return Forward(x, LayerGraph::AllRows(x.shape()[0], edges, num_topo, edges.size()));
}

Tensor RfnLayer::Forward(const Tensor& x, const LayerGraph& graph) const {
  SARN_CHECK_EQ(x.shape().size(), 2u);
  SARN_CHECK_EQ(x.shape()[0], graph.num_in);
  // The self term runs over the input rows and is then gathered to the
  // output rows, so x receives its gradient contributions in the same order
  // as in the all-rows layer.
  Tensor out = self_.Forward(x);
  if (graph.out_rows != nullptr) out = tensor::Rows(out, *graph.out_rows);
  if (graph.topo.present) {
    out = tensor::Add(out, topo_.Forward(MeanAggregate(x, graph.topo, graph.num_out)));
  }
  if (graph.spatial.present) {
    out = tensor::Add(out,
                      spatial_.Forward(MeanAggregate(x, graph.spatial, graph.num_out)));
  }
  return Apply(activation_, out);
}

std::vector<Tensor> RfnLayer::Parameters() const {
  std::vector<Tensor> params = self_.Parameters();
  for (const Tensor& p : topo_.Parameters()) params.push_back(p);
  for (const Tensor& p : spatial_.Parameters()) params.push_back(p);
  return params;
}

RfnEncoder::RfnEncoder(int64_t in_dim, int64_t hidden_dim, int64_t out_dim,
                       int num_layers, Rng& rng) {
  SARN_CHECK_GE(num_layers, 1);
  int64_t in = in_dim;
  for (int l = 0; l < num_layers - 1; ++l) {
    layers_.emplace_back(in, hidden_dim, Activation::kElu, rng);
    in = hidden_dim;
  }
  layers_.emplace_back(in, out_dim, Activation::kNone, rng);
}

Tensor RfnEncoder::Forward(const Tensor& x, const EdgeList& edges,
                           size_t num_topo) const {
  SARN_CHECK_EQ(x.shape().size(), 2u);
  std::vector<LayerGraph> layers(
      layers_.size(), LayerGraph::AllRows(x.shape()[0], edges, num_topo, edges.size()));
  return Forward(x, layers);
}

Tensor RfnEncoder::Forward(const Tensor& x, std::span<const LayerGraph> layers) const {
  SARN_CHECK_EQ(layers.size(), layers_.size());
  Tensor h = x;
  for (size_t l = 0; l < layers_.size(); ++l) h = layers_[l].Forward(h, layers[l]);
  return h;
}

std::vector<Tensor> RfnEncoder::Parameters() const {
  std::vector<Tensor> params;
  for (const RfnLayer& layer : layers_) {
    for (const Tensor& p : layer.Parameters()) params.push_back(p);
  }
  return params;
}

std::vector<Tensor> RfnEncoder::FinalLayerParameters() const {
  return layers_.back().Parameters();
}

}  // namespace sarn::nn
