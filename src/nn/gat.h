// Graph attention network (Veličković et al., ICLR'18), the paper's graph
// encoder (§4.3, Eqs. 8-10).
//
// Edges are directed src -> dst: a vertex aggregates messages over its
// incoming edges, with attention coefficients normalised per destination
// (Eq. 10). SARN feeds the union of topological and spatial edges of an
// augmented graph view, so the attention weights subsume both edge types.

#ifndef SARN_NN_GAT_H_
#define SARN_NN_GAT_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "nn/linear.h"
#include "nn/module.h"
#include "tensor/tensor.h"

namespace sarn::nn {

/// A directed edge list in struct-of-arrays form; src[k] -> dst[k].
struct EdgeList {
  std::vector<int64_t> src;
  std::vector<int64_t> dst;

  size_t size() const { return src.size(); }
  void Add(int64_t s, int64_t d) {
    src.push_back(s);
    dst.push_back(d);
  }

  /// This edge list with one self-loop per vertex appended, built lazily and
  /// cached on the instance: a GAT stack augments the same graph view once
  /// instead of once per layer per Forward call. The cache is invalidated
  /// when the edge count or vertex count changes (the only mutator, Add,
  /// changes the count). Copies share the cache. Not safe to call
  /// concurrently on the same instance (same contract as Tensor).
  const EdgeList& WithSelfLoops(int64_t num_vertices) const;

 private:
  mutable std::shared_ptr<const EdgeList> self_loop_cache_;
  mutable int64_t cached_vertices_ = -1;
  mutable size_t cached_edges_ = 0;
};

/// An edge set as one encoder layer reads it. The layer maps input rows
/// [0, num_in) to output rows [0, num_out): `src` and `dst_in` index input
/// rows, `dst_out` output rows. The indices are borrowed for the Forward call
/// (the ops copy the indices their backward needs).
struct LayerEdges {
  std::span<const int64_t> src;
  std::span<const int64_t> dst_in;
  std::span<const int64_t> dst_out;
  /// Whether the graph view has edges of this relation at all. A relational
  /// layer runs the relation's term whenever it does, even when none of
  /// those edges reach this layer's rows.
  bool present = false;

  size_t size() const { return src.size(); }
  /// Edges [begin, end) of this set.
  LayerEdges Range(size_t begin, size_t end, bool range_present) const {
    return {src.subspan(begin, end - begin), dst_in.subspan(begin, end - begin),
            dst_out.subspan(begin, end - begin), range_present};
  }
};

/// The part of a graph view one encoder layer runs on (DESIGN.md §17): the
/// input rows R_l, numbered [0, num_in), and the output rows R_{l+1} ⊆ R_l,
/// numbered [0, num_out), both ascending in global vertex id, plus every
/// edge whose destination is an output row, in the view's edge order. The
/// all-rows case (num_in == num_out == n, indices are vertex ids) is the
/// full-graph layer.
struct LayerGraph {
  int64_t num_in = 0;
  int64_t num_out = 0;
  /// Input row of each output row; nullptr when every row maps to itself.
  const std::vector<int64_t>* out_rows = nullptr;
  /// All edges: the topological ones, then the spatial ones, then (when the
  /// list carries them) the self-loops. What a GAT layer aggregates.
  LayerEdges edges;
  /// The topological and spatial relations as two contiguous ranges of
  /// `edges` (what an RFN layer aggregates).
  LayerEdges topo;
  LayerEdges spatial;

  /// The all-rows layer over `num_vertices` rows and the whole of `edges`,
  /// whose [0, topo_end) is the topological relation and
  /// [topo_end, spatial_end) the spatial one.
  static LayerGraph AllRows(int64_t num_vertices, const EdgeList& edges,
                            size_t topo_end, size_t spatial_end);
};

/// One multi-head GAT layer.
class GatLayer : public Module {
 public:
  /// If `concat_heads`, the output is [n, num_heads * head_dim]; otherwise
  /// heads are averaged to [n, head_dim] (the paper's final-layer variant).
  /// `residual` adds a (linearly projected) skip connection from the layer
  /// input to its output before the activation — standard in GAT stacks; it
  /// preserves per-vertex identity against neighborhood over-smoothing.
  /// Without `use_attention`, aggregation is a uniform mean over incoming
  /// edges (the paper's footnote-1 alternative of fixed adjacency weights).
  GatLayer(int64_t in_dim, int64_t head_dim, int num_heads, bool concat_heads,
           Activation activation, Rng& rng, float leaky_relu_slope = 0.2f,
           bool add_self_loops = true, bool residual = true,
           bool use_attention = true);

  /// x: [n, in_dim]; vertices referenced by `edges` must be < n. The
  /// all-rows case of the LayerGraph forward (self-loops added here).
  tensor::Tensor Forward(const tensor::Tensor& x, const EdgeList& edges) const;

  /// x: [graph.num_in, in_dim] -> [graph.num_out, output_dim()]. Aggregates
  /// over graph.edges as given, so they must already carry the self-loops.
  tensor::Tensor Forward(const tensor::Tensor& x, const LayerGraph& graph) const;

  std::vector<tensor::Tensor> Parameters() const override;

  int64_t output_dim() const {
    return concat_heads_ ? head_dim_ * num_heads_ : head_dim_;
  }

 private:
  int64_t head_dim_;
  int num_heads_;
  bool concat_heads_;
  Activation activation_;
  float leaky_relu_slope_;
  bool add_self_loops_;
  bool use_attention_;
  std::vector<tensor::Tensor> weight_;   // Per head: [in, head_dim].
  std::vector<tensor::Tensor> att_src_;  // Per head: [head_dim, 1].
  std::vector<tensor::Tensor> att_dst_;  // Per head: [head_dim, 1].
  tensor::Tensor residual_weight_;       // [in, output_dim] or undefined.
};

/// A stack of GAT layers: `num_layers - 1` concat-head ELU layers of width
/// `hidden_dim`, then one mean-head layer to `out_dim` (paper: 3 layers, 4
/// heads, ELU).
class GatEncoder : public Module {
 public:
  GatEncoder(int64_t in_dim, int64_t hidden_dim, int64_t out_dim, int num_layers,
             int num_heads, Rng& rng, bool use_attention = true);

  /// All rows: every layer aggregates over `edges` plus self-loops.
  tensor::Tensor Forward(const tensor::Tensor& x, const EdgeList& edges) const;

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
  std::vector<GatLayer> layers_;
};

}  // namespace sarn::nn

#endif  // SARN_NN_GAT_H_
