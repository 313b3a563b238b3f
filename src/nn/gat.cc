#include "nn/gat.h"

#include "common/check.h"
#include "obs/trace.h"
#include "tensor/ops.h"

namespace sarn::nn {

using tensor::Tensor;

const EdgeList& EdgeList::WithSelfLoops(int64_t num_vertices) const {
  if (!self_loop_cache_ || cached_vertices_ != num_vertices ||
      cached_edges_ != src.size()) {
    auto augmented = std::make_shared<EdgeList>();
    augmented->src.reserve(src.size() + static_cast<size_t>(num_vertices));
    augmented->dst.reserve(dst.size() + static_cast<size_t>(num_vertices));
    augmented->src = src;
    augmented->dst = dst;
    for (int64_t v = 0; v < num_vertices; ++v) augmented->Add(v, v);
    self_loop_cache_ = std::move(augmented);
    cached_vertices_ = num_vertices;
    cached_edges_ = src.size();
  }
  return *self_loop_cache_;
}

GatLayer::GatLayer(int64_t in_dim, int64_t head_dim, int num_heads, bool concat_heads,
                   Activation activation, Rng& rng, float leaky_relu_slope,
                   bool add_self_loops, bool residual, bool use_attention)
    : head_dim_(head_dim),
      num_heads_(num_heads),
      concat_heads_(concat_heads),
      activation_(activation),
      leaky_relu_slope_(leaky_relu_slope),
      add_self_loops_(add_self_loops),
      use_attention_(use_attention) {
  SARN_CHECK_GT(head_dim, 0);
  SARN_CHECK_GT(num_heads, 0);
  for (int h = 0; h < num_heads; ++h) {
    weight_.push_back(Tensor::GlorotUniform(in_dim, head_dim, rng).RequiresGrad());
    att_src_.push_back(Tensor::GlorotUniform(head_dim, 1, rng).RequiresGrad());
    att_dst_.push_back(Tensor::GlorotUniform(head_dim, 1, rng).RequiresGrad());
  }
  if (residual) {
    residual_weight_ = Tensor::GlorotUniform(in_dim, output_dim(), rng).RequiresGrad();
  }
}

Tensor GatLayer::Forward(const Tensor& x, const EdgeList& edges) const {
  SARN_TRACE_SPAN("gat_layer_forward");
  SARN_CHECK_EQ(x.rank(), 2);
  int64_t n = x.shape()[0];
  // Self-loops make every vertex attend to itself; without them isolated
  // vertices (possible after aggressive augmentation) would emit zeros. The
  // augmented list is cached on the EdgeList, so a whole encoder stack (and
  // repeated Forward calls on the same view) builds it once.
  const EdgeList& graph = add_self_loops_ ? edges.WithSelfLoops(n) : edges;
  const std::vector<int64_t>& src = graph.src;
  const std::vector<int64_t>& dst = graph.dst;
  int64_t e_count = static_cast<int64_t>(src.size());

  // Fused per-head projection: one [n, in] x [in, num_heads * head_dim]
  // matmul instead of num_heads separate ones — the wide kernel amortises
  // dispatch and keeps x in cache across heads. Concat is differentiable,
  // so each head's weight still receives its own gradient slice.
  Tensor wx_all = num_heads_ == 1 ? tensor::MatMul(x, weight_[0])
                                  : tensor::MatMul(x, tensor::Concat(weight_, 1));

  // The per-edge gather/scale/scatter chain always runs fused. With grad
  // recording off (serving, momentum-encoder passes) the inference kernels
  // skip the [E, d] intermediates entirely; with it on, the differentiable
  // fusions record one tape node per chain. Both apply the float operation
  // order of the unfused Rows/Add/LeakyRelu and ScaleRows/ScatterAddRows
  // chain, so values and gradients are bitwise identical to it (ops_test).
  const bool fused_inference = !tensor::GradModeEnabled();

  // Footnote-1 ablation: softmax of constant scores = uniform mean over each
  // vertex's incoming edges; identical for every head, so computed once.
  Tensor uniform_alpha;
  if (!use_attention_) {
    uniform_alpha = tensor::EdgeSoftmax(Tensor::Zeros({e_count}), dst, n);
  }

  std::vector<Tensor> head_outputs;
  head_outputs.reserve(num_heads_);
  for (int h = 0; h < num_heads_; ++h) {
    Tensor wx = num_heads_ == 1
                    ? wx_all
                    : tensor::ColsRange(wx_all, h * head_dim_, head_dim_);  // [n, head_dim]
    Tensor alpha;
    if (use_attention_) {
      Tensor score_src = tensor::MatMul(wx, att_src_[h]);  // [n, 1]
      Tensor score_dst = tensor::MatMul(wx, att_dst_[h]);  // [n, 1]
      if (fused_inference) {
        alpha = tensor::EdgeSoftmax(
            tensor::FusedEdgeScores(score_src, score_dst, src, dst, leaky_relu_slope_),
            dst, n);
      } else {
        alpha = tensor::EdgeSoftmax(tensor::FusedEdgeScoreActivate(
                                        score_src, score_dst, src, dst, leaky_relu_slope_),
                                    dst, n);
      }
    } else {
      alpha = uniform_alpha;
    }
    if (fused_inference) {
      head_outputs.push_back(tensor::FusedGatherScaleScatter(wx, src, dst, alpha, n));
    } else {
      head_outputs.push_back(
          tensor::ScaleScatterRows(tensor::Rows(wx, src), alpha, dst, n));  // [n, head_dim]
    }
  }

  Tensor combined;
  if (concat_heads_) {
    combined = num_heads_ == 1 ? head_outputs[0] : tensor::Concat(head_outputs, 1);
  } else {
    combined = head_outputs[0];
    for (int h = 1; h < num_heads_; ++h) combined = tensor::Add(combined, head_outputs[h]);
    combined = tensor::MulScalar(combined, 1.0f / static_cast<float>(num_heads_));
  }
  if (residual_weight_.defined()) {
    combined = tensor::Add(combined, tensor::MatMul(x, residual_weight_));
  }
  return Apply(activation_, combined);
}

std::vector<Tensor> GatLayer::Parameters() const {
  std::vector<Tensor> params;
  for (int h = 0; h < num_heads_; ++h) {
    params.push_back(weight_[h]);
    params.push_back(att_src_[h]);
    params.push_back(att_dst_[h]);
  }
  if (residual_weight_.defined()) params.push_back(residual_weight_);
  return params;
}

GatEncoder::GatEncoder(int64_t in_dim, int64_t hidden_dim, int64_t out_dim,
                       int num_layers, int num_heads, Rng& rng, bool use_attention) {
  SARN_CHECK_GE(num_layers, 1);
  SARN_CHECK_EQ(hidden_dim % num_heads, 0)
      << "hidden_dim " << hidden_dim << " not divisible by heads " << num_heads;
  int64_t head_dim = hidden_dim / num_heads;
  int64_t current = in_dim;
  for (int layer = 0; layer + 1 < num_layers; ++layer) {
    layers_.emplace_back(current, head_dim, num_heads, /*concat_heads=*/true,
                         Activation::kElu, rng, 0.2f, /*add_self_loops=*/true,
                         /*residual=*/true, use_attention);
    current = hidden_dim;
  }
  // Final layer: average heads, no activation (its output is the embedding).
  layers_.emplace_back(current, out_dim, num_heads, /*concat_heads=*/false,
                       Activation::kNone, rng, 0.2f, /*add_self_loops=*/true,
                       /*residual=*/true, use_attention);
}

Tensor GatEncoder::Forward(const Tensor& x, const EdgeList& edges) const {
  SARN_TRACE_SPAN("gat_forward");
  Tensor h = x;
  for (const GatLayer& layer : layers_) h = layer.Forward(h, edges);
  return h;
}

std::vector<Tensor> GatEncoder::Parameters() const {
  std::vector<Tensor> params;
  for (const GatLayer& layer : layers_) {
    for (const Tensor& p : layer.Parameters()) params.push_back(p);
  }
  return params;
}

std::vector<Tensor> GatEncoder::FinalLayerParameters() const {
  return layers_.back().Parameters();
}

}  // namespace sarn::nn
