#include "nn/gat.h"

#include <bit>
#include <cmath>
#include <cstdint>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "nn/losses.h"
#include "tensor/ops.h"
#include "tensor/optimizer.h"

namespace sarn::nn {
namespace {

using tensor::Tensor;

EdgeList PathGraph(int64_t n) {
  // 0 -> 1 -> 2 -> ... (both directions).
  EdgeList edges;
  for (int64_t v = 0; v + 1 < n; ++v) {
    edges.Add(v, v + 1);
    edges.Add(v + 1, v);
  }
  return edges;
}

TEST(GatLayerTest, OutputShapeConcatHeads) {
  Rng rng(1);
  GatLayer layer(6, 4, /*num_heads=*/3, /*concat_heads=*/true, Activation::kElu, rng);
  Tensor x = Tensor::Randn({5, 6}, rng);
  Tensor y = layer.Forward(x, PathGraph(5));
  EXPECT_EQ(y.shape(), (tensor::Shape{5, 12}));
  EXPECT_EQ(layer.output_dim(), 12);
}

TEST(GatLayerTest, OutputShapeMeanHeads) {
  Rng rng(2);
  GatLayer layer(6, 4, 3, /*concat_heads=*/false, Activation::kNone, rng);
  Tensor x = Tensor::Randn({5, 6}, rng);
  Tensor y = layer.Forward(x, PathGraph(5));
  EXPECT_EQ(y.shape(), (tensor::Shape{5, 4}));
}

TEST(GatLayerTest, IsolatedVertexGetsSelfLoopOutput) {
  Rng rng(3);
  GatLayer layer(4, 4, 1, true, Activation::kNone, rng);
  Tensor x = Tensor::Randn({3, 4}, rng);
  EdgeList edges;  // No edges at all: only self-loops remain.
  Tensor y = layer.Forward(x, edges);
  // With only a self-loop, attention weight is 1 and output = W x_i.
  float norm = 0.0f;
  for (int64_t j = 0; j < 4; ++j) norm += std::fabs(y.at(0, j));
  EXPECT_GT(norm, 0.0f);
  for (float v : y.data()) EXPECT_TRUE(std::isfinite(v));
}

TEST(GatLayerTest, WithoutSelfLoopsIsolatedVertexIsZero) {
  Rng rng(4);
  GatLayer layer(4, 4, 1, true, Activation::kNone, rng, 0.2f, /*add_self_loops=*/false,
                 /*residual=*/false);
  Tensor x = Tensor::Randn({3, 4}, rng);
  EdgeList edges;
  edges.Add(0, 1);  // Vertex 2 receives nothing.
  Tensor y = layer.Forward(x, edges);
  for (int64_t j = 0; j < 4; ++j) EXPECT_EQ(y.at(2, j), 0.0f);
}

TEST(GatLayerTest, MessagesFlowAlongEdges) {
  Rng rng(5);
  GatLayer layer(4, 4, 1, true, Activation::kNone, rng, 0.2f, /*add_self_loops=*/false,
                 /*residual=*/false);
  Tensor x = Tensor::Randn({2, 4}, rng);
  EdgeList edges;
  edges.Add(0, 1);  // Only 0 -> 1.
  Tensor y = layer.Forward(x, edges);
  // Vertex 1's output depends on x_0: perturb x_0 and observe the change.
  Tensor x2 = x.Clone();
  x2.set(0, 0, x2.at(0, 0) + 1.0f);
  Tensor y2 = layer.Forward(x2, edges);
  float diff = 0.0f;
  for (int64_t j = 0; j < 4; ++j) diff += std::fabs(y2.at(1, j) - y.at(1, j));
  EXPECT_GT(diff, 1e-6f);
  // Vertex 0 receives nothing, so its output stays zero regardless.
  for (int64_t j = 0; j < 4; ++j) EXPECT_EQ(y.at(0, j), 0.0f);
}

TEST(GatLayerTest, GradientsReachAllParameters) {
  Rng rng(6);
  GatLayer layer(4, 4, 2, true, Activation::kElu, rng);
  Tensor x = Tensor::Randn({6, 4}, rng);
  Tensor y = layer.Forward(x, PathGraph(6));
  tensor::Sum(y).Backward();
  for (const Tensor& p : layer.Parameters()) {
    float norm = 0.0f;
    for (float g : p.grad()) norm += std::fabs(g);
    EXPECT_GT(norm, 0.0f);
  }
}

TEST(GatLayerTest, FusedForwardMatchesPerHeadReference) {
  // The layer now computes all heads through one wide matmul plus column
  // slices. This golden test replays the seed's per-head formulation with
  // the layer's exact weights (same Rng seed, same draw order as the
  // constructor) and checks outputs AND all gradients agree.
  const int64_t in_dim = 6, head_dim = 4, n = 7;
  const int num_heads = 3;
  Rng layer_rng(21);
  GatLayer layer(in_dim, head_dim, num_heads, /*concat_heads=*/true, Activation::kElu,
                 layer_rng);
  Rng ref_rng(21);  // Mirrors the constructor's parameter draws.
  std::vector<Tensor> w, a_src, a_dst;
  for (int h = 0; h < num_heads; ++h) {
    w.push_back(Tensor::GlorotUniform(in_dim, head_dim, ref_rng).RequiresGrad());
    a_src.push_back(Tensor::GlorotUniform(head_dim, 1, ref_rng).RequiresGrad());
    a_dst.push_back(Tensor::GlorotUniform(head_dim, 1, ref_rng).RequiresGrad());
  }
  Tensor residual =
      Tensor::GlorotUniform(in_dim, head_dim * num_heads, ref_rng).RequiresGrad();

  Rng data_rng(5);
  Tensor x = Tensor::Randn({n, in_dim}, data_rng).RequiresGrad();
  Tensor x_ref = x.Clone().RequiresGrad();
  EdgeList edges = PathGraph(n);

  Tensor y = layer.Forward(x, edges);
  tensor::Sum(y).Backward();

  // Seed-style reference: per-head matmuls, self loops appended by hand.
  std::vector<int64_t> src = edges.src, dst = edges.dst;
  for (int64_t v = 0; v < n; ++v) {
    src.push_back(v);
    dst.push_back(v);
  }
  int64_t e_count = static_cast<int64_t>(src.size());
  std::vector<Tensor> heads;
  for (int h = 0; h < num_heads; ++h) {
    Tensor wx = tensor::MatMul(x_ref, w[h]);
    Tensor scores = tensor::LeakyRelu(
        tensor::Add(tensor::Rows(tensor::MatMul(wx, a_dst[h]), dst),
                    tensor::Rows(tensor::MatMul(wx, a_src[h]), src)),
        0.2f);
    Tensor alpha = tensor::EdgeSoftmax(tensor::Reshape(scores, {e_count}), dst, n);
    heads.push_back(
        tensor::ScatterAddRows(tensor::ScaleRows(tensor::Rows(wx, src), alpha), dst, n));
  }
  Tensor y_ref = tensor::Elu(tensor::Add(tensor::Concat(heads, 1),
                                         tensor::MatMul(x_ref, residual)));
  tensor::Sum(y_ref).Backward();

  ASSERT_EQ(y.shape(), y_ref.shape());
  for (int64_t i = 0; i < y.numel(); ++i) {
    EXPECT_NEAR(y.data()[i], y_ref.data()[i], 1e-6f) << "output " << i;
  }
  for (int64_t i = 0; i < x.numel(); ++i) {
    EXPECT_NEAR(x.grad()[i], x_ref.grad()[i], 1e-5f) << "dx " << i;
  }
  // Parameters() order: per head (W, a_src, a_dst), then the residual.
  std::vector<Tensor> params = layer.Parameters();
  ASSERT_EQ(params.size(), static_cast<size_t>(3 * num_heads + 1));
  for (int h = 0; h < num_heads; ++h) {
    const std::vector<Tensor> ref = {w[h], a_src[h], a_dst[h]};
    for (int p = 0; p < 3; ++p) {
      const Tensor& got = params[static_cast<size_t>(3 * h + p)];
      ASSERT_EQ(got.numel(), ref[p].numel());
      for (int64_t i = 0; i < got.numel(); ++i) {
        EXPECT_NEAR(got.grad()[i], ref[p].grad()[i], 1e-5f)
            << "head " << h << " param " << p << " grad " << i;
      }
    }
  }
  for (int64_t i = 0; i < residual.numel(); ++i) {
    EXPECT_NEAR(params.back().grad()[i], residual.grad()[i], 1e-5f) << "dresidual " << i;
  }
}

TEST(GatLayerTest, MeanHeadsFusedMatchesPerHeadReference) {
  // Same golden comparison for the mean-combine (final layer) variant,
  // without attention (the footnote-1 uniform-alpha path).
  const int64_t in_dim = 5, head_dim = 3, n = 6;
  const int num_heads = 2;
  Rng layer_rng(31);
  GatLayer layer(in_dim, head_dim, num_heads, /*concat_heads=*/false, Activation::kNone,
                 layer_rng, 0.2f, /*add_self_loops=*/true, /*residual=*/false,
                 /*use_attention=*/false);
  Rng ref_rng(31);
  std::vector<Tensor> w;
  for (int h = 0; h < num_heads; ++h) {
    w.push_back(Tensor::GlorotUniform(in_dim, head_dim, ref_rng).RequiresGrad());
    Tensor::GlorotUniform(head_dim, 1, ref_rng);  // a_src: drawn, unused here.
    Tensor::GlorotUniform(head_dim, 1, ref_rng);  // a_dst.
  }
  Rng data_rng(6);
  Tensor x = Tensor::Randn({n, in_dim}, data_rng);
  EdgeList edges = PathGraph(n);
  Tensor y = layer.Forward(x, edges);

  std::vector<int64_t> src = edges.src, dst = edges.dst;
  for (int64_t v = 0; v < n; ++v) {
    src.push_back(v);
    dst.push_back(v);
  }
  int64_t e_count = static_cast<int64_t>(src.size());
  Tensor alpha = tensor::EdgeSoftmax(Tensor::Zeros({e_count}), dst, n);
  Tensor combined;
  for (int h = 0; h < num_heads; ++h) {
    Tensor wx = tensor::MatMul(x, w[h]);
    Tensor head =
        tensor::ScatterAddRows(tensor::ScaleRows(tensor::Rows(wx, src), alpha), dst, n);
    combined = h == 0 ? head : tensor::Add(combined, head);
  }
  Tensor y_ref = tensor::MulScalar(combined, 1.0f / static_cast<float>(num_heads));
  ASSERT_EQ(y.shape(), y_ref.shape());
  for (int64_t i = 0; i < y.numel(); ++i) {
    EXPECT_NEAR(y.data()[i], y_ref.data()[i], 1e-6f) << "output " << i;
  }
}

TEST(GatLayerTest, RepeatedForwardWithCachedSelfLoopsIsStable) {
  Rng rng(12);
  GatLayer layer(4, 4, 2, true, Activation::kElu, rng);
  Tensor x = Tensor::Randn({5, 4}, rng);
  EdgeList edges = PathGraph(5);
  Tensor first = layer.Forward(x, edges);
  // Second call hits the cached self-loop-augmented edge list.
  Tensor second = layer.Forward(x, edges);
  for (int64_t i = 0; i < first.numel(); ++i) {
    EXPECT_EQ(first.data()[i], second.data()[i]) << "index " << i;
  }
}

TEST(GatLayerTest, SelfLoopCacheInvalidatedByEdgeMutation) {
  Rng rng(13);
  GatLayer layer(4, 4, 1, true, Activation::kNone, rng, 0.2f, /*add_self_loops=*/true,
                 /*residual=*/false);
  Tensor x = Tensor::Randn({3, 4}, rng);
  EdgeList edges;  // Vertex 2 isolated: output = W x_2 via its self loop.
  edges.Add(0, 1);
  Tensor before = layer.Forward(x, edges);
  edges.Add(0, 2);  // Now vertex 2 also attends to vertex 0.
  Tensor after = layer.Forward(x, edges);
  float diff = 0.0f;
  for (int64_t j = 0; j < 4; ++j) diff += std::fabs(after.at(2, j) - before.at(2, j));
  EXPECT_GT(diff, 1e-6f);
}

TEST(EdgeListTest, WithSelfLoopsAppendsAndCaches) {
  EdgeList edges;
  edges.Add(0, 1);
  edges.Add(1, 2);
  const EdgeList& aug = edges.WithSelfLoops(3);
  ASSERT_EQ(aug.size(), 5u);
  EXPECT_EQ(aug.src[0], 0);
  EXPECT_EQ(aug.dst[0], 1);
  for (int64_t v = 0; v < 3; ++v) {
    EXPECT_EQ(aug.src[static_cast<size_t>(2 + v)], v);
    EXPECT_EQ(aug.dst[static_cast<size_t>(2 + v)], v);
  }
  // Cached: same instance on repeat, rebuilt after a mutation or new n.
  EXPECT_EQ(&edges.WithSelfLoops(3), &aug);
  EXPECT_EQ(edges.WithSelfLoops(4).size(), 6u);
  edges.Add(2, 0);
  EXPECT_EQ(edges.WithSelfLoops(4).size(), 7u);
}

TEST(GatEncoderTest, StackShapes) {
  Rng rng(7);
  GatEncoder encoder(10, 16, 8, /*num_layers=*/3, /*num_heads=*/4, rng);
  EXPECT_EQ(encoder.num_layers(), 3u);
  Tensor x = Tensor::Randn({7, 10}, rng);
  Tensor h = encoder.Forward(x, PathGraph(7));
  EXPECT_EQ(h.shape(), (tensor::Shape{7, 8}));
  EXPECT_EQ(encoder.out_dim(), 8);
}

TEST(GatEncoderTest, SingleLayerVariant) {
  Rng rng(8);
  GatEncoder encoder(10, 16, 8, 1, 4, rng);
  Tensor h = encoder.Forward(Tensor::Randn({4, 10}, rng), PathGraph(4));
  EXPECT_EQ(h.shape(), (tensor::Shape{4, 8}));
}

TEST(GatEncoderTest, FinalLayerParametersAreSubset) {
  Rng rng(9);
  GatEncoder encoder(10, 16, 8, 3, 4, rng);
  EXPECT_LT(encoder.FinalLayerParameters().size(), encoder.Parameters().size());
  // W, a_src, a_dst per head, plus the residual projection.
  EXPECT_EQ(encoder.FinalLayerParameters().size(), 3u * 4u + 1u);
}

TEST(GatEncoderTest, LearnsToSeparateTwoCommunities) {
  // Two cliques weakly connected; train vertex classification by community.
  Rng rng(10);
  EdgeList edges;
  auto clique = [&edges](int64_t lo, int64_t hi) {
    for (int64_t a = lo; a < hi; ++a) {
      for (int64_t b = lo; b < hi; ++b) {
        if (a != b) edges.Add(a, b);
      }
    }
  };
  clique(0, 5);
  clique(5, 10);
  edges.Add(4, 5);
  edges.Add(5, 4);
  Tensor x = Tensor::Randn({10, 8}, rng);  // Fixed random features.
  GatEncoder encoder(8, 8, 2, 2, 2, rng);
  tensor::Adam opt(encoder.Parameters(), 0.01f);
  std::vector<int64_t> labels = {0, 0, 0, 0, 0, 1, 1, 1, 1, 1};
  float final_loss = 1e9f;
  for (int iter = 0; iter < 150; ++iter) {
    opt.ZeroGrad();
    Tensor loss = CrossEntropyWithLogits(encoder.Forward(x, edges), labels);
    final_loss = loss.item();
    loss.Backward();
    opt.Step();
  }
  EXPECT_LT(final_loss, 0.3f);
  Tensor logits = encoder.Forward(x, edges);
  int correct = 0;
  for (int64_t i = 0; i < 10; ++i) {
    int64_t pred = logits.at(i, 0) > logits.at(i, 1) ? 0 : 1;
    correct += pred == labels[static_cast<size_t>(i)] ? 1 : 0;
  }
  EXPECT_GE(correct, 9);
}

TEST(GatLayerTest, FusedInferencePathMatchesOpPathBitwise) {
  // With grad recording off, Forward takes the fused gather/scale/scatter
  // kernels; the result must be bit-for-bit the autograd op-path output.
  Rng rng(21);
  GatLayer layer(8, 4, 2, /*concat_heads=*/true, Activation::kElu, rng);
  Tensor x = Tensor::Randn({12, 8}, rng);
  EdgeList edges = PathGraph(12);
  Tensor op_path = layer.Forward(x, edges);
  Tensor fused;
  {
    tensor::NoGradGuard guard;
    fused = layer.Forward(x, edges);
  }
  ASSERT_EQ(op_path.numel(), fused.numel());
  for (int64_t i = 0; i < op_path.numel(); ++i) {
    EXPECT_EQ(op_path.data()[static_cast<size_t>(i)],
              fused.data()[static_cast<size_t>(i)])
        << i;
  }
}

TEST(GatLayerTest, FusedUniformAttentionMatchesOpPathBitwise) {
  Rng rng(22);
  GatLayer layer(8, 4, 2, /*concat_heads=*/true, Activation::kElu, rng, 0.2f,
                 /*add_self_loops=*/true, /*residual=*/true,
                 /*use_attention=*/false);
  Tensor x = Tensor::Randn({10, 8}, rng);
  EdgeList edges = PathGraph(10);
  Tensor op_path = layer.Forward(x, edges);
  Tensor fused;
  {
    tensor::NoGradGuard guard;
    fused = layer.Forward(x, edges);
  }
  for (int64_t i = 0; i < op_path.numel(); ++i) {
    EXPECT_EQ(op_path.data()[static_cast<size_t>(i)],
              fused.data()[static_cast<size_t>(i)])
        << i;
  }
}

TEST(GatLayerTest, ForwardBitwiseInvariantToThreadCount) {
  // Sized so the fused projection ([4096 x 64] x [64 x 256], 2^26
  // multiply-adds) splits across the pool under the 2^20 multiply-add chunk
  // floor; the region count is asserted so a floor change cannot quietly
  // turn this into a serial-vs-serial comparison.
  constexpr int64_t kRows = 4096;
  Rng rng(23);
  GatLayer layer(64, 64, 4, /*concat_heads=*/true, Activation::kElu, rng);
  Tensor x = Tensor::Randn({kRows, 64}, rng);
  EdgeList edges = PathGraph(kRows);
  size_t saved = GetParallelThreads();
  SetParallelThreads(1);
  Tensor one = layer.Forward(x, edges);
  SetParallelThreads(4);
  uint64_t regions_before = GetParallelPoolStats().regions;
  Tensor four = layer.Forward(x, edges);
  uint64_t regions_after = GetParallelPoolStats().regions;
  SetParallelThreads(saved);
  EXPECT_GT(regions_after, regions_before);
  ASSERT_EQ(one.numel(), four.numel());
  for (int64_t i = 0; i < one.numel(); ++i) {
    ASSERT_EQ(std::bit_cast<uint32_t>(one.data()[static_cast<size_t>(i)]),
              std::bit_cast<uint32_t>(four.data()[static_cast<size_t>(i)]))
        << i;
  }
}

}  // namespace
}  // namespace sarn::nn
