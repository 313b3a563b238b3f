// Tests of receptive-field training steps (DESIGN.md §17).
//
// On a random graph with an isolated vertex and repeated edges:
//  * the builder's rows and edges equal a brute-force L-hop in-neighbourhood,
//    with the view's edge order kept and the self-loops last;
//  * the restricted GatLayer/RfnLayer (and two-layer encoders) give the
//    output rows, parameter gradients and input gradients of the full-graph
//    layer bit for bit, at 1 and 4 threads;
//  * the premise holds: full-graph input gradients outside the halo are
//    exactly zero;
//  * the all-rows case reproduces the full-graph forward and backward of the
//    tree before receptive-field steps (digests recorded from it).

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "common/rng.h"
#include "core/receptive_field.h"
#include "nn/gat.h"
#include "nn/rfn.h"
#include "tensor/ops.h"

namespace sarn::core {
namespace {

using tensor::Tensor;

constexpr int64_t kVertices = 48;  // Vertex kVertices - 1 has no edges.
constexpr int64_t kInDim = 6;

// A view shaped like AugmentGraph's: topological edges, then both
// directions of each spatial pair. Some edges repeat.
GraphView RandomView(uint64_t seed) {
  Rng rng(seed);
  GraphView view;
  const int64_t last = kVertices - 2;  // Keep the isolated vertex isolated.
  for (int i = 0; i < 70; ++i) {
    int64_t a = rng.UniformInt(0, last);
    int64_t b = rng.UniformInt(0, last);
    int copies = rng.Bernoulli(0.15) ? 2 : 1;
    for (int c = 0; c < copies; ++c) {
      view.edges.Add(a, b);
      ++view.surviving_topo;
    }
  }
  for (int i = 0; i < 25; ++i) {
    int64_t a = rng.UniformInt(0, last);
    int64_t b = rng.UniformInt(0, last);
    int copies = rng.Bernoulli(0.15) ? 2 : 1;
    for (int c = 0; c < copies; ++c) {
      view.edges.Add(a, b);
      view.edges.Add(b, a);
      ++view.surviving_spatial;
    }
  }
  return view;
}

// The view's topological and spatial relations as two separate lists: its
// edges split at surviving_topo.
std::pair<nn::EdgeList, nn::EdgeList> SplitRelations(const GraphView& view) {
  std::pair<nn::EdgeList, nn::EdgeList> relations;
  for (size_t e = 0; e < view.edges.size(); ++e) {
    nn::EdgeList& list = static_cast<int64_t>(e) < view.surviving_topo
                             ? relations.first
                             : relations.second;
    list.Add(view.edges.src[e], view.edges.dst[e]);
  }
  return relations;
}

// One feature column of ids 0..n-1 (the builder gathers it for R_0).
std::vector<std::vector<int64_t>> IdentityIds() {
  std::vector<int64_t> ids(kVertices);
  for (int64_t v = 0; v < kVertices; ++v) ids[static_cast<size_t>(v)] = v;
  return {ids};
}

// A batch that includes the isolated vertex and is not sorted.
std::vector<int64_t> RandomBatch(uint64_t seed, size_t size) {
  Rng rng(seed);
  std::vector<int64_t> order(kVertices);
  for (int64_t v = 0; v < kVertices; ++v) order[static_cast<size_t>(v)] = v;
  rng.Shuffle(order);
  order.resize(size);
  if (std::find(order.begin(), order.end(), kVertices - 1) == order.end()) {
    order.back() = kVertices - 1;
  }
  return order;
}

// The rows of a row-major [n, d] buffer at `rows`, as a flat vector.
std::vector<float> GatherRows(const tensor::Storage& s, int64_t d,
                              const std::vector<int64_t>& rows) {
  std::vector<float> out;
  for (int64_t r : rows) {
    out.insert(out.end(), s.data() + r * d, s.data() + (r + 1) * d);
  }
  return out;
}

bool BitsEqual(const std::vector<float>& a, const tensor::Storage& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

// --- Builder vs brute force ----------------------------------------------------

// R_L = sorted batch; R_l = R_{l+1} ∪ sources of edges into R_{l+1}.
std::vector<std::vector<int64_t>> BruteForceRows(const std::vector<nn::EdgeList>& lists,
                                                 const std::vector<int64_t>& batch,
                                                 int layers) {
  std::vector<std::vector<int64_t>> rows(static_cast<size_t>(layers) + 1);
  rows.back() = batch;
  std::sort(rows.back().begin(), rows.back().end());
  for (int l = layers - 1; l >= 0; --l) {
    const std::vector<int64_t>& out = rows[static_cast<size_t>(l) + 1];
    std::vector<int64_t> in = out;
    for (const nn::EdgeList& list : lists) {
      for (size_t e = 0; e < list.size(); ++e) {
        if (std::binary_search(out.begin(), out.end(), list.dst[e])) {
          in.push_back(list.src[e]);
        }
      }
    }
    std::sort(in.begin(), in.end());
    in.erase(std::unique(in.begin(), in.end()), in.end());
    rows[static_cast<size_t>(l)] = in;
  }
  return rows;
}

int64_t IndexOf(const std::vector<int64_t>& sorted, int64_t v) {
  return std::lower_bound(sorted.begin(), sorted.end(), v) - sorted.begin();
}

void ExpectEdgesMatch(const nn::EdgeList& list, const std::vector<int64_t>& in,
                      const std::vector<int64_t>& out, const nn::LayerEdges& got) {
  std::vector<int64_t> src, dst_in, dst_out;
  for (size_t e = 0; e < list.size(); ++e) {
    if (!std::binary_search(out.begin(), out.end(), list.dst[e])) continue;
    src.push_back(IndexOf(in, list.src[e]));
    dst_in.push_back(IndexOf(in, list.dst[e]));
    dst_out.push_back(IndexOf(out, list.dst[e]));
  }
  EXPECT_EQ(std::vector<int64_t>(got.src.begin(), got.src.end()), src);
  EXPECT_EQ(std::vector<int64_t>(got.dst_in.begin(), got.dst_in.end()), dst_in);
  EXPECT_EQ(std::vector<int64_t>(got.dst_out.begin(), got.dst_out.end()), dst_out);
  EXPECT_EQ(got.present, list.size() > 0);
}

TEST(ReceptiveFieldBuilder, MatchesBruteForceHalo) {
  const GraphView view = RandomView(1);
  const auto ids = IdentityIds();
  const nn::EdgeList& with_loops = view.edges.WithSelfLoops(kVertices);
  const auto [topo, spatial] = SplitRelations(view);
  const std::vector<nn::EdgeList> lists = {with_loops, topo, spatial};
  for (int layers : {1, 2, 3}) {
    ReceptiveField field;
    field.Bind(view, ids, kVertices, layers);
    // Restrict repeatedly on one binding: stale marks must not leak.
    for (uint64_t seed = 0; seed < 6; ++seed) {
      SCOPED_TRACE("layers=" + std::to_string(layers) + " seed=" + std::to_string(seed));
      const std::vector<int64_t> batch = RandomBatch(seed, 3 + 2 * seed);
      field.Restrict(batch);
      ASSERT_FALSE(field.all_rows());
      const auto rows = BruteForceRows(lists, batch, layers);
      for (int d = 0; d <= layers; ++d) {
        EXPECT_EQ(field.rows(d), static_cast<int64_t>(rows[static_cast<size_t>(d)].size()));
      }
      EXPECT_EQ(field.input_ids()[0], rows[0]);
      const std::vector<int64_t>& batch_rows = field.BatchRows(batch);
      ASSERT_EQ(batch_rows.size(), batch.size());
      for (size_t i = 0; i < batch.size(); ++i) {
        EXPECT_EQ(rows.back()[static_cast<size_t>(batch_rows[i])], batch[i]);
      }
      for (int l = 0; l < layers; ++l) {
        const std::vector<int64_t>& in = rows[static_cast<size_t>(l)];
        const std::vector<int64_t>& out = rows[static_cast<size_t>(l) + 1];
        const nn::LayerGraph& layer = field.layers()[static_cast<size_t>(l)];
        EXPECT_EQ(layer.num_in, static_cast<int64_t>(in.size()));
        EXPECT_EQ(layer.num_out, static_cast<int64_t>(out.size()));
        ASSERT_NE(layer.out_rows, nullptr);
        for (size_t j = 0; j < out.size(); ++j) {
          EXPECT_EQ(in[static_cast<size_t>((*layer.out_rows)[j])], out[j]);
        }
        ExpectEdgesMatch(with_loops, in, out, layer.edges);
        ExpectEdgesMatch(topo, in, out, layer.topo);
        ExpectEdgesMatch(spatial, in, out, layer.spatial);
        // The relations are consecutive ranges at the front of layer.edges.
        EXPECT_EQ(layer.topo.src.data(), layer.edges.src.data());
        EXPECT_EQ(layer.spatial.dst_out.data(),
                  layer.edges.dst_out.data() + layer.topo.size());
        EXPECT_EQ(field.edges(l), static_cast<int64_t>(layer.edges.size()));
        // The self-loops of R_{l+1} close the list, in row order.
        const size_t e_count = layer.edges.size();
        ASSERT_GE(e_count, out.size());
        for (size_t j = 0; j < out.size(); ++j) {
          size_t e = e_count - out.size() + j;
          EXPECT_EQ(layer.edges.dst_out[e], static_cast<int64_t>(j));
          EXPECT_EQ(layer.edges.src[e], (*layer.out_rows)[j]);
        }
      }
    }
  }
}

TEST(ReceptiveFieldBuilder, AllRowsBorrowsTheView) {
  const GraphView view = RandomView(2);
  const auto ids = IdentityIds();
  ReceptiveField field;
  field.Bind(view, ids, kVertices, 2);
  field.Restrict(RandomBatch(3, 5));
  field.SelectAll();
  ASSERT_TRUE(field.all_rows());
  const std::vector<int64_t> batch = RandomBatch(4, 5);
  EXPECT_EQ(&field.BatchRows(batch), &batch);
  EXPECT_EQ(&field.input_ids(), &ids);
  for (const nn::LayerGraph& layer : field.layers()) {
    EXPECT_EQ(layer.num_in, kVertices);
    EXPECT_EQ(layer.num_out, kVertices);
    EXPECT_EQ(layer.out_rows, nullptr);
    const nn::EdgeList& with_loops = view.edges.WithSelfLoops(kVertices);
    EXPECT_EQ(layer.edges.src.data(), with_loops.src.data());
    EXPECT_EQ(layer.edges.size(), with_loops.size());
    EXPECT_EQ(layer.topo.src.data(), with_loops.src.data());
    EXPECT_EQ(static_cast<int64_t>(layer.topo.size()), view.surviving_topo);
    EXPECT_EQ(layer.spatial.dst_out.data(), with_loops.dst.data() + view.surviving_topo);
    EXPECT_EQ(static_cast<int64_t>(layer.spatial.size()), 2 * view.surviving_spatial);
  }
  EXPECT_EQ(field.rows(0), kVertices);
  EXPECT_EQ(field.edges(1),
            static_cast<int64_t>(view.edges.size()) + kVertices);
}

// --- Restricted layers vs the full-graph layer ---------------------------------

// A forward under test: maps input rows to output rows over one layer graph
// list (restricted) or the whole view (full).
struct Forwards {
  std::function<Tensor(const Tensor&, const GraphView&)> full;
  std::function<Tensor(const Tensor&, std::span<const nn::LayerGraph>)> restricted;
  std::vector<Tensor> parameters;
  int layers = 1;
};

// Runs the full-graph forward and the restricted one on the same values, each
// with a loss that reads only the batch rows, and compares every output row,
// parameter gradient and input gradient bit for bit.
void ExpectRestrictedMatchesFull(const Forwards& f, size_t threads, uint64_t seed) {
  size_t saved = GetParallelThreads();
  SetParallelThreads(threads);
  const GraphView view = RandomView(10 + seed);
  const auto ids = IdentityIds();
  const std::vector<int64_t> batch = RandomBatch(20 + seed, 6);
  ReceptiveField field;
  field.Bind(view, ids, kVertices, f.layers);
  field.Restrict(batch);
  const std::vector<int64_t>& in_rows = field.input_ids()[0];
  std::vector<int64_t> out_rows = batch;
  std::sort(out_rows.begin(), out_rows.end());

  Rng rng(30 + seed);
  const Tensor x_values = Tensor::Randn({kVertices, kInDim}, rng);
  Tensor x_full = x_values.Detach();
  x_full.RequiresGrad(true);
  Tensor y_full = f.full(x_full, view);
  const int64_t d = y_full.shape()[1];
  const Tensor weights =
      Tensor::Randn({static_cast<int64_t>(out_rows.size()), d}, rng);
  for (Tensor p : f.parameters) p.ZeroGrad();
  tensor::Sum(tensor::Mul(tensor::Rows(y_full, out_rows), weights)).Backward();
  std::vector<std::vector<float>> full_grads;
  for (const Tensor& p : f.parameters) full_grads.push_back(p.grad().ToVector());

  Tensor x_sub = tensor::Rows(x_values, in_rows).Detach();
  x_sub.RequiresGrad(true);
  Tensor y_sub = f.restricted(x_sub, field.layers());
  for (Tensor p : f.parameters) p.ZeroGrad();
  tensor::Sum(tensor::Mul(y_sub, weights)).Backward();

  EXPECT_TRUE(BitsEqual(GatherRows(y_full.data(), d, out_rows), y_sub.data()))
      << "output rows differ";
  for (size_t i = 0; i < f.parameters.size(); ++i) {
    EXPECT_TRUE(BitsEqual(full_grads[i], f.parameters[i].grad()))
        << "parameter " << i << " gradient differs";
  }
  EXPECT_TRUE(BitsEqual(GatherRows(x_full.grad(), kInDim, in_rows), x_sub.grad()))
      << "input gradient differs";
  // The premise: rows outside the halo get an exact zero gradient.
  for (int64_t v = 0; v < kVertices; ++v) {
    if (std::binary_search(in_rows.begin(), in_rows.end(), v)) continue;
    for (int64_t j = 0; j < kInDim; ++j) {
      ASSERT_EQ(x_full.grad()[static_cast<size_t>(v * kInDim + j)], 0.0f)
          << "vertex " << v << " is outside the halo";
    }
  }
  SetParallelThreads(saved);
}

class RestrictedLayerTest : public testing::TestWithParam<size_t> {};

TEST_P(RestrictedLayerTest, GatLayerConcatHeadsMatchesFullGraph) {
  Rng rng(5);
  nn::GatLayer layer(kInDim, 3, 2, /*concat_heads=*/true, nn::Activation::kElu, rng);
  Forwards f;
  f.full = [&](const Tensor& x, const GraphView& v) { return layer.Forward(x, v.edges); };
  f.restricted = [&](const Tensor& x, std::span<const nn::LayerGraph> g) {
    return layer.Forward(x, g[0]);
  };
  f.parameters = layer.Parameters();
  for (uint64_t seed = 0; seed < 3; ++seed) ExpectRestrictedMatchesFull(f, GetParam(), seed);
}

TEST_P(RestrictedLayerTest, GatLayerUniformMeanHeadsMatchesFullGraph) {
  Rng rng(6);
  nn::GatLayer layer(kInDim, 4, 3, /*concat_heads=*/false, nn::Activation::kNone, rng,
                     0.2f, /*add_self_loops=*/true, /*residual=*/true,
                     /*use_attention=*/false);
  Forwards f;
  f.full = [&](const Tensor& x, const GraphView& v) { return layer.Forward(x, v.edges); };
  f.restricted = [&](const Tensor& x, std::span<const nn::LayerGraph> g) {
    return layer.Forward(x, g[0]);
  };
  f.parameters = layer.Parameters();
  for (uint64_t seed = 0; seed < 3; ++seed) ExpectRestrictedMatchesFull(f, GetParam(), seed);
}

TEST_P(RestrictedLayerTest, RfnLayerMatchesFullGraph) {
  Rng rng(7);
  nn::RfnLayer layer(kInDim, 5, nn::Activation::kElu, rng);
  Forwards f;
  f.full = [&](const Tensor& x, const GraphView& v) {
    return layer.Forward(x, v.edges, static_cast<size_t>(v.surviving_topo));
  };
  f.restricted = [&](const Tensor& x, std::span<const nn::LayerGraph> g) {
    return layer.Forward(x, g[0]);
  };
  f.parameters = layer.Parameters();
  for (uint64_t seed = 0; seed < 3; ++seed) ExpectRestrictedMatchesFull(f, GetParam(), seed);
}

TEST_P(RestrictedLayerTest, TwoLayerGatEncoderMatchesFullGraph) {
  Rng rng(8);
  nn::GatEncoder encoder(kInDim, 8, 4, /*num_layers=*/2, /*num_heads=*/2, rng);
  Forwards f;
  f.full = [&](const Tensor& x, const GraphView& v) { return encoder.Forward(x, v.edges); };
  f.restricted = [&](const Tensor& x, std::span<const nn::LayerGraph> g) {
    return encoder.Forward(x, g);
  };
  f.parameters = encoder.Parameters();
  f.layers = 2;
  for (uint64_t seed = 0; seed < 3; ++seed) ExpectRestrictedMatchesFull(f, GetParam(), seed);
}

TEST_P(RestrictedLayerTest, TwoLayerRfnEncoderMatchesFullGraph) {
  Rng rng(9);
  nn::RfnEncoder encoder(kInDim, 8, 4, /*num_layers=*/2, rng);
  Forwards f;
  f.full = [&](const Tensor& x, const GraphView& v) {
    return encoder.Forward(x, v.edges, static_cast<size_t>(v.surviving_topo));
  };
  f.restricted = [&](const Tensor& x, std::span<const nn::LayerGraph> g) {
    return encoder.Forward(x, g);
  };
  f.parameters = encoder.Parameters();
  f.layers = 2;
  for (uint64_t seed = 0; seed < 3; ++seed) ExpectRestrictedMatchesFull(f, GetParam(), seed);
}

INSTANTIATE_TEST_SUITE_P(Threads, RestrictedLayerTest,
                         testing::Values(size_t{1}, size_t{4}),
                         [](const auto& info) {
                           return "threads" + std::to_string(info.param);
                         });

// A relation present in the view but with no edge into the batch still runs
// its (all-zero) term, exactly as the full-graph layer does.
TEST(RestrictedLayer, RfnBatchOfTheIsolatedVertexMatchesFullGraph) {
  Rng rng(11);
  nn::RfnLayer layer(kInDim, 5, nn::Activation::kElu, rng);
  const GraphView view = RandomView(12);
  const auto ids = IdentityIds();
  ReceptiveField field;
  field.Bind(view, ids, kVertices, 1);
  const std::vector<int64_t> batch = {kVertices - 1};
  field.Restrict(batch);
  ASSERT_EQ(field.rows(0), 1);
  ASSERT_EQ(field.layers()[0].topo.size(), 0u);
  ASSERT_TRUE(field.layers()[0].topo.present);

  const Tensor x = Tensor::Randn({kVertices, kInDim}, rng);
  Tensor full = layer.Forward(x, view.edges, static_cast<size_t>(view.surviving_topo));
  Tensor sub = layer.Forward(tensor::Rows(x, batch), field.layers()[0]);
  EXPECT_TRUE(BitsEqual(GatherRows(full.data(), full.shape()[1], batch), sub.data()));
}

// --- All rows: the full-graph forward of the tree before this change ------------

uint64_t Digest(const tensor::Storage& s, uint64_t h = 0xcbf29ce484222325ull) {
  for (size_t i = 0; i < s.size(); ++i) {
    uint32_t bits;
    std::memcpy(&bits, s.data() + i, sizeof(bits));
    for (int shift = 0; shift < 32; shift += 8) {
      h ^= (bits >> shift) & 0xffu;
      h *= 0x100000001b3ull;
    }
  }
  return h;
}

// Output, input-gradient and parameter-gradient digest of one full-graph
// forward + backward through the EdgeList entry points.
template <typename Module, typename Run>
uint64_t AllRowsDigest(const Module& module, Run run, uint64_t seed) {
  const GraphView view = RandomView(40 + seed);
  Rng rng(50 + seed);
  Tensor x = Tensor::Randn({kVertices, kInDim}, rng);
  x.RequiresGrad(true);
  for (Tensor p : module.Parameters()) p.ZeroGrad();
  Tensor y = run(x, view);
  const Tensor weights = Tensor::Randn(y.shape(), rng);
  tensor::Sum(tensor::Mul(y, weights)).Backward();
  uint64_t h = Digest(x.grad(), Digest(y.data()));
  for (const Tensor& p : module.Parameters()) h = Digest(p.grad(), h);
  return h;
}

TEST(AllRows, MatchesTheFullGraphForwardBeforeReceptiveFieldSteps) {
  Rng rng(60);
  nn::GatEncoder gat(kInDim, 8, 4, 2, 2, rng);
  nn::RfnEncoder rfn(kInDim, 8, 4, 2, rng);
  const uint64_t gat_digest = AllRowsDigest(
      gat, [&](const Tensor& x, const GraphView& v) { return gat.Forward(x, v.edges); }, 0);
  const uint64_t rfn_digest = AllRowsDigest(
      rfn,
      [&](const Tensor& x, const GraphView& v) {
        return rfn.Forward(x, v.edges, static_cast<size_t>(v.surviving_topo));
      },
      1);
  EXPECT_EQ(gat_digest, 0x618e591069756a5full) << std::hex << gat_digest;
  EXPECT_EQ(rfn_digest, 0x6e899442392e111eull) << std::hex << rfn_digest;
}

}  // namespace
}  // namespace sarn::core
