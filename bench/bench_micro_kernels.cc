// Micro-benchmarks (google-benchmark) for the hot kernels behind the
// reproduction: tensor ops, GAT forward/backward, Dijkstra, Fréchet, A^s
// construction, graph augmentation and the negative-sampling queues.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "core/augmentation.h"
#include "core/negative_queue.h"
#include "core/spatial_similarity.h"
#include "graph/dijkstra.h"
#include "nn/gat.h"
#include "roadnet/features.h"
#include "roadnet/synthetic_city.h"
#include "tasks/embedding_index.h"
#include "tensor/matmul_kernels.h"
#include "tensor/ops.h"
#include "tensor/optimizer.h"
#include "tensor/simd/simd.h"
#include "traj/frechet.h"

namespace sarn {

// Heap allocations since process start, counted by the operator new
// replacements in heap_alloc_count.cc.
uint64_t HeapAllocCount();

namespace {

/// Pins the parallel thread count for the duration of one benchmark.
class ThreadPin {
 public:
  explicit ThreadPin(size_t threads) : previous_(GetParallelThreads()) {
    SetParallelThreads(threads);
  }
  ~ThreadPin() { SetParallelThreads(previous_); }

 private:
  size_t previous_;
};

const roadnet::RoadNetwork& TestNetwork() {
  static const roadnet::RoadNetwork& network = *new roadnet::RoadNetwork([] {
    roadnet::SyntheticCityConfig config;
    config.rows = 20;
    config.cols = 20;
    return roadnet::GenerateSyntheticCity(config);
  }());
  return network;
}

// --- Parallel runtime dispatch ----------------------------------------------
// Latency of handing an (almost) empty body to the persistent pool, vs the
// seed implementation's spawn-and-join-per-call strategy. Run with 4 logical
// threads regardless of the host so the two are comparable.

void BM_ParallelForDispatch(benchmark::State& state) {
  ThreadPin pin(4);
  std::vector<float> sink(4096, 1.0f);
  for (auto _ : state) {
    ParallelFor(
        sink.size(),
        [&](size_t begin, size_t end) {
          for (size_t i = begin; i < end; ++i) sink[i] += 1.0f;
        },
        /*grain=*/1);
    benchmark::DoNotOptimize(sink.data());
  }
}
BENCHMARK(BM_ParallelForDispatch);

void BM_SpawnJoinDispatch(benchmark::State& state) {
  // What ParallelFor cost before the persistent pool: fresh std::threads per
  // invocation (the seed's implementation, reproduced verbatim).
  std::vector<float> sink(4096, 1.0f);
  const size_t threads = 4;
  for (auto _ : state) {
    size_t n = sink.size();
    size_t chunk = (n + threads - 1) / threads;
    std::vector<std::thread> workers;
    workers.reserve(threads);
    for (size_t t = 0; t < threads; ++t) {
      size_t begin = t * chunk;
      size_t end = std::min(n, begin + chunk);
      if (begin >= end) break;
      workers.emplace_back([&sink, begin, end] {
        for (size_t i = begin; i < end; ++i) sink[i] += 1.0f;
      });
    }
    for (auto& worker : workers) worker.join();
    benchmark::DoNotOptimize(sink.data());
  }
}
BENCHMARK(BM_SpawnJoinDispatch);

// --- MatMul kernels ---------------------------------------------------------
// Raw kernel comparison (no autograd/tensor overhead): the seed's naive
// i/k/j loops vs the register-tiled kernels that replaced them, and the
// AVX2 kernels on the GEMMs of a train-city step, at its receptive-field
// sizes (about 1345 rows at layer 0, 538 at layer 1, 124 at the head): the
// projections [1345x84]·[84x64], [538x84]·[84x64], [538x64]·[64x256] and
// [124x64]·[64x32], each forward, dA and dB; and the attention-score GEMMs
// ([rows, F] x [F, 1] per head, forward and dB), which the blocked kernels
// run as scalar edge tiles and AVX2 as its row-lane narrow path. k = 84
// leaves a 4-column remainder, which dA runs on masked lanes. Args: m, k, n
// of C[m, n] = A[m, k] * B[k, n].

// Skips an AVX2-kernel row on a host without AVX2.
bool SkipWithoutAvx2(benchmark::State& state, bool needs_avx2) {
#if defined(SARN_HAVE_AVX2_KERNELS)
  if (!needs_avx2 || tensor::kernels::MatMulAvx2Supported()) return false;
#else
  if (!needs_avx2) return false;
#endif
  state.SkipWithError("host lacks AVX2");
  return true;
}

template <void (*Kernel)(const float*, const float*, float*, int64_t, int64_t,
                         int64_t, int64_t),
          bool kNeedsAvx2 = false>
void BM_MatMulKernel(benchmark::State& state) {
  if (SkipWithoutAvx2(state, kNeedsAvx2)) return;
  const int64_t m = state.range(0), k = state.range(1), n = state.range(2);
  Rng rng(1);
  tensor::Tensor a = tensor::Tensor::Randn({m, k}, rng);
  tensor::Tensor b = tensor::Tensor::Randn({k, n}, rng);
  std::vector<float> c(static_cast<size_t>(m * n), 0.0f);
  for (auto _ : state) {
    Kernel(a.data().data(), b.data().data(), c.data(), 0, m, k, n);
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * m * k * n);
}
BENCHMARK(BM_MatMulKernel<tensor::kernels::MatMulNaive>)
    ->Name("BM_MatMulKernelNaive")
    ->ArgNames({"m", "k", "n"})
    ->Args({64, 64, 64})
    ->Args({256, 256, 256})
    ->Args({512, 512, 512});
BENCHMARK(BM_MatMulKernel<tensor::kernels::MatMulBlockedInit>)
    ->Name("BM_MatMulKernelBlockedInit")
    ->ArgNames({"m", "k", "n"})
    ->Args({64, 64, 64})
    ->Args({256, 256, 256})
    ->Args({512, 512, 512})
    ->Args({1345, 16, 1})
    ->Args({538, 64, 1});
#if defined(SARN_HAVE_AVX2_KERNELS)
// The train-step GEMM shapes, shared by the AVX2 forward, dA and dB rows.
void TrainStepShapes(benchmark::internal::Benchmark* bench) {
  bench->ArgNames({"m", "k", "n"})
      ->Args({1345, 84, 64})
      ->Args({538, 84, 64})
      ->Args({538, 64, 256})
      ->Args({124, 64, 32});
}

BENCHMARK(BM_MatMulKernel<tensor::kernels::MatMulInitAvx2, true>)
    ->Name("BM_MatMulKernelInitAvx2")
    ->Apply(TrainStepShapes)
    ->Args({1345, 16, 1})
    ->Args({538, 64, 1});

// dA[m, k] += G[m, n] * B^T through the pre-transposed B^T ([n, k]) that
// MatMul builds for the AVX2 kernel. Args: m, k, n.
void BM_MatMulGradATKernelAvx2(benchmark::State& state) {
  if (SkipWithoutAvx2(state, true)) return;
  const int64_t m = state.range(0), k = state.range(1), n = state.range(2);
  Rng rng(1);
  tensor::Tensor g = tensor::Tensor::Randn({m, n}, rng);
  tensor::Tensor bt = tensor::Tensor::Randn({n, k}, rng);
  std::vector<float> da(static_cast<size_t>(m * k), 0.0f);
  for (auto _ : state) {
    tensor::kernels::MatMulGradATAvx2(g.data().data(), bt.data().data(), da.data(), 0,
                                      m, k, n);
    benchmark::DoNotOptimize(da.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * m * k * n);
}
BENCHMARK(BM_MatMulGradATKernelAvx2)->Apply(TrainStepShapes);
#endif

template <void (*Kernel)(const float*, const float*, float*, int64_t, int64_t,
                         int64_t, int64_t)>
void BM_MatMulGradAKernel(benchmark::State& state) {
  int64_t n = state.range(0);
  Rng rng(1);
  tensor::Tensor g = tensor::Tensor::Randn({n, n}, rng);
  tensor::Tensor b = tensor::Tensor::Randn({n, n}, rng);
  std::vector<float> da(static_cast<size_t>(n * n), 0.0f);
  for (auto _ : state) {
    Kernel(g.data().data(), b.data().data(), da.data(), 0, n, n, n);
    benchmark::DoNotOptimize(da.data());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_MatMulGradAKernel<tensor::kernels::MatMulGradANaive>)
    ->Name("BM_MatMulGradAKernelNaive")
    ->Arg(256);
BENCHMARK(BM_MatMulGradAKernel<tensor::kernels::MatMulGradABlocked>)
    ->Name("BM_MatMulGradAKernelBlocked")
    ->Arg(256);

// dB[k, n] += A[m, k]^T * G[m, n]. Args: m, k, n.
template <void (*Kernel)(const float*, const float*, float*, int64_t, int64_t,
                         int64_t, int64_t, int64_t),
          bool kNeedsAvx2 = false>
void BM_MatMulGradBKernel(benchmark::State& state) {
  if (SkipWithoutAvx2(state, kNeedsAvx2)) return;
  const int64_t m = state.range(0), k = state.range(1), n = state.range(2);
  Rng rng(1);
  tensor::Tensor a = tensor::Tensor::Randn({m, k}, rng);
  tensor::Tensor g = tensor::Tensor::Randn({m, n}, rng);
  std::vector<float> db(static_cast<size_t>(k * n), 0.0f);
  for (auto _ : state) {
    Kernel(a.data().data(), g.data().data(), db.data(), 0, k, m, k, n);
    benchmark::DoNotOptimize(db.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * m * k * n);
}
BENCHMARK(BM_MatMulGradBKernel<tensor::kernels::MatMulGradBNaive>)
    ->Name("BM_MatMulGradBKernelNaive")
    ->ArgNames({"m", "k", "n"})
    ->Args({256, 256, 256});
BENCHMARK(BM_MatMulGradBKernel<tensor::kernels::MatMulGradBBlocked>)
    ->Name("BM_MatMulGradBKernelBlocked")
    ->ArgNames({"m", "k", "n"})
    ->Args({256, 256, 256})
    ->Args({1345, 16, 1})
    ->Args({538, 64, 1});
#if defined(SARN_HAVE_AVX2_KERNELS)
BENCHMARK(BM_MatMulGradBKernel<tensor::kernels::MatMulGradBAvx2, true>)
    ->Name("BM_MatMulGradBKernelAvx2")
    ->Apply(TrainStepShapes)
    ->Args({1345, 16, 1})
    ->Args({538, 64, 1});
#endif

void BM_MatMul(benchmark::State& state) {
  int64_t n = state.range(0);
  Rng rng(1);
  tensor::Tensor a = tensor::Tensor::Randn({n, n}, rng);
  tensor::Tensor b = tensor::Tensor::Randn({n, n}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::MatMul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_MatMul)->Arg(64)->Arg(128)->Arg(256);

void BM_MatMulBackward(benchmark::State& state) {
  int64_t n = state.range(0);
  Rng rng(1);
  tensor::Tensor a = tensor::Tensor::Randn({n, n}, rng).RequiresGrad();
  tensor::Tensor b = tensor::Tensor::Randn({n, n}, rng).RequiresGrad();
  for (auto _ : state) {
    tensor::Tensor loss = tensor::Sum(tensor::MatMul(a, b));
    loss.Backward();
    a.ZeroGrad();
    b.ZeroGrad();
  }
}
BENCHMARK(BM_MatMulBackward)->Arg(64)->Arg(128);

void BM_GatForward(benchmark::State& state) {
  const roadnet::RoadNetwork& network = TestNetwork();
  Rng rng(2);
  nn::GatLayer layer(32, 16, 4, true, nn::Activation::kElu, rng);
  tensor::Tensor x = tensor::Tensor::Randn({network.num_segments(), 32}, rng);
  nn::EdgeList edges;
  for (const roadnet::TopoEdge& e : network.topo_edges()) edges.Add(e.from, e.to);
  tensor::NoGradGuard guard;
  for (auto _ : state) {
    benchmark::DoNotOptimize(layer.Forward(x, edges));
  }
  state.SetItemsProcessed(state.iterations() * network.num_segments());
}
BENCHMARK(BM_GatForward);

void BM_GatForwardPerHeadReference(benchmark::State& state) {
  // The seed's forward, reproduced from public ops: one matmul per head and
  // self-loop lists rebuilt on every call. Compare against BM_GatForward
  // (fused wide matmul + cached self loops) to measure the fusion win.
  const roadnet::RoadNetwork& network = TestNetwork();
  Rng rng(2);
  const int num_heads = 4;
  const int64_t in_dim = 32, head_dim = 16;
  std::vector<tensor::Tensor> weight, att_src, att_dst;
  for (int h = 0; h < num_heads; ++h) {
    weight.push_back(tensor::Tensor::GlorotUniform(in_dim, head_dim, rng));
    att_src.push_back(tensor::Tensor::GlorotUniform(head_dim, 1, rng));
    att_dst.push_back(tensor::Tensor::GlorotUniform(head_dim, 1, rng));
  }
  int64_t n = network.num_segments();
  tensor::Tensor x = tensor::Tensor::Randn({n, in_dim}, rng);
  nn::EdgeList edges;
  for (const roadnet::TopoEdge& e : network.topo_edges()) edges.Add(e.from, e.to);
  tensor::NoGradGuard guard;
  for (auto _ : state) {
    std::vector<int64_t> src = edges.src;
    std::vector<int64_t> dst = edges.dst;
    for (int64_t v = 0; v < n; ++v) {
      src.push_back(v);
      dst.push_back(v);
    }
    int64_t e_count = static_cast<int64_t>(src.size());
    std::vector<tensor::Tensor> heads;
    for (int h = 0; h < num_heads; ++h) {
      tensor::Tensor wx = tensor::MatMul(x, weight[h]);
      tensor::Tensor score_dst = tensor::MatMul(wx, att_dst[h]);
      tensor::Tensor score_src = tensor::MatMul(wx, att_src[h]);
      tensor::Tensor scores = tensor::LeakyRelu(
          tensor::Add(tensor::Rows(score_dst, dst), tensor::Rows(score_src, src)), 0.2f);
      tensor::Tensor alpha =
          tensor::EdgeSoftmax(tensor::Reshape(scores, {e_count}), dst, n);
      tensor::Tensor messages = tensor::ScaleRows(tensor::Rows(wx, src), alpha);
      heads.push_back(tensor::ScatterAddRows(messages, dst, n));
    }
    benchmark::DoNotOptimize(tensor::Elu(tensor::Concat(heads, 1)));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_GatForwardPerHeadReference);

void BM_GatEncoderForward(benchmark::State& state) {
  // Full 3-layer, 4-head encoder forward — the shape of the training hot
  // path (paper configuration, minus autograd).
  const roadnet::RoadNetwork& network = TestNetwork();
  Rng rng(2);
  nn::GatEncoder encoder(32, 64, 32, /*num_layers=*/3, /*num_heads=*/4, rng);
  tensor::Tensor x = tensor::Tensor::Randn({network.num_segments(), 32}, rng);
  nn::EdgeList edges;
  for (const roadnet::TopoEdge& e : network.topo_edges()) edges.Add(e.from, e.to);
  tensor::NoGradGuard guard;
  for (auto _ : state) {
    benchmark::DoNotOptimize(encoder.Forward(x, edges));
  }
  state.SetItemsProcessed(state.iterations() * network.num_segments());
}
BENCHMARK(BM_GatEncoderForward);

void BM_GatForwardBackward(benchmark::State& state) {
  const roadnet::RoadNetwork& network = TestNetwork();
  Rng rng(2);
  nn::GatLayer layer(32, 16, 4, true, nn::Activation::kElu, rng);
  tensor::Tensor x = tensor::Tensor::Randn({network.num_segments(), 32}, rng);
  nn::EdgeList edges;
  for (const roadnet::TopoEdge& e : network.topo_edges()) edges.Add(e.from, e.to);
  for (auto _ : state) {
    tensor::Tensor loss = tensor::Sum(layer.Forward(x, edges));
    loss.Backward();
  }
}
BENCHMARK(BM_GatForwardBackward);

// --- Steady-state training step ---------------------------------------------
// A full GAT train step (forward + loss + backward + Adam) over the synthetic
// network, shaped like the SARN hot loop. Reports wall latency plus
// allocations-per-step, the storage plane's target metric: before the pooled
// storage plane every op result heap-allocated its data/grad buffers and tape
// node; after it, steady-state steps recycle everything.

void BM_TrainStepSteadyState(benchmark::State& state) {
  ThreadPin pin(static_cast<size_t>(state.range(0)));
  const roadnet::RoadNetwork& network = TestNetwork();
  Rng rng(11);
  nn::GatLayer layer(32, 16, 4, true, nn::Activation::kElu, rng);
  tensor::Tensor x = tensor::Tensor::Randn({network.num_segments(), 32}, rng);
  nn::EdgeList edges;
  for (const roadnet::TopoEdge& e : network.topo_edges()) edges.Add(e.from, e.to);
  tensor::Adam optimizer(layer.Parameters(), 1e-3f);
  // Warm-up step so pools/caches are primed before measurement.
  auto step = [&] {
    optimizer.ZeroGrad();
    tensor::Tensor y = layer.Forward(x, edges);
    tensor::Tensor loss = tensor::Mean(tensor::Square(tensor::RowL2Normalize(y)));
    loss.Backward();
    optimizer.Step();
  };
  step();
  uint64_t allocs = 0;
  for (auto _ : state) {
    uint64_t before = HeapAllocCount();
    step();
    allocs += HeapAllocCount() - before;
  }
  state.counters["allocs_per_step"] = benchmark::Counter(
      static_cast<double>(allocs) / static_cast<double>(state.iterations()));
  state.SetItemsProcessed(state.iterations() * network.num_segments());
}
BENCHMARK(BM_TrainStepSteadyState)->Arg(1)->Arg(4);

// Steady-state serve batch: one EmbeddingIndex::QueryBatch of 16 by-id
// queries under NoGradGuard. Allocations-per-batch should be near zero once
// the query scratch comes from the pool (result vectors remain caller-owned).

void BM_ServeQueryBatchSteadyState(benchmark::State& state) {
  ThreadPin pin(static_cast<size_t>(state.range(0)));
  Rng rng(12);
  tensor::Tensor embeddings = tensor::Tensor::Randn({2000, 32}, rng);
  tasks::EmbeddingIndex index(embeddings, tasks::IndexMetric::kCosine);
  std::vector<tasks::IndexQuery> queries;
  for (int64_t i = 0; i < 16; ++i) {
    queries.push_back(tasks::IndexQuery::ById((i * 97) % index.size()));
  }
  tensor::NoGradGuard guard;
  benchmark::DoNotOptimize(index.QueryBatch(queries, 10));  // Warm-up.
  uint64_t allocs = 0;
  for (auto _ : state) {
    uint64_t before = HeapAllocCount();
    benchmark::DoNotOptimize(index.QueryBatch(queries, 10));
    allocs += HeapAllocCount() - before;
  }
  state.counters["allocs_per_batch"] = benchmark::Counter(
      static_cast<double>(allocs) / static_cast<double>(state.iterations()));
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(queries.size()));
}
BENCHMARK(BM_ServeQueryBatchSteadyState)->Arg(1)->Arg(4);

// --- SIMD scan kernels -------------------------------------------------------
// The runtime-dispatched scan kernels of src/tensor/simd/ (DESIGN.md §12):
// the vector tier of the host vs the bitwise-identical scalar fallback, and
// the int8 quantized variants vs their float counterparts. 2000 x 64 with a
// query block of 4 — the shape the fused EmbeddingIndex scan feeds them.

/// Forces a kernel tier for the duration of one benchmark.
class TierForce {
 public:
  explicit TierForce(tensor::simd::Tier tier)
      : previous_(tensor::simd::ActiveTier()) {
    tensor::simd::ForceTier(tier);
  }
  ~TierForce() { tensor::simd::ForceTier(previous_); }

 private:
  tensor::simd::Tier previous_;
};

constexpr int64_t kScanRows = 2000;
constexpr int64_t kScanDim = 64;
constexpr int kScanQn = tensor::simd::kMaxQueryBlock;

template <bool kVector>
void BM_SimdDotScan(benchmark::State& state) {
  TierForce tier(kVector ? tensor::simd::DetectTier()
                         : tensor::simd::Tier::kScalar);
  Rng rng(21);
  tensor::Tensor rows = tensor::Tensor::Randn({kScanRows, kScanDim}, rng);
  tensor::Tensor queries = tensor::Tensor::Randn({kScanQn, kScanDim}, rng);
  std::vector<float> out(kScanQn * kScanRows);
  for (auto _ : state) {
    tensor::simd::DotScan(queries.data().data(), kScanQn, rows.data().data(),
                          kScanRows, kScanDim, out.data(), kScanRows);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * kScanQn * kScanRows * kScanDim);
}
BENCHMARK(BM_SimdDotScan<false>)->Name("BM_DotScanScalar");
BENCHMARK(BM_SimdDotScan<true>)->Name("BM_DotScanSimd");

template <bool kVector>
void BM_SimdL1Scan(benchmark::State& state) {
  TierForce tier(kVector ? tensor::simd::DetectTier()
                         : tensor::simd::Tier::kScalar);
  Rng rng(22);
  tensor::Tensor rows = tensor::Tensor::Randn({kScanRows, kScanDim}, rng);
  tensor::Tensor queries = tensor::Tensor::Randn({kScanQn, kScanDim}, rng);
  std::vector<float> out(kScanQn * kScanRows);
  for (auto _ : state) {
    tensor::simd::L1Scan(queries.data().data(), kScanQn, rows.data().data(),
                         kScanRows, kScanDim, out.data(), kScanRows);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * kScanQn * kScanRows * kScanDim);
}
BENCHMARK(BM_SimdL1Scan<false>)->Name("BM_L1ScanScalar");
BENCHMARK(BM_SimdL1Scan<true>)->Name("BM_L1ScanSimd");

template <bool kVector>
void BM_SimdDotScanI8(benchmark::State& state) {
  TierForce tier(kVector ? tensor::simd::DetectTier()
                         : tensor::simd::Tier::kScalar);
  Rng rng(23);
  std::vector<int8_t> rows(kScanRows * kScanDim), queries(kScanQn * kScanDim);
  for (int8_t& v : rows) v = static_cast<int8_t>(rng.UniformInt(-127, 127));
  for (int8_t& v : queries) v = static_cast<int8_t>(rng.UniformInt(-127, 127));
  std::vector<float> row_scales(kScanRows, 0.01f), query_scales(kScanQn, 0.01f);
  std::vector<float> out(kScanQn * kScanRows);
  for (auto _ : state) {
    tensor::simd::DotScanI8(queries.data(), query_scales.data(), kScanQn,
                            rows.data(), row_scales.data(), kScanRows, kScanDim,
                            out.data(), kScanRows);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * kScanQn * kScanRows * kScanDim);
}
BENCHMARK(BM_SimdDotScanI8<false>)->Name("BM_DotScanI8Scalar");
BENCHMARK(BM_SimdDotScanI8<true>)->Name("BM_DotScanI8Simd");

// The int8 dot scan per query-block size, at the serve-scan shape: 40000
// rows streamed in the index's 1024-row tiles. qn = 4 is the block kernel
// every full block of a batch runs; qn = 1..3 are the tail queries, each
// scanned one query against four rows at a time. d = 24 runs the 16- and
// 8-byte tail steps, d = 64 only whole 32-byte steps. The counter is
// seconds per (query, row) pair, so the rows compare across qn directly.
void BM_DotScanI8PerQn(benchmark::State& state) {
  const int qn = static_cast<int>(state.range(0));
  const int64_t d = state.range(1);
  constexpr int64_t kRows = 40000;
  constexpr int64_t kTile = 1024;
  Rng rng(25);
  std::vector<int8_t> rows(kRows * d), queries(qn * d);
  for (int8_t& v : rows) v = static_cast<int8_t>(rng.UniformInt(-127, 127));
  for (int8_t& v : queries) v = static_cast<int8_t>(rng.UniformInt(-127, 127));
  std::vector<float> row_scales(kRows, 0.01f), query_scales(qn, 0.01f);
  std::vector<float> tile(qn * kTile);
  for (auto _ : state) {
    for (int64_t r0 = 0; r0 < kRows; r0 += kTile) {
      const int64_t n = std::min(kTile, kRows - r0);
      tensor::simd::DotScanI8(queries.data(), query_scales.data(), qn,
                              rows.data() + r0 * d, row_scales.data() + r0, n,
                              d, tile.data(), kTile);
      benchmark::DoNotOptimize(tile.data());
    }
  }
  state.counters["s_per_query_row"] = benchmark::Counter(
      static_cast<double>(qn * kRows),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}
BENCHMARK(BM_DotScanI8PerQn)
    ->ArgNames({"qn", "d"})
    ->ArgsProduct({{1, 2, 3, 4}, {24, 64}});

template <bool kVector>
void BM_SimdL1ScanI8(benchmark::State& state) {
  TierForce tier(kVector ? tensor::simd::DetectTier()
                         : tensor::simd::Tier::kScalar);
  Rng rng(24);
  std::vector<int8_t> rows(kScanRows * kScanDim), queries(kScanQn * kScanDim);
  for (int8_t& v : rows) v = static_cast<int8_t>(rng.UniformInt(-127, 127));
  for (int8_t& v : queries) v = static_cast<int8_t>(rng.UniformInt(-127, 127));
  std::vector<float> out(kScanQn * kScanRows);
  for (auto _ : state) {
    tensor::simd::L1ScanI8(queries.data(), kScanQn, rows.data(), kScanRows,
                           kScanDim, 0.01f, out.data(), kScanRows);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * kScanQn * kScanRows * kScanDim);
}
BENCHMARK(BM_SimdL1ScanI8<false>)->Name("BM_L1ScanI8Scalar");
BENCHMARK(BM_SimdL1ScanI8<true>)->Name("BM_L1ScanI8Simd");

void BM_QuantizeRows(benchmark::State& state) {
  // Index-build cost of the int8 variant: symmetric per-row quantization of
  // the whole matrix (what EmbeddingIndex's kInt8 constructor adds).
  Rng rng(25);
  tensor::Tensor rows = tensor::Tensor::Randn({kScanRows, kScanDim}, rng);
  std::vector<int8_t> codes(kScanRows * kScanDim);
  std::vector<float> scales(kScanRows);
  for (auto _ : state) {
    for (int64_t i = 0; i < kScanRows; ++i) {
      tensor::simd::QuantizeRowI8(rows.data().data() + i * kScanDim, kScanDim,
                                  codes.data() + i * kScanDim, &scales[i]);
    }
    benchmark::DoNotOptimize(codes.data());
  }
  state.SetItemsProcessed(state.iterations() * kScanRows * kScanDim);
}
BENCHMARK(BM_QuantizeRows);

void BM_Dijkstra(benchmark::State& state) {
  const roadnet::RoadNetwork& network = TestNetwork();
  graph::CsrGraph g = network.ToLengthWeightedGraph();
  Rng rng(3);
  for (auto _ : state) {
    graph::VertexId source = rng.UniformInt(0, g.num_vertices() - 1);
    benchmark::DoNotOptimize(Dijkstra(g, source));
  }
  state.SetItemsProcessed(state.iterations() * g.num_vertices());
}
BENCHMARK(BM_Dijkstra);

void BM_DiscreteFrechet(benchmark::State& state) {
  int64_t n = state.range(0);
  Rng rng(4);
  geo::LocalProjection proj(geo::LatLng{30.0, 104.0});
  std::vector<geo::LatLng> a, b;
  for (int64_t i = 0; i < n; ++i) {
    a.push_back(proj.ToLatLng(i * 50.0, rng.Uniform(0, 100)));
    b.push_back(proj.ToLatLng(i * 50.0, rng.Uniform(100, 200)));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(traj::DiscreteFrechet(a, b));
  }
  state.SetItemsProcessed(state.iterations() * n * n);
}
BENCHMARK(BM_DiscreteFrechet)->Arg(60)->Arg(180);

void BM_BuildSpatialEdges(benchmark::State& state) {
  const roadnet::RoadNetwork& network = TestNetwork();
  core::SpatialSimilarityConfig config;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::BuildSpatialEdges(network, config));
  }
  state.SetItemsProcessed(state.iterations() * network.num_segments());
}
BENCHMARK(BM_BuildSpatialEdges);

void BM_AugmentGraph(benchmark::State& state) {
  const roadnet::RoadNetwork& network = TestNetwork();
  std::vector<core::SpatialEdge> spatial =
      core::BuildSpatialEdges(network, core::SpatialSimilarityConfig{});
  core::AugmentationConfig config;
  Rng rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::AugmentGraph(network.topo_edges(), spatial, config, rng));
  }
  state.SetItemsProcessed(state.iterations() *
                          (network.topo_edges().size() + spatial.size()));
}
BENCHMARK(BM_AugmentGraph);

void BM_NegativeQueueCycle(benchmark::State& state) {
  const roadnet::RoadNetwork& network = TestNetwork();
  core::NegativeQueueStore store(network, 400.0, 1000);
  Rng rng(6);
  std::vector<float> embedding(32, 0.5f);
  for (int64_t s = 0; s < network.num_segments(); ++s) store.Push(s, embedding);
  for (auto _ : state) {
    int64_t anchor = rng.UniformInt(0, network.num_segments() - 1);
    benchmark::DoNotOptimize(store.LocalNegatives(anchor));
    benchmark::DoNotOptimize(store.GlobalNegatives(anchor));
    store.Push(anchor, embedding);
  }
}
BENCHMARK(BM_NegativeQueueCycle);

void BM_EdgeSoftmaxScatter(benchmark::State& state) {
  const roadnet::RoadNetwork& network = TestNetwork();
  Rng rng(7);
  std::vector<int64_t> dst;
  for (const roadnet::TopoEdge& e : network.topo_edges()) dst.push_back(e.to);
  int64_t e_count = static_cast<int64_t>(dst.size());
  tensor::Tensor scores = tensor::Tensor::Randn({e_count}, rng);
  tensor::Tensor messages = tensor::Tensor::Randn({e_count, 32}, rng);
  tensor::NoGradGuard guard;
  for (auto _ : state) {
    tensor::Tensor alpha = tensor::EdgeSoftmax(scores, dst, network.num_segments());
    benchmark::DoNotOptimize(
        tensor::ScatterAddRows(tensor::ScaleRows(messages, alpha), dst,
                               network.num_segments()));
  }
  state.SetItemsProcessed(state.iterations() * e_count);
}
BENCHMARK(BM_EdgeSoftmaxScatter);

}  // namespace
}  // namespace sarn

BENCHMARK_MAIN();
