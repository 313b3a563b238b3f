#include "tensor/ops.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "tensor/matmul_kernels.h"
#include "tensor/simd/simd.h"
#include "tensor/tensor.h"

namespace sarn::tensor {
namespace {

void ExpectTensorNear(const Tensor& t, const std::vector<float>& expected,
                      float tol = 1e-5f) {
  ASSERT_EQ(t.numel(), static_cast<int64_t>(expected.size()));
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_NEAR(t.data()[i], expected[i], tol) << "index " << i;
  }
}

// Compares bit patterns, not float ==, so a +0 / -0 swap also fails.
void ExpectBitwiseEqual(const std::vector<float>& actual,
                        const std::vector<float>& expected, const char* what) {
  ASSERT_EQ(actual.size(), expected.size()) << what;
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(std::bit_cast<uint32_t>(actual[i]), std::bit_cast<uint32_t>(expected[i]))
        << what << " index " << i << ": " << actual[i] << " vs " << expected[i];
  }
}

TEST(OpsTest, AddSameShape) {
  Tensor a = Tensor::FromVector({2, 2}, {1, 2, 3, 4});
  Tensor b = Tensor::FromVector({2, 2}, {10, 20, 30, 40});
  ExpectTensorNear(Add(a, b), {11, 22, 33, 44});
}

TEST(OpsTest, AddRowBroadcast) {
  Tensor a = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor bias = Tensor::FromVector({3}, {10, 20, 30});
  ExpectTensorNear(Add(a, bias), {11, 22, 33, 14, 25, 36});
}

TEST(OpsTest, AddScalarBroadcastEitherSide) {
  Tensor a = Tensor::FromVector({3}, {1, 2, 3});
  Tensor s = Tensor::FromVector({1}, {100});
  ExpectTensorNear(Add(a, s), {101, 102, 103});
  ExpectTensorNear(Add(s, a), {101, 102, 103});
}

TEST(OpsTest, SubElementwise) {
  Tensor a = Tensor::FromVector({2}, {6, 9});
  Tensor b = Tensor::FromVector({2}, {2, 3});
  ExpectTensorNear(Sub(a, b), {4, 6});
}

TEST(OpsTest, SubWithSmallerLeftOperand) {
  Tensor s = Tensor::FromVector({1}, {10});
  Tensor b = Tensor::FromVector({3}, {1, 2, 3});
  ExpectTensorNear(Sub(s, b), {9, 8, 7});
}

TEST(OpsTest, MulElementwiseAndBroadcast) {
  Tensor a = Tensor::FromVector({2, 2}, {1, 2, 3, 4});
  Tensor row = Tensor::FromVector({1, 2}, {10, 100});
  ExpectTensorNear(Mul(a, row), {10, 200, 30, 400});
}

TEST(OpsTest, UnaryFunctions) {
  Tensor a = Tensor::FromVector({4}, {-2, -0.5, 0.5, 2});
  ExpectTensorNear(Neg(a), {2, 0.5, -0.5, -2});
  ExpectTensorNear(Abs(a), {2, 0.5, 0.5, 2});
  ExpectTensorNear(Relu(a), {0, 0, 0.5, 2});
  ExpectTensorNear(LeakyRelu(a, 0.1f), {-0.2f, -0.05f, 0.5f, 2.0f});
  ExpectTensorNear(Square(a), {4, 0.25, 0.25, 4});
}

TEST(OpsTest, ExpLog) {
  Tensor a = Tensor::FromVector({3}, {1, 4, 9});
  ExpectTensorNear(Log(a), {0.0f, std::log(4.0f), std::log(9.0f)});
  Tensor b = Tensor::FromVector({2}, {0, 1});
  ExpectTensorNear(Exp(b), {1.0f, std::exp(1.0f)});
}

TEST(OpsTest, EluMatchesDefinition) {
  Tensor a = Tensor::FromVector({2}, {-1.0f, 2.0f});
  ExpectTensorNear(Elu(a, 1.0f), {std::exp(-1.0f) - 1.0f, 2.0f});
}

TEST(OpsTest, SigmoidStableInTails) {
  Tensor a = Tensor::FromVector({3}, {-100.0f, 0.0f, 100.0f});
  Tensor s = Sigmoid(a);
  EXPECT_NEAR(s.at(0), 0.0f, 1e-6f);
  EXPECT_NEAR(s.at(1), 0.5f, 1e-6f);
  EXPECT_NEAR(s.at(2), 1.0f, 1e-6f);
  for (float v : s.data()) EXPECT_FALSE(std::isnan(v));
}

TEST(OpsTest, TanhValues) {
  Tensor a = Tensor::FromVector({2}, {0.0f, 1.0f});
  ExpectTensorNear(Tanh(a), {0.0f, std::tanh(1.0f)});
}

TEST(OpsTest, MatMulKnownResult) {
  Tensor a = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b = Tensor::FromVector({3, 2}, {7, 8, 9, 10, 11, 12});
  ExpectTensorNear(MatMul(a, b), {58, 64, 139, 154});
}

TEST(OpsTest, MatMulIdentity) {
  Tensor a = Tensor::FromVector({2, 2}, {1, 2, 3, 4});
  Tensor eye = Tensor::FromVector({2, 2}, {1, 0, 0, 1});
  ExpectTensorNear(MatMul(a, eye), {1, 2, 3, 4});
}

// --- Blocked-kernel equivalence ---------------------------------------------
// The register-tiled kernels must reproduce the seed's naive loops. Sizes
// deliberately include multiples of the tile (4/16), sub-tile remainders and
// degenerate 1-wide shapes so every edge path runs.

struct MatMulDims {
  int64_t m, k, n;
};

class MatMulKernelEquivalence : public ::testing::TestWithParam<MatMulDims> {};

TEST_P(MatMulKernelEquivalence, InitOverwritesGarbageAndMatchesNaive) {
  auto [m, k, n] = GetParam();
  Rng rng(42 + m + k + n);
  Tensor a = Tensor::Randn({m, k}, rng);
  Tensor b = Tensor::Randn({k, n}, rng);
  std::vector<float> naive(static_cast<size_t>(m * n), 0.0f);
  // Poisoned output: the init kernel must overwrite every element without
  // reading it, so garbage (including NaN) must not leak into the result.
  std::vector<float> init(static_cast<size_t>(m * n),
                          std::numeric_limits<float>::quiet_NaN());
  kernels::MatMulNaive(a.data().data(), b.data().data(), naive.data(), 0, m, k, n);
  kernels::MatMulBlockedInit(a.data().data(), b.data().data(), init.data(), 0, m, k, n);
  for (size_t i = 0; i < naive.size(); ++i) {
    EXPECT_EQ(init[i], naive[i]) << "index " << i;
  }
}

TEST_P(MatMulKernelEquivalence, GradAMatchesNaive) {
  auto [m, k, n] = GetParam();
  Rng rng(77 + m + k + n);
  Tensor g = Tensor::Randn({m, n}, rng);
  Tensor b = Tensor::Randn({k, n}, rng);
  std::vector<float> naive(static_cast<size_t>(m * k), 0.5f);  // Accumulates on top.
  std::vector<float> blocked(static_cast<size_t>(m * k), 0.5f);
  kernels::MatMulGradANaive(g.data().data(), b.data().data(), naive.data(), 0, m, k, n);
  kernels::MatMulGradABlocked(g.data().data(), b.data().data(), blocked.data(), 0, m, k, n);
  for (size_t i = 0; i < naive.size(); ++i) {
    EXPECT_EQ(blocked[i], naive[i]) << "index " << i;
  }
}

TEST_P(MatMulKernelEquivalence, GradBMatchesNaive) {
  auto [m, k, n] = GetParam();
  Rng rng(99 + m + k + n);
  Tensor a = Tensor::Randn({m, k}, rng);
  Tensor g = Tensor::Randn({m, n}, rng);
  std::vector<float> naive(static_cast<size_t>(k * n), -0.25f);
  std::vector<float> blocked(static_cast<size_t>(k * n), -0.25f);
  kernels::MatMulGradBNaive(a.data().data(), g.data().data(), naive.data(), 0, k, m, k, n);
  kernels::MatMulGradBBlocked(a.data().data(), g.data().data(), blocked.data(), 0, k, m, k,
                              n);
  for (size_t i = 0; i < naive.size(); ++i) {
    EXPECT_EQ(blocked[i], naive[i]) << "index " << i;
  }
}

#if defined(SARN_HAVE_AVX2_KERNELS)
// Compiled AVX2 kernels: vector lanes are distinct output
// elements, so they must match the scalar blocked kernels bit for bit —
// including on inputs with exact zeros (post-ReLU activations), on shapes
// with sub-tile remainders and, for n < 16, on the row-lane narrow path.

// A split point off the 8-row lane boundary, so the second range of a
// partitioned call starts mid-block (as a ParallelFor chunk of kMr rows can).
int64_t OffLaneSplit(int64_t rows) { return std::min<int64_t>(rows, 3); }

TEST_P(MatMulKernelEquivalence, InitAvx2MatchesBlockedInit) {
  if (!kernels::MatMulAvx2Supported()) GTEST_SKIP() << "host lacks AVX2";
  auto [m, k, n] = GetParam();
  Rng rng(42 + m + k + n);
  Tensor a = Tensor::Randn({m, k}, rng);
  Tensor b = Tensor::Randn({k, n}, rng);
  for (size_t i = 0; i < a.data().size(); i += 3) a.mutable_data()[i] = 0.0f;
  std::vector<float> blocked(static_cast<size_t>(m * n),
                             std::numeric_limits<float>::quiet_NaN());
  std::vector<float> avx2(static_cast<size_t>(m * n),
                          std::numeric_limits<float>::quiet_NaN());
  kernels::MatMulBlockedInit(a.data().data(), b.data().data(), blocked.data(), 0, m, k, n);
  kernels::MatMulInitAvx2(a.data().data(), b.data().data(), avx2.data(), 0, m, k, n);
  ExpectBitwiseEqual(avx2, blocked, "whole range");
  std::vector<float> split(static_cast<size_t>(m * n),
                           std::numeric_limits<float>::quiet_NaN());
  int64_t mid = OffLaneSplit(m);
  kernels::MatMulInitAvx2(a.data().data(), b.data().data(), split.data(), 0, mid, k, n);
  kernels::MatMulInitAvx2(a.data().data(), b.data().data(), split.data(), mid, m, k, n);
  ExpectBitwiseEqual(split, blocked, "split range");
}

TEST_P(MatMulKernelEquivalence, GradATAvx2MatchesBlocked) {
  if (!kernels::MatMulAvx2Supported()) GTEST_SKIP() << "host lacks AVX2";
  auto [m, k, n] = GetParam();
  Rng rng(77 + m + k + n);
  Tensor g = Tensor::Randn({m, n}, rng);
  Tensor b = Tensor::Randn({k, n}, rng);
  std::vector<float> blocked(static_cast<size_t>(m * k), 0.5f);  // Accumulates on top.
  std::vector<float> avx2(static_cast<size_t>(m * k), 0.5f);
  kernels::MatMulGradABlocked(g.data().data(), b.data().data(), blocked.data(), 0, m, k, n);
  // The AVX2 kernel takes B pre-transposed ([n, k]) — build it as MatMul does.
  std::vector<float> bt(static_cast<size_t>(n * k));
  for (int64_t kk = 0; kk < k; ++kk) {
    for (int64_t j = 0; j < n; ++j) bt[j * k + kk] = b.data()[kk * n + j];
  }
  kernels::MatMulGradATAvx2(g.data().data(), bt.data(), avx2.data(), 0, m, k, n);
  ExpectBitwiseEqual(avx2, blocked, "whole range");
  std::vector<float> split(static_cast<size_t>(m * k), 0.5f);
  int64_t mid = OffLaneSplit(m);
  kernels::MatMulGradATAvx2(g.data().data(), bt.data(), split.data(), 0, mid, k, n);
  kernels::MatMulGradATAvx2(g.data().data(), bt.data(), split.data(), mid, m, k, n);
  ExpectBitwiseEqual(split, blocked, "split range");
}

TEST_P(MatMulKernelEquivalence, GradBAvx2MatchesBlocked) {
  if (!kernels::MatMulAvx2Supported()) GTEST_SKIP() << "host lacks AVX2";
  auto [m, k, n] = GetParam();
  Rng rng(99 + m + k + n);
  Tensor a = Tensor::Randn({m, k}, rng);
  Tensor g = Tensor::Randn({m, n}, rng);
  for (size_t i = 0; i < a.data().size(); i += 3) a.mutable_data()[i] = 0.0f;
  std::vector<float> blocked(static_cast<size_t>(k * n), -0.25f);
  std::vector<float> avx2(static_cast<size_t>(k * n), -0.25f);
  kernels::MatMulGradBBlocked(a.data().data(), g.data().data(), blocked.data(), 0, k, m, k,
                              n);
  kernels::MatMulGradBAvx2(a.data().data(), g.data().data(), avx2.data(), 0, k, m, k, n);
  ExpectBitwiseEqual(avx2, blocked, "whole range");
  std::vector<float> split(static_cast<size_t>(k * n), -0.25f);
  int64_t mid = OffLaneSplit(k);
  kernels::MatMulGradBAvx2(a.data().data(), g.data().data(), split.data(), 0, mid, m, k, n);
  kernels::MatMulGradBAvx2(a.data().data(), g.data().data(), split.data(), mid, k, m, k, n);
  ExpectBitwiseEqual(split, blocked, "split range");
}

// Masked stores write only the live lanes of a tile. Each kernel runs on a
// row range of a buffer whose other rows, and 16 floats past the matrix,
// hold a sentinel NaN: a lane stored past the last column of the range's
// last row, or any write outside the range, flips one. The ranges are every
// 4-row window (so each tile's last row is some range's last row, and most
// windows start mid-tile), a range starting mid-matrix and the whole
// matrix. Inside the range the rows must match the scalar blocked kernel
// bitwise. {12, 20, 44} gives the forward and dB a two-vector remainder
// (44 % 16 = 12) and dA a one-vector one (20 % 16 = 4); {12, 44, 20} the
// other way round.
TEST(OpsTest, MatMulAvx2MaskedStoresStayInsideTheRowRange) {
  if (!kernels::MatMulAvx2Supported()) GTEST_SKIP() << "host lacks AVX2";
  const uint32_t sentinel_bits = 0x7fc0beefu;
  const float sentinel = std::bit_cast<float>(sentinel_bits);
  constexpr int64_t kPad = 16;
  // Runs kernel(out, begin, end) on rows [begin, end) of a rows x cols
  // output seeded with `seed` and checks every float of the buffer.
  auto check = [&](const char* what, int64_t rows, int64_t cols, float seed,
                   const std::vector<float>& expected, auto kernel) {
    std::vector<std::pair<int64_t, int64_t>> ranges = {{0, rows}, {3, rows}};
    for (int64_t begin = 0; begin + 4 <= rows; ++begin) {
      ranges.push_back({begin, begin + 4});
    }
    for (auto [begin, end] : ranges) {
      SCOPED_TRACE(testing::Message()
                   << what << " rows [" << begin << ", " << end << ")");
      std::vector<float> out(static_cast<size_t>(rows * cols + kPad), sentinel);
      std::fill(out.begin() + begin * cols, out.begin() + end * cols, seed);
      kernel(out.data(), begin, end);
      for (int64_t i = 0; i < rows * cols + kPad; ++i) {
        bool inside = i >= begin * cols && i < end * cols;
        uint32_t want = inside ? std::bit_cast<uint32_t>(expected[static_cast<size_t>(i)])
                               : sentinel_bits;
        ASSERT_EQ(std::bit_cast<uint32_t>(out[static_cast<size_t>(i)]), want)
            << "float " << i << (inside ? " (inside)" : " (outside)");
      }
    }
  };
  for (auto [m, k, n] : {MatMulDims{12, 20, 44}, MatMulDims{12, 44, 20}}) {
    SCOPED_TRACE(testing::Message() << m << "x" << k << "x" << n);
    Rng rng(5 + m + k + n);
    Tensor a = Tensor::Randn({m, k}, rng);
    Tensor b = Tensor::Randn({k, n}, rng);
    Tensor g = Tensor::Randn({m, n}, rng);
    const float* ad = a.data().data();
    const float* bd = b.data().data();
    const float* gd = g.data().data();
    std::vector<float> bt(static_cast<size_t>(n * k));
    for (int64_t kk = 0; kk < k; ++kk) {
      for (int64_t j = 0; j < n; ++j) bt[j * k + kk] = bd[kk * n + j];
    }
    std::vector<float> y(static_cast<size_t>(m * n));
    std::vector<float> da(static_cast<size_t>(m * k), 0.5f);
    std::vector<float> db(static_cast<size_t>(k * n), -0.25f);
    kernels::MatMulBlockedInit(ad, bd, y.data(), 0, m, k, n);
    kernels::MatMulGradABlocked(gd, bd, da.data(), 0, m, k, n);
    kernels::MatMulGradBBlocked(ad, gd, db.data(), 0, k, m, k, n);
    check("forward", m, n, std::numeric_limits<float>::quiet_NaN(), y,
          [&](float* out, int64_t begin, int64_t end) {
            kernels::MatMulInitAvx2(ad, bd, out, begin, end, k, n);
          });
    check("dA", m, k, 0.5f, da, [&](float* out, int64_t begin, int64_t end) {
      kernels::MatMulGradATAvx2(gd, bt.data(), out, begin, end, k, n);
    });
    check("dB", k, n, -0.25f, db, [&](float* out, int64_t begin, int64_t end) {
      kernels::MatMulGradBAvx2(ad, gd, out, begin, end, m, k, n);
    });
  }
}
#endif  // SARN_HAVE_AVX2_KERNELS

TEST_P(MatMulKernelEquivalence, RowRangeCoversPartition) {
  // Kernels run on arbitrary row sub-ranges under ParallelFor; a partition
  // at non-tile-aligned boundaries must produce the same matrix.
  auto [m, k, n] = GetParam();
  Rng rng(123 + m + k + n);
  Tensor a = Tensor::Randn({m, k}, rng);
  Tensor b = Tensor::Randn({k, n}, rng);
  std::vector<float> whole(static_cast<size_t>(m * n), 0.0f);
  std::vector<float> split(static_cast<size_t>(m * n), 0.0f);
  kernels::MatMulBlockedInit(a.data().data(), b.data().data(), whole.data(), 0, m, k, n);
  int64_t mid = m / 2 + (m > 2 ? 1 : 0);  // Deliberately off-center.
  kernels::MatMulBlockedInit(a.data().data(), b.data().data(), split.data(), 0, mid, k, n);
  kernels::MatMulBlockedInit(a.data().data(), b.data().data(), split.data(), mid, m, k, n);
  for (size_t i = 0; i < whole.size(); ++i) {
    EXPECT_EQ(split[i], whole[i]) << "index " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, MatMulKernelEquivalence,
                         ::testing::Values(MatMulDims{1, 1, 1}, MatMulDims{3, 5, 7},
                                           MatMulDims{4, 16, 16}, MatMulDims{5, 17, 19},
                                           MatMulDims{8, 32, 16}, MatMulDims{13, 9, 33},
                                           MatMulDims{16, 8, 1}, MatMulDims{33, 64, 47},
                                           // Narrow outputs (n < 16): the
                                           // attention-score [rows, 1] shapes
                                           // and partial lane blocks.
                                           MatMulDims{37, 16, 1}, MatMulDims{9, 64, 1},
                                           MatMulDims{21, 5, 3}, MatMulDims{8, 8, 7},
                                           MatMulDims{24, 40, 2}, MatMulDims{17, 84, 15},
                                           // Full 4-row tiles with a column
                                           // remainder: dA's k % 16 in
                                           // {4, 8, 12, 15}, the forward's and
                                           // dB's n % 16 in {4, 8, 12}, n >= 16.
                                           MatMulDims{8, 84, 64}, MatMulDims{12, 20, 32},
                                           MatMulDims{16, 31, 16}, MatMulDims{8, 24, 16},
                                           MatMulDims{12, 28, 20}, MatMulDims{8, 16, 84},
                                           MatMulDims{8, 16, 40},
                                           MatMulDims{12, 16, 44}));

TEST(OpsTest, MatMulOpMatchesNaiveKernelsThroughAutograd) {
  // End-to-end: the MatMul op (blocked kernels + ParallelFor) vs a serial
  // naive-kernel reference for the forward and both gradients.
  const int64_t m = 21, k = 34, n = 29;
  Rng rng(7);
  Tensor a = Tensor::Randn({m, k}, rng).RequiresGrad();
  Tensor b = Tensor::Randn({k, n}, rng).RequiresGrad();
  Tensor y = MatMul(a, b);
  y.Backward(std::vector<float>(static_cast<size_t>(m * n), 1.0f));

  std::vector<float> ref_y(static_cast<size_t>(m * n), 0.0f);
  kernels::MatMulNaive(a.data().data(), b.data().data(), ref_y.data(), 0, m, k, n);
  std::vector<float> ones(static_cast<size_t>(m * n), 1.0f);
  std::vector<float> ref_da(static_cast<size_t>(m * k), 0.0f);
  std::vector<float> ref_db(static_cast<size_t>(k * n), 0.0f);
  kernels::MatMulGradANaive(ones.data(), b.data().data(), ref_da.data(), 0, m, k, n);
  kernels::MatMulGradBNaive(a.data().data(), ones.data(), ref_db.data(), 0, k, m, k, n);

  for (int64_t i = 0; i < m * n; ++i) EXPECT_EQ(y.data()[i], ref_y[i]) << i;
  for (int64_t i = 0; i < m * k; ++i) EXPECT_EQ(a.grad()[i], ref_da[i]) << i;
  for (int64_t i = 0; i < k * n; ++i) EXPECT_EQ(b.grad()[i], ref_db[i]) << i;
}

TEST(OpsTest, MatMulIdenticalAcrossThreadCounts) {
  // Row-partitioned kernels write disjoint outputs, so the thread count must
  // not change a single bit of the forward or of either gradient. The shapes
  // are large enough that every GEMM splits under the multiply-add floor
  // (the pool-region count is asserted, so a floor change cannot quietly
  // make this a serial-vs-serial check). The second shape is narrow (n = 1,
  // the row-lane path), and its forward and dB chunk boundaries (rows 4164
  // and 132, rounded to the 4-row tile) fall mid 8-row lane block.
  struct Result {
    std::vector<float> y, da, db;
  };
  size_t original = GetParallelThreads();
  for (auto [m, k, n] : {MatMulDims{2048, 48, 40}, MatMulDims{8000, 252, 1}}) {
    SCOPED_TRACE(testing::Message() << m << "x" << k << "x" << n);
    auto run = [m = m, k = k, n = n] {
      Rng rng(11);
      Tensor a = Tensor::Randn({m, k}, rng).RequiresGrad();
      Tensor b = Tensor::Randn({k, n}, rng).RequiresGrad();
      Tensor upstream = Tensor::Randn({m, n}, rng);
      Tensor y = MatMul(a, b);
      y.Backward(std::vector<float>(upstream.data().begin(), upstream.data().end()));
      return Result{{y.data().begin(), y.data().end()},
                    {a.grad().begin(), a.grad().end()},
                    {b.grad().begin(), b.grad().end()}};
    };
    SetParallelThreads(1);
    Result serial = run();
    SetParallelThreads(4);
    ParallelPoolStats before = GetParallelPoolStats();
    Result parallel = run();
    ParallelPoolStats after = GetParallelPoolStats();
    SetParallelThreads(original);
    // Forward, dA and dB: three regions on the pool.
    EXPECT_GE(after.regions - before.regions, 3u);
    ExpectBitwiseEqual(parallel.y, serial.y, "forward");
    ExpectBitwiseEqual(parallel.da, serial.da, "dA");
    ExpectBitwiseEqual(parallel.db, serial.db, "dB");
  }
}

// Restores the active SIMD tier on scope exit.
class TierGuard {
 public:
  TierGuard() : previous_(simd::ActiveTier()) {}
  ~TierGuard() { simd::ForceTier(previous_); }

 private:
  simd::Tier previous_;
};

std::vector<float> ToVector(const Storage& storage) {
  return {storage.begin(), storage.end()};
}


TEST(OpsTest, MatMulDefaultTierMatchesScalarTierThroughAutograd) {
  // MatMul runs the compiled AVX2 kernels whenever the active tier is AVX2
  // and the scalar blocked kernels otherwise. Forward and both gradients
  // must not depend on which one ran. The first shape leaves sub-tile
  // remainders; the second is the GAT attention-score shape ([rows, F] x
  // [F, 1]), which runs the row-lane narrow path forward and in dB, with a
  // partial 8-row block.
  struct Result {
    std::vector<float> y, da, db;
  };
  for (auto [m, k, n] : {MatMulDims{21, 34, 29}, MatMulDims{45, 16, 1}}) {
    TierGuard restore;
    auto run = [m = m, k = k, n = n] {
      Rng rng(5);
      Tensor a = Tensor::Randn({m, k}, rng, 0.2f).RequiresGrad();
      Tensor b = Tensor::Randn({k, n}, rng, 0.2f).RequiresGrad();
      Tensor y = MatMul(a, b);
      Tensor loss = Mean(Square(LeakyRelu(y)));
      EXPECT_EQ(loss.Backward(), Tensor::BackwardStatus::kOk);
      return Result{ToVector(y.data()), ToVector(a.grad()), ToVector(b.grad())};
    };
    Result by_default = run();
    simd::ForceTier(simd::Tier::kScalar);
    Result scalar = run();
    SCOPED_TRACE(testing::Message() << m << "x" << k << "x" << n);
    ExpectBitwiseEqual(by_default.y, scalar.y, "forward");
    ExpectBitwiseEqual(by_default.da, scalar.da, "dA");
    ExpectBitwiseEqual(by_default.db, scalar.db, "dB");
  }
}

// The GAT grad path runs the fused differentiable ops; the unfused op chains
// they replace are the oracle. Vertex 3 has no in-edges and the edge (1, 2)
// appears twice, so the scatter order over repeated destinations and the
// zero rows of an isolated vertex are both covered.
const std::vector<int64_t> kOracleSrc = {0, 1, 1, 2, 4, 0, 1, 4};
const std::vector<int64_t> kOracleDst = {1, 2, 2, 0, 0, 4, 4, 1};
constexpr int64_t kOracleVertices = 5;

TEST(OpsTest, FusedEdgeScoresMatchesUnfusedChainBitwise) {
  const int64_t e_count = static_cast<int64_t>(kOracleSrc.size());
  Rng rng(17);
  Tensor src_init = Tensor::Randn({kOracleVertices, 1}, rng);
  Tensor dst_init = Tensor::Randn({kOracleVertices, 1}, rng);
  Tensor seed = Tensor::Randn({e_count}, rng);
  std::vector<float> seed_grad = ToVector(seed.data());
  struct Result {
    std::vector<float> out, d_src, d_dst;
  };
  auto run = [&](bool fused) {
    Tensor score_src = src_init.Detach().RequiresGrad();
    Tensor score_dst = dst_init.Detach().RequiresGrad();
    Tensor out =
        fused ? FusedEdgeScores(score_src, score_dst, kOracleSrc, kOracleDst, 0.2f)
              : Reshape(LeakyRelu(Add(Rows(score_dst, kOracleDst),
                                      Rows(score_src, kOracleSrc)),
                                  0.2f),
                        {e_count});
    EXPECT_EQ(out.Backward(seed_grad), Tensor::BackwardStatus::kOk);
    return Result{ToVector(out.data()),
                  ToVector(score_src.grad()),
                  ToVector(score_dst.grad())};
  };
  Result oracle = run(false);
  Result fused = run(true);
  ExpectBitwiseEqual(fused.out, oracle.out, "scores");
  ExpectBitwiseEqual(fused.d_src, oracle.d_src, "d score_src");
  ExpectBitwiseEqual(fused.d_dst, oracle.d_dst, "d score_dst");
}

TEST(OpsTest, FusedEdgeScoresWithoutGradModeAllocatesOnlyItsOutput) {
  Rng rng(17);
  Tensor score_src = Tensor::Randn({kOracleVertices, 1}, rng).RequiresGrad();
  Tensor score_dst = Tensor::Randn({kOracleVertices, 1}, rng).RequiresGrad();
  const std::vector<float> taped = ToVector(
      FusedEdgeScores(score_src, score_dst, kOracleSrc, kOracleDst, 0.2f).data());
  NoGradGuard no_grad;
  const PoolStats before = GetPoolStats();
  Tensor out = FusedEdgeScores(score_src, score_dst, kOracleSrc, kOracleDst, 0.2f);
  const PoolStats after = GetPoolStats();
  EXPECT_FALSE(out.requires_grad());
  // Two acquires, the [E] scores and the tensor node; no index copies for a
  // backward.
  EXPECT_EQ((after.hits + after.misses) - (before.hits + before.misses), 2u);
  EXPECT_EQ(after.tape_nodes, before.tape_nodes);
  ExpectBitwiseEqual(ToVector(out.data()), taped, "scores");
}

TEST(OpsTest, ScaleScatterRowsMatchesUnfusedChainBitwise) {
  const int64_t e_count = static_cast<int64_t>(kOracleSrc.size());
  const int64_t d = 6;
  Rng rng(29);
  Tensor wx_init = Tensor::Randn({kOracleVertices, d}, rng);
  Tensor alpha_init = Tensor::Randn({e_count}, rng);
  Tensor seed = Tensor::Randn({kOracleVertices, d}, rng);
  std::vector<float> seed_grad = ToVector(seed.data());
  struct Result {
    std::vector<float> out, d_wx, d_alpha;
  };
  auto run = [&](bool fused) {
    Tensor wx = wx_init.Detach().RequiresGrad();
    Tensor alpha = alpha_init.Detach().RequiresGrad();
    Tensor rows = Rows(wx, kOracleSrc);
    Tensor out = fused ? ScaleScatterRows(rows, alpha, kOracleDst, kOracleVertices)
                       : ScatterAddRows(ScaleRows(rows, alpha), kOracleDst,
                                        kOracleVertices);
    EXPECT_EQ(out.Backward(seed_grad), Tensor::BackwardStatus::kOk);
    return Result{ToVector(out.data()), ToVector(wx.grad()), ToVector(alpha.grad())};
  };
  Result oracle = run(false);
  Result fused = run(true);
  ExpectBitwiseEqual(fused.out, oracle.out, "messages");
  ExpectBitwiseEqual(fused.d_wx, oracle.d_wx, "d wx");
  ExpectBitwiseEqual(fused.d_alpha, oracle.d_alpha, "d alpha");
  // The isolated vertex receives nothing.
  for (int64_t j = 0; j < d; ++j) EXPECT_EQ(fused.out[3 * d + j], 0.0f);
}

TEST(OpsDeathTest, MatMulShapeMismatch) {
  Tensor a = Tensor::Zeros({2, 3});
  Tensor b = Tensor::Zeros({2, 3});
  EXPECT_DEATH(MatMul(a, b), "MatMul");
}

TEST(OpsTest, TransposeRoundTrip) {
  Tensor a = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor t = Transpose(a);
  EXPECT_EQ(t.shape(), (Shape{3, 2}));
  EXPECT_EQ(t.at(0, 1), 4.0f);
  ExpectTensorNear(Transpose(t), {1, 2, 3, 4, 5, 6});
}

TEST(OpsTest, ReshapePreservesData) {
  Tensor a = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor r = Reshape(a, {3, 2});
  EXPECT_EQ(r.shape(), (Shape{3, 2}));
  ExpectTensorNear(r, {1, 2, 3, 4, 5, 6});
}

TEST(OpsTest, Reductions) {
  Tensor a = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  EXPECT_FLOAT_EQ(Sum(a).item(), 21.0f);
  EXPECT_FLOAT_EQ(Mean(a).item(), 3.5f);
  ExpectTensorNear(SumAxis(a, 0), {5, 7, 9});
  ExpectTensorNear(SumAxis(a, 1), {6, 15});
}

TEST(OpsTest, RowSoftmaxRowsSumToOne) {
  Tensor a = Tensor::FromVector({2, 3}, {1, 2, 3, 1000, 1001, 1002});
  Tensor s = RowSoftmax(a);
  for (int64_t i = 0; i < 2; ++i) {
    float sum = s.at(i, 0) + s.at(i, 1) + s.at(i, 2);
    EXPECT_NEAR(sum, 1.0f, 1e-5f);
  }
  // Shift invariance: both rows should be identical distributions.
  for (int64_t j = 0; j < 3; ++j) EXPECT_NEAR(s.at(0, j), s.at(1, j), 1e-5f);
  for (float v : s.data()) EXPECT_FALSE(std::isnan(v));
}

TEST(OpsTest, RowLogSoftmaxConsistentWithSoftmax) {
  Tensor a = Tensor::FromVector({1, 4}, {0.5f, -1.0f, 2.0f, 0.0f});
  Tensor ls = RowLogSoftmax(a);
  Tensor s = RowSoftmax(a);
  for (int64_t j = 0; j < 4; ++j) EXPECT_NEAR(std::exp(ls.at(0, j)), s.at(0, j), 1e-5f);
}

TEST(OpsTest, RowL2NormalizeUnitNorm) {
  Tensor a = Tensor::FromVector({2, 2}, {3, 4, 0, 0});
  Tensor n = RowL2Normalize(a);
  EXPECT_NEAR(n.at(0, 0), 0.6f, 1e-5f);
  EXPECT_NEAR(n.at(0, 1), 0.8f, 1e-5f);
  // Zero row stays finite (zero).
  EXPECT_EQ(n.at(1, 0), 0.0f);
}

TEST(OpsTest, DotRowsValues) {
  Tensor a = Tensor::FromVector({2, 2}, {1, 2, 3, 4});
  Tensor b = Tensor::FromVector({2, 2}, {5, 6, 7, 8});
  ExpectTensorNear(DotRows(a, b), {17, 53});
}

TEST(OpsTest, RowsGather) {
  Tensor a = Tensor::FromVector({3, 2}, {1, 2, 3, 4, 5, 6});
  Tensor g = Rows(a, {2, 0, 2});
  ExpectTensorNear(g, {5, 6, 1, 2, 5, 6});
}

TEST(OpsTest, TakePerRowValues) {
  Tensor a = Tensor::FromVector({3, 3}, {1, 2, 3, 4, 5, 6, 7, 8, 9});
  ExpectTensorNear(TakePerRow(a, {0, 2, 1}), {1, 6, 8});
}

TEST(OpsTest, ColsRangeValues) {
  Tensor a = Tensor::FromVector({2, 4}, {1, 2, 3, 4, 5, 6, 7, 8});
  Tensor mid = ColsRange(a, 1, 2);
  EXPECT_EQ(mid.shape(), (Shape{2, 2}));
  ExpectTensorNear(mid, {2, 3, 6, 7});
  ExpectTensorNear(ColsRange(a, 0, 4), {1, 2, 3, 4, 5, 6, 7, 8});
  ExpectTensorNear(ColsRange(a, 3, 1), {4, 8});
}

TEST(OpsTest, ColsRangeBackwardScattersIntoSlice) {
  Tensor a = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6}).RequiresGrad();
  Tensor s = ColsRange(a, 1, 2);
  Sum(Mul(s, s)).Backward();  // d/dx sum(x^2) = 2x on the slice, 0 elsewhere.
  ExpectTensorNear(Tensor::FromVector({6}, a.grad().ToVector()), {0, 4, 6, 0, 10, 12});
}

TEST(OpsTest, ColsRangeInverseOfConcat) {
  Rng rng(3);
  Tensor left = Tensor::Randn({3, 2}, rng);
  Tensor right = Tensor::Randn({3, 5}, rng);
  Tensor joined = Concat({left, right}, 1);
  ExpectTensorNear(ColsRange(joined, 0, 2), left.data().ToVector());
  ExpectTensorNear(ColsRange(joined, 2, 5), right.data().ToVector());
}

TEST(OpsDeathTest, ColsRangeOutOfBounds) {
  Tensor a = Tensor::Zeros({2, 3});
  EXPECT_DEATH(ColsRange(a, 2, 2), "ColsRange");
}

TEST(OpsTest, ConcatAxis0) {
  Tensor a = Tensor::FromVector({1, 2}, {1, 2});
  Tensor b = Tensor::FromVector({2, 2}, {3, 4, 5, 6});
  Tensor c = Concat({a, b}, 0);
  EXPECT_EQ(c.shape(), (Shape{3, 2}));
  ExpectTensorNear(c, {1, 2, 3, 4, 5, 6});
}

TEST(OpsTest, ConcatAxis1) {
  Tensor a = Tensor::FromVector({2, 1}, {1, 2});
  Tensor b = Tensor::FromVector({2, 2}, {3, 4, 5, 6});
  Tensor c = Concat({a, b}, 1);
  EXPECT_EQ(c.shape(), (Shape{2, 3}));
  ExpectTensorNear(c, {1, 3, 4, 2, 5, 6});
}

TEST(OpsTest, EdgeSoftmaxGroupsSumToOne) {
  // Edges into vertex 0: {0,1}; into vertex 1: {2,3,4}.
  Tensor scores = Tensor::FromVector({5}, {1.0f, 2.0f, -1.0f, 0.0f, 1.0f});
  std::vector<int64_t> dst = {0, 0, 1, 1, 1};
  Tensor alpha = EdgeSoftmax(scores, dst, 2);
  EXPECT_NEAR(alpha.at(0) + alpha.at(1), 1.0f, 1e-5f);
  EXPECT_NEAR(alpha.at(2) + alpha.at(3) + alpha.at(4), 1.0f, 1e-5f);
  EXPECT_GT(alpha.at(1), alpha.at(0));  // Higher score, higher weight.
}

TEST(OpsTest, EdgeSoftmaxSingleEdgeGroupIsOne) {
  Tensor scores = Tensor::FromVector({1}, {-5.0f});
  Tensor alpha = EdgeSoftmax(scores, {0}, 3);
  EXPECT_NEAR(alpha.at(0), 1.0f, 1e-6f);
}

TEST(OpsTest, ScatterAddRowsAggregates) {
  Tensor messages = Tensor::FromVector({3, 2}, {1, 2, 10, 20, 100, 200});
  std::vector<int64_t> dst = {1, 1, 0};
  Tensor out = ScatterAddRows(messages, dst, 2);
  ExpectTensorNear(out, {100, 200, 11, 22});
}

TEST(OpsTest, ScatterAddRowsIsolatedVertexIsZero) {
  Tensor messages = Tensor::FromVector({1, 2}, {1, 1});
  Tensor out = ScatterAddRows(messages, {0}, 3);
  ExpectTensorNear(out, {1, 1, 0, 0, 0, 0});
}

}  // namespace
}  // namespace sarn::tensor
