// Pins the src/tensor/simd/ contract (DESIGN.md §12):
//  * every available vector tier is BITWISE identical to the scalar fallback
//    on the float scan kernels, across dimensions that exercise full vector
//    widths, tails, and sub-width rows, and every query-block size;
//  * the int8 kernels are exact (integer reductions, one shared float scale
//    expression), so tiers agree exactly there too;
//  * the symmetric quantizer round-trips within half a step and handles the
//    degenerate rows (all-zero, single-element, ±absmax) exactly.

#include "tensor/simd/simd.h"

#include <cmath>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace sarn::tensor::simd {
namespace {

// Restores the previously active tier on scope exit so a failing test cannot
// leak a forced tier into the rest of the binary.
class TierGuard {
 public:
  TierGuard() : prev_(ActiveTier()) {}
  ~TierGuard() { ForceTier(prev_); }

 private:
  Tier prev_;
};

std::vector<float> RandomFloats(Rng& rng, size_t n, double scale = 1.0) {
  std::vector<float> out(n);
  for (float& v : out) v = static_cast<float>(rng.Normal(0.0, scale));
  return out;
}

std::vector<int8_t> RandomInt8(Rng& rng, size_t n) {
  std::vector<int8_t> out(n);
  for (int8_t& v : out) {
    v = static_cast<int8_t>(static_cast<int>(rng.Uniform(-127.0, 128.0)));
  }
  return out;
}

std::vector<Tier> AvailableTiers() {
  std::vector<Tier> tiers = {Tier::kScalar};
  if (TierAvailable(Tier::kAvx2)) tiers.push_back(Tier::kAvx2);
  if (TierAvailable(Tier::kNeon)) tiers.push_back(Tier::kNeon);
  return tiers;
}

// Dimensions covering: sub-width rows, exactly one vector width, a tail of
// every residue class, and multi-width rows.
const int64_t kDims[] = {1, 3, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 64, 100};
// Row counts covering empty-ish scans, the 4-row kernels' remainders (1–3
// rows left over after whole steps of four) and more rows than one
// 1024-row scan tile.
const int64_t kRowCounts[] = {1, 2, 4, 5, 7, 33, 1027};

TEST(SimdDispatchTest, TierNamesAreStable) {
  EXPECT_STREQ(TierName(Tier::kScalar), "scalar");
  EXPECT_STREQ(TierName(Tier::kAvx2), "avx2");
  EXPECT_STREQ(TierName(Tier::kNeon), "neon");
}

TEST(SimdDispatchTest, ScalarAlwaysAvailableAndForcible) {
  EXPECT_TRUE(TierAvailable(Tier::kScalar));
  TierGuard guard;
  ForceTier(Tier::kScalar);
  EXPECT_EQ(ActiveTier(), Tier::kScalar);
}

TEST(SimdDispatchTest, ActiveTierIsAvailable) {
  EXPECT_TRUE(TierAvailable(ActiveTier()));
}

TEST(SimdKernelsTest, FloatScansBitwiseIdenticalAcrossTiers) {
  Rng rng(7);
  TierGuard guard;
  for (int64_t d : kDims) {
    for (int64_t n : kRowCounts) {
      for (int qn = 1; qn <= kMaxQueryBlock; ++qn) {
        std::vector<float> queries = RandomFloats(rng, qn * d);
        std::vector<float> rows = RandomFloats(rng, n * d);

        ForceTier(Tier::kScalar);
        std::vector<float> dot_ref(qn * n), l1_ref(qn * n);
        DotScan(queries.data(), qn, rows.data(), n, d, dot_ref.data(), n);
        L1Scan(queries.data(), qn, rows.data(), n, d, l1_ref.data(), n);

        for (Tier tier : AvailableTiers()) {
          ForceTier(tier);
          std::vector<float> dot(qn * n), l1(qn * n);
          DotScan(queries.data(), qn, rows.data(), n, d, dot.data(), n);
          L1Scan(queries.data(), qn, rows.data(), n, d, l1.data(), n);
          EXPECT_EQ(std::memcmp(dot.data(), dot_ref.data(),
                                dot.size() * sizeof(float)),
                    0)
              << "DotScan tier=" << TierName(tier) << " d=" << d << " n=" << n
              << " qn=" << qn;
          EXPECT_EQ(std::memcmp(l1.data(), l1_ref.data(),
                                l1.size() * sizeof(float)),
                    0)
              << "L1Scan tier=" << TierName(tier) << " d=" << d << " n=" << n
              << " qn=" << qn;
        }
      }
    }
  }
}

TEST(SimdKernelsTest, FloatScansRespectOutStride) {
  Rng rng(11);
  TierGuard guard;
  const int64_t d = 16, n = 5, stride = 9;
  const int qn = 3;
  std::vector<float> queries = RandomFloats(rng, qn * d);
  std::vector<float> rows = RandomFloats(rng, n * d);
  std::vector<float> dense(qn * n), strided(qn * stride, -1.0f);
  for (Tier tier : AvailableTiers()) {
    ForceTier(tier);
    DotScan(queries.data(), qn, rows.data(), n, d, dense.data(), n);
    DotScan(queries.data(), qn, rows.data(), n, d, strided.data(), stride);
    for (int qi = 0; qi < qn; ++qi) {
      for (int64_t r = 0; r < n; ++r) {
        EXPECT_EQ(strided[qi * stride + r], dense[qi * n + r]);
      }
      for (int64_t r = n; r < stride; ++r) {
        EXPECT_EQ(strided[qi * stride + r], -1.0f) << "stride padding clobbered";
      }
    }
  }
}

TEST(SimdKernelsTest, Int8ScansRespectOutStride) {
  Rng rng(17);
  TierGuard guard;
  const int64_t n = 5, stride = 9;
  for (int64_t d : {24, 64}) {
    for (int qn = 1; qn <= kMaxQueryBlock; ++qn) {
      std::vector<int8_t> queries = RandomInt8(rng, qn * d);
      std::vector<int8_t> rows = RandomInt8(rng, n * d);
      std::vector<float> qscales(qn, 0.05f), rscales(n, 0.02f);
      for (Tier tier : AvailableTiers()) {
        ForceTier(tier);
        std::vector<float> dot(qn * n), l1(qn * n);
        std::vector<float> dot_strided(qn * stride, -1.0f);
        std::vector<float> l1_strided(qn * stride, -1.0f);
        DotScanI8(queries.data(), qscales.data(), qn, rows.data(),
                  rscales.data(), n, d, dot.data(), n);
        DotScanI8(queries.data(), qscales.data(), qn, rows.data(),
                  rscales.data(), n, d, dot_strided.data(), stride);
        L1ScanI8(queries.data(), qn, rows.data(), n, d, 0.03f, l1.data(), n);
        L1ScanI8(queries.data(), qn, rows.data(), n, d, 0.03f,
                 l1_strided.data(), stride);
        for (int qi = 0; qi < qn; ++qi) {
          for (int64_t r = 0; r < n; ++r) {
            EXPECT_EQ(dot_strided[qi * stride + r], dot[qi * n + r]);
            EXPECT_EQ(l1_strided[qi * stride + r], l1[qi * n + r]);
          }
          for (int64_t r = n; r < stride; ++r) {
            EXPECT_EQ(dot_strided[qi * stride + r], -1.0f)
                << "DotScanI8 stride padding clobbered, tier="
                << TierName(tier) << " d=" << d << " qn=" << qn;
            EXPECT_EQ(l1_strided[qi * stride + r], -1.0f)
                << "L1ScanI8 stride padding clobbered, tier="
                << TierName(tier) << " d=" << d << " qn=" << qn;
          }
        }
      }
    }
  }
}

TEST(SimdKernelsTest, Int8ScansExactAcrossTiers) {
  Rng rng(13);
  TierGuard guard;
  for (int64_t d : kDims) {
    for (int64_t n : kRowCounts) {
      for (int qn = 1; qn <= kMaxQueryBlock; ++qn) {
        std::vector<int8_t> queries = RandomInt8(rng, qn * d);
        std::vector<int8_t> rows = RandomInt8(rng, n * d);
        std::vector<float> qscales(qn), rscales(n);
        for (float& s : qscales) s = static_cast<float>(rng.Uniform(0.01, 0.1));
        for (float& s : rscales) s = static_cast<float>(rng.Uniform(0.01, 0.1));
        const float shared = 0.03125f;

        // Reference: plain integer reductions + the shared scale expression.
        std::vector<float> dot_ref(qn * n), l1_ref(qn * n);
        for (int qi = 0; qi < qn; ++qi) {
          for (int64_t r = 0; r < n; ++r) {
            int32_t dot = 0;
            int64_t l1 = 0;
            for (int64_t j = 0; j < d; ++j) {
              const int32_t qv = queries[qi * d + j];
              const int32_t rv = rows[r * d + j];
              dot += qv * rv;
              l1 += std::abs(qv - rv);
            }
            dot_ref[qi * n + r] =
                static_cast<float>(dot) * (qscales[qi] * rscales[r]);
            l1_ref[qi * n + r] = -(static_cast<float>(l1) * shared);
          }
        }

        for (Tier tier : AvailableTiers()) {
          ForceTier(tier);
          std::vector<float> dot(qn * n), l1(qn * n);
          DotScanI8(queries.data(), qscales.data(), qn, rows.data(),
                    rscales.data(), n, d, dot.data(), n);
          L1ScanI8(queries.data(), qn, rows.data(), n, d, shared, l1.data(), n);
          EXPECT_EQ(std::memcmp(dot.data(), dot_ref.data(),
                                dot.size() * sizeof(float)),
                    0)
              << "DotScanI8 tier=" << TierName(tier) << " d=" << d
              << " n=" << n << " qn=" << qn;
          EXPECT_EQ(std::memcmp(l1.data(), l1_ref.data(),
                                l1.size() * sizeof(float)),
                    0)
              << "L1ScanI8 tier=" << TierName(tier) << " d=" << d
              << " n=" << n << " qn=" << qn;
        }
      }
    }
  }
}

TEST(SimdKernelsTest, Int8SaturatingMagnitudesStayExact) {
  // ±127 everywhere is the worst case for the AVX2 maddubs pairing; the pair
  // sums (127 * 127 * 2 = 32258) must not saturate the i16 intermediates.
  TierGuard guard;
  const int64_t d = 64, n = 3;
  std::vector<int8_t> q(d, 127), rows(n * d);
  std::fill_n(rows.begin(), d, int8_t{127});
  std::fill_n(rows.begin() + d, d, int8_t{-127});
  for (int64_t j = 0; j < d; ++j) rows[2 * d + j] = (j % 2) ? 127 : -127;
  const float qs = 1.0f, rs[] = {1.0f, 1.0f, 1.0f};
  for (Tier tier : AvailableTiers()) {
    ForceTier(tier);
    std::vector<float> dot(n), l1(n);
    DotScanI8(q.data(), &qs, 1, rows.data(), rs, n, d, dot.data(), n);
    L1ScanI8(q.data(), 1, rows.data(), n, d, 1.0f, l1.data(), n);
    EXPECT_EQ(dot[0], static_cast<float>(127 * 127 * d)) << TierName(tier);
    EXPECT_EQ(dot[1], static_cast<float>(-127 * 127 * d)) << TierName(tier);
    EXPECT_EQ(dot[2], 0.0f) << TierName(tier);
    EXPECT_EQ(l1[0], 0.0f) << TierName(tier);
    EXPECT_EQ(l1[1], -static_cast<float>(254 * d)) << TierName(tier);
    EXPECT_EQ(l1[2], -static_cast<float>(254 * (d / 2))) << TierName(tier);
  }
}

TEST(QuantizeTest, RoundTripWithinHalfStep) {
  Rng rng(17);
  for (int64_t d : {1, 7, 64, 257}) {
    std::vector<float> row = RandomFloats(rng, d, 3.0);
    std::vector<int8_t> q(d);
    std::vector<float> back(d);
    float scale = -1.0f;
    QuantizeRowI8(row.data(), d, q.data(), &scale);
    ASSERT_GT(scale, 0.0f);
    DequantizeRowI8(q.data(), d, scale, back.data());
    for (int64_t j = 0; j < d; ++j) {
      EXPECT_LE(std::fabs(back[j] - row[j]), scale * 0.5f + 1e-7f)
          << "d=" << d << " j=" << j;
    }
  }
}

TEST(QuantizeTest, AllZeroRow) {
  std::vector<float> row(32, 0.0f);
  std::vector<int8_t> q(32, 42);
  float scale = -1.0f;
  QuantizeRowI8(row.data(), 32, q.data(), &scale);
  EXPECT_EQ(scale, 0.0f);
  for (int8_t v : q) EXPECT_EQ(v, 0);
  std::vector<float> back(32, 1.0f);
  DequantizeRowI8(q.data(), 32, scale, back.data());
  for (float v : back) EXPECT_EQ(v, 0.0f);
}

TEST(QuantizeTest, SingleElementRow) {
  float x = -2.5f;
  int8_t q = 0;
  float scale = 0.0f;
  QuantizeRowI8(&x, 1, &q, &scale);
  // The absmax element always maps to ±127 and round-trips exactly.
  EXPECT_EQ(q, -127);
  EXPECT_FLOAT_EQ(scale, 2.5f / 127.0f);
  float back = 0.0f;
  DequantizeRowI8(&q, 1, scale, &back);
  EXPECT_FLOAT_EQ(back, -2.5f);
}

TEST(QuantizeTest, MaxMagnitudeElementsMapToPlusMinus127) {
  std::vector<float> row = {5.0f, -5.0f, 2.5f, 0.0f};
  std::vector<int8_t> q(row.size());
  float scale = 0.0f;
  QuantizeRowI8(row.data(), static_cast<int64_t>(row.size()), q.data(), &scale);
  EXPECT_EQ(q[0], 127);
  EXPECT_EQ(q[1], -127);
  EXPECT_EQ(q[2], 64);  // lrintf(2.5 / 5 * 127) = lrintf(63.5) = 64.
  EXPECT_EQ(q[3], 0);
}

TEST(QuantizeTest, SharedScaleMatchesPerRowOnTheAbsmaxRow) {
  Rng rng(19);
  std::vector<float> row = RandomFloats(rng, 16);
  std::vector<int8_t> per_row(16), shared(16);
  float scale = 0.0f;
  QuantizeRowI8(row.data(), 16, per_row.data(), &scale);
  QuantizeRowI8WithScale(row.data(), 16, scale, shared.data());
  EXPECT_EQ(std::memcmp(per_row.data(), shared.data(), 16), 0);
  // Zero shared scale degenerates to all-zero codes, not a division.
  QuantizeRowI8WithScale(row.data(), 16, 0.0f, shared.data());
  for (int8_t v : shared) EXPECT_EQ(v, 0);
}

}  // namespace
}  // namespace sarn::tensor::simd
