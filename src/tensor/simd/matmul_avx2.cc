// AVX2 "compiled" matmul kernels behind tensor::MatMul on AVX2-tier hosts
// (DESIGN.md §15). Compiled with -mavx2 and -ffp-contract=off, like
// simd_avx2.cc: mul+add must stay two IEEE operations so every element
// reproduces the scalar blocked kernels bit for bit.
//
// Determinism contract: vector lanes are distinct OUTPUT elements, never
// partial sums of one element, so no reduction is reassociated —
//
//   * MatMulInitAvx2    — per element: +0.0f seed, += a*b ascending k, one
//                         store. Matches MatMulBlockedInit exactly.
//   * MatMulGradATAvx2  — per element: local +0.0f-seeded dot ascending j,
//                         then a single += into dA. Matches
//                         MatMulGradABlocked exactly; takes B^T so the
//                         kk-lanes load contiguously (the transpose is pure
//                         data movement done by the caller).
//   * MatMulGradBAvx2   — per element: seed from dB, += a*g ascending i,
//                         store. Matches MatMulGradBBlocked exactly.
//
// Sub-tile remainders run the same scalar loops as the blocked kernels;
// since every element's chain is independent, mixing vector full tiles with
// scalar edge tiles cannot change any result. ops_test pins the bitwise
// scalar-vs-AVX2 identity on tile-multiple, remainder and degenerate shapes.

#if defined(SARN_HAVE_AVX2_KERNELS)

#include <immintrin.h>

#include <algorithm>
#include <cstdint>

#include "tensor/matmul_kernels.h"

namespace sarn::tensor::kernels {
namespace {

// 4 output rows x 16 output columns: 8 ymm accumulators + 2 operand-row
// vectors + 1 broadcast stay inside the 16-register file.
constexpr int64_t kTileRows = 4;
constexpr int64_t kTileCols = 16;

// Scalar edge path shared by the forward and dB kernels: accumulate
// `rows x [mr, nr]` from `left_at(ii, r) * right[r * right_stride + jj]`,
// ascending r, on top of the given seed tile.
template <typename LeftAt>
inline void ScalarTail(int64_t reduce, LeftAt left_at, const float* right,
                       int64_t right_stride, int64_t mr, int64_t nr,
                       float acc[kTileRows][kTileCols]) {
  for (int64_t r = 0; r < reduce; ++r) {
    const float* rrow = right + r * right_stride;
    for (int64_t ii = 0; ii < mr; ++ii) {
      float lv = left_at(ii, r);
      for (int64_t jj = 0; jj < nr; ++jj) acc[ii][jj] += lv * rrow[jj];
    }
  }
}

}  // namespace

bool MatMulAvx2Supported() { return __builtin_cpu_supports("avx2"); }

void MatMulInitAvx2(const float* a, const float* b, float* c, int64_t row_begin,
                    int64_t row_end, int64_t k, int64_t n) {
  for (int64_t i0 = row_begin; i0 < row_end; i0 += kTileRows) {
    int64_t mr = std::min(kTileRows, row_end - i0);
    for (int64_t j0 = 0; j0 < n; j0 += kTileCols) {
      int64_t nr = std::min(kTileCols, n - j0);
      if (mr == kTileRows && nr == kTileCols) {
        __m256 acc[kTileRows][2];
        for (int64_t ii = 0; ii < kTileRows; ++ii) {
          acc[ii][0] = _mm256_setzero_ps();
          acc[ii][1] = _mm256_setzero_ps();
        }
        for (int64_t kk = 0; kk < k; ++kk) {
          const float* brow = b + kk * n + j0;
          __m256 bv0 = _mm256_loadu_ps(brow);
          __m256 bv1 = _mm256_loadu_ps(brow + 8);
          for (int64_t ii = 0; ii < kTileRows; ++ii) {
            __m256 av = _mm256_set1_ps(a[(i0 + ii) * k + kk]);
            acc[ii][0] = _mm256_add_ps(acc[ii][0], _mm256_mul_ps(av, bv0));
            acc[ii][1] = _mm256_add_ps(acc[ii][1], _mm256_mul_ps(av, bv1));
          }
        }
        for (int64_t ii = 0; ii < kTileRows; ++ii) {
          float* crow = c + (i0 + ii) * n + j0;
          _mm256_storeu_ps(crow, acc[ii][0]);
          _mm256_storeu_ps(crow + 8, acc[ii][1]);
        }
      } else {
        float acc[kTileRows][kTileCols] = {};
        ScalarTail(
            k, [&](int64_t ii, int64_t kk) { return a[(i0 + ii) * k + kk]; },
            b + j0, n, mr, nr, acc);
        for (int64_t ii = 0; ii < mr; ++ii) {
          float* crow = c + (i0 + ii) * n + j0;
          for (int64_t jj = 0; jj < nr; ++jj) crow[jj] = acc[ii][jj];
        }
      }
    }
  }
}

void MatMulGradATAvx2(const float* g, const float* bt, float* da,
                      int64_t row_begin, int64_t row_end, int64_t k, int64_t n) {
  // dA[i, kk] += dot_j(G[i, :], B[kk, :]); bt is [n, k] with
  // bt[j * k + kk] == b[kk * n + j], so 8 consecutive kk lanes load as one
  // vector and one B^T stream feeds a block of 4 G rows.
  for (int64_t i0 = row_begin; i0 < row_end; i0 += kTileRows) {
    int64_t mr = std::min(kTileRows, row_end - i0);
    for (int64_t k0 = 0; k0 < k; k0 += kTileCols) {
      int64_t kr = std::min(kTileCols, k - k0);
      if (mr == kTileRows && kr == kTileCols) {
        __m256 acc[kTileRows][2];
        for (int64_t ii = 0; ii < kTileRows; ++ii) {
          acc[ii][0] = _mm256_setzero_ps();
          acc[ii][1] = _mm256_setzero_ps();
        }
        for (int64_t j = 0; j < n; ++j) {
          const float* btrow = bt + j * k + k0;
          __m256 bv0 = _mm256_loadu_ps(btrow);
          __m256 bv1 = _mm256_loadu_ps(btrow + 8);
          for (int64_t ii = 0; ii < kTileRows; ++ii) {
            __m256 gv = _mm256_set1_ps(g[(i0 + ii) * n + j]);
            acc[ii][0] = _mm256_add_ps(acc[ii][0], _mm256_mul_ps(gv, bv0));
            acc[ii][1] = _mm256_add_ps(acc[ii][1], _mm256_mul_ps(gv, bv1));
          }
        }
        for (int64_t ii = 0; ii < kTileRows; ++ii) {
          float* darow = da + (i0 + ii) * k + k0;
          _mm256_storeu_ps(
              darow, _mm256_add_ps(_mm256_loadu_ps(darow), acc[ii][0]));
          _mm256_storeu_ps(
              darow + 8, _mm256_add_ps(_mm256_loadu_ps(darow + 8), acc[ii][1]));
        }
      } else {
        float acc[kTileRows][kTileCols] = {};
        ScalarTail(
            n, [&](int64_t ii, int64_t j) { return g[(i0 + ii) * n + j]; },
            bt + k0, k, mr, kr, acc);
        for (int64_t ii = 0; ii < mr; ++ii) {
          float* darow = da + (i0 + ii) * k + k0;
          for (int64_t jj = 0; jj < kr; ++jj) darow[jj] += acc[ii][jj];
        }
      }
    }
  }
}

void MatMulGradBAvx2(const float* a, const float* g, float* db,
                     int64_t row_begin, int64_t row_end, int64_t m, int64_t k,
                     int64_t n) {
  for (int64_t k0 = row_begin; k0 < row_end; k0 += kTileRows) {
    int64_t mr = std::min(kTileRows, row_end - k0);
    for (int64_t j0 = 0; j0 < n; j0 += kTileCols) {
      int64_t nr = std::min(kTileCols, n - j0);
      if (mr == kTileRows && nr == kTileCols) {
        __m256 acc[kTileRows][2];
        for (int64_t ii = 0; ii < kTileRows; ++ii) {
          const float* dbrow = db + (k0 + ii) * n + j0;
          acc[ii][0] = _mm256_loadu_ps(dbrow);
          acc[ii][1] = _mm256_loadu_ps(dbrow + 8);
        }
        for (int64_t i = 0; i < m; ++i) {
          const float* grow = g + i * n + j0;
          __m256 gv0 = _mm256_loadu_ps(grow);
          __m256 gv1 = _mm256_loadu_ps(grow + 8);
          for (int64_t ii = 0; ii < kTileRows; ++ii) {
            __m256 av = _mm256_set1_ps(a[i * k + k0 + ii]);
            acc[ii][0] = _mm256_add_ps(acc[ii][0], _mm256_mul_ps(av, gv0));
            acc[ii][1] = _mm256_add_ps(acc[ii][1], _mm256_mul_ps(av, gv1));
          }
        }
        for (int64_t ii = 0; ii < kTileRows; ++ii) {
          float* dbrow = db + (k0 + ii) * n + j0;
          _mm256_storeu_ps(dbrow, acc[ii][0]);
          _mm256_storeu_ps(dbrow + 8, acc[ii][1]);
        }
      } else {
        float acc[kTileRows][kTileCols] = {};
        for (int64_t ii = 0; ii < mr; ++ii) {
          const float* dbrow = db + (k0 + ii) * n + j0;
          for (int64_t jj = 0; jj < nr; ++jj) acc[ii][jj] = dbrow[jj];
        }
        ScalarTail(
            m, [&](int64_t ii, int64_t i) { return a[i * k + k0 + ii]; },
            g + j0, n, mr, nr, acc);
        for (int64_t ii = 0; ii < mr; ++ii) {
          float* dbrow = db + (k0 + ii) * n + j0;
          for (int64_t jj = 0; jj < nr; ++jj) dbrow[jj] = acc[ii][jj];
        }
      }
    }
  }
}

}  // namespace sarn::tensor::kernels

#endif  // SARN_HAVE_AVX2_KERNELS
