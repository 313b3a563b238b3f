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
//
// Narrow outputs (n < 16, e.g. the [rows, 1] GAT attention scores) have no
// full 16-column tile, so the forward and dB kernels turn the lanes the
// other way: 8 output ROWS per vector, each vector one output column. Each
// lane still carries one element's own chain (same seed, same mul-then-add
// order), so the identity holds on this path too.

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

// Lane count of the narrow (n < kTileCols) path: 8 output rows per vector.
constexpr int64_t kLanes = 8;

// In-register transpose: on return r[q] holds column q of the 8x8 block
// whose rows were r[0..7]. Pure data movement.
inline void Transpose8x8(__m256 r[kLanes]) {
  __m256 t0 = _mm256_unpacklo_ps(r[0], r[1]);
  __m256 t1 = _mm256_unpackhi_ps(r[0], r[1]);
  __m256 t2 = _mm256_unpacklo_ps(r[2], r[3]);
  __m256 t3 = _mm256_unpackhi_ps(r[2], r[3]);
  __m256 t4 = _mm256_unpacklo_ps(r[4], r[5]);
  __m256 t5 = _mm256_unpackhi_ps(r[4], r[5]);
  __m256 t6 = _mm256_unpacklo_ps(r[6], r[7]);
  __m256 t7 = _mm256_unpackhi_ps(r[6], r[7]);
  __m256 s0 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(1, 0, 1, 0));
  __m256 s1 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(3, 2, 3, 2));
  __m256 s2 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(1, 0, 1, 0));
  __m256 s3 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(3, 2, 3, 2));
  __m256 s4 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(1, 0, 1, 0));
  __m256 s5 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(3, 2, 3, 2));
  __m256 s6 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(1, 0, 1, 0));
  __m256 s7 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(3, 2, 3, 2));
  r[0] = _mm256_permute2f128_ps(s0, s4, 0x20);
  r[1] = _mm256_permute2f128_ps(s1, s5, 0x20);
  r[2] = _mm256_permute2f128_ps(s2, s6, 0x20);
  r[3] = _mm256_permute2f128_ps(s3, s7, 0x20);
  r[4] = _mm256_permute2f128_ps(s0, s4, 0x31);
  r[5] = _mm256_permute2f128_ps(s1, s5, 0x31);
  r[6] = _mm256_permute2f128_ps(s2, s6, 0x31);
  r[7] = _mm256_permute2f128_ps(s3, s7, 0x31);
}

// Element (lane, j) of an 8-row block of a row-major [., n] matrix lives at
// base[lane * n + j]; n == 1 makes each column one contiguous vector.
inline __m256 LoadColumn(const float* base, int64_t n, int64_t j) {
  if (n == 1) return _mm256_loadu_ps(base);
  alignas(32) float v[kLanes];
  for (int64_t lane = 0; lane < kLanes; ++lane) v[lane] = base[lane * n + j];
  return _mm256_load_ps(v);
}

inline void StoreColumn(__m256 v, float* base, int64_t n, int64_t j) {
  if (n == 1) {
    _mm256_storeu_ps(base, v);
    return;
  }
  alignas(32) float lanes[kLanes];
  _mm256_store_ps(lanes, v);
  for (int64_t lane = 0; lane < kLanes; ++lane) base[lane * n + j] = lanes[lane];
}

// Forward for n < kTileCols, output column j: C[i, j] = +0 + sum_kk
// A[i, kk] * B[kk, j], ascending kk, with rows i0 .. i0 + 7 in the lanes.
// A's 8 x 8 blocks are transposed in registers so each kk step is one
// vector of 8 rows.
void NarrowInitColumn(const float* a, const float* b, float* c, int64_t row_begin,
                      int64_t row_end, int64_t k, int64_t n, int64_t j) {
  int64_t i0 = row_begin;
  for (; i0 + kLanes <= row_end; i0 += kLanes) {
    __m256 acc = _mm256_setzero_ps();
    const float* ablock = a + i0 * k;
    int64_t kk = 0;
    for (; kk + kLanes <= k; kk += kLanes) {
      __m256 col[kLanes];
      for (int64_t q = 0; q < kLanes; ++q) col[q] = _mm256_loadu_ps(ablock + q * k + kk);
      Transpose8x8(col);
      for (int64_t q = 0; q < kLanes; ++q) {
        __m256 bv = _mm256_set1_ps(b[(kk + q) * n + j]);
        acc = _mm256_add_ps(acc, _mm256_mul_ps(col[q], bv));
      }
    }
    for (; kk < k; ++kk) {
      __m256 av = _mm256_set_ps(ablock[7 * k + kk], ablock[6 * k + kk],
                                ablock[5 * k + kk], ablock[4 * k + kk],
                                ablock[3 * k + kk], ablock[2 * k + kk],
                                ablock[k + kk], ablock[kk]);
      acc = _mm256_add_ps(acc, _mm256_mul_ps(av, _mm256_set1_ps(b[kk * n + j])));
    }
    StoreColumn(acc, c + i0 * n, n, j);
  }
  for (; i0 < row_end; ++i0) {
    float acc = 0.0f;
    for (int64_t kk = 0; kk < k; ++kk) acc += a[i0 * k + kk] * b[kk * n + j];
    c[i0 * n + j] = acc;
  }
}

// dB for n < kTileCols, output column j: dB[kk, j] seeded from dB,
// += A[i, kk] * G[i, j] ascending i, with kk rows in the lanes (contiguous
// in A's rows). kB lane blocks run side by side: each chain is m adds long,
// so independent blocks are what keeps the adder busy. The rows left over
// go to the kB / 2 variant, down to single blocks and then scalar rows.
template <int64_t kB>
void NarrowGradBColumn(const float* a, const float* g, float* db, int64_t row_begin,
                       int64_t row_end, int64_t m, int64_t k, int64_t n, int64_t j) {
  constexpr int64_t kSpan = kB * kLanes;
  int64_t k0 = row_begin;
  for (; k0 + kSpan <= row_end; k0 += kSpan) {
    __m256 acc[kB];
    for (int64_t bl = 0; bl < kB; ++bl) {
      acc[bl] = LoadColumn(db + (k0 + bl * kLanes) * n, n, j);
    }
    for (int64_t i = 0; i < m; ++i) {
      const float* arow = a + i * k + k0;
      __m256 gv = _mm256_set1_ps(g[i * n + j]);
      for (int64_t bl = 0; bl < kB; ++bl) {
        __m256 av = _mm256_loadu_ps(arow + bl * kLanes);
        acc[bl] = _mm256_add_ps(acc[bl], _mm256_mul_ps(av, gv));
      }
    }
    for (int64_t bl = 0; bl < kB; ++bl) {
      StoreColumn(acc[bl], db + (k0 + bl * kLanes) * n, n, j);
    }
  }
  if constexpr (kB > 1) {
    NarrowGradBColumn<kB / 2>(a, g, db, k0, row_end, m, k, n, j);
  } else {
    for (; k0 < row_end; ++k0) {
      float acc = db[k0 * n + j];
      for (int64_t i = 0; i < m; ++i) acc += a[i * k + k0] * g[i * n + j];
      db[k0 * n + j] = acc;
    }
  }
}

}  // namespace

bool MatMulAvx2Supported() { return __builtin_cpu_supports("avx2"); }

void MatMulInitAvx2(const float* a, const float* b, float* c, int64_t row_begin,
                    int64_t row_end, int64_t k, int64_t n) {
  if (n < kTileCols) {
    for (int64_t j = 0; j < n; ++j) {
      NarrowInitColumn(a, b, c, row_begin, row_end, k, n, j);
    }
    return;
  }
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
  if (n < kTileCols) {
    // Four lane blocks: 4 accumulators, a broadcast and an A vector per step.
    for (int64_t j = 0; j < n; ++j) {
      NarrowGradBColumn<4>(a, g, db, row_begin, row_end, m, k, n, j);
    }
    return;
  }
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
