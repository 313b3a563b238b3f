#include "tensor/matmul_kernels.h"

#include <algorithm>

#include "tensor/simd/simd.h"

namespace sarn::tensor::kernels {
namespace {

// Full-width forward/dB micro-kernel: accumulates a kMr x kNr tile of
// `out += rows * cols` where `rows` yields the tile's left-operand scalars
// and `cols` the contiguous right-operand row per reduction step.
template <typename LeftAt>
inline void AccumulateTile(int64_t reduce, LeftAt left_at, const float* right,
                           int64_t right_stride, float acc[kMr][kNr]) {
  for (int64_t r = 0; r < reduce; ++r) {
    const float* rrow = right + r * right_stride;
    for (int64_t ii = 0; ii < kMr; ++ii) {
      float lv = left_at(ii, r);
      for (int64_t jj = 0; jj < kNr; ++jj) acc[ii][jj] += lv * rrow[jj];
    }
  }
}

// Seeds the register tile from the output buffer so every element's
// floating-point accumulation chain starts from the existing value, exactly
// as the naive kernels' in-place `out[j] += term` updates do. Accumulating
// into a zeroed tile and adding it afterwards would round differently
// whenever the output is non-zero on entry.
inline void LoadTile(const float* out, int64_t stride, int64_t mr, int64_t nr,
                     float acc[kMr][kNr]) {
  for (int64_t ii = 0; ii < mr; ++ii) {
    const float* row = out + ii * stride;
    for (int64_t jj = 0; jj < nr; ++jj) acc[ii][jj] = row[jj];
  }
}

inline void StoreTile(const float acc[kMr][kNr], int64_t mr, int64_t nr,
                      float* out, int64_t stride) {
  for (int64_t ii = 0; ii < mr; ++ii) {
    float* row = out + ii * stride;
    for (int64_t jj = 0; jj < nr; ++jj) row[jj] = acc[ii][jj];
  }
}

}  // namespace

void MatMulNaive(const float* a, const float* b, float* c, int64_t row_begin,
                 int64_t row_end, int64_t k, int64_t n) {
  for (int64_t i = row_begin; i < row_end; ++i) {
    const float* arow = a + i * k;
    float* crow = c + i * n;
    for (int64_t kk = 0; kk < k; ++kk) {
      float av = arow[kk];
      if (av == 0.0f) continue;
      const float* brow = b + kk * n;
      for (int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

void MatMulBlockedInit(const float* a, const float* b, float* c, int64_t row_begin,
                       int64_t row_end, int64_t k, int64_t n) {
  for (int64_t i0 = row_begin; i0 < row_end; i0 += kMr) {
    int64_t mr = std::min(kMr, row_end - i0);
    for (int64_t j0 = 0; j0 < n; j0 += kNr) {
      int64_t nr = std::min(kNr, n - j0);
      // The tile seed is +0.0f, so each element's chain is the naive
      // kernel's over a zeroed output while C is written exactly once and
      // never read.
      float acc[kMr][kNr] = {};
      if (mr == kMr && nr == kNr) {
        AccumulateTile(
            k, [&](int64_t ii, int64_t kk) { return a[(i0 + ii) * k + kk]; },
            b + j0, n, acc);
      } else {
        for (int64_t kk = 0; kk < k; ++kk) {
          const float* brow = b + kk * n + j0;
          for (int64_t ii = 0; ii < mr; ++ii) {
            float av = a[(i0 + ii) * k + kk];
            for (int64_t jj = 0; jj < nr; ++jj) acc[ii][jj] += av * brow[jj];
          }
        }
      }
      StoreTile(acc, mr, nr, c + i0 * n + j0, n);
    }
  }
}

void MatMulGradANaive(const float* g, const float* b, float* da, int64_t row_begin,
                      int64_t row_end, int64_t k, int64_t n) {
  for (int64_t i = row_begin; i < row_end; ++i) {
    const float* grow = g + i * n;
    float* darow = da + i * k;
    for (int64_t kk = 0; kk < k; ++kk) {
      const float* brow = b + kk * n;
      float acc = 0.0f;
      for (int64_t j = 0; j < n; ++j) acc += grow[j] * brow[j];
      darow[kk] += acc;
    }
  }
}

void MatMulGradABlocked(const float* g, const float* b, float* da, int64_t row_begin,
                        int64_t row_end, int64_t k, int64_t n) {
  // dA[i,kk] = <G row i, B row kk>: 4x2 tiles of simultaneous dot products
  // so each loaded G/B value feeds several accumulators. Scalar accumulation
  // in ascending j keeps the reduction order identical to the naive kernel
  // (the dependent-add chains cannot be vectorised without reassociating).
  // The narrow tile keeps accumulators plus operand temporaries within the
  // 16 SSE registers; wider tiles spill and run slower than naive.
  constexpr int64_t kRows = 4;
  constexpr int64_t kCols = 2;
  for (int64_t i0 = row_begin; i0 < row_end; i0 += kRows) {
    int64_t mr = std::min(kRows, row_end - i0);
    for (int64_t k0 = 0; k0 < k; k0 += kCols) {
      int64_t kr = std::min(kCols, k - k0);
      float acc[kRows][kCols] = {};
      if (mr == kRows && kr == kCols) {
        for (int64_t j = 0; j < n; ++j) {
          float bv[kCols];
          for (int64_t cc = 0; cc < kCols; ++cc) bv[cc] = b[(k0 + cc) * n + j];
          for (int64_t ii = 0; ii < kRows; ++ii) {
            float gv = g[(i0 + ii) * n + j];
            for (int64_t cc = 0; cc < kCols; ++cc) acc[ii][cc] += gv * bv[cc];
          }
        }
      } else {
        for (int64_t j = 0; j < n; ++j) {
          for (int64_t ii = 0; ii < mr; ++ii) {
            float gv = g[(i0 + ii) * n + j];
            for (int64_t cc = 0; cc < kr; ++cc) acc[ii][cc] += gv * b[(k0 + cc) * n + j];
          }
        }
      }
      for (int64_t ii = 0; ii < mr; ++ii) {
        for (int64_t cc = 0; cc < kr; ++cc) da[(i0 + ii) * k + k0 + cc] += acc[ii][cc];
      }
    }
  }
}

void MatMulGradBNaive(const float* a, const float* g, float* db, int64_t row_begin,
                      int64_t row_end, int64_t m, int64_t k, int64_t n) {
  for (int64_t kk = row_begin; kk < row_end; ++kk) {
    float* dbrow = db + kk * n;
    for (int64_t i = 0; i < m; ++i) {
      float av = a[i * k + kk];
      if (av == 0.0f) continue;
      const float* grow = g + i * n;
      for (int64_t j = 0; j < n; ++j) dbrow[j] += av * grow[j];
    }
  }
}

void MatMulGradBBlocked(const float* a, const float* g, float* db, int64_t row_begin,
                        int64_t row_end, int64_t m, int64_t k, int64_t n) {
  // dB[kk,j] = sum_i A[i,kk] * G[i,j]: same register tile as the forward,
  // with the reduction over i. A is read down a column (stride k), but only
  // kMr scalars per step against kNr contiguous G values.
  for (int64_t k0 = row_begin; k0 < row_end; k0 += kMr) {
    int64_t mr = std::min(kMr, row_end - k0);
    for (int64_t j0 = 0; j0 < n; j0 += kNr) {
      int64_t nr = std::min(kNr, n - j0);
      float acc[kMr][kNr] = {};
      LoadTile(db + k0 * n + j0, n, mr, nr, acc);
      if (mr == kMr && nr == kNr) {
        AccumulateTile(
            m, [&](int64_t ii, int64_t i) { return a[i * k + k0 + ii]; },
            g + j0, n, acc);
      } else {
        for (int64_t i = 0; i < m; ++i) {
          const float* grow = g + i * n + j0;
          for (int64_t ii = 0; ii < mr; ++ii) {
            float av = a[i * k + k0 + ii];
            for (int64_t jj = 0; jj < nr; ++jj) acc[ii][jj] += av * grow[jj];
          }
        }
      }
      StoreTile(acc, mr, nr, db + k0 * n + j0, n);
    }
  }
}

// Follows the serve-scan tier dispatch (simd.h): the SARN_SIMD override and
// ForceTier() govern the compiled matmul kernels too, so a scalar-forced run
// exercises the reference kernels on every path.
bool MatMulCompiledAvailable() {
  return simd::ActiveTier() == simd::Tier::kAvx2;
}

}  // namespace sarn::tensor::kernels
