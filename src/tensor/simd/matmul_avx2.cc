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
// A full 4-row tile whose last column block is narrower than 16 runs the
// same vector chain on masked lanes (_mm256_maskload_ps/_mm256_maskstore_ps):
// masked-off lanes load +0, compute values nobody reads and are never
// stored, so each live lane is still one element with its own seed and
// chain. Rows left over below a 4-row tile run the same scalar loops as the
// blocked kernels; since every element's chain is independent, mixing
// vector tiles with scalar edge rows cannot change any result. ops_test pins
// the bitwise scalar-vs-AVX2 identity on tile-multiple, remainder and
// degenerate shapes, and that masked stores write no byte outside the tile.
//
// Narrow outputs (n < 16, e.g. the [rows, 1] GAT attention scores) have no
// full 16-column tile, so the forward and dB kernels turn the lanes the
// other way: 8 output ROWS per vector, each vector one output column. Each
// lane still carries one element's own chain (same seed, same mul-then-add
// order), so the identity holds on this path too.
//
// Register residency: every loop over a tile row, a half tile, a lane or a
// lane block goes through Unroll, so accumulator arrays only ever see
// constant subscripts and stay in ymm registers, and the three entry points
// are [[gnu::flatten]], so every helper and lambda is inlined into them
// regardless of the inliner's size limits. A plain `for` over the tile rows
// is not unrolled at -O2, which leaves the accumulators in a stack array
// that every k step loads and stores; tools/check_gemm_registers.py checks
// the k loops' disassembly (DESIGN.md §15).

#if defined(SARN_HAVE_AVX2_KERNELS)

#include <immintrin.h>

#include <algorithm>
#include <cstdint>
#include <type_traits>
#include <utility>

#include "tensor/matmul_kernels.h"

namespace sarn::tensor::kernels {
namespace {

// 4 output rows x 16 output columns: 8 ymm accumulators + 2 operand-row
// vectors + 1 broadcast stay inside the 16-register file.
constexpr int64_t kTileRows = 4;
constexpr int64_t kTileCols = 16;

// Lanes per vector: a 16-column tile is two vectors, and the narrow path
// puts 8 output rows in one.
constexpr int64_t kLanes = 8;

// Calls f(std::integral_constant<int64_t, 0>{}) .. f(<kN - 1>) in order,
// expanded at compile time rather than left to the optimiser's unrolling.
template <int64_t kN, typename F>
inline void Unroll(F&& f) {
  [&]<int64_t... kI>(std::integer_sequence<int64_t, kI...>) {
    (f(std::integral_constant<int64_t, kI>{}), ...);
  }(std::make_integer_sequence<int64_t, kN>{});
}

// The columns of one tile: kVecs vectors of 8 lanes, either all live (plain
// loads and stores) or cut by a lane mask to the `cols` columns that exist.
template <int64_t kVecs, bool kMasked>
struct TileCols {
  static constexpr int64_t kVectors = kVecs;

  explicit TileCols(int64_t cols) {
    if constexpr (kMasked) {
      const __m256i lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
      Unroll<kVecs>([&](auto h) {
        mask[h] = _mm256_cmpgt_epi32(
            _mm256_set1_epi32(static_cast<int>(cols - h * kLanes)), lane);
      });
    }
  }

  // Vector h of the tile row starting at p; masked-off lanes read +0 and
  // touch no memory.
  __m256 Load(const float* p, int64_t h) const {
    if constexpr (kMasked) return _mm256_maskload_ps(p + h * kLanes, mask[h]);
    return _mm256_loadu_ps(p + h * kLanes);
  }

  void Store(float* p, int64_t h, __m256 v) const {
    if constexpr (kMasked) {
      _mm256_maskstore_ps(p + h * kLanes, mask[h], v);
    } else {
      _mm256_storeu_ps(p + h * kLanes, v);
    }
  }

  __m256i mask[kVecs];  // Set and read only when kMasked.
};

// Runs tile(c0, cols) over the 16-column blocks of [0, total): whole blocks
// unmasked, the remainder masked, in one vector when it fits in 8 lanes.
template <typename Tile>
inline void ForEachColumnBlock(int64_t total, Tile&& tile) {
  int64_t c0 = 0;
  for (; c0 + kTileCols <= total; c0 += kTileCols) {
    tile(c0, TileCols<2, false>(kTileCols));
  }
  int64_t rest = total - c0;
  if (rest > kLanes) {
    tile(c0, TileCols<2, true>(rest));
  } else if (rest > 0) {
    tile(c0, TileCols<1, true>(rest));
  }
}

// The k loop of a 4-row tile: acc[ii][h] += left(ii, r) * right(r, h) for
// r ascending, where left(ii, r) = left[ii * left_row + r * left_step] and
// right(r, h) is vector h of the row at right + r * right_step. One
// broadcast feeds both vectors of a row; mul then add, never fused.
template <typename Cols>
inline void TileChain(
    int64_t reduce, const float* left, int64_t left_row, int64_t left_step,
    const float* right, int64_t right_step, const Cols& cols,
    __m256 (&acc)[kTileRows][Cols::kVectors]) {
  constexpr int64_t kVecs = Cols::kVectors;
  for (int64_t r = 0; r < reduce; ++r) {
    const float* rrow = right + r * right_step;
    __m256 v[kVecs];
    Unroll<kVecs>([&](auto h) { v[h] = cols.Load(rrow, h); });
    Unroll<kTileRows>([&](auto ii) {
      __m256 s = _mm256_set1_ps(left[ii * left_row + r * left_step]);
      Unroll<kVecs>([&](auto h) {
        acc[ii][h] = _mm256_add_ps(acc[ii][h], _mm256_mul_ps(s, v[h]));
      });
    });
  }
}

// Scalar edge path for the rows below a full tile: accumulate
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
// vector of 8 rows. kUnitN compiles B's column stride as the constant 1
// (the n == 1 attention scores), which frees the integer registers that
// the eight strided B offsets would otherwise reload from the stack.
template <bool kUnitN>
void NarrowInitColumn(const float* a, const float* b, float* c, int64_t row_begin,
                      int64_t row_end, int64_t k, int64_t n, int64_t j) {
  if constexpr (kUnitN) n = 1;
  int64_t i0 = row_begin;
  for (; i0 + kLanes <= row_end; i0 += kLanes) {
    __m256 acc = _mm256_setzero_ps();
    const float* ablock = a + i0 * k;
    int64_t kk = 0;
    for (; kk + kLanes <= k; kk += kLanes) {
      __m256 col[kLanes];
      Unroll<kLanes>([&](auto q) { col[q] = _mm256_loadu_ps(ablock + q * k + kk); });
      Transpose8x8(col);
      Unroll<kLanes>([&](auto q) {
        __m256 bv = _mm256_set1_ps(b[(kk + q) * n + j]);
        acc = _mm256_add_ps(acc, _mm256_mul_ps(col[q], bv));
      });
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
    Unroll<kB>([&](auto bl) { acc[bl] = LoadColumn(db + (k0 + bl * kLanes) * n, n, j); });
    for (int64_t i = 0; i < m; ++i) {
      const float* arow = a + i * k + k0;
      __m256 gv = _mm256_set1_ps(g[i * n + j]);
      Unroll<kB>([&](auto bl) {
        __m256 av = _mm256_loadu_ps(arow + bl * kLanes);
        acc[bl] = _mm256_add_ps(acc[bl], _mm256_mul_ps(av, gv));
      });
    }
    Unroll<kB>([&](auto bl) { StoreColumn(acc[bl], db + (k0 + bl * kLanes) * n, n, j); });
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

[[gnu::flatten]] void MatMulInitAvx2(const float* a, const float* b, float* c,
                                     int64_t row_begin, int64_t row_end, int64_t k,
                                     int64_t n) {
  if (n < kTileCols) {
    if (n == 1) {
      NarrowInitColumn<true>(a, b, c, row_begin, row_end, k, n, 0);
      return;
    }
    for (int64_t j = 0; j < n; ++j) {
      NarrowInitColumn<false>(a, b, c, row_begin, row_end, k, n, j);
    }
    return;
  }
  int64_t i0 = row_begin;
  for (; i0 + kTileRows <= row_end; i0 += kTileRows) {
    ForEachColumnBlock(n, [&](int64_t j0, const auto& cols) {
      constexpr int64_t kVecs = std::decay_t<decltype(cols)>::kVectors;
      __m256 acc[kTileRows][kVecs];
      Unroll<kTileRows>([&](auto ii) {
        Unroll<kVecs>([&](auto h) { acc[ii][h] = _mm256_setzero_ps(); });
      });
      TileChain(k, a + i0 * k, k, 1, b + j0, n, cols, acc);
      Unroll<kTileRows>([&](auto ii) {
        float* crow = c + (i0 + ii) * n + j0;
        Unroll<kVecs>([&](auto h) { cols.Store(crow, h, acc[ii][h]); });
      });
    });
  }
  if (i0 == row_end) return;
  int64_t mr = row_end - i0;
  for (int64_t j0 = 0; j0 < n; j0 += kTileCols) {
    int64_t nr = std::min(kTileCols, n - j0);
    float acc[kTileRows][kTileCols] = {};
    ScalarTail(
        k, [&](int64_t ii, int64_t kk) { return a[(i0 + ii) * k + kk]; }, b + j0,
        n, mr, nr, acc);
    for (int64_t ii = 0; ii < mr; ++ii) {
      float* crow = c + (i0 + ii) * n + j0;
      for (int64_t jj = 0; jj < nr; ++jj) crow[jj] = acc[ii][jj];
    }
  }
}

[[gnu::flatten]] void MatMulGradATAvx2(const float* g, const float* bt, float* da,
                                       int64_t row_begin, int64_t row_end, int64_t k,
                                       int64_t n) {
  // dA[i, kk] += dot_j(G[i, :], B[kk, :]); bt is [n, k] with
  // bt[j * k + kk] == b[kk * n + j], so 8 consecutive kk lanes load as one
  // vector and one B^T stream feeds a block of 4 G rows.
  int64_t i0 = row_begin;
  for (; i0 + kTileRows <= row_end; i0 += kTileRows) {
    ForEachColumnBlock(k, [&](int64_t k0, const auto& cols) {
      constexpr int64_t kVecs = std::decay_t<decltype(cols)>::kVectors;
      __m256 acc[kTileRows][kVecs];
      Unroll<kTileRows>([&](auto ii) {
        Unroll<kVecs>([&](auto h) { acc[ii][h] = _mm256_setzero_ps(); });
      });
      TileChain(n, g + i0 * n, n, 1, bt + k0, k, cols, acc);
      Unroll<kTileRows>([&](auto ii) {
        float* darow = da + (i0 + ii) * k + k0;
        Unroll<kVecs>([&](auto h) {
          cols.Store(darow, h, _mm256_add_ps(cols.Load(darow, h), acc[ii][h]));
        });
      });
    });
  }
  if (i0 == row_end) return;
  int64_t mr = row_end - i0;
  for (int64_t k0 = 0; k0 < k; k0 += kTileCols) {
    int64_t kr = std::min(kTileCols, k - k0);
    float acc[kTileRows][kTileCols] = {};
    ScalarTail(
        n, [&](int64_t ii, int64_t j) { return g[(i0 + ii) * n + j]; }, bt + k0,
        k, mr, kr, acc);
    for (int64_t ii = 0; ii < mr; ++ii) {
      float* darow = da + (i0 + ii) * k + k0;
      for (int64_t jj = 0; jj < kr; ++jj) darow[jj] += acc[ii][jj];
    }
  }
}

[[gnu::flatten]] void MatMulGradBAvx2(const float* a, const float* g, float* db,
                                      int64_t row_begin, int64_t row_end, int64_t m,
                                      int64_t k, int64_t n) {
  if (n < kTileCols) {
    // Four lane blocks: 4 accumulators, a broadcast and an A vector per step.
    for (int64_t j = 0; j < n; ++j) {
      NarrowGradBColumn<4>(a, g, db, row_begin, row_end, m, k, n, j);
    }
    return;
  }
  int64_t k0 = row_begin;
  for (; k0 + kTileRows <= row_end; k0 += kTileRows) {
    ForEachColumnBlock(n, [&](int64_t j0, const auto& cols) {
      constexpr int64_t kVecs = std::decay_t<decltype(cols)>::kVectors;
      __m256 acc[kTileRows][kVecs];
      Unroll<kTileRows>([&](auto ii) {
        const float* dbrow = db + (k0 + ii) * n + j0;
        Unroll<kVecs>([&](auto h) { acc[ii][h] = cols.Load(dbrow, h); });
      });
      TileChain(m, a + k0, 1, k, g + j0, n, cols, acc);
      Unroll<kTileRows>([&](auto ii) {
        float* dbrow = db + (k0 + ii) * n + j0;
        Unroll<kVecs>([&](auto h) { cols.Store(dbrow, h, acc[ii][h]); });
      });
    });
  }
  if (k0 == row_end) return;
  int64_t mr = row_end - k0;
  for (int64_t j0 = 0; j0 < n; j0 += kTileCols) {
    int64_t nr = std::min(kTileCols, n - j0);
    float acc[kTileRows][kTileCols] = {};
    for (int64_t ii = 0; ii < mr; ++ii) {
      const float* dbrow = db + (k0 + ii) * n + j0;
      for (int64_t jj = 0; jj < nr; ++jj) acc[ii][jj] = dbrow[jj];
    }
    ScalarTail(
        m, [&](int64_t ii, int64_t i) { return a[i * k + k0 + ii]; }, g + j0, n,
        mr, nr, acc);
    for (int64_t ii = 0; ii < mr; ++ii) {
      float* dbrow = db + (k0 + ii) * n + j0;
      for (int64_t jj = 0; jj < nr; ++jj) dbrow[jj] = acc[ii][jj];
    }
  }
}

}  // namespace sarn::tensor::kernels

#endif  // SARN_HAVE_AVX2_KERNELS
