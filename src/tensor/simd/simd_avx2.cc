// AVX2 tier: 8-wide float and 32-wide int8 scan kernels. This translation
// unit is the only one compiled with -mavx2 (no -mfma: mul+add must stay two
// IEEE operations so the scalar tier reproduces every score bit for bit —
// see simd.h). Row loads are shared across a block of up to kMaxQueryBlock
// queries, which is where the batched kernels beat a per-query loop: each
// streamed row feeds four accumulator sets instead of one.
//
// Reduction schedule (must match simd_scalar.cc exactly):
//   * float: lane l accumulates j ≡ l (mod 8) ascending; horizontal combine
//     ((a0+a4)+(a2+a6)) + ((a1+a5)+(a3+a7)); ascending scalar tail.
//   * int8 dot: |a| × sign-adjusted b through maddubs (codes are clamped to
//     ±127 by the quantizer, so pair sums ≤ 32258 fit i16 exactly), widened
//     to i32 — exact integers, order-free, so four accumulators reduce
//     jointly through one hadd tree. A full block of four queries shares
//     |row| (Block4); fewer than four run one query against four rows at a
//     time, sharing |q| (Rows4).
//   * int8 L1: bias both sides by 0x80 and psadbw — exact integers.
//
// The final scale multiply stays the single float expression the scalar tier
// uses — float(acc) * (q_scale * r_scale) for dot, -(float(acc) * scale) for
// L1 — evaluated lane-wise (cvtdq2ps rounds exactly like static_cast<float>,
// and multiplying by a negated operand only flips the sign bit).

#if defined(SARN_HAVE_AVX2_KERNELS)

#include <immintrin.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>

#include "tensor/simd/kernel_table.h"
#include "tensor/simd/simd.h"

namespace sarn::tensor::simd::internal {
namespace {

// ((a0+a4)+(a2+a6)) + ((a1+a5)+(a3+a7)) — the tree the scalar tier mirrors.
inline float ReduceAdd(__m256 v) {
  __m128 lo = _mm256_castps256_ps128(v);
  __m128 hi = _mm256_extractf128_ps(v, 1);
  __m128 s = _mm_add_ps(lo, hi);            // s_l = a_l + a_{l+4}
  s = _mm_add_ps(s, _mm_movehl_ps(s, s));   // s0 = (a0+a4)+(a2+a6), s1 = ...
  s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 1));
  return _mm_cvtss_f32(s);
}

template <int QN>
void DotScanAvx2Impl(const float* queries, const float* rows, int64_t n,
                     int64_t d, float* out, int64_t out_stride) {
  for (int64_t r = 0; r < n; ++r) {
    const float* row = rows + r * d;
    __m256 acc[QN];
    for (int qi = 0; qi < QN; ++qi) acc[qi] = _mm256_setzero_ps();
    int64_t j = 0;
    for (; j + 8 <= d; j += 8) {
      __m256 rv = _mm256_loadu_ps(row + j);
      for (int qi = 0; qi < QN; ++qi) {
        __m256 qv = _mm256_loadu_ps(queries + static_cast<int64_t>(qi) * d + j);
        acc[qi] = _mm256_add_ps(acc[qi], _mm256_mul_ps(qv, rv));
      }
    }
    for (int qi = 0; qi < QN; ++qi) {
      const float* q = queries + static_cast<int64_t>(qi) * d;
      float sum = ReduceAdd(acc[qi]);
      for (int64_t t = j; t < d; ++t) sum += q[t] * row[t];
      out[static_cast<int64_t>(qi) * out_stride + r] = sum;
    }
  }
}

template <int QN>
void L1ScanAvx2Impl(const float* queries, const float* rows, int64_t n,
                    int64_t d, float* out, int64_t out_stride) {
  const __m256 abs_mask = _mm256_castsi256_ps(_mm256_set1_epi32(0x7fffffff));
  for (int64_t r = 0; r < n; ++r) {
    const float* row = rows + r * d;
    __m256 acc[QN];
    for (int qi = 0; qi < QN; ++qi) acc[qi] = _mm256_setzero_ps();
    int64_t j = 0;
    for (; j + 8 <= d; j += 8) {
      __m256 rv = _mm256_loadu_ps(row + j);
      for (int qi = 0; qi < QN; ++qi) {
        __m256 qv = _mm256_loadu_ps(queries + static_cast<int64_t>(qi) * d + j);
        __m256 diff = _mm256_and_ps(_mm256_sub_ps(qv, rv), abs_mask);
        acc[qi] = _mm256_add_ps(acc[qi], diff);
      }
    }
    for (int qi = 0; qi < QN; ++qi) {
      const float* q = queries + static_cast<int64_t>(qi) * d;
      float sum = ReduceAdd(acc[qi]);
      for (int64_t t = j; t < d; ++t) sum += std::fabs(q[t] - row[t]);
      out[static_cast<int64_t>(qi) * out_stride + r] = -sum;
    }
  }
}

// Sums the four i32 lanes-of-interest after madd: exact, order-free.
inline int32_t ReduceAddI32(__m256i v) {
  __m128i lo = _mm256_castsi256_si128(v);
  __m128i hi = _mm256_extracti128_si256(v, 1);
  __m128i s = _mm_add_epi32(lo, hi);
  s = _mm_add_epi32(s, _mm_srli_si128(s, 8));
  s = _mm_add_epi32(s, _mm_srli_si128(s, 4));
  return _mm_cvtsi128_si32(s);
}

// Joint reduction of a full query block: result lane q holds the i32 lane sum
// of acc_q. One hadd tree for four accumulators costs about what one
// ReduceAddI32 does, which is what makes the 4-query int8 row loop cheap —
// exact integers, so the reassociation is free.
inline __m128i ReduceAdd4I32(__m256i a0, __m256i a1, __m256i a2, __m256i a3) {
  __m256i s01 = _mm256_hadd_epi32(a0, a1);
  __m256i s23 = _mm256_hadd_epi32(a2, a3);
  __m256i s = _mm256_hadd_epi32(s01, s23);  // [Σa0,Σa1,Σa2,Σa3] per half.
  return _mm_add_epi32(_mm256_castsi256_si128(s),
                       _mm256_extracti128_si256(s, 1));
}

// Joint reduction of four 128-bit partial sums: result lane i holds the i32
// lane sum of t_i (the SSE counterpart of ReduceAdd4I32).
inline __m128i ReduceAdd4I32(__m128i t0, __m128i t1, __m128i t2, __m128i t3) {
  return _mm_hadd_epi32(_mm_hadd_epi32(t0, t1), _mm_hadd_epi32(t2, t3));
}

// Columns [j, d) of q·row that the 32-byte steps leave over: one 16-byte
// step and one 8-byte step (loadl zero-fills the high half, and zero codes
// add nothing to the product) as i32 lanes, and the last d % 8 columns
// scalar into *rest. Keeps a d % 32 != 0 index off a long scalar tail.
inline __m128i DotTailI8(const int8_t* q, const int8_t* row, int64_t j,
                         int64_t d, int32_t* rest) {
  const __m128i ones16 = _mm_set1_epi16(1);
  __m128i acc = _mm_setzero_si128();
  auto step = [&](__m128i qv, __m128i rv) {
    __m128i p16 =
        _mm_maddubs_epi16(_mm_sign_epi8(qv, qv), _mm_sign_epi8(rv, qv));
    acc = _mm_add_epi32(acc, _mm_madd_epi16(p16, ones16));
  };
  if (j + 16 <= d) {
    step(_mm_loadu_si128(reinterpret_cast<const __m128i*>(q + j)),
         _mm_loadu_si128(reinterpret_cast<const __m128i*>(row + j)));
    j += 16;
  }
  if (j + 8 <= d) {
    step(_mm_loadl_epi64(reinterpret_cast<const __m128i*>(q + j)),
         _mm_loadl_epi64(reinterpret_cast<const __m128i*>(row + j)));
    j += 8;
  }
  int32_t sum = 0;
  for (; j < d; ++j) {
    sum += static_cast<int32_t>(q[j]) * static_cast<int32_t>(row[j]);
  }
  *rest = sum;
  return acc;
}

// One query against four rows per step — the kernel for the 1–3 queries a
// batch leaves after its full blocks, and for batches below four. |q| rides
// the unsigned maddubs operand and is shared by the four rows; each row
// contributes r·sign(q) on the signed side. The four row sums reduce jointly
// and finish with one lane-wise scale multiply and one 16-byte store.
void DotScanI8Avx2Rows4(const int8_t* q, float q_scale, const int8_t* rows,
                        const float* row_scales, int64_t n, int64_t d,
                        float* out) {
  const __m256i ones16 = _mm256_set1_epi16(1);
  const __m128 qscale = _mm_set1_ps(q_scale);
  const int64_t d32 = d & ~int64_t{31};
  int64_t r = 0;
  for (; r + 4 <= n; r += 4) {
    const int8_t* row0 = rows + r * d;
    const int8_t* row1 = row0 + d;
    const int8_t* row2 = row0 + 2 * d;
    const int8_t* row3 = row0 + 3 * d;
    __m256i acc0 = _mm256_setzero_si256();
    __m256i acc1 = _mm256_setzero_si256();
    __m256i acc2 = _mm256_setzero_si256();
    __m256i acc3 = _mm256_setzero_si256();
    for (int64_t j = 0; j < d32; j += 32) {
      __m256i qv = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(q + j));
      __m256i aq = _mm256_sign_epi8(qv, qv);  // |q|, shared by the rows.
      auto mac = [&](const int8_t* row, __m256i acc) {
        __m256i rv =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(row + j));
        __m256i p16 = _mm256_maddubs_epi16(aq, _mm256_sign_epi8(rv, qv));
        return _mm256_add_epi32(acc, _mm256_madd_epi16(p16, ones16));
      };
      acc0 = mac(row0, acc0);
      acc1 = mac(row1, acc1);
      acc2 = mac(row2, acc2);
      acc3 = mac(row3, acc3);
    }
    __m128i sums = ReduceAdd4I32(acc0, acc1, acc2, acc3);
    if (d32 < d) {
      alignas(16) int32_t rest[4];
      __m128i t0 = DotTailI8(q, row0, d32, d, &rest[0]);
      __m128i t1 = DotTailI8(q, row1, d32, d, &rest[1]);
      __m128i t2 = DotTailI8(q, row2, d32, d, &rest[2]);
      __m128i t3 = DotTailI8(q, row3, d32, d, &rest[3]);
      sums = _mm_add_epi32(
          sums, _mm_add_epi32(ReduceAdd4I32(t0, t1, t2, t3),
                              _mm_load_si128(reinterpret_cast<const __m128i*>(rest))));
    }
    _mm_storeu_ps(out + r,
                  _mm_mul_ps(_mm_cvtepi32_ps(sums),
                             _mm_mul_ps(qscale, _mm_loadu_ps(row_scales + r))));
  }
  for (; r < n; ++r) {
    const int8_t* row = rows + r * d;
    __m256i acc = _mm256_setzero_si256();
    for (int64_t j = 0; j < d32; j += 32) {
      __m256i qv = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(q + j));
      __m256i rv = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(row + j));
      __m256i p16 =
          _mm256_maddubs_epi16(_mm256_sign_epi8(qv, qv), _mm256_sign_epi8(rv, qv));
      acc = _mm256_add_epi32(acc, _mm256_madd_epi16(p16, ones16));
    }
    int32_t sum = ReduceAddI32(acc);
    if (d32 < d) {
      int32_t rest = 0;
      __m128i t = DotTailI8(q, row, d32, d, &rest);
      sum += ReduceAddI32(_mm256_set_m128i(_mm_setzero_si128(), t)) + rest;
    }
    out[r] = static_cast<float>(sum) * (q_scale * row_scales[r]);
  }
}

// The serving hot path: a full block of four queries against each row. |r|
// rides the unsigned maddubs operand and is shared by the block; each query
// contributes q·sign(r) on the signed side, so the per-query cost is one
// load + sign + maddubs + madd + add. The four accumulators reduce jointly
// and finish with one lane-wise scale multiply.
void DotScanI8Avx2Block4(const int8_t* queries, const float* query_scales,
                         const int8_t* rows, const float* row_scales,
                         int64_t n, int64_t d, float* out,
                         int64_t out_stride) {
  const __m256i ones16 = _mm256_set1_epi16(1);
  const __m128 qscale4 = _mm_loadu_ps(query_scales);
  const int8_t* q0 = queries;
  const int8_t* q1 = queries + d;
  const int8_t* q2 = queries + 2 * d;
  const int8_t* q3 = queries + 3 * d;
  for (int64_t r = 0; r < n; ++r) {
    const int8_t* row = rows + r * d;
    __m256i acc0 = _mm256_setzero_si256();
    __m256i acc1 = _mm256_setzero_si256();
    __m256i acc2 = _mm256_setzero_si256();
    __m256i acc3 = _mm256_setzero_si256();
    int64_t j = 0;
    for (; j + 32 <= d; j += 32) {
      __m256i rv =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(row + j));
      __m256i ar = _mm256_sign_epi8(rv, rv);  // |r|, shared by the block.
      auto mac = [&](const int8_t* q, __m256i acc) {
        __m256i qv =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(q + j));
        __m256i p16 = _mm256_maddubs_epi16(ar, _mm256_sign_epi8(qv, rv));
        return _mm256_add_epi32(acc, _mm256_madd_epi16(p16, ones16));
      };
      acc0 = mac(q0, acc0);
      acc1 = mac(q1, acc1);
      acc2 = mac(q2, acc2);
      acc3 = mac(q3, acc3);
    }
    __m128i sums = ReduceAdd4I32(acc0, acc1, acc2, acc3);
    if (j < d) {
      alignas(16) int32_t rest[4];
      __m128i t0 = DotTailI8(q0, row, j, d, &rest[0]);
      __m128i t1 = DotTailI8(q1, row, j, d, &rest[1]);
      __m128i t2 = DotTailI8(q2, row, j, d, &rest[2]);
      __m128i t3 = DotTailI8(q3, row, j, d, &rest[3]);
      sums = _mm_add_epi32(
          sums, _mm_add_epi32(ReduceAdd4I32(t0, t1, t2, t3),
                              _mm_load_si128(reinterpret_cast<const __m128i*>(rest))));
    }
    __m128 res = _mm_mul_ps(_mm_cvtepi32_ps(sums),
                            _mm_mul_ps(qscale4, _mm_set1_ps(row_scales[r])));
    alignas(16) float r4[4];
    _mm_store_ps(r4, res);
    out[r] = r4[0];
    out[out_stride + r] = r4[1];
    out[2 * out_stride + r] = r4[2];
    out[3 * out_stride + r] = r4[3];
  }
}

// L1 counterpart of DotTailI8: the same 16- and 8-byte steps through the
// biased psadbw (the zero-filled high half biases to 0x80 on both sides and
// adds nothing); the sums sit in the low i32 halves of the two 64-bit lanes,
// so an i32 lane reduction adds them exactly.
inline __m128i L1TailI8(const int8_t* q, const int8_t* row, int64_t j,
                        int64_t d, int32_t* rest) {
  const __m128i bias = _mm_set1_epi8(static_cast<char>(0x80));
  __m128i acc = _mm_setzero_si128();
  auto step = [&](__m128i qv, __m128i rv) {
    acc = _mm_add_epi32(acc, _mm_sad_epu8(_mm_xor_si128(qv, bias),
                                          _mm_xor_si128(rv, bias)));
  };
  if (j + 16 <= d) {
    step(_mm_loadu_si128(reinterpret_cast<const __m128i*>(q + j)),
         _mm_loadu_si128(reinterpret_cast<const __m128i*>(row + j)));
    j += 16;
  }
  if (j + 8 <= d) {
    step(_mm_loadl_epi64(reinterpret_cast<const __m128i*>(q + j)),
         _mm_loadl_epi64(reinterpret_cast<const __m128i*>(row + j)));
    j += 8;
  }
  int32_t sum = 0;
  for (; j < d; ++j) {
    sum += std::abs(static_cast<int32_t>(q[j]) - static_cast<int32_t>(row[j]));
  }
  *rest = sum;
  return acc;
}

// L1 counterpart of DotScanI8Avx2Rows4: the biased query chunk is shared by
// four rows, psadbw sums accumulate in 32-bit lanes (exact below 2^31, as
// in L1ScanI8Avx2Block4), and the four row sums reduce jointly.
void L1ScanI8Avx2Rows4(const int8_t* q, const int8_t* rows, int64_t n,
                       int64_t d, float scale, float* out) {
  const __m256i bias = _mm256_set1_epi8(static_cast<char>(0x80));
  // acc * -scale is bitwise -(acc * scale): only the sign bit differs.
  const __m128 neg_scale = _mm_set1_ps(-scale);
  const int64_t d32 = d & ~int64_t{31};
  int64_t r = 0;
  for (; r + 4 <= n; r += 4) {
    const int8_t* row0 = rows + r * d;
    const int8_t* row1 = row0 + d;
    const int8_t* row2 = row0 + 2 * d;
    const int8_t* row3 = row0 + 3 * d;
    __m256i acc0 = _mm256_setzero_si256();
    __m256i acc1 = _mm256_setzero_si256();
    __m256i acc2 = _mm256_setzero_si256();
    __m256i acc3 = _mm256_setzero_si256();
    for (int64_t j = 0; j < d32; j += 32) {
      __m256i qv = _mm256_xor_si256(
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(q + j)), bias);
      auto sad = [&](const int8_t* row, __m256i acc) {
        __m256i rv = _mm256_xor_si256(
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(row + j)),
            bias);
        return _mm256_add_epi32(acc, _mm256_sad_epu8(qv, rv));
      };
      acc0 = sad(row0, acc0);
      acc1 = sad(row1, acc1);
      acc2 = sad(row2, acc2);
      acc3 = sad(row3, acc3);
    }
    __m128i sums = ReduceAdd4I32(acc0, acc1, acc2, acc3);
    if (d32 < d) {
      alignas(16) int32_t rest[4];
      __m128i t0 = L1TailI8(q, row0, d32, d, &rest[0]);
      __m128i t1 = L1TailI8(q, row1, d32, d, &rest[1]);
      __m128i t2 = L1TailI8(q, row2, d32, d, &rest[2]);
      __m128i t3 = L1TailI8(q, row3, d32, d, &rest[3]);
      sums = _mm_add_epi32(
          sums, _mm_add_epi32(ReduceAdd4I32(t0, t1, t2, t3),
                              _mm_load_si128(reinterpret_cast<const __m128i*>(rest))));
    }
    _mm_storeu_ps(out + r, _mm_mul_ps(_mm_cvtepi32_ps(sums), neg_scale));
  }
  for (; r < n; ++r) {
    const int8_t* row = rows + r * d;
    __m256i acc = _mm256_setzero_si256();
    for (int64_t j = 0; j < d32; j += 32) {
      __m256i qv = _mm256_xor_si256(
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(q + j)), bias);
      __m256i rv = _mm256_xor_si256(
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(row + j)), bias);
      acc = _mm256_add_epi32(acc, _mm256_sad_epu8(qv, rv));
    }
    int32_t sum = ReduceAddI32(acc);
    if (d32 < d) {
      int32_t rest = 0;
      __m128i t = L1TailI8(q, row, d32, d, &rest);
      sum += ReduceAddI32(_mm256_set_m128i(_mm_setzero_si128(), t)) + rest;
    }
    out[r] = -(static_cast<float>(sum) * scale);
  }
}

// L1 counterpart of DotScanI8Avx2Block4. psadbw emits four sums (≤ 2040 per
// chunk) in the low half of each 64-bit lane; accumulating them with 32-bit
// lane adds never carries into the zero high halves while the total stays
// below 2^31 — true for any d below ~33M — so the same joint i32 reduction
// applies, with the zero lanes adding nothing.
void L1ScanI8Avx2Block4(const int8_t* queries, const int8_t* rows, int64_t n,
                        int64_t d, float scale, float* out,
                        int64_t out_stride) {
  const __m256i bias = _mm256_set1_epi8(static_cast<char>(0x80));
  // acc * -scale is bitwise -(acc * scale): only the sign bit differs.
  const __m128 neg_scale = _mm_set1_ps(-scale);
  const int8_t* q0 = queries;
  const int8_t* q1 = queries + d;
  const int8_t* q2 = queries + 2 * d;
  const int8_t* q3 = queries + 3 * d;
  for (int64_t r = 0; r < n; ++r) {
    const int8_t* row = rows + r * d;
    __m256i acc0 = _mm256_setzero_si256();
    __m256i acc1 = _mm256_setzero_si256();
    __m256i acc2 = _mm256_setzero_si256();
    __m256i acc3 = _mm256_setzero_si256();
    int64_t j = 0;
    for (; j + 32 <= d; j += 32) {
      __m256i rv = _mm256_xor_si256(
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(row + j)), bias);
      auto sad = [&](const int8_t* q, __m256i acc) {
        __m256i qv = _mm256_xor_si256(
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(q + j)), bias);
        return _mm256_add_epi32(acc, _mm256_sad_epu8(qv, rv));
      };
      acc0 = sad(q0, acc0);
      acc1 = sad(q1, acc1);
      acc2 = sad(q2, acc2);
      acc3 = sad(q3, acc3);
    }
    __m128i sums = ReduceAdd4I32(acc0, acc1, acc2, acc3);
    if (j < d) {
      alignas(16) int32_t rest[4];
      __m128i t0 = L1TailI8(q0, row, j, d, &rest[0]);
      __m128i t1 = L1TailI8(q1, row, j, d, &rest[1]);
      __m128i t2 = L1TailI8(q2, row, j, d, &rest[2]);
      __m128i t3 = L1TailI8(q3, row, j, d, &rest[3]);
      sums = _mm_add_epi32(
          sums, _mm_add_epi32(ReduceAdd4I32(t0, t1, t2, t3),
                              _mm_load_si128(reinterpret_cast<const __m128i*>(rest))));
    }
    __m128 res = _mm_mul_ps(_mm_cvtepi32_ps(sums), neg_scale);
    alignas(16) float r4[4];
    _mm_store_ps(r4, res);
    out[r] = r4[0];
    out[out_stride + r] = r4[1];
    out[2 * out_stride + r] = r4[2];
    out[3 * out_stride + r] = r4[3];
  }
}

// Candidate select for the fused top-k: compare 8 scores at a time and peel
// set bits off the movemask. Typical serve tiles yield a handful of
// candidates per thousand rows once the heaps warm up, so the scan is almost
// entirely the vectorized compare.
int64_t FilterAboveAvx2(const float* scores, int64_t count, float threshold,
                        int32_t* out) {
  const __m256 thr = _mm256_set1_ps(threshold);
  int64_t m = 0;
  int64_t t = 0;
  for (; t + 8 <= count; t += 8) {
    __m256 v = _mm256_loadu_ps(scores + t);
    unsigned mask = static_cast<unsigned>(
        _mm256_movemask_ps(_mm256_cmp_ps(v, thr, _CMP_GT_OQ)));
    while (mask != 0) {
      out[m++] = static_cast<int32_t>(t) + __builtin_ctz(mask);
      mask &= mask - 1;
    }
  }
  for (; t < count; ++t) {
    if (scores[t] > threshold) out[m++] = static_cast<int32_t>(t);
  }
  return m;
}

void DotScanAvx2(const float* queries, int qn, const float* rows, int64_t n,
                 int64_t d, float* out, int64_t out_stride) {
  switch (qn) {
    case 1: DotScanAvx2Impl<1>(queries, rows, n, d, out, out_stride); break;
    case 2: DotScanAvx2Impl<2>(queries, rows, n, d, out, out_stride); break;
    case 3: DotScanAvx2Impl<3>(queries, rows, n, d, out, out_stride); break;
    default: DotScanAvx2Impl<4>(queries, rows, n, d, out, out_stride); break;
  }
}

void L1ScanAvx2(const float* queries, int qn, const float* rows, int64_t n,
                int64_t d, float* out, int64_t out_stride) {
  switch (qn) {
    case 1: L1ScanAvx2Impl<1>(queries, rows, n, d, out, out_stride); break;
    case 2: L1ScanAvx2Impl<2>(queries, rows, n, d, out, out_stride); break;
    case 3: L1ScanAvx2Impl<3>(queries, rows, n, d, out, out_stride); break;
    default: L1ScanAvx2Impl<4>(queries, rows, n, d, out, out_stride); break;
  }
}

void DotScanI8Avx2(const int8_t* queries, const float* query_scales, int qn,
                   const int8_t* rows, const float* row_scales, int64_t n,
                   int64_t d, float* out, int64_t out_stride) {
  if (qn == kMaxQueryBlock) {
    DotScanI8Avx2Block4(queries, query_scales, rows, row_scales, n, d, out,
                        out_stride);
    return;
  }
  for (int qi = 0; qi < qn; ++qi) {
    DotScanI8Avx2Rows4(queries + static_cast<int64_t>(qi) * d,
                       query_scales[qi], rows, row_scales, n, d,
                       out + static_cast<int64_t>(qi) * out_stride);
  }
}

void L1ScanI8Avx2(const int8_t* queries, int qn, const int8_t* rows, int64_t n,
                  int64_t d, float scale, float* out, int64_t out_stride) {
  if (qn == kMaxQueryBlock) {
    L1ScanI8Avx2Block4(queries, rows, n, d, scale, out, out_stride);
    return;
  }
  for (int qi = 0; qi < qn; ++qi) {
    L1ScanI8Avx2Rows4(queries + static_cast<int64_t>(qi) * d, rows, n, d,
                      scale, out + static_cast<int64_t>(qi) * out_stride);
  }
}

}  // namespace

const KernelTable& Avx2Table() {
  static constexpr KernelTable table = {
      DotScanAvx2,
      L1ScanAvx2,
      DotScanI8Avx2,
      L1ScanI8Avx2,
      FilterAboveAvx2,
  };
  return table;
}

}  // namespace sarn::tensor::simd::internal

#endif  // SARN_HAVE_AVX2_KERNELS
