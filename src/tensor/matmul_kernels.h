// Raw float matmul kernels behind tensor::MatMul — forward and both
// backward products — in two variants each:
//
//   *Naive:   the straightforward i/k/j (resp. dot-product) loops the seed
//             implementation used. Kept as the golden reference for
//             equivalence tests and as the baseline in bench_micro_kernels.
//   *Blocked: register-tiled kernels. The output is computed in kMr x kNr
//             tiles held in registers across the whole k-reduction, so each
//             A element is reused kNr times and each B row kMr times per
//             load instead of being re-streamed from cache per scalar. The
//             reduction order per output element is unchanged (ascending
//             k for the forward / dB, ascending j for dA), so results match
//             the naive kernels bit-for-bit on finite inputs.
//
// All kernels operate on a row range [row_begin, row_end) of the output so
// ParallelFor can partition them; `c` is accumulated into (callers zero or
// pre-seed it).

#ifndef SARN_TENSOR_MATMUL_KERNELS_H_
#define SARN_TENSOR_MATMUL_KERNELS_H_

#include <cstdint>

namespace sarn::tensor::kernels {

/// Register tile height (output rows) and width (output cols) of the
/// blocked kernels. kMr * kNr accumulators must fit the register file with
/// room for operands (4 x 16 floats = 8 SSE / 4 AVX2 vectors).
inline constexpr int64_t kMr = 4;
inline constexpr int64_t kNr = 16;

/// C[i,:] += A[i,:] * B for i in [row_begin, row_end). A: [m,k], B: [k,n].
void MatMulNaive(const float* a, const float* b, float* c, int64_t row_begin,
                 int64_t row_end, int64_t k, int64_t n);
void MatMulBlocked(const float* a, const float* b, float* c, int64_t row_begin,
                   int64_t row_end, int64_t k, int64_t n);

/// C[i,:] = A[i,:] * B (overwrite): the blocked forward kernel minus the
/// accumulate-into-C contract. The register tile starts at +0.0f instead of
/// being seeded from C, which is bit-identical to accumulating into a
/// zeroed buffer — so MatMul can hand it an uninitialized output and skip
/// the zero-fill pass plus the tile re-read entirely.
void MatMulBlockedInit(const float* a, const float* b, float* c, int64_t row_begin,
                       int64_t row_end, int64_t k, int64_t n);

/// dA[i,:] += G[i,:] * B^T for i in [row_begin, row_end). G: [m,n], B: [k,n].
void MatMulGradANaive(const float* g, const float* b, float* da, int64_t row_begin,
                      int64_t row_end, int64_t k, int64_t n);
void MatMulGradABlocked(const float* g, const float* b, float* da, int64_t row_begin,
                        int64_t row_end, int64_t k, int64_t n);

/// dB[kk,:] += (A^T * G)[kk,:] for kk in [row_begin, row_end). A: [m,k], G: [m,n].
void MatMulGradBNaive(const float* a, const float* g, float* db, int64_t row_begin,
                      int64_t row_end, int64_t m, int64_t k, int64_t n);
void MatMulGradBBlocked(const float* a, const float* g, float* db, int64_t row_begin,
                        int64_t row_end, int64_t m, int64_t k, int64_t n);

// --- Compiled AVX2 kernels --------------------------------------------------
// Vector lanes are distinct output elements — no reduction is reassociated
// and no FMA is emitted (see simd/matmul_avx2.cc) — so each kernel is
// bit-identical to its scalar blocked counterpart on every input. MatMul
// runs them whenever the runtime SIMD tier is AVX2 (DESIGN.md §15); the
// scalar blocked kernels serve the other tiers and stay as the test oracle.

/// True when the AVX2 kernels are compiled in and the host supports them.
/// Defined (returning false) on every build so call sites need no #ifdefs.
bool MatMulCompiledAvailable();

#if defined(SARN_HAVE_AVX2_KERNELS)
bool MatMulAvx2Supported();

/// C[i,:] = A[i,:] * B (overwrite, zero seed) — MatMulBlockedInit, 8-wide.
void MatMulInitAvx2(const float* a, const float* b, float* c, int64_t row_begin,
                    int64_t row_end, int64_t k, int64_t n);

/// dA[i,:] += G[i,:] * B^T via the pre-transposed bt ([n, k], bt[j*k+kk] ==
/// b[kk*n+j]) — MatMulGradABlocked's zero-seeded-dot-then-add chains, 8-wide.
void MatMulGradATAvx2(const float* g, const float* bt, float* da,
                      int64_t row_begin, int64_t row_end, int64_t k, int64_t n);

/// dB[kk,:] += (A^T * G)[kk,:] — MatMulGradBBlocked, 8-wide.
void MatMulGradBAvx2(const float* a, const float* g, float* db,
                     int64_t row_begin, int64_t row_end, int64_t m, int64_t k,
                     int64_t n);
#endif  // SARN_HAVE_AVX2_KERNELS

}  // namespace sarn::tensor::kernels

#endif  // SARN_TENSOR_MATMUL_KERNELS_H_
