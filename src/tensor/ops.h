// Differentiable operations over Tensor.
//
// Shapes are validated eagerly (SARN_CHECK) so shape bugs fail at the op
// call site, not during backprop. Broadcasting is limited to the cases the
// models need:
//   * identical shapes,
//   * [m, n] (op) [n] or [1, n]  — row-vector broadcast (bias add),
//   * anything (op) scalar tensor (numel == 1), on either side.
//
// Graph-specific ops (EdgeSoftmax, ScatterAddRows) implement the sparse
// attention aggregation GAT needs without materialising n x n matrices.

#ifndef SARN_TENSOR_OPS_H_
#define SARN_TENSOR_OPS_H_

#include <cstdint>
#include <vector>

#include "tensor/tensor.h"

namespace sarn::tensor {

// --- Elementwise binary (with limited broadcasting) -------------------------
Tensor Add(const Tensor& a, const Tensor& b);
Tensor Sub(const Tensor& a, const Tensor& b);
Tensor Mul(const Tensor& a, const Tensor& b);
Tensor Div(const Tensor& a, const Tensor& b);

// --- Scalar variants ---------------------------------------------------------
Tensor AddScalar(const Tensor& a, float s);
Tensor MulScalar(const Tensor& a, float s);

// --- Elementwise unary -------------------------------------------------------
Tensor Neg(const Tensor& a);
Tensor Exp(const Tensor& a);
Tensor Log(const Tensor& a);   // Caller guarantees positivity (see ClampMin).
Tensor Sqrt(const Tensor& a);  // Caller guarantees non-negativity.
Tensor Square(const Tensor& a);
Tensor Abs(const Tensor& a);
Tensor ClampMin(const Tensor& a, float lo);
Tensor Relu(const Tensor& a);
Tensor LeakyRelu(const Tensor& a, float negative_slope = 0.2f);
Tensor Elu(const Tensor& a, float alpha = 1.0f);
Tensor Sigmoid(const Tensor& a);
Tensor Tanh(const Tensor& a);

// --- Linear algebra ----------------------------------------------------------
/// [m, k] x [k, n] -> [m, n]. Register-tiled kernels (tensor/matmul_kernels.h)
/// parallelised over output rows for the forward and both backward products.
Tensor MatMul(const Tensor& a, const Tensor& b);
/// 2-D transpose (copies).
Tensor Transpose(const Tensor& a);
/// Zero-copy view with a new shape (same element count): the result shares
/// the input's storage. Safe because ops never mutate their inputs; gradients
/// stay separate per node.
Tensor Reshape(const Tensor& a, const Shape& shape);

// --- Reductions ---------------------------------------------------------------
Tensor Sum(const Tensor& a);                  // -> scalar [1]
Tensor Mean(const Tensor& a);                 // -> scalar [1]
Tensor SumAxis(const Tensor& a, int axis);    // 2-D only; axis 0 -> [n], 1 -> [m]
Tensor MeanAxis(const Tensor& a, int axis);

// --- Row-structured ops (2-D) --------------------------------------------------
/// Numerically stable softmax along axis 1.
Tensor RowSoftmax(const Tensor& a);
/// Numerically stable log-softmax along axis 1.
Tensor RowLogSoftmax(const Tensor& a);
/// Per-row L2 normalisation: out[i] = a[i] / max(||a[i]||, eps).
Tensor RowL2Normalize(const Tensor& a, float eps = 1e-8f);
/// Per-row dot products of two [m, n] tensors -> [m].
Tensor DotRows(const Tensor& a, const Tensor& b);
/// Scales each row of a [m, n] by scale[m] (or [m,1]): out[i,j] = a[i,j]*s[i].
/// The column-vector broadcast counterpart of Mul-with-row-vector.
Tensor ScaleRows(const Tensor& a, const Tensor& scale);
/// Gathers rows: out[r] = a[indices[r]]; backward scatter-adds. This is also
/// the embedding-lookup primitive.
Tensor Rows(const Tensor& a, const std::vector<int64_t>& indices);
/// out[r] = a[r, cols[r]] -> [m]; the cross-entropy gather.
Tensor TakePerRow(const Tensor& a, const std::vector<int64_t>& cols);
/// Contiguous column slice of a [m, n] tensor: out = a[:, col : col + count].
/// Backward scatter-adds into the sliced columns. This is the per-head view
/// primitive for fused multi-head layers (one wide matmul, sliced per head).
Tensor ColsRange(const Tensor& a, int64_t col, int64_t count);
/// Concatenation of 2-D tensors along axis 0 (rows) or 1 (columns).
Tensor Concat(const std::vector<Tensor>& parts, int axis);

// --- Regularisation ------------------------------------------------------------
/// Inverted dropout: keeps each element with probability (1-p), scales by
/// 1/(1-p). Identity when p == 0. Caller decides train vs eval.
Tensor Dropout(const Tensor& a, float p, Rng& rng);

// --- Sparse graph ops ------------------------------------------------------------
/// Softmax of per-edge scores grouped by destination vertex:
/// out[e] = exp(s[e] - max_dst) / sum_{e': dst[e']=dst[e]} exp(...).
/// `scores` is [E] (or [E,1]); `dst[e]` in [0, num_vertices).
Tensor EdgeSoftmax(const Tensor& scores, const std::vector<int64_t>& dst,
                   int64_t num_vertices);
/// Sums per-edge message rows into destination vertices:
/// out[v] = sum_{e: dst[e]=v} messages[e]; messages [E, d] -> out [num_vertices, d].
Tensor ScatterAddRows(const Tensor& messages, const std::vector<int64_t>& dst,
                      int64_t num_vertices);

// --- Fused inference-only ops (grad mode must be off) ---------------------------
// Bitwise-identical fusions of the op chains GAT inference runs per layer;
// they skip the intermediate [E, ...] tensors entirely. Both SARN_CHECK that
// gradient recording is disabled: there is no backward.

/// LeakyRelu(score_dst[dst[e]] + score_src[src[e]]) -> [E]. Fuses
/// Reshape(LeakyRelu(Add(Rows(score_dst, dst), Rows(score_src, src))), {E}).
Tensor FusedEdgeScores(const Tensor& score_src, const Tensor& score_dst,
                       const std::vector<int64_t>& src, const std::vector<int64_t>& dst,
                       float negative_slope = 0.2f);

/// out[dst[e]] += wx[src[e]] * alpha[e] -> [num_vertices, d]. Fuses
/// ScatterAddRows(ScaleRows(Rows(wx, src), alpha), dst, num_vertices).
Tensor FusedGatherScaleScatter(const Tensor& wx, const std::vector<int64_t>& src,
                               const std::vector<int64_t>& dst, const Tensor& alpha,
                               int64_t num_vertices);

// --- Fused differentiable ops (grad-path fusion) --------------------------------
// Grad-mode counterparts of the inference fusions above: each collapses an
// adjacent elementwise/gather/scatter chain into ONE tape node whose forward
// and backward apply the exact float operation order of the unfused chain —
// values and gradients stay bitwise identical; only the [E, ...]
// intermediates (and their zero-filled grad buffers) disappear. GatLayer's
// grad path always uses them; the unfused op chains remain as test oracles.

/// Differentiable FusedEdgeScores: LeakyRelu(score_dst[dst[e]] +
/// score_src[src[e]]) -> [E], one tape node replacing the five-node
/// Reshape(LeakyRelu(Add(Rows(score_dst, dst), Rows(score_src, src)))) chain.
/// The backward recomputes the pre-activation (bitwise, from the saved
/// inputs) and scatter-adds in ascending edge order, exactly like the
/// unfused closures.
Tensor FusedEdgeScoreActivate(const Tensor& score_src, const Tensor& score_dst,
                              const std::vector<int64_t>& src,
                              const std::vector<int64_t>& dst,
                              float negative_slope = 0.2f);

/// Differentiable ScaleRows+ScatterAddRows: out[dst[e]] += rows[e] * scale[e]
/// -> [num_vertices, d], one tape node replacing the messages [E, d]
/// intermediate (data and grad). `rows` is the gathered [E, d] tensor (the
/// Rows(wx, src) node is kept so wx receives its gradient contributions in
/// the unfused order).
Tensor ScaleScatterRows(const Tensor& rows, const Tensor& scale,
                        const std::vector<int64_t>& dst, int64_t num_vertices);

}  // namespace sarn::tensor

#endif  // SARN_TENSOR_OPS_H_
