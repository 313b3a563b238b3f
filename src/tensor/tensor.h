// A compact dense-tensor engine with reverse-mode automatic differentiation.
//
// This is the numeric substrate every model in the repository trains on
// (SARN's GAT encoders, the projection heads, the GRU trajectory encoder, the
// baseline FFNs). It is deliberately small: float32 storage, row-major, rank
// <= 2 in practice (vectors and matrices), a tape built dynamically by the
// ops in tensor/ops.h, and topological-order backpropagation.
//
// Usage:
//   Tensor w = Tensor::Randn({4, 3}, rng).RequiresGrad();
//   Tensor x = Tensor::FromVector({1, 4}, {1, 2, 3, 4});
//   Tensor loss = Sum(MatMul(x, w));
//   loss.Backward();
//   w.grad();  // d loss / d w
//
// Thread-compatibility: distinct graphs may be built/run on distinct threads;
// a single Tensor must not be used concurrently. Gradient recording can be
// suspended with NoGradGuard (used by all inference paths).

#ifndef SARN_TENSOR_TENSOR_H_
#define SARN_TENSOR_TENSOR_H_

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "tensor/storage.h"

namespace sarn::tensor {

/// Tensor shape; rank 0 (scalar) through rank 3 are supported, rank <= 2 is
/// the common case.
using Shape = std::vector<int64_t>;

int64_t NumElements(const Shape& shape);
std::string ShapeToString(const Shape& shape);

namespace internal {

struct TensorImpl {
  Shape shape;
  Storage data;             // Pooled; returned to the BufferPool on destruction.
  Storage grad;             // Allocated lazily, same size as data.
  bool requires_grad = false;

  // Autograd tape node. `backward` propagates this node's grad into its
  // parents' grads (it receives *this). Cleared by Tensor::Backward() after
  // use, which also drops the parents so intermediate buffers recycle.
  TapeFn backward;
  PoolVec<std::shared_ptr<TensorImpl>> parents;

  // Tape-traversal mark: visited iff equal to the current Backward() pass id
  // on this thread (replaces a per-call hash set, so topo sort allocates
  // nothing in steady state).
  uint64_t visit_mark = 0;

  void EnsureGrad() {
    if (grad.size() != data.size()) grad.assign(data.size(), 0.0f);
  }
};

}  // namespace internal

/// True while gradients are being recorded on this thread (default true).
bool GradModeEnabled();

/// RAII guard disabling gradient recording; nestable.
class NoGradGuard {
 public:
  NoGradGuard();
  ~NoGradGuard();
  NoGradGuard(const NoGradGuard&) = delete;
  NoGradGuard& operator=(const NoGradGuard&) = delete;

 private:
  bool previous_;
};

/// Value-semantic handle to a (possibly autograd-tracked) dense float tensor.
/// Copies share the underlying buffer (like torch.Tensor).
class Tensor {
 public:
  /// An empty (null) tensor; defined() is false.
  Tensor() = default;

  // --- Factories -----------------------------------------------------------

  static Tensor Zeros(const Shape& shape);
  static Tensor Ones(const Shape& shape);
  static Tensor Full(const Shape& shape, float value);
  static Tensor FromVector(const Shape& shape, std::vector<float> values);
  /// Pooled buffer with unspecified contents — for call sites that fill every
  /// element immediately (avoids a zero-fill plus a staging copy).
  static Tensor Uninitialized(const Shape& shape);
  /// Takes ownership of an already-filled pooled buffer.
  static Tensor FromStorage(Shape shape, Storage data);
  /// N(0, stddev^2) entries.
  static Tensor Randn(const Shape& shape, Rng& rng, float stddev = 1.0f);
  /// U[lo, hi) entries.
  static Tensor Uniform(const Shape& shape, Rng& rng, float lo, float hi);
  /// Glorot/Xavier-uniform initialisation for a [fan_in, fan_out] matrix.
  static Tensor GlorotUniform(int64_t fan_in, int64_t fan_out, Rng& rng);

  // --- Introspection -------------------------------------------------------

  bool defined() const { return impl_ != nullptr; }
  const Shape& shape() const { return impl_->shape; }
  int64_t dim(size_t axis) const;
  int64_t numel() const { return static_cast<int64_t>(impl_->data.size()); }
  int64_t rank() const { return static_cast<int64_t>(impl_->shape.size()); }
  bool requires_grad() const { return impl_->requires_grad; }

  /// Marks this tensor as a gradient leaf (a trainable parameter). Returns
  /// *this for chaining.
  Tensor& RequiresGrad(bool value = true);

  // --- Data access ---------------------------------------------------------

  const Storage& data() const { return impl_->data; }
  Storage& mutable_data() { return impl_->data; }
  /// Gradient buffer (zeros if backward has not reached this tensor).
  const Storage& grad() const;
  Storage& mutable_grad();

  /// Zero-copy read-only view of rows [begin_row, begin_row + num_rows) of a
  /// rank-2 tensor. Shares the underlying buffer (no copy, no tape); the view
  /// must not outlive writes that resize the base and must not be mutated.
  Tensor RowRange(int64_t begin_row, int64_t num_rows) const;

  float item() const;                       // Requires numel() == 1.
  float at(int64_t i) const;                // Rank-1 access.
  float at(int64_t i, int64_t j) const;     // Rank-2 access.
  void set(int64_t i, float v);             // Rank-1.
  void set(int64_t i, int64_t j, float v);  // Rank-2.

  // --- Autograd ------------------------------------------------------------

  /// Outcome of a Backward() call. Failures are reported before any gradient
  /// is touched, so a rejected call leaves the tape and all grads intact.
  enum class BackwardStatus {
    kOk = 0,
    kUndefinedTensor,    // Called on a default-constructed Tensor.
    kNotScalar,          // Seedless Backward() on a tensor with numel() != 1.
    kSeedSizeMismatch,   // seed_grad.size() != numel().
  };

  /// Runs reverse-mode autodiff from this scalar tensor: fills `grad` of all
  /// reachable tensors with requires_grad. The tape is consumed (freed).
  /// Returns kNotScalar (without running) when numel() != 1.
  BackwardStatus Backward();

  /// Same, with an explicit seed gradient. Returns kSeedSizeMismatch
  /// (without running) when the seed's size differs from numel(); the check
  /// is always on, not a debug assertion.
  BackwardStatus Backward(const std::vector<float>& seed_grad);

  /// Zeroes this tensor's gradient buffer.
  void ZeroGrad();

  /// Returns a copy detached from the autograd graph (shares no tape, fresh
  /// buffer, requires_grad = false).
  Tensor Detach() const;

  /// Deep copy of values (no tape).
  Tensor Clone() const;

  std::string ToString(int max_per_dim = 8) const;

  // Internal: used by ops.
  std::shared_ptr<internal::TensorImpl> impl() const { return impl_; }
  static Tensor FromImpl(std::shared_ptr<internal::TensorImpl> impl);

 private:
  std::shared_ptr<internal::TensorImpl> impl_;
};

/// Stable name for logging/tests ("ok", "undefined_tensor", ...).
const char* BackwardStatusName(Tensor::BackwardStatus status);

/// Signature of an op's backward pass: receives the output node (whose
/// `grad` holds dL/d_out) and must accumulate into the inputs' grads (the
/// closure captures the input impls itself). TapeFn keeps the closure inline
/// in the node or in a pooled chunk — never in the global heap.
using BackwardFn = TapeFn;

/// Creates a result tensor wired into the tape: if grad mode is on and any
/// input requires grad, the result requires grad and `backward` will be
/// invoked during backprop. Used by all op implementations. The node itself
/// and its parent list come from the BufferPool.
Tensor MakeOpResult(Shape shape, Storage data, std::initializer_list<Tensor> inputs,
                    BackwardFn backward);
Tensor MakeOpResult(Shape shape, Storage data, const std::vector<Tensor>& inputs,
                    BackwardFn backward);

}  // namespace sarn::tensor

#endif  // SARN_TENSOR_TENSOR_H_
