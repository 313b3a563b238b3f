#include "tensor/tensor.h"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace sarn::tensor {

int64_t NumElements(const Shape& shape) {
  int64_t n = 1;
  for (int64_t d : shape) {
    SARN_CHECK_GE(d, 0);
    n *= d;
  }
  return n;
}

std::string ShapeToString(const Shape& shape) {
  std::ostringstream out;
  out << "[";
  for (size_t i = 0; i < shape.size(); ++i) {
    if (i > 0) out << ", ";
    out << shape[i];
  }
  out << "]";
  return out.str();
}

namespace {

thread_local bool t_grad_mode = true;

// Tape nodes and their control blocks come from the BufferPool, so building
// and tearing down a step's graph recycles instead of hitting the global
// allocator.
std::shared_ptr<internal::TensorImpl> NewImpl(Shape shape, Storage data) {
  SARN_CHECK_EQ(NumElements(shape), static_cast<int64_t>(data.size()))
      << "shape " << ShapeToString(shape);
  auto impl = std::allocate_shared<internal::TensorImpl>(
      PoolAllocator<internal::TensorImpl>());
  impl->shape = std::move(shape);
  impl->data = std::move(data);
  return impl;
}

}  // namespace

bool GradModeEnabled() { return t_grad_mode; }

NoGradGuard::NoGradGuard() : previous_(t_grad_mode) { t_grad_mode = false; }
NoGradGuard::~NoGradGuard() { t_grad_mode = previous_; }

Tensor Tensor::Zeros(const Shape& shape) {
  return FromImpl(NewImpl(shape, Storage::Zeroed(static_cast<size_t>(NumElements(shape)))));
}

Tensor Tensor::Ones(const Shape& shape) { return Full(shape, 1.0f); }

Tensor Tensor::Full(const Shape& shape, float value) {
  Storage data = Storage::Uninitialized(static_cast<size_t>(NumElements(shape)));
  data.Fill(value);
  return FromImpl(NewImpl(shape, std::move(data)));
}

Tensor Tensor::FromVector(const Shape& shape, std::vector<float> values) {
  return FromImpl(NewImpl(shape, Storage::Of(values)));
}

Tensor Tensor::Uninitialized(const Shape& shape) {
  return FromImpl(
      NewImpl(shape, Storage::Uninitialized(static_cast<size_t>(NumElements(shape)))));
}

Tensor Tensor::FromStorage(Shape shape, Storage data) {
  return FromImpl(NewImpl(std::move(shape), std::move(data)));
}

Tensor Tensor::Randn(const Shape& shape, Rng& rng, float stddev) {
  Storage data = Storage::Uninitialized(static_cast<size_t>(NumElements(shape)));
  for (float& v : data) v = static_cast<float>(rng.Normal(0.0, stddev));
  return FromImpl(NewImpl(shape, std::move(data)));
}

Tensor Tensor::Uniform(const Shape& shape, Rng& rng, float lo, float hi) {
  Storage data = Storage::Uninitialized(static_cast<size_t>(NumElements(shape)));
  for (float& v : data) v = static_cast<float>(rng.Uniform(lo, hi));
  return FromImpl(NewImpl(shape, std::move(data)));
}

Tensor Tensor::GlorotUniform(int64_t fan_in, int64_t fan_out, Rng& rng) {
  float limit = std::sqrt(6.0f / static_cast<float>(fan_in + fan_out));
  return Uniform({fan_in, fan_out}, rng, -limit, limit);
}

int64_t Tensor::dim(size_t axis) const {
  SARN_CHECK_LT(axis, impl_->shape.size());
  return impl_->shape[axis];
}

Tensor& Tensor::RequiresGrad(bool value) {
  impl_->requires_grad = value;
  return *this;
}

const Storage& Tensor::grad() const {
  impl_->EnsureGrad();
  return impl_->grad;
}

Storage& Tensor::mutable_grad() {
  impl_->EnsureGrad();
  return impl_->grad;
}

Tensor Tensor::RowRange(int64_t begin_row, int64_t num_rows) const {
  SARN_CHECK_EQ(rank(), 2);
  SARN_CHECK(begin_row >= 0 && num_rows >= 0 && begin_row + num_rows <= impl_->shape[0]);
  int64_t cols = impl_->shape[1];
  return FromImpl(NewImpl(
      {num_rows, cols},
      Storage::View(impl_->data, static_cast<size_t>(begin_row * cols),
                    static_cast<size_t>(num_rows * cols))));
}

float Tensor::item() const {
  SARN_CHECK_EQ(numel(), 1);
  return impl_->data[0];
}

float Tensor::at(int64_t i) const {
  SARN_DCHECK(i >= 0 && i < numel());
  return impl_->data[static_cast<size_t>(i)];
}

float Tensor::at(int64_t i, int64_t j) const {
  SARN_DCHECK(rank() == 2);
  SARN_DCHECK(i >= 0 && i < impl_->shape[0] && j >= 0 && j < impl_->shape[1]);
  return impl_->data[static_cast<size_t>(i * impl_->shape[1] + j)];
}

void Tensor::set(int64_t i, float v) {
  SARN_DCHECK(i >= 0 && i < numel());
  impl_->data[static_cast<size_t>(i)] = v;
}

void Tensor::set(int64_t i, int64_t j, float v) {
  SARN_DCHECK(rank() == 2);
  impl_->data[static_cast<size_t>(i * impl_->shape[1] + j)] = v;
}

Tensor::BackwardStatus Tensor::Backward() {
  if (!defined()) return BackwardStatus::kUndefinedTensor;
  if (numel() != 1) return BackwardStatus::kNotScalar;
  return Backward({1.0f});
}

namespace {

// Reused across Backward() calls on the same thread: after warm-up the topo
// sort performs no allocations. Backward is not re-entrant (no op's backward
// calls Backward), so one set of buffers per thread suffices.
struct BackwardScratch {
  struct Frame {
    internal::TensorImpl* node;
    size_t next_parent;
  };
  std::vector<internal::TensorImpl*> order;
  std::vector<Frame> stack;
  uint64_t pass_id = 0;
};

thread_local BackwardScratch t_backward_scratch;

/// Next backward pass id for this thread's visit_mark stamping.
uint64_t NextBackwardPass() { return ++t_backward_scratch.pass_id; }

}  // namespace

const char* BackwardStatusName(Tensor::BackwardStatus status) {
  switch (status) {
    case Tensor::BackwardStatus::kOk: return "ok";
    case Tensor::BackwardStatus::kUndefinedTensor: return "undefined_tensor";
    case Tensor::BackwardStatus::kNotScalar: return "not_scalar";
    case Tensor::BackwardStatus::kSeedSizeMismatch: return "seed_size_mismatch";
  }
  return "unknown";
}

Tensor::BackwardStatus Tensor::Backward(const std::vector<float>& seed_grad) {
  if (!defined()) return BackwardStatus::kUndefinedTensor;
  // A wrong-sized seed is a recoverable caller error, not a programming
  // invariant: reject it with a typed status (the check must survive
  // -DNDEBUG builds) before any gradient is touched.
  if (static_cast<int64_t>(seed_grad.size()) != numel()) {
    return BackwardStatus::kSeedSizeMismatch;
  }
  // Topological order over the tape (iterative DFS to survive deep graphs,
  // e.g., unrolled GRUs over 180-step trajectories). Visited state is a pass
  // id stamped on each node, so no per-call hash set is built.
  BackwardScratch& scratch = t_backward_scratch;
  uint64_t pass = NextBackwardPass();
  auto& order = scratch.order;
  auto& stack = scratch.stack;
  order.clear();
  stack.clear();
  impl_->visit_mark = pass;
  stack.push_back({impl_.get(), 0});
  while (!stack.empty()) {
    BackwardScratch::Frame& frame = stack.back();
    if (frame.next_parent < frame.node->parents.size()) {
      internal::TensorImpl* parent = frame.node->parents[frame.next_parent++].get();
      if (parent->visit_mark != pass) {
        parent->visit_mark = pass;
        stack.push_back({parent, 0});
      }
    } else {
      order.push_back(frame.node);
      stack.pop_back();
    }
  }
  impl_->EnsureGrad();
  for (size_t i = 0; i < seed_grad.size(); ++i) impl_->grad[i] += seed_grad[i];
  // `order` is children-after-parents; walk it back-to-front.
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    internal::TensorImpl* node = *it;
    if (node->backward) {
      node->EnsureGrad();
      node->backward(*node);
    }
  }
  // Consume the tape: dropping closures and parent edges releases every
  // intermediate node no Tensor still references, which returns its pooled
  // data/grad buffers (and the node itself) to the BufferPool.
  for (internal::TensorImpl* node : order) {
    node->backward.Reset();
    PoolVec<std::shared_ptr<internal::TensorImpl>>().swap(node->parents);
  }
  order.clear();
  return BackwardStatus::kOk;
}

void Tensor::ZeroGrad() {
  if (!impl_->grad.empty()) impl_->grad.Fill(0.0f);
}

Tensor Tensor::Detach() const {
  return FromImpl(
      NewImpl(impl_->shape, Storage::CopyOf(impl_->data.data(), impl_->data.size())));
}

Tensor Tensor::Clone() const { return Detach(); }

std::string Tensor::ToString(int max_per_dim) const {
  if (!defined()) return "Tensor(undefined)";
  std::ostringstream out;
  out << "Tensor" << ShapeToString(impl_->shape) << " ";
  if (rank() <= 1) {
    out << "[";
    int64_t n = std::min<int64_t>(numel(), max_per_dim);
    for (int64_t i = 0; i < n; ++i) {
      if (i > 0) out << ", ";
      out << impl_->data[static_cast<size_t>(i)];
    }
    if (numel() > n) out << ", ...";
    out << "]";
  } else if (rank() == 2) {
    out << "[";
    int64_t rows = std::min<int64_t>(impl_->shape[0], max_per_dim);
    for (int64_t i = 0; i < rows; ++i) {
      out << (i > 0 ? ", [" : "[");
      int64_t cols = std::min<int64_t>(impl_->shape[1], max_per_dim);
      for (int64_t j = 0; j < cols; ++j) {
        if (j > 0) out << ", ";
        out << at(i, j);
      }
      if (impl_->shape[1] > cols) out << ", ...";
      out << "]";
    }
    if (impl_->shape[0] > rows) out << ", ...";
    out << "]";
  } else {
    out << "<rank " << rank() << ">";
  }
  return out.str();
}

Tensor Tensor::FromImpl(std::shared_ptr<internal::TensorImpl> impl) {
  Tensor t;
  t.impl_ = std::move(impl);
  return t;
}

namespace {

Tensor MakeOpResultImpl(Shape shape, Storage data, const Tensor* inputs,
                        size_t input_count, BackwardFn backward) {
  auto impl = NewImpl(std::move(shape), std::move(data));
  if (GradModeEnabled()) {
    bool any_requires = false;
    for (size_t i = 0; i < input_count; ++i) {
      if (inputs[i].defined() && inputs[i].requires_grad()) {
        any_requires = true;
        break;
      }
    }
    if (any_requires) {
      impl->requires_grad = true;
      impl->parents.reserve(input_count);
      for (size_t i = 0; i < input_count; ++i) {
        if (inputs[i].defined()) impl->parents.push_back(inputs[i].impl());
      }
      impl->backward = std::move(backward);
      internal::IncrementTapeNodeCount();
    }
  }
  return Tensor::FromImpl(impl);
}

}  // namespace

Tensor MakeOpResult(Shape shape, Storage data, std::initializer_list<Tensor> inputs,
                    BackwardFn backward) {
  return MakeOpResultImpl(std::move(shape), std::move(data), inputs.begin(),
                          inputs.size(), std::move(backward));
}

Tensor MakeOpResult(Shape shape, Storage data, const std::vector<Tensor>& inputs,
                    BackwardFn backward) {
  return MakeOpResultImpl(std::move(shape), std::move(data), inputs.data(),
                          inputs.size(), std::move(backward));
}

}  // namespace sarn::tensor
