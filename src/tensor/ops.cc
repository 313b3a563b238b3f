#include "tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/parallel.h"
#include "tensor/matmul_kernels.h"

namespace sarn::tensor {
namespace {

using internal::TensorImpl;

// Row-major rank-2 addressing, shared by every op that walks rows. The stride
// arithmetic (`i * cols + j`, row base pointers) used to be hand-rolled in
// each backward lambda; it lives here exactly once. Sixteen bytes, cheap to
// capture by value.
struct RowMajor {
  int64_t rows = 0;
  int64_t cols = 0;

  size_t at(int64_t i, int64_t j) const { return static_cast<size_t>(i * cols + j); }
  size_t row_offset(int64_t i) const { return static_cast<size_t>(i * cols); }

  const float* row(const Storage& s, int64_t i) const { return s.data() + i * cols; }
  float* row(Storage& s, int64_t i) const { return s.data() + i * cols; }
};

RowMajor Layout(const Tensor& t) {
  SARN_CHECK_EQ(t.rank(), 2);
  return RowMajor{t.shape()[0], t.shape()[1]};
}

// How operand b aligns against operand a in a binary op.
enum class Broadcast {
  kSame,    // identical element counts and (logical) shapes
  kRowVec,  // a: [m, n], b: [n] or [1, n]
  kScalar,  // b: single element
};

bool IsRowVecOf(const Tensor& a, const Tensor& b) {
  if (a.rank() != 2) return false;
  int64_t n = a.shape()[1];
  if (b.rank() == 1 && b.shape()[0] == n) return true;
  if (b.rank() == 2 && b.shape()[0] == 1 && b.shape()[1] == n) return true;
  return false;
}

Broadcast ResolveBroadcast(const Tensor& a, const Tensor& b) {
  if (a.numel() == b.numel() && a.numel() > 0 &&
      (a.shape() == b.shape() || a.rank() == 1 || b.rank() == 1)) {
    // Treat [n] and [1, n]/[n, 1] with equal numel as the same layout.
    if (a.shape() == b.shape() || std::min(a.rank(), b.rank()) <= 1) return Broadcast::kSame;
  }
  if (b.numel() == 1) return Broadcast::kScalar;
  if (IsRowVecOf(a, b)) return Broadcast::kRowVec;
  SARN_CHECK(false) << "incompatible shapes " << ShapeToString(a.shape()) << " vs "
                    << ShapeToString(b.shape());
  return Broadcast::kSame;  // Unreachable.
}

// Generic elementwise binary with the three broadcast modes. `fwd(x, y)` is
// the value, `dfdx(x, y, out)` / `dfdy(x, y, out)` the partials.
template <typename Fwd, typename DfDx, typename DfDy>
Tensor BinaryOp(const Tensor& a, const Tensor& b, Fwd fwd, DfDx dfdx, DfDy dfdy) {
  Broadcast mode = ResolveBroadcast(a, b);
  const Storage& av = a.data();
  const Storage& bv = b.data();
  int64_t n_cols = (mode == Broadcast::kRowVec) ? a.shape()[1] : 0;
  Storage out = Storage::Uninitialized(av.size());
  switch (mode) {
    case Broadcast::kSame:
      for (size_t i = 0; i < av.size(); ++i) out[i] = fwd(av[i], bv[i]);
      break;
    case Broadcast::kRowVec:
      for (size_t i = 0; i < av.size(); ++i) out[i] = fwd(av[i], bv[i % n_cols]);
      break;
    case Broadcast::kScalar:
      for (size_t i = 0; i < av.size(); ++i) out[i] = fwd(av[i], bv[0]);
      break;
  }
  auto ai = a.impl();
  auto bi = b.impl();
  return MakeOpResult(
      a.shape(), std::move(out), {a, b},
      [ai, bi, mode, n_cols, fwd, dfdx, dfdy](TensorImpl& o) {
        const Storage& g = o.grad;
        auto b_at = [&](size_t i) -> float {
          switch (mode) {
            case Broadcast::kSame:
              return bi->data[i];
            case Broadcast::kRowVec:
              return bi->data[i % n_cols];
            case Broadcast::kScalar:
              return bi->data[0];
          }
          return 0.0f;
        };
        if (ai->requires_grad) {
          ai->EnsureGrad();
          for (size_t i = 0; i < g.size(); ++i) {
            ai->grad[i] += g[i] * dfdx(ai->data[i], b_at(i), o.data[i]);
          }
        }
        if (bi->requires_grad) {
          bi->EnsureGrad();
          for (size_t i = 0; i < g.size(); ++i) {
            float contribution = g[i] * dfdy(ai->data[i], b_at(i), o.data[i]);
            switch (mode) {
              case Broadcast::kSame:
                bi->grad[i] += contribution;
                break;
              case Broadcast::kRowVec:
                bi->grad[i % n_cols] += contribution;
                break;
              case Broadcast::kScalar:
                bi->grad[0] += contribution;
                break;
            }
          }
        }
      });
}

// Generic elementwise unary. `dfd(x, out)` is the local derivative.
template <typename Fwd, typename Df>
Tensor UnaryOp(const Tensor& a, Fwd fwd, Df dfd) {
  const Storage& av = a.data();
  Storage out = Storage::Uninitialized(av.size());
  for (size_t i = 0; i < av.size(); ++i) out[i] = fwd(av[i]);
  auto ai = a.impl();
  return MakeOpResult(a.shape(), std::move(out), {a}, [ai, dfd](TensorImpl& o) {
    if (!ai->requires_grad) return;
    ai->EnsureGrad();
    for (size_t i = 0; i < o.grad.size(); ++i) {
      ai->grad[i] += o.grad[i] * dfd(ai->data[i], o.data[i]);
    }
  });
}

// Multiply-adds a parallel matmul chunk must hold. A region wakes the
// parked workers, and the last of them starts ~10 µs after the notify at
// the median and up to ~1 ms in the tail; a smaller chunk does not repay
// that. GEMMs below the floor — most of a receptive-field training step —
// are one chunk and run inline (DESIGN.md §7 has the wake measurement and
// the sweep that chose 2^20 over 2^18 and 2^22).
constexpr size_t kMatMulChunkMacs = size_t{1} << 20;

// Rows per parallel matmul chunk: >= kMatMulChunkMacs multiply-adds each,
// rounded up to the register-tile height so only a chunk's last tile can be
// partial.
size_t MatMulRowGrain(int64_t reduce, int64_t cols) {
  size_t grain = std::max<size_t>(
      1, kMatMulChunkMacs / static_cast<size_t>(std::max<int64_t>(1, reduce * cols)));
  size_t mr = static_cast<size_t>(kernels::kMr);
  return (grain + mr - 1) / mr * mr;
}

}  // namespace

Tensor Add(const Tensor& a, const Tensor& b) {
  // Commutative: put the broadcast operand on the right.
  if (b.numel() > a.numel()) return Add(b, a);
  return BinaryOp(
      a, b, [](float x, float y) { return x + y; },
      [](float, float, float) { return 1.0f; }, [](float, float, float) { return 1.0f; });
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  if (a.numel() >= b.numel()) {
    return BinaryOp(
        a, b, [](float x, float y) { return x - y; },
        [](float, float, float) { return 1.0f; },
        [](float, float, float) { return -1.0f; });
  }
  return Add(Neg(b), a);
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  if (b.numel() > a.numel()) return Mul(b, a);
  return BinaryOp(
      a, b, [](float x, float y) { return x * y; },
      [](float, float y, float) { return y; }, [](float x, float, float) { return x; });
}

Tensor AddScalar(const Tensor& a, float s) {
  return UnaryOp(
      a, [s](float x) { return x + s; }, [](float, float) { return 1.0f; });
}

Tensor MulScalar(const Tensor& a, float s) {
  return UnaryOp(
      a, [s](float x) { return x * s; }, [s](float, float) { return s; });
}

Tensor Neg(const Tensor& a) { return MulScalar(a, -1.0f); }

Tensor Exp(const Tensor& a) {
  return UnaryOp(
      a, [](float x) { return std::exp(x); }, [](float, float out) { return out; });
}

Tensor Log(const Tensor& a) {
  return UnaryOp(
      a, [](float x) { return std::log(x); }, [](float x, float) { return 1.0f / x; });
}

Tensor Square(const Tensor& a) {
  return UnaryOp(
      a, [](float x) { return x * x; }, [](float x, float) { return 2.0f * x; });
}

Tensor Abs(const Tensor& a) {
  return UnaryOp(
      a, [](float x) { return std::fabs(x); },
      [](float x, float) { return x > 0 ? 1.0f : (x < 0 ? -1.0f : 0.0f); });
}

Tensor Relu(const Tensor& a) {
  return UnaryOp(
      a, [](float x) { return x > 0 ? x : 0.0f; },
      [](float x, float) { return x > 0 ? 1.0f : 0.0f; });
}

Tensor LeakyRelu(const Tensor& a, float negative_slope) {
  return UnaryOp(
      a, [negative_slope](float x) { return x > 0 ? x : negative_slope * x; },
      [negative_slope](float x, float) { return x > 0 ? 1.0f : negative_slope; });
}

Tensor Elu(const Tensor& a, float alpha) {
  return UnaryOp(
      a, [alpha](float x) { return x > 0 ? x : alpha * (std::exp(x) - 1.0f); },
      [alpha](float x, float out) { return x > 0 ? 1.0f : out + alpha; });
}

Tensor Sigmoid(const Tensor& a) {
  return UnaryOp(
      a,
      [](float x) {
        // Stable in both tails.
        if (x >= 0) {
          float z = std::exp(-x);
          return 1.0f / (1.0f + z);
        }
        float z = std::exp(x);
        return z / (1.0f + z);
      },
      [](float, float out) { return out * (1.0f - out); });
}

Tensor Tanh(const Tensor& a) {
  return UnaryOp(
      a, [](float x) { return std::tanh(x); },
      [](float, float out) { return 1.0f - out * out; });
}

Tensor MatMul(const Tensor& a, const Tensor& b) {
  SARN_CHECK_EQ(a.rank(), 2);
  SARN_CHECK_EQ(b.rank(), 2);
  int64_t m = a.shape()[0], k = a.shape()[1], k2 = b.shape()[0], n = b.shape()[1];
  SARN_CHECK_EQ(k, k2) << "MatMul " << ShapeToString(a.shape()) << " x "
                       << ShapeToString(b.shape());
  const float* ad = a.data().data();
  const float* bd = b.data().data();
  // The init kernels overwrite every element of their row range, so the
  // output can start uninitialized (no zero-fill pass).
  Storage out = Storage::Uninitialized(static_cast<size_t>(m * n));
  float* od = out.data();
  // The compiled AVX2 kernels run whenever the runtime SIMD tier allows;
  // scalar-tier hosts stay on the blocked reference kernels. Both produce
  // identical bits (DESIGN.md §15). The choice is latched here on the
  // calling thread so pool workers running a row range and the backward
  // closure agree with the forward.
  const bool compiled = kernels::MatMulCompiledAvailable();
  // Split so each chunk holds >= kMatMulChunkMacs multiply-adds; chunks of
  // kMr rows keep the register tiles full except at a range boundary.
  size_t grain = MatMulRowGrain(k, n);
  ParallelFor(
      static_cast<size_t>(m),
      [&](size_t begin, size_t end) {
#if defined(SARN_HAVE_AVX2_KERNELS)
        if (compiled) {
          kernels::MatMulInitAvx2(ad, bd, od, static_cast<int64_t>(begin),
                                  static_cast<int64_t>(end), k, n);
          return;
        }
#endif
        kernels::MatMulBlockedInit(ad, bd, od, static_cast<int64_t>(begin),
                                   static_cast<int64_t>(end), k, n);
      },
      grain);
  auto ai = a.impl();
  auto bi = b.impl();
  return MakeOpResult({m, n}, std::move(out), {a, b},
                      [ai, bi, m, k, n, compiled](TensorImpl& o) {
    const float* g = o.grad.data();
    if (ai->requires_grad) {
      ai->EnsureGrad();
      float* ga = ai->grad.data();
      const float* bd = bi->data.data();
#if defined(SARN_HAVE_AVX2_KERNELS)
      if (compiled) {
        // Pre-transpose B so the compiled dA kernel's kk lanes load
        // contiguously — pure data movement, no float arithmetic.
        Storage bt = Storage::Uninitialized(static_cast<size_t>(k * n));
        float* btd = bt.data();
        for (int64_t kk = 0; kk < k; ++kk) {
          for (int64_t j = 0; j < n; ++j) btd[j * k + kk] = bd[kk * n + j];
        }
        ParallelFor(
            static_cast<size_t>(m),
            [&](size_t begin, size_t end) {
              kernels::MatMulGradATAvx2(g, btd, ga, static_cast<int64_t>(begin),
                                        static_cast<int64_t>(end), k, n);
            },
            MatMulRowGrain(k, n));
      } else
#endif
      {
        // dA = G * B^T : [m,n] x [n,k]
        ParallelFor(
            static_cast<size_t>(m),
            [&](size_t begin, size_t end) {
              kernels::MatMulGradABlocked(g, bd, ga, static_cast<int64_t>(begin),
                                          static_cast<int64_t>(end), k, n);
            },
            MatMulRowGrain(k, n));
      }
    }
    if (bi->requires_grad) {
      bi->EnsureGrad();
      float* gb = bi->grad.data();
      const float* ad = ai->data.data();
      // dB = A^T * G : [k,m] x [m,n]; parallel over k (rows of dB).
      ParallelFor(
          static_cast<size_t>(k),
          [&](size_t begin, size_t end) {
#if defined(SARN_HAVE_AVX2_KERNELS)
            if (compiled) {
              kernels::MatMulGradBAvx2(ad, g, gb, static_cast<int64_t>(begin),
                                       static_cast<int64_t>(end), m, k, n);
              return;
            }
#endif
            kernels::MatMulGradBBlocked(ad, g, gb, static_cast<int64_t>(begin),
                                        static_cast<int64_t>(end), m, k, n);
          },
          MatMulRowGrain(m, n));
    }
  });
}

Tensor Transpose(const Tensor& a) {
  RowMajor rm = Layout(a);
  Storage out = Storage::Uninitialized(a.data().size());
  for (int64_t i = 0; i < rm.rows; ++i) {
    for (int64_t j = 0; j < rm.cols; ++j) {
      out[static_cast<size_t>(j * rm.rows + i)] = a.data()[rm.at(i, j)];
    }
  }
  auto ai = a.impl();
  return MakeOpResult({rm.cols, rm.rows}, std::move(out), {a}, [ai, rm](TensorImpl& o) {
    if (!ai->requires_grad) return;
    ai->EnsureGrad();
    for (int64_t i = 0; i < rm.rows; ++i) {
      for (int64_t j = 0; j < rm.cols; ++j) {
        ai->grad[rm.at(i, j)] += o.grad[static_cast<size_t>(j * rm.rows + i)];
      }
    }
  });
}

Tensor Reshape(const Tensor& a, const Shape& shape) {
  SARN_CHECK_EQ(NumElements(shape), a.numel());
  auto ai = a.impl();
  // Zero-copy: the result aliases the input's buffer. Ops never mutate their
  // inputs, and gradients stay per-node, so this is semantics-preserving.
  return MakeOpResult(shape, a.data().Share(), {a}, [ai](TensorImpl& o) {
    if (!ai->requires_grad) return;
    ai->EnsureGrad();
    for (size_t i = 0; i < o.grad.size(); ++i) ai->grad[i] += o.grad[i];
  });
}

Tensor Sum(const Tensor& a) {
  double acc = 0.0;
  for (float v : a.data()) acc += v;
  Storage out = Storage::Uninitialized(1);
  out[0] = static_cast<float>(acc);
  auto ai = a.impl();
  return MakeOpResult({1}, std::move(out), {a}, [ai](TensorImpl& o) {
    if (!ai->requires_grad) return;
    ai->EnsureGrad();
    float g = o.grad[0];
    for (float& gv : ai->grad) gv += g;
  });
}

Tensor Mean(const Tensor& a) {
  SARN_CHECK_GT(a.numel(), 0);
  return MulScalar(Sum(a), 1.0f / static_cast<float>(a.numel()));
}

Tensor SumAxis(const Tensor& a, int axis) {
  SARN_CHECK(axis == 0 || axis == 1);
  RowMajor rm = Layout(a);
  auto ai = a.impl();
  if (axis == 0) {
    Storage out = Storage::Zeroed(static_cast<size_t>(rm.cols));
    for (int64_t i = 0; i < rm.rows; ++i) {
      for (int64_t j = 0; j < rm.cols; ++j) out[static_cast<size_t>(j)] += a.data()[rm.at(i, j)];
    }
    return MakeOpResult({rm.cols}, std::move(out), {a}, [ai, rm](TensorImpl& o) {
      if (!ai->requires_grad) return;
      ai->EnsureGrad();
      for (int64_t i = 0; i < rm.rows; ++i) {
        for (int64_t j = 0; j < rm.cols; ++j) ai->grad[rm.at(i, j)] += o.grad[j];
      }
    });
  }
  Storage out = Storage::Uninitialized(static_cast<size_t>(rm.rows));
  for (int64_t i = 0; i < rm.rows; ++i) {
    const float* row = rm.row(a.data(), i);
    double acc = 0.0;
    for (int64_t j = 0; j < rm.cols; ++j) acc += row[j];
    out[static_cast<size_t>(i)] = static_cast<float>(acc);
  }
  return MakeOpResult({rm.rows}, std::move(out), {a}, [ai, rm](TensorImpl& o) {
    if (!ai->requires_grad) return;
    ai->EnsureGrad();
    for (int64_t i = 0; i < rm.rows; ++i) {
      for (int64_t j = 0; j < rm.cols; ++j) ai->grad[rm.at(i, j)] += o.grad[i];
    }
  });
}

Tensor RowSoftmax(const Tensor& a) {
  RowMajor rm = Layout(a);
  Storage out = Storage::Uninitialized(a.data().size());
  for (int64_t i = 0; i < rm.rows; ++i) {
    const float* row = rm.row(a.data(), i);
    float* orow = rm.row(out, i);
    float mx = -std::numeric_limits<float>::infinity();
    for (int64_t j = 0; j < rm.cols; ++j) mx = std::max(mx, row[j]);
    double sum = 0.0;
    for (int64_t j = 0; j < rm.cols; ++j) {
      orow[j] = std::exp(row[j] - mx);
      sum += orow[j];
    }
    float inv = static_cast<float>(1.0 / sum);
    for (int64_t j = 0; j < rm.cols; ++j) orow[j] *= inv;
  }
  auto ai = a.impl();
  return MakeOpResult(a.shape(), std::move(out), {a}, [ai, rm](TensorImpl& o) {
    if (!ai->requires_grad) return;
    ai->EnsureGrad();
    for (int64_t i = 0; i < rm.rows; ++i) {
      const float* y = rm.row(o.data, i);
      const float* g = rm.row(o.grad, i);
      float* ga = rm.row(ai->grad, i);
      double dot = 0.0;
      for (int64_t j = 0; j < rm.cols; ++j) dot += static_cast<double>(g[j]) * y[j];
      for (int64_t j = 0; j < rm.cols; ++j) ga[j] += (g[j] - static_cast<float>(dot)) * y[j];
    }
  });
}

Tensor RowLogSoftmax(const Tensor& a) {
  RowMajor rm = Layout(a);
  Storage out = Storage::Uninitialized(a.data().size());
  for (int64_t i = 0; i < rm.rows; ++i) {
    const float* row = rm.row(a.data(), i);
    float* orow = rm.row(out, i);
    float mx = -std::numeric_limits<float>::infinity();
    for (int64_t j = 0; j < rm.cols; ++j) mx = std::max(mx, row[j]);
    double sum = 0.0;
    for (int64_t j = 0; j < rm.cols; ++j) sum += std::exp(static_cast<double>(row[j]) - mx);
    float lse = mx + static_cast<float>(std::log(sum));
    for (int64_t j = 0; j < rm.cols; ++j) orow[j] = row[j] - lse;
  }
  auto ai = a.impl();
  return MakeOpResult(a.shape(), std::move(out), {a}, [ai, rm](TensorImpl& o) {
    if (!ai->requires_grad) return;
    ai->EnsureGrad();
    for (int64_t i = 0; i < rm.rows; ++i) {
      const float* y = rm.row(o.data, i);
      const float* g = rm.row(o.grad, i);
      float* ga = rm.row(ai->grad, i);
      double gsum = 0.0;
      for (int64_t j = 0; j < rm.cols; ++j) gsum += g[j];
      for (int64_t j = 0; j < rm.cols; ++j) {
        ga[j] += g[j] - static_cast<float>(gsum) * std::exp(y[j]);
      }
    }
  });
}

Tensor RowL2Normalize(const Tensor& a, float eps) {
  RowMajor rm = Layout(a);
  Storage out = Storage::Uninitialized(a.data().size());
  Storage norms = Storage::Uninitialized(static_cast<size_t>(rm.rows));
  for (int64_t i = 0; i < rm.rows; ++i) {
    const float* row = rm.row(a.data(), i);
    double sq = 0.0;
    for (int64_t j = 0; j < rm.cols; ++j) sq += static_cast<double>(row[j]) * row[j];
    float norm = std::max(static_cast<float>(std::sqrt(sq)), eps);
    norms[static_cast<size_t>(i)] = norm;
    float inv = 1.0f / norm;
    float* orow = rm.row(out, i);
    for (int64_t j = 0; j < rm.cols; ++j) orow[j] = row[j] * inv;
  }
  auto ai = a.impl();
  return MakeOpResult(a.shape(), std::move(out), {a},
                      [ai, rm, norms = std::move(norms), eps](TensorImpl& o) {
                        if (!ai->requires_grad) return;
                        ai->EnsureGrad();
                        for (int64_t i = 0; i < rm.rows; ++i) {
                          const float* x = rm.row(ai->data, i);
                          const float* g = rm.row(o.grad, i);
                          float* ga = rm.row(ai->grad, i);
                          float norm = norms[static_cast<size_t>(i)];
                          float inv = 1.0f / norm;
                          if (norm <= eps) {
                            for (int64_t j = 0; j < rm.cols; ++j) ga[j] += g[j] * inv;
                            continue;
                          }
                          double dot = 0.0;
                          for (int64_t j = 0; j < rm.cols; ++j) {
                            dot += static_cast<double>(g[j]) * x[j];
                          }
                          float scale = static_cast<float>(dot) * inv * inv * inv;
                          for (int64_t j = 0; j < rm.cols; ++j) {
                            ga[j] += g[j] * inv - x[j] * scale;
                          }
                        }
                      });
}

Tensor DotRows(const Tensor& a, const Tensor& b) {
  SARN_CHECK(a.shape() == b.shape())
      << ShapeToString(a.shape()) << " vs " << ShapeToString(b.shape());
  RowMajor rm = Layout(a);
  Storage out = Storage::Uninitialized(static_cast<size_t>(rm.rows));
  for (int64_t i = 0; i < rm.rows; ++i) {
    const float* arow = rm.row(a.data(), i);
    const float* brow = rm.row(b.data(), i);
    double acc = 0.0;
    for (int64_t j = 0; j < rm.cols; ++j) {
      acc += static_cast<double>(arow[j]) * brow[j];
    }
    out[static_cast<size_t>(i)] = static_cast<float>(acc);
  }
  auto ai = a.impl();
  auto bi = b.impl();
  return MakeOpResult({rm.rows}, std::move(out), {a, b}, [ai, bi, rm](TensorImpl& o) {
    for (int64_t i = 0; i < rm.rows; ++i) {
      float g = o.grad[static_cast<size_t>(i)];
      if (ai->requires_grad) {
        ai->EnsureGrad();
        const float* brow = rm.row(bi->data, i);
        float* ga = rm.row(ai->grad, i);
        for (int64_t j = 0; j < rm.cols; ++j) ga[j] += g * brow[j];
      }
      if (bi->requires_grad) {
        bi->EnsureGrad();
        const float* arow = rm.row(ai->data, i);
        float* gb = rm.row(bi->grad, i);
        for (int64_t j = 0; j < rm.cols; ++j) gb[j] += g * arow[j];
      }
    }
  });
}

Tensor ScaleRows(const Tensor& a, const Tensor& scale) {
  RowMajor rm = Layout(a);
  SARN_CHECK_EQ(scale.numel(), rm.rows) << "ScaleRows " << ShapeToString(a.shape())
                                        << " by " << ShapeToString(scale.shape());
  Storage out = Storage::Uninitialized(a.data().size());
  for (int64_t i = 0; i < rm.rows; ++i) {
    float s = scale.data()[static_cast<size_t>(i)];
    const float* row = rm.row(a.data(), i);
    float* orow = rm.row(out, i);
    for (int64_t j = 0; j < rm.cols; ++j) orow[j] = row[j] * s;
  }
  auto ai = a.impl();
  auto si = scale.impl();
  return MakeOpResult(a.shape(), std::move(out), {a, scale}, [ai, si, rm](TensorImpl& o) {
    for (int64_t i = 0; i < rm.rows; ++i) {
      const float* g = rm.row(o.grad, i);
      float s = si->data[static_cast<size_t>(i)];
      if (ai->requires_grad) {
        ai->EnsureGrad();
        float* ga = rm.row(ai->grad, i);
        for (int64_t j = 0; j < rm.cols; ++j) ga[j] += g[j] * s;
      }
      if (si->requires_grad) {
        si->EnsureGrad();
        const float* arow = rm.row(ai->data, i);
        double acc = 0.0;
        for (int64_t j = 0; j < rm.cols; ++j) acc += static_cast<double>(g[j]) * arow[j];
        si->grad[static_cast<size_t>(i)] += static_cast<float>(acc);
      }
    }
  });
}

Tensor Rows(const Tensor& a, std::span<const int64_t> indices) {
  RowMajor rm = Layout(a);
  int64_t m = static_cast<int64_t>(indices.size());
  Storage out = Storage::Uninitialized(static_cast<size_t>(m * rm.cols));
  for (int64_t r = 0; r < m; ++r) {
    int64_t src = indices[static_cast<size_t>(r)];
    SARN_CHECK(src >= 0 && src < rm.rows) << "row index " << src;
    std::copy_n(rm.row(a.data(), src), rm.cols, out.data() + r * rm.cols);
  }
  auto ai = a.impl();
  return MakeOpResult({m, rm.cols}, std::move(out), {a},
                      [ai, rm, idx = MakeIndexVec(indices)](TensorImpl& o) {
                        if (!ai->requires_grad) return;
                        ai->EnsureGrad();
                        for (size_t r = 0; r < idx.size(); ++r) {
                          const float* g = o.grad.data() + r * rm.cols;
                          float* ga = rm.row(ai->grad, idx[r]);
                          for (int64_t j = 0; j < rm.cols; ++j) ga[j] += g[j];
                        }
                      });
}

Tensor TakePerRow(const Tensor& a, const std::vector<int64_t>& cols) {
  RowMajor rm = Layout(a);
  SARN_CHECK_EQ(static_cast<int64_t>(cols.size()), rm.rows);
  Storage out = Storage::Uninitialized(static_cast<size_t>(rm.rows));
  for (int64_t i = 0; i < rm.rows; ++i) {
    int64_t c = cols[static_cast<size_t>(i)];
    SARN_CHECK(c >= 0 && c < rm.cols) << "col index " << c;
    out[static_cast<size_t>(i)] = a.data()[rm.at(i, c)];
  }
  auto ai = a.impl();
  return MakeOpResult({rm.rows}, std::move(out), {a},
                      [ai, rm, idx = MakeIndexVec(cols)](TensorImpl& o) {
                        if (!ai->requires_grad) return;
                        ai->EnsureGrad();
                        for (size_t i = 0; i < idx.size(); ++i) {
                          ai->grad[rm.at(static_cast<int64_t>(i), idx[i])] += o.grad[i];
                        }
                      });
}

Tensor ColsRange(const Tensor& a, int64_t col, int64_t count) {
  RowMajor rm = Layout(a);
  SARN_CHECK(col >= 0 && count > 0 && col + count <= rm.cols)
      << "ColsRange [" << col << ", " << col + count << ") of " << ShapeToString(a.shape());
  Storage out = Storage::Uninitialized(static_cast<size_t>(rm.rows * count));
  for (int64_t i = 0; i < rm.rows; ++i) {
    std::copy_n(rm.row(a.data(), i) + col, count, out.data() + i * count);
  }
  auto ai = a.impl();
  return MakeOpResult({rm.rows, count}, std::move(out), {a},
                      [ai, rm, col, count](TensorImpl& o) {
                        if (!ai->requires_grad) return;
                        ai->EnsureGrad();
                        for (int64_t i = 0; i < rm.rows; ++i) {
                          const float* g = o.grad.data() + i * count;
                          float* ga = rm.row(ai->grad, i) + col;
                          for (int64_t j = 0; j < count; ++j) ga[j] += g[j];
                        }
                      });
}

Tensor Concat(const std::vector<Tensor>& parts, int axis) {
  SARN_CHECK(!parts.empty());
  SARN_CHECK(axis == 0 || axis == 1);
  for (const Tensor& p : parts) SARN_CHECK_EQ(p.rank(), 2);
  int64_t m = 0, n = 0;
  if (axis == 0) {
    n = parts[0].shape()[1];
    for (const Tensor& p : parts) {
      SARN_CHECK_EQ(p.shape()[1], n);
      m += p.shape()[0];
    }
  } else {
    m = parts[0].shape()[0];
    for (const Tensor& p : parts) {
      SARN_CHECK_EQ(p.shape()[0], m);
      n += p.shape()[1];
    }
  }
  RowMajor rm{m, n};
  Storage out = Storage::Uninitialized(static_cast<size_t>(m * n));
  if (axis == 0) {
    size_t offset = 0;
    for (const Tensor& p : parts) {
      std::copy(p.data().begin(), p.data().end(), out.begin() + offset);
      offset += p.data().size();
    }
  } else {
    int64_t col_offset = 0;
    for (const Tensor& p : parts) {
      int64_t pn = p.shape()[1];
      for (int64_t i = 0; i < m; ++i) {
        std::copy_n(p.data().data() + i * pn, pn, rm.row(out, i) + col_offset);
      }
      col_offset += pn;
    }
  }
  PoolVec<std::shared_ptr<TensorImpl>> impls;
  impls.reserve(parts.size());
  for (const Tensor& p : parts) impls.push_back(p.impl());
  return MakeOpResult({m, n}, std::move(out), parts,
                      [impls = std::move(impls), axis, rm](TensorImpl& o) {
                        if (axis == 0) {
                          size_t offset = 0;
                          for (const auto& pi : impls) {
                            if (pi->requires_grad) {
                              pi->EnsureGrad();
                              for (size_t i = 0; i < pi->data.size(); ++i) {
                                pi->grad[i] += o.grad[offset + i];
                              }
                            }
                            offset += pi->data.size();
                          }
                        } else {
                          int64_t col_offset = 0;
                          for (const auto& pi : impls) {
                            int64_t pn = pi->shape[1];
                            if (pi->requires_grad) {
                              pi->EnsureGrad();
                              for (int64_t i = 0; i < rm.rows; ++i) {
                                const float* g = rm.row(o.grad, i) + col_offset;
                                float* gp = pi->grad.data() + i * pn;
                                for (int64_t j = 0; j < pn; ++j) gp[j] += g[j];
                              }
                            }
                            col_offset += pn;
                          }
                        }
                      });
}

Tensor EdgeSoftmax(const Tensor& scores, std::span<const int64_t> dst,
                   int64_t num_vertices) {
  SARN_CHECK(scores.rank() == 1 || (scores.rank() == 2 && scores.shape()[1] == 1));
  int64_t e_count = scores.numel();
  SARN_CHECK_EQ(static_cast<int64_t>(dst.size()), e_count);
  PoolVec<float> max_per(static_cast<size_t>(num_vertices),
                         -std::numeric_limits<float>::infinity());
  for (int64_t e = 0; e < e_count; ++e) {
    int64_t v = dst[static_cast<size_t>(e)];
    SARN_DCHECK(v >= 0 && v < num_vertices);
    max_per[static_cast<size_t>(v)] =
        std::max(max_per[static_cast<size_t>(v)], scores.data()[static_cast<size_t>(e)]);
  }
  PoolVec<double> sum_per(static_cast<size_t>(num_vertices), 0.0);
  Storage out = Storage::Uninitialized(static_cast<size_t>(e_count));
  for (int64_t e = 0; e < e_count; ++e) {
    size_t v = static_cast<size_t>(dst[static_cast<size_t>(e)]);
    float ex = std::exp(scores.data()[static_cast<size_t>(e)] - max_per[v]);
    out[static_cast<size_t>(e)] = ex;
    sum_per[v] += ex;
  }
  for (int64_t e = 0; e < e_count; ++e) {
    size_t v = static_cast<size_t>(dst[static_cast<size_t>(e)]);
    out[static_cast<size_t>(e)] =
        sum_per[v] > 0 ? static_cast<float>(out[static_cast<size_t>(e)] / sum_per[v]) : 0.0f;
  }
  auto si = scores.impl();
  return MakeOpResult(
      {e_count}, std::move(out), {scores},
      [si, idx = MakeIndexVec(dst), num_vertices](TensorImpl& o) {
        if (!si->requires_grad) return;
        si->EnsureGrad();
        // Grouped softmax Jacobian: ds_e = y_e * (g_e - sum_{e' in group} g_e' y_e').
        PoolVec<double> group_dot(static_cast<size_t>(num_vertices), 0.0);
        for (size_t e = 0; e < idx.size(); ++e) {
          group_dot[static_cast<size_t>(idx[e])] +=
              static_cast<double>(o.grad[e]) * o.data[e];
        }
        for (size_t e = 0; e < idx.size(); ++e) {
          si->grad[e] += o.data[e] * (o.grad[e] - static_cast<float>(
                                                      group_dot[static_cast<size_t>(idx[e])]));
        }
      });
}

Tensor ScatterAddRows(const Tensor& messages, std::span<const int64_t> dst,
                      int64_t num_vertices) {
  RowMajor rm = Layout(messages);
  SARN_CHECK_EQ(static_cast<int64_t>(dst.size()), rm.rows);
  RowMajor orm{num_vertices, rm.cols};
  Storage out = Storage::Zeroed(static_cast<size_t>(num_vertices * rm.cols));
  for (int64_t e = 0; e < rm.rows; ++e) {
    int64_t v = dst[static_cast<size_t>(e)];
    SARN_DCHECK(v >= 0 && v < num_vertices);
    const float* msg = rm.row(messages.data(), e);
    float* orow = orm.row(out, v);
    for (int64_t j = 0; j < rm.cols; ++j) orow[j] += msg[j];
  }
  auto mi = messages.impl();
  return MakeOpResult({num_vertices, rm.cols}, std::move(out), {messages},
                      [mi, rm, orm, idx = MakeIndexVec(dst)](TensorImpl& o) {
                        if (!mi->requires_grad) return;
                        mi->EnsureGrad();
                        for (size_t e = 0; e < idx.size(); ++e) {
                          const float* g = orm.row(o.grad, idx[e]);
                          float* gm = rm.row(mi->grad, static_cast<int64_t>(e));
                          for (int64_t j = 0; j < rm.cols; ++j) gm[j] += g[j];
                        }
                      });
}

Tensor FusedEdgeScores(const Tensor& score_src, const Tensor& score_dst,
                       std::span<const int64_t> src, std::span<const int64_t> dst,
                       float negative_slope) {
  SARN_CHECK_EQ(src.size(), dst.size());
  int64_t e_count = static_cast<int64_t>(src.size());
  const Storage& ss = score_src.data();
  const Storage& sd = score_dst.data();
  Storage out = Storage::Uninitialized(static_cast<size_t>(e_count));
  for (int64_t e = 0; e < e_count; ++e) {
    // Same float order as Add(Rows(score_dst, dst), Rows(score_src, src))
    // followed by LeakyRelu.
    float x = sd[static_cast<size_t>(dst[static_cast<size_t>(e)])] +
              ss[static_cast<size_t>(src[static_cast<size_t>(e)])];
    out[static_cast<size_t>(e)] = x > 0 ? x : negative_slope * x;
  }
  // Inference returns before the closure copies src/dst.
  if (!GradModeEnabled()) return Tensor::FromStorage({e_count}, std::move(out));
  auto ssi = score_src.impl();
  auto sdi = score_dst.impl();
  // Parent order {score_dst, score_src} mirrors Add(rows_dst, rows_src): the
  // backward DFS then visits the score_dst matmul subtree first, so wx
  // receives the two attention-gradient contributions in the unfused order
  // (score_src's closure runs before score_dst's).
  return MakeOpResult(
      {e_count}, std::move(out), {score_dst, score_src},
      [ssi, sdi, negative_slope, src_idx = MakeIndexVec(src),
       dst_idx = MakeIndexVec(dst)](TensorImpl& o) {
        // Per edge: recompute the pre-activation x bitwise from the saved
        // inputs (LeakyRelu's derivative tests x), then scatter the chain
        // gradient g * lrelu'(x) exactly as the unfused Rows backwards do —
        // ascending edge order, single accumulation per edge. The unfused
        // graph updates score_src before score_dst; the targets are distinct
        // tensors with single-assignment row gradients, so per-tensor float
        // accumulation order (the bitwise invariant) is preserved.
        auto chain = [&](size_t e) -> float {
          float x = sdi->data[static_cast<size_t>(dst_idx[e])] +
                    ssi->data[static_cast<size_t>(src_idx[e])];
          return o.grad[e] * (x > 0 ? 1.0f : negative_slope);
        };
        if (ssi->requires_grad) {
          ssi->EnsureGrad();
          for (size_t e = 0; e < src_idx.size(); ++e) {
            ssi->grad[static_cast<size_t>(src_idx[e])] += chain(e);
          }
        }
        if (sdi->requires_grad) {
          sdi->EnsureGrad();
          for (size_t e = 0; e < dst_idx.size(); ++e) {
            sdi->grad[static_cast<size_t>(dst_idx[e])] += chain(e);
          }
        }
      });
}

Tensor ScaleScatterRows(const Tensor& rows, const Tensor& scale,
                        std::span<const int64_t> dst, int64_t num_vertices) {
  RowMajor rm = Layout(rows);
  SARN_CHECK_EQ(scale.numel(), rm.rows);
  SARN_CHECK_EQ(static_cast<int64_t>(dst.size()), rm.rows);
  RowMajor orm{num_vertices, rm.cols};
  Storage out = Storage::Zeroed(static_cast<size_t>(num_vertices * rm.cols));
  for (int64_t e = 0; e < rm.rows; ++e) {
    int64_t v = dst[static_cast<size_t>(e)];
    SARN_DCHECK(v >= 0 && v < num_vertices);
    const float* row = rm.row(rows.data(), e);
    float s = scale.data()[static_cast<size_t>(e)];
    float* orow = orm.row(out, v);
    for (int64_t j = 0; j < rm.cols; ++j) {
      // Explicit float intermediate matches the rounding of the unfused
      // ScaleRows-then-ScatterAdd chain exactly.
      float message = row[j] * s;
      orow[j] += message;
    }
  }
  auto ai = rows.impl();
  auto si = scale.impl();
  return MakeOpResult(
      {num_vertices, rm.cols}, std::move(out), {rows, scale},
      [ai, si, rm, orm, idx = MakeIndexVec(dst)](TensorImpl& o) {
        // The unfused pair first materialises messages.grad[e] =
        // out.grad[dst[e]] (single assignment into zeros), then ScaleRows
        // consumes it per edge. Reading out.grad[dst[e]] directly yields the
        // same values; every gradient target (rows.grad row e, scale.grad[e])
        // receives exactly one accumulation, so the per-edge interleaving
        // cannot change any float result.
        for (size_t e = 0; e < idx.size(); ++e) {
          const float* g = orm.row(o.grad, idx[e]);
          float s = si->data[e];
          if (ai->requires_grad) {
            ai->EnsureGrad();
            float* ga = rm.row(ai->grad, static_cast<int64_t>(e));
            for (int64_t j = 0; j < rm.cols; ++j) ga[j] += g[j] * s;
          }
          if (si->requires_grad) {
            si->EnsureGrad();
            const float* arow = rm.row(ai->data, static_cast<int64_t>(e));
            double acc = 0.0;
            for (int64_t j = 0; j < rm.cols; ++j) {
              acc += static_cast<double>(g[j]) * arow[j];
            }
            si->grad[e] += static_cast<float>(acc);
          }
        }
      });
}

Tensor FusedGatherScaleScatter(const Tensor& wx, std::span<const int64_t> src,
                               std::span<const int64_t> dst, const Tensor& alpha,
                               int64_t num_vertices) {
  SARN_CHECK(!GradModeEnabled()) << "FusedGatherScaleScatter is inference-only";
  SARN_CHECK_EQ(src.size(), dst.size());
  RowMajor rm = Layout(wx);
  RowMajor orm{num_vertices, rm.cols};
  Storage out = Storage::Zeroed(static_cast<size_t>(num_vertices * rm.cols));
  for (size_t e = 0; e < src.size(); ++e) {
    const float* row = rm.row(wx.data(), src[e]);
    float s = alpha.data()[e];
    float* orow = orm.row(out, dst[e]);
    for (int64_t j = 0; j < rm.cols; ++j) {
      // Explicit float intermediate matches the rounding of the unfused
      // ScaleRows-then-ScatterAdd chain exactly.
      float message = row[j] * s;
      orow[j] += message;
    }
  }
  return Tensor::FromStorage({num_vertices, rm.cols}, std::move(out));
}

}  // namespace sarn::tensor
