// The storage plane under the tensor engine (DESIGN.md §11).
//
// Every op result used to heap-allocate a fresh std::vector<float> for its
// data (and later its grad), plus a std::function tape node — thousands of
// global-allocator round trips per training step. This header separates
// *storage* (where the bytes live) from *tensor semantics* (shape, autograd):
//
//   * BufferPool — a process-wide size-class pool of raw blocks. Acquire
//     rounds the request up to a power-of-two class and pops from a
//     thread-local free list (no lock); on a class's first use (a pool
//     *miss*) the block is malloc'd once and recycled forever after.
//     Cross-thread release is safe: blocks simply migrate to the releasing
//     thread's cache, overflowing into per-class mutex-guarded central lists.
//   * Storage — a ref-counted handle to a float buffer drawn from the pool.
//     Move-only (copies must be explicit: CopyFrom or Share), so silent
//     deep-copies and silent aliasing are both impossible. View() makes a
//     zero-copy window into another Storage (shares the block, offsets the
//     pointer); views are read-only by contract.
//   * PoolVec / PoolAllocator — std-container plumbing routed through the
//     pool, used for tape parents, index captures and pooled tape nodes.
//   * TapeFn — a move-only type-erased callable replacing std::function for
//     autograd tape nodes: the closure lives inline in the node (up to
//     kTapeFnInlineBytes) or in a pooled chunk, never in the global heap.
//   * StepScope — RAII bracket around one training step / serve batch;
//     publishes the sarn.alloc.* metrics (pool hits/misses, live and pooled
//     bytes, high-water mark, per-step misses, tape nodes) on exit.
//
// Steady-state guarantee: once every size class a workload touches has been
// seen, Acquire never misses — training steps and serve batches run
// allocation-free against the global allocator for all tensor storage, tape
// nodes and backward closures. Recycling never changes numerics: buffers are
// either fully overwritten or explicitly zero-filled before use.

#ifndef SARN_TENSOR_STORAGE_H_
#define SARN_TENSOR_STORAGE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <new>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/check.h"

namespace sarn::tensor {

namespace internal {
struct TensorImpl;  // tensor.h

/// Pool block header; the payload follows at kBlockHeaderBytes. While checked
/// out, `refs` counts Storage handles (views included); while pooled, `next`
/// links the free list.
struct StorageBlock {
  std::atomic<int32_t> refs{0};
  uint32_t size_class = 0;
  StorageBlock* next = nullptr;
  size_t oversize_bytes = 0;  // Exact payload bytes for oversize blocks.

  void* payload() { return reinterpret_cast<char*>(this) + kPayloadOffset; }
  float* floats() { return static_cast<float*>(payload()); }

  static constexpr size_t kPayloadOffset = 64;  // Keeps payloads cache-aligned.
};

/// Bumps the process tape-node counter (MakeOpResult); published by StepScope
/// as sarn.alloc.tape_nodes.
void IncrementTapeNodeCount();
uint64_t TapeNodeCount();

}  // namespace internal

/// Point-in-time allocator statistics (process-wide).
struct PoolStats {
  uint64_t hits = 0;        // Acquires served from a free list.
  uint64_t misses = 0;      // Acquires that had to call the global allocator.
  int64_t live_bytes = 0;   // Payload bytes currently checked out.
  int64_t pooled_bytes = 0; // Payload bytes parked in free lists.
  int64_t peak_live_bytes = 0;  // High-water mark of live_bytes.
  uint64_t tape_nodes = 0;  // Autograd tape nodes created since process start.
};

class BufferPool {
 public:
  /// The process-wide pool (leaky singleton: never destroyed, so free lists
  /// stay reachable and thread-exit flushes are always safe).
  static BufferPool& Instance();

  /// Returns a block whose payload holds at least `bytes` bytes, with
  /// refs == 1. Thread-safe; lock-free when the calling thread's cache has a
  /// block of the class.
  internal::StorageBlock* Acquire(size_t bytes);

  /// Drops one reference; the last reference returns the block to the
  /// releasing thread's cache (overflow goes central). Thread-safe.
  void Release(internal::StorageBlock* block);

  /// Payload capacity in bytes of the block's size class.
  static size_t ClassBytes(uint32_t size_class);

  static constexpr size_t kMinClassBytes = 64;
  static constexpr uint32_t kNumClasses = 25;  // 64 B .. 1 GiB.
  static constexpr uint32_t kOversizeClass = kNumClasses;

  PoolStats Stats() const;

  /// Moves the calling thread's cached blocks to the central lists (used by
  /// tests to make pooled_bytes observable across threads).
  void FlushThreadCache();

 private:
  BufferPool() = default;
  friend class StepScope;

  static constexpr uint32_t kMaxThreadCachePerClass = 128;

  /// Smallest class whose capacity covers `bytes`; kOversizeClass when none
  /// does.
  static uint32_t SizeClassFor(size_t bytes);

  struct ThreadCache;
  /// The calling thread's cache, or nullptr once thread-local destructors
  /// have torn it down (late releases then go straight to the central lists).
  static ThreadCache* LocalCacheOrNull();

  internal::StorageBlock* AcquireCentral(uint32_t size_class);
  void ReleaseCentral(internal::StorageBlock* block);

  struct CentralList {
    std::mutex mu;
    internal::StorageBlock* head = nullptr;
  };
  CentralList central_[kNumClasses];

  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<int64_t> live_bytes_{0};
  std::atomic<int64_t> pooled_bytes_{0};
  std::atomic<int64_t> peak_live_bytes_{0};
};

/// Ref-counted handle to a pooled float buffer. Move-only; explicit CopyFrom
/// for deep copies, Share()/View() for aliasing. An empty Storage (size 0)
/// holds no block.
class Storage {
 public:
  using value_type = float;

  Storage() = default;
  ~Storage() { Reset(); }

  Storage(Storage&& other) noexcept
      : block_(other.block_), ptr_(other.ptr_), size_(other.size_),
        view_(other.view_) {
    other.block_ = nullptr;
    other.ptr_ = nullptr;
    other.size_ = 0;
    other.view_ = false;
  }
  Storage& operator=(Storage&& other) noexcept {
    if (this != &other) {
      Reset();
      block_ = std::exchange(other.block_, nullptr);
      ptr_ = std::exchange(other.ptr_, nullptr);
      size_ = std::exchange(other.size_, 0);
      view_ = std::exchange(other.view_, false);
    }
    return *this;
  }

  Storage(const Storage&) = delete;
  Storage& operator=(const Storage&) = delete;

  /// Deep copy from a std::vector (checkpoint restore, factory seams).
  Storage& operator=(const std::vector<float>& values) {
    Resize(values.size());
    if (!values.empty()) std::memcpy(ptr_, values.data(), values.size() * sizeof(float));
    return *this;
  }

  // --- Factories -------------------------------------------------------------

  /// Pooled buffer with unspecified contents; caller must overwrite fully.
  static Storage Uninitialized(size_t n);
  /// Pooled buffer filled with zeros.
  static Storage Zeroed(size_t n);
  static Storage CopyOf(const float* src, size_t n);
  static Storage Of(const std::vector<float>& values) {
    return CopyOf(values.data(), values.size());
  }

  /// Zero-copy window [offset, offset + n) into `base` (shares the block).
  /// Read-only by contract: writing through a view writes the base.
  static Storage View(const Storage& base, size_t offset, size_t n);

  /// Wraps externally owned bytes (an mmap'd snapshot section) as a
  /// read-only storage: no BufferPool block is acquired and Reset() never
  /// frees into the pool — the caller owns the memory and must keep it
  /// mapped for the handle's lifetime (DESIGN.md §13). Marked as a view so
  /// Resize() can never recycle it in place.
  static Storage External(const float* ptr, size_t n) {
    Storage s;
    s.ptr_ = const_cast<float*>(ptr);
    s.size_ = n;
    s.view_ = true;
    return s;
  }

  /// Zero-copy alias of the whole buffer (marked as a view).
  Storage Share() const { return View(*this, 0, size_); }

  // --- Mutation --------------------------------------------------------------

  /// Deep copy; reacquires only if the element count differs and the held
  /// block cannot hold `n`.
  void CopyFrom(const Storage& other) { CopyFrom(other.data(), other.size()); }
  void CopyFrom(const float* src, size_t n);

  /// Makes this exactly n elements filled with `value` (the vector::assign
  /// analogue EnsureGrad/ZeroGrad rely on).
  void assign(size_t n, float value);

  void Fill(float value);

  /// Resizes in place when the held block's class can hold n (contents are
  /// then unspecified); otherwise swaps in a pooled buffer.
  void Resize(size_t n);

  void Reset();

  // --- Access ----------------------------------------------------------------

  float* data() { return ptr_; }
  const float* data() const { return ptr_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  bool is_view() const { return view_; }

  float* begin() { return ptr_; }
  float* end() { return ptr_ + size_; }
  const float* begin() const { return ptr_; }
  const float* end() const { return ptr_ + size_; }

  float& operator[](size_t i) { return ptr_[i]; }
  const float& operator[](size_t i) const { return ptr_[i]; }

  std::vector<float> ToVector() const { return std::vector<float>(begin(), end()); }

  friend bool operator==(const Storage& a, const Storage& b) {
    if (a.size_ != b.size_) return false;
    return a.size_ == 0 || std::memcmp(a.ptr_, b.ptr_, a.size_ * sizeof(float)) == 0;
  }
  friend bool operator==(const Storage& a, const std::vector<float>& b) {
    if (a.size_ != b.size()) return false;
    return a.size_ == 0 || std::memcmp(a.ptr_, b.data(), a.size_ * sizeof(float)) == 0;
  }
  friend bool operator==(const std::vector<float>& a, const Storage& b) { return b == a; }

 private:
  internal::StorageBlock* block_ = nullptr;
  float* ptr_ = nullptr;
  size_t size_ = 0;
  bool view_ = false;
};

/// Stateless STL allocator routed through the BufferPool: containers built
/// with it (tape parents, index captures) recycle their buffers instead of
/// hitting the global allocator.
template <typename T>
struct PoolAllocator {
  using value_type = T;

  PoolAllocator() = default;
  template <typename U>
  PoolAllocator(const PoolAllocator<U>&) {}  // NOLINT(google-explicit-constructor)

  T* allocate(size_t n) {
    static_assert(alignof(T) <= internal::StorageBlock::kPayloadOffset);
    internal::StorageBlock* block = BufferPool::Instance().Acquire(n * sizeof(T));
    return static_cast<T*>(block->payload());
  }
  void deallocate(T* p, size_t) {
    auto* block = reinterpret_cast<internal::StorageBlock*>(
        reinterpret_cast<char*>(p) - internal::StorageBlock::kPayloadOffset);
    BufferPool::Instance().Release(block);
  }

  friend bool operator==(const PoolAllocator&, const PoolAllocator&) { return true; }
};

/// A std::vector whose buffer comes from the pool.
template <typename T>
using PoolVec = std::vector<T, PoolAllocator<T>>;

/// Pooled copy of an index list for backward-closure captures.
using IndexVec = PoolVec<int64_t>;

inline IndexVec MakeIndexVec(std::span<const int64_t> indices) {
  return IndexVec(indices.begin(), indices.end());
}

/// Move-only type-erased `void(internal::TensorImpl&)` for autograd tape
/// nodes. Closures up to kTapeFnInlineBytes live inside the node; larger ones
/// go to a pooled chunk. Never touches the global allocator.
class TapeFn {
 public:
  static constexpr size_t kInlineBytes = 152;

  TapeFn() = default;

  template <typename F,
            typename = std::enable_if_t<!std::is_same_v<std::decay_t<F>, TapeFn>>>
  TapeFn(F&& f) {  // NOLINT(google-explicit-constructor)
    using Fn = std::decay_t<F>;
    static_assert(alignof(Fn) <= alignof(std::max_align_t));
    if constexpr (sizeof(Fn) <= kInlineBytes) {
      new (inline_buf_) Fn(std::forward<F>(f));
      vtable_ = &InlineVTable<Fn>();
    } else {
      internal::StorageBlock* block = BufferPool::Instance().Acquire(sizeof(Fn));
      new (block->payload()) Fn(std::forward<F>(f));
      heap_ = block;
      vtable_ = &HeapVTable<Fn>();
    }
  }

  TapeFn(TapeFn&& other) noexcept { MoveFrom(std::move(other)); }
  TapeFn& operator=(TapeFn&& other) noexcept {
    if (this != &other) {
      Reset();
      MoveFrom(std::move(other));
    }
    return *this;
  }

  TapeFn(const TapeFn&) = delete;
  TapeFn& operator=(const TapeFn&) = delete;

  ~TapeFn() { Reset(); }

  void operator()(internal::TensorImpl& out) {
    SARN_DCHECK(vtable_ != nullptr);
    vtable_->invoke(Target(), out);
  }

  explicit operator bool() const { return vtable_ != nullptr; }

  void Reset() {
    if (vtable_ == nullptr) return;
    vtable_->destroy(Target());
    if (heap_ != nullptr) {
      BufferPool::Instance().Release(static_cast<internal::StorageBlock*>(heap_));
      heap_ = nullptr;
    }
    vtable_ = nullptr;
  }

 private:
  struct VTable {
    void (*invoke)(void*, internal::TensorImpl&);
    void (*destroy)(void*);
    void (*relocate)(void* from, void* to);  // Move-construct + destroy source.
  };

  void* Target() {
    return heap_ != nullptr ? static_cast<internal::StorageBlock*>(heap_)->payload()
                            : static_cast<void*>(inline_buf_);
  }

  void MoveFrom(TapeFn&& other) noexcept {
    vtable_ = other.vtable_;
    heap_ = other.heap_;
    if (vtable_ != nullptr && heap_ == nullptr) {
      vtable_->relocate(other.inline_buf_, inline_buf_);
    }
    other.vtable_ = nullptr;
    other.heap_ = nullptr;
  }

  template <typename Fn>
  static const VTable& InlineVTable() {
    static constexpr VTable table = {
        [](void* t, internal::TensorImpl& out) { (*static_cast<Fn*>(t))(out); },
        [](void* t) { static_cast<Fn*>(t)->~Fn(); },
        [](void* from, void* to) {
          new (to) Fn(std::move(*static_cast<Fn*>(from)));
          static_cast<Fn*>(from)->~Fn();
        },
    };
    return table;
  }

  template <typename Fn>
  static const VTable& HeapVTable() {
    static constexpr VTable table = {
        [](void* t, internal::TensorImpl& out) { (*static_cast<Fn*>(t))(out); },
        [](void* t) { static_cast<Fn*>(t)->~Fn(); },
        nullptr,  // Heap closures move by stealing the block pointer.
    };
    return table;
  }

  const VTable* vtable_ = nullptr;
  void* heap_ = nullptr;
  alignas(std::max_align_t) unsigned char inline_buf_[kInlineBytes];
};

/// Process-wide pool statistics snapshot (includes the tape-node counter).
PoolStats GetPoolStats();

/// RAII bracket around one training step or serve batch. On destruction it
/// publishes the sarn.alloc.* metrics: steps counter, per-step pool misses
/// gauge, live/pooled/peak byte gauges, and cumulative hit/miss/tape-node
/// counters. Metrics-only: never touches numerics or the RNG.
class StepScope {
 public:
  StepScope();
  ~StepScope();
  StepScope(const StepScope&) = delete;
  StepScope& operator=(const StepScope&) = delete;

  /// Pool misses since this scope opened.
  uint64_t pool_misses() const;

 private:
  uint64_t hits_at_entry_;
  uint64_t misses_at_entry_;
  uint64_t tape_at_entry_;
};

}  // namespace sarn::tensor

#endif  // SARN_TENSOR_STORAGE_H_
