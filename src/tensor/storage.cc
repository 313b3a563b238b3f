#include "tensor/storage.h"

#include <algorithm>

#include "obs/metrics.h"

namespace sarn::tensor {
namespace {

// Tape nodes created since process start (MakeOpResult bumps this; StepScope
// publishes it). Pool-internal like the other counters so the tensor hot path
// never touches the obs registry.
std::atomic<uint64_t> g_tape_nodes{0};

constexpr uint32_t kOversize = 25;

void RaiseToAtLeast(std::atomic<int64_t>& peak, int64_t value) {
  int64_t seen = peak.load(std::memory_order_relaxed);
  while (value > seen &&
         !peak.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
  }
}

}  // namespace

namespace internal {

void IncrementTapeNodeCount() {
  g_tape_nodes.fetch_add(1, std::memory_order_relaxed);
}

uint64_t TapeNodeCount() { return g_tape_nodes.load(std::memory_order_relaxed); }

}  // namespace internal

// --- BufferPool --------------------------------------------------------------

// Per-thread free lists. The destructor drains everything to the central
// lists; t_cache_destroyed (trivially destructible, so valid for the whole
// thread lifetime) makes late releases from other thread-local destructors
// fall back to the central path instead of touching a dead cache.
struct BufferPool::ThreadCache {
  internal::StorageBlock* head[kNumClasses] = {};
  uint32_t count[kNumClasses] = {};

  ~ThreadCache();
};

namespace {
thread_local bool t_cache_destroyed = false;
}  // namespace

BufferPool::ThreadCache::~ThreadCache() {
  t_cache_destroyed = true;
  BufferPool& pool = BufferPool::Instance();
  for (uint32_t cls = 0; cls < kNumClasses; ++cls) {
    internal::StorageBlock* block = head[cls];
    while (block != nullptr) {
      internal::StorageBlock* next = block->next;
      pool.ReleaseCentral(block);
      block = next;
    }
    head[cls] = nullptr;
    count[cls] = 0;
  }
}

BufferPool::ThreadCache* BufferPool::LocalCacheOrNull() {
  if (t_cache_destroyed) return nullptr;
  static thread_local ThreadCache cache;
  return &cache;
}

BufferPool& BufferPool::Instance() {
  static BufferPool* pool = new BufferPool();  // Leaky: free lists outlive threads.
  return *pool;
}

size_t BufferPool::ClassBytes(uint32_t size_class) {
  SARN_DCHECK(size_class < kNumClasses);
  return kMinClassBytes << size_class;
}

// Class k holds 64 << k bytes.
uint32_t BufferPool::SizeClassFor(size_t bytes) {
  size_t cap = kMinClassBytes;
  for (uint32_t cls = 0; cls < kNumClasses; ++cls, cap <<= 1) {
    if (bytes <= cap) return cls;
  }
  return kOversizeClass;
}

internal::StorageBlock* BufferPool::Acquire(size_t bytes) {
  uint32_t cls = SizeClassFor(bytes);
  if (cls == kOversizeClass) {
    void* mem = ::operator new(internal::StorageBlock::kPayloadOffset + bytes);
    auto* block = new (mem) internal::StorageBlock();
    block->size_class = kOversizeClass;
    block->oversize_bytes = bytes;
    block->refs.store(1, std::memory_order_relaxed);
    misses_.fetch_add(1, std::memory_order_relaxed);
    int64_t live = live_bytes_.fetch_add(static_cast<int64_t>(bytes),
                                         std::memory_order_relaxed) +
                   static_cast<int64_t>(bytes);
    RaiseToAtLeast(peak_live_bytes_, live);
    return block;
  }

  internal::StorageBlock* block = nullptr;
  if (ThreadCache* cache = LocalCacheOrNull(); cache != nullptr) {
    block = cache->head[cls];
    if (block != nullptr) {
      cache->head[cls] = block->next;
      --cache->count[cls];
    }
  }
  if (block == nullptr) block = AcquireCentral(cls);

  int64_t class_bytes = static_cast<int64_t>(ClassBytes(cls));
  if (block != nullptr) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    pooled_bytes_.fetch_sub(class_bytes, std::memory_order_relaxed);
  } else {
    void* mem = ::operator new(internal::StorageBlock::kPayloadOffset + ClassBytes(cls));
    block = new (mem) internal::StorageBlock();
    block->size_class = cls;
    misses_.fetch_add(1, std::memory_order_relaxed);
  }
  block->next = nullptr;
  block->refs.store(1, std::memory_order_relaxed);
  int64_t live =
      live_bytes_.fetch_add(class_bytes, std::memory_order_relaxed) + class_bytes;
  RaiseToAtLeast(peak_live_bytes_, live);
  return block;
}

void BufferPool::Release(internal::StorageBlock* block) {
  SARN_DCHECK(block != nullptr);
  // acq_rel: the last reference synchronises with every prior release
  // before the block is recycled (no standalone fence, which TSan cannot see).
  if (block->refs.fetch_sub(1, std::memory_order_acq_rel) != 1) return;

  if (block->size_class == kOversizeClass) {
    live_bytes_.fetch_sub(static_cast<int64_t>(block->oversize_bytes),
                          std::memory_order_relaxed);
    block->~StorageBlock();
    ::operator delete(block);
    return;
  }

  uint32_t cls = block->size_class;
  int64_t class_bytes = static_cast<int64_t>(ClassBytes(cls));
  live_bytes_.fetch_sub(class_bytes, std::memory_order_relaxed);
  pooled_bytes_.fetch_add(class_bytes, std::memory_order_relaxed);
  if (ThreadCache* cache = LocalCacheOrNull();
      cache != nullptr && cache->count[cls] < kMaxThreadCachePerClass) {
    block->next = cache->head[cls];
    cache->head[cls] = block;
    ++cache->count[cls];
    return;
  }
  ReleaseCentral(block);
}

internal::StorageBlock* BufferPool::AcquireCentral(uint32_t size_class) {
  CentralList& list = central_[size_class];
  std::lock_guard<std::mutex> lock(list.mu);
  internal::StorageBlock* block = list.head;
  if (block != nullptr) list.head = block->next;
  return block;
}

void BufferPool::ReleaseCentral(internal::StorageBlock* block) {
  CentralList& list = central_[block->size_class];
  std::lock_guard<std::mutex> lock(list.mu);
  block->next = list.head;
  list.head = block;
}

void BufferPool::FlushThreadCache() {
  ThreadCache* cache = LocalCacheOrNull();
  if (cache == nullptr) return;
  for (uint32_t cls = 0; cls < kNumClasses; ++cls) {
    internal::StorageBlock* block = cache->head[cls];
    while (block != nullptr) {
      internal::StorageBlock* next = block->next;
      ReleaseCentral(block);
      block = next;
    }
    cache->head[cls] = nullptr;
    cache->count[cls] = 0;
  }
}

PoolStats BufferPool::Stats() const {
  PoolStats stats;
  stats.hits = hits_.load(std::memory_order_relaxed);
  stats.misses = misses_.load(std::memory_order_relaxed);
  stats.live_bytes = live_bytes_.load(std::memory_order_relaxed);
  stats.pooled_bytes = pooled_bytes_.load(std::memory_order_relaxed);
  stats.peak_live_bytes = peak_live_bytes_.load(std::memory_order_relaxed);
  stats.tape_nodes = internal::TapeNodeCount();
  return stats;
}

PoolStats GetPoolStats() { return BufferPool::Instance().Stats(); }

// --- Storage -----------------------------------------------------------------

Storage Storage::Uninitialized(size_t n) {
  Storage s;
  if (n == 0) return s;
  s.block_ = BufferPool::Instance().Acquire(n * sizeof(float));
  s.ptr_ = s.block_->floats();
  s.size_ = n;
  return s;
}

Storage Storage::Zeroed(size_t n) {
  Storage s = Uninitialized(n);
  if (n != 0) std::memset(s.ptr_, 0, n * sizeof(float));
  return s;
}

Storage Storage::CopyOf(const float* src, size_t n) {
  Storage s = Uninitialized(n);
  if (n != 0) std::memcpy(s.ptr_, src, n * sizeof(float));
  return s;
}

Storage Storage::View(const Storage& base, size_t offset, size_t n) {
  SARN_DCHECK(offset + n <= base.size_);
  Storage s;
  s.size_ = n;
  s.view_ = true;
  if (n == 0) return s;
  s.ptr_ = const_cast<float*>(base.ptr_) + offset;
  if (base.block_ != nullptr) {
    base.block_->refs.fetch_add(1, std::memory_order_relaxed);
    s.block_ = base.block_;
  }
  return s;
}

void Storage::CopyFrom(const float* src, size_t n) {
  Resize(n);
  if (n != 0) std::memcpy(ptr_, src, n * sizeof(float));
}

void Storage::assign(size_t n, float value) {
  Resize(n);
  Fill(value);
}

void Storage::Fill(float value) {
  std::fill(ptr_, ptr_ + size_, value);
}

void Storage::Resize(size_t n) {
  if (n == size_) return;
  // Reuse the held block when it is exclusively ours and its class can hold n.
  if (block_ != nullptr && !view_ &&
      block_->refs.load(std::memory_order_relaxed) == 1) {
    // Oversize blocks carry their exact capacity in oversize_bytes; sized
    // classes derive it from the class table.
    size_t capacity = block_->size_class == kOversize
                          ? block_->oversize_bytes
                          : BufferPool::ClassBytes(block_->size_class);
    if (n * sizeof(float) <= capacity) {
      size_ = n;
      return;
    }
  }
  *this = Uninitialized(n);
}

void Storage::Reset() {
  if (block_ != nullptr) BufferPool::Instance().Release(block_);
  block_ = nullptr;
  ptr_ = nullptr;
  size_ = 0;
  view_ = false;
}

// --- StepScope ---------------------------------------------------------------

namespace {

struct AllocInstruments {
  obs::Counter& steps;
  obs::Counter& pool_hits;
  obs::Counter& pool_misses;
  obs::Counter& tape_nodes;
  obs::Gauge& step_pool_misses;
  obs::Gauge& live_bytes;
  obs::Gauge& pooled_bytes;
  obs::Gauge& peak_live_bytes;
};

AllocInstruments& Instruments() {
  // References stay valid for the registry's lifetime (ResetForTest zeroes in
  // place), so one lookup serves the whole process.
  static AllocInstruments* instruments = [] {
    auto& registry = obs::MetricsRegistry::Default();
    return new AllocInstruments{
        registry.GetCounter("sarn.alloc.steps"),
        registry.GetCounter("sarn.alloc.pool_hits"),
        registry.GetCounter("sarn.alloc.pool_misses"),
        registry.GetCounter("sarn.alloc.tape_nodes"),
        registry.GetGauge("sarn.alloc.step_pool_misses"),
        registry.GetGauge("sarn.alloc.live_bytes"),
        registry.GetGauge("sarn.alloc.pooled_bytes"),
        registry.GetGauge("sarn.alloc.peak_live_bytes"),
    };
  }();
  return *instruments;
}

}  // namespace

StepScope::StepScope() {
  PoolStats stats = BufferPool::Instance().Stats();
  hits_at_entry_ = stats.hits;
  misses_at_entry_ = stats.misses;
  tape_at_entry_ = stats.tape_nodes;
}

uint64_t StepScope::pool_misses() const {
  return BufferPool::Instance().Stats().misses - misses_at_entry_;
}

StepScope::~StepScope() {
  PoolStats stats = BufferPool::Instance().Stats();
  AllocInstruments& instruments = Instruments();
  instruments.steps.Increment();
  instruments.pool_hits.Increment(stats.hits - hits_at_entry_);
  instruments.pool_misses.Increment(stats.misses - misses_at_entry_);
  instruments.tape_nodes.Increment(stats.tape_nodes - tape_at_entry_);
  instruments.step_pool_misses.Set(
      static_cast<double>(stats.misses - misses_at_entry_));
  instruments.live_bytes.Set(static_cast<double>(stats.live_bytes));
  instruments.pooled_bytes.Set(static_cast<double>(stats.pooled_bytes));
  instruments.peak_live_bytes.Set(static_cast<double>(stats.peak_live_bytes));
}

}  // namespace sarn::tensor
