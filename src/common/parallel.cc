#include "common/parallel.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace sarn {
namespace {

// Telemetry counters (GetParallelPoolStats). Relaxed: these are statistics,
// not synchronisation; readers tolerate slightly stale values.
std::atomic<uint64_t> g_stat_regions{0};
std::atomic<uint64_t> g_stat_serial_regions{0};
std::atomic<uint64_t> g_stat_chunks{0};
std::atomic<uint64_t> g_stat_items{0};
std::atomic<uint64_t> g_stat_idle_ns{0};

size_t DefaultThreads() {
  size_t hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = 1;
  return std::min<size_t>(hw, 8);
}

// Set while a thread (worker or caller) executes chunks of a parallel
// region; nested ParallelFor calls observe it and run inline.
thread_local bool t_in_parallel_region = false;

// One ParallelFor invocation. Threads claim [next, next+chunk) ranges until
// all n items are taken; `done` counts completed items so the caller knows
// when every claimed chunk has finished, not just been handed out. Held by
// shared_ptr: a worker that wakes late may still hold a reference after the
// caller has returned.
struct Job {
  const std::function<void(size_t, size_t)>* body = nullptr;
  size_t n = 0;
  size_t chunk = 1;
  std::atomic<size_t> next{0};
  std::atomic<size_t> done{0};
  std::mutex error_mu;
  std::exception_ptr error;
};

// Persistent pool of `threads - 1` workers parked on a condition variable.
// Publishing a job bumps `epoch_`; each worker processes at most one job per
// epoch and goes back to sleep. The caller always participates in its own
// job, so completion never depends on workers waking up (they may still be
// draining a previous job or be parked through a whole small region).
class ThreadPool {
 public:
  static ThreadPool& Instance() {
    // Magic static: initialised exactly once even under concurrent first
    // use (fixes the load/store race the old lazy g_threads init had).
    static ThreadPool pool(DefaultThreads());
    return pool;
  }

  explicit ThreadPool(size_t threads) { Start(threads == 0 ? 1 : threads); }

  ~ThreadPool() { Stop(); }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t threads() const { return threads_.load(std::memory_order_relaxed); }

  void Resize(size_t threads) {
    if (threads == 0) threads = 1;
    std::lock_guard<std::mutex> lock(resize_mu_);
    if (threads == threads_.load(std::memory_order_relaxed)) return;
    Stop();
    Start(threads);
  }

  void Run(size_t n, size_t chunk, const std::function<void(size_t, size_t)>& body) {
    auto job = std::make_shared<Job>();
    job->body = &body;
    job->n = n;
    job->chunk = chunk;
    {
      std::lock_guard<std::mutex> lock(mu_);
      job_ = job;
      ++epoch_;
    }
    work_cv_.notify_all();
    RunChunks(*job);
    if (job->done.load(std::memory_order_acquire) != n) {
      std::unique_lock<std::mutex> lock(mu_);
      done_cv_.wait(lock, [&] { return job->done.load(std::memory_order_acquire) == n; });
    }
    {
      // Drop the pool's reference; late-waking workers hold their own.
      std::lock_guard<std::mutex> lock(mu_);
      if (job_ == job) job_ = nullptr;
    }
    if (job->error) std::rethrow_exception(job->error);
  }

 private:
  void Start(size_t threads) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = false;
    }
    threads_.store(threads, std::memory_order_relaxed);
    workers_.reserve(threads - 1);
    for (size_t i = 0; i + 1 < threads; ++i) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  }

  void Stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    work_cv_.notify_all();
    for (std::thread& worker : workers_) worker.join();
    workers_.clear();
  }

  void WorkerLoop() {
    uint64_t seen_epoch = 0;
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      auto park_begin = std::chrono::steady_clock::now();
      work_cv_.wait(lock, [&] { return stop_ || epoch_ != seen_epoch; });
      g_stat_idle_ns.fetch_add(
          static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                    std::chrono::steady_clock::now() - park_begin)
                                    .count()),
          std::memory_order_relaxed);
      if (stop_) return;
      seen_epoch = epoch_;
      std::shared_ptr<Job> job = job_;
      lock.unlock();
      if (job) RunChunks(*job);
      lock.lock();
    }
  }

  void RunChunks(Job& job) {
    bool was_in_region = t_in_parallel_region;
    t_in_parallel_region = true;
    uint64_t chunks_run = 0;
    for (;;) {
      size_t begin = job.next.fetch_add(job.chunk, std::memory_order_relaxed);
      if (begin >= job.n) break;
      ++chunks_run;
      size_t end = std::min(job.n, begin + job.chunk);
      try {
        (*job.body)(begin, end);
      } catch (...) {
        std::lock_guard<std::mutex> lock(job.error_mu);
        if (!job.error) job.error = std::current_exception();
      }
      size_t items = end - begin;
      if (job.done.fetch_add(items, std::memory_order_acq_rel) + items == job.n) {
        // Last chunk finished: the caller may be asleep on done_cv_. Take
        // the lock before notifying so the wakeup cannot slip between its
        // predicate check and the wait.
        std::lock_guard<std::mutex> lock(mu_);
        done_cv_.notify_all();
      }
    }
    if (chunks_run > 0) {
      g_stat_chunks.fetch_add(chunks_run, std::memory_order_relaxed);
    }
    t_in_parallel_region = was_in_region;
  }

  mutable std::mutex mu_;
  std::condition_variable work_cv_;  // Workers park here between jobs.
  std::condition_variable done_cv_;  // Callers park here awaiting completion.
  std::vector<std::thread> workers_;
  std::shared_ptr<Job> job_;  // Current job, null between regions.
  uint64_t epoch_ = 0;
  bool stop_ = false;
  std::atomic<size_t> threads_{1};
  std::mutex resize_mu_;  // Serialises concurrent Resize calls.
};

}  // namespace

size_t GetParallelThreads() { return ThreadPool::Instance().threads(); }

void SetParallelThreads(size_t threads) { ThreadPool::Instance().Resize(threads); }

bool InParallelRegion() { return t_in_parallel_region; }

void ParallelFor(size_t n, const std::function<void(size_t, size_t)>& body,
                 size_t grain) {
  if (n == 0) return;
  if (grain == 0) grain = 1;
  ThreadPool& pool = ThreadPool::Instance();
  size_t threads = pool.threads();
  // n <= grain is a region of one chunk: nothing to hand out, and waking
  // the workers would only add their wake latency to the caller's.
  if (t_in_parallel_region || threads <= 1 || n <= grain) {
    g_stat_serial_regions.fetch_add(1, std::memory_order_relaxed);
    body(0, n);
    return;
  }
  g_stat_regions.fetch_add(1, std::memory_order_relaxed);
  g_stat_items.fetch_add(n, std::memory_order_relaxed);
  // ~4 chunks per thread for dynamic load balancing, but never below the
  // caller's grain (each chunk should amortise its dispatch).
  size_t chunk = std::max(grain, (n + threads * 4 - 1) / (threads * 4));
  pool.Run(n, chunk, body);
}

ParallelPoolStats GetParallelPoolStats() {
  ParallelPoolStats stats;
  stats.regions = g_stat_regions.load(std::memory_order_relaxed);
  stats.serial_regions = g_stat_serial_regions.load(std::memory_order_relaxed);
  stats.chunks = g_stat_chunks.load(std::memory_order_relaxed);
  stats.items = g_stat_items.load(std::memory_order_relaxed);
  stats.worker_idle_seconds =
      static_cast<double>(g_stat_idle_ns.load(std::memory_order_relaxed)) * 1e-9;
  return stats;
}

}  // namespace sarn
