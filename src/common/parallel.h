// Parallel-for over a persistent worker pool. Two callers use it: the
// tensor::MatMul kernels (forward and both gradients) and the
// EmbeddingIndex scan (one item per 4-query block).
//
// Workers are spawned once (lazily, on first use) and park on a condition
// variable between calls, so ParallelFor costs a wake/notify instead of a
// thread spawn+join per invocation. Work is distributed dynamically in
// chunks of at least `grain` items; the calling thread participates, so a
// ParallelFor always completes even if every worker is busy elsewhere.
// Runs inline on the caller when the region would be one chunk (the range
// holds at most `grain` items), when the pool is pinned
// to one thread, or when called from inside another ParallelFor body
// (nested calls run inline rather than deadlocking on the shared pool).
//
// The thread count can be pinned globally; tests pin it to 1 for
// determinism where accumulation order matters.

#ifndef SARN_COMMON_PARALLEL_H_
#define SARN_COMMON_PARALLEL_H_

#include <cstddef>
#include <cstdint>
#include <functional>

namespace sarn {

/// Number of threads ParallelFor may use, including the calling thread
/// (defaults to hardware concurrency capped at 8). Thread-safe; the
/// underlying pool is initialised exactly once.
size_t GetParallelThreads();

/// Resizes the worker pool to `threads - 1` persistent workers (the caller
/// is the remaining thread); 0 is clamped to 1. Joins the old workers
/// before spawning the new ones, so it is safe to call between parallel
/// regions from any thread.
void SetParallelThreads(size_t threads);

/// Runs body(begin, end) over a partition of [0, n) across the pool. `body`
/// must be safe to call concurrently on disjoint ranges, and may be invoked
/// several times per thread (dynamic chunking). Serial — one body(0, n)
/// call on the caller — when one chunk would cover the range (n <= grain),
/// when threads == 1, or when already inside a ParallelFor body. Pass a
/// small `grain` when each item is expensive (e.g., a matrix row).
/// Exceptions thrown by `body` are caught
/// in the worker, the remaining chunks still run, and the first exception
/// is rethrown on the calling thread after the region completes.
void ParallelFor(size_t n, const std::function<void(size_t begin, size_t end)>& body,
                 size_t grain = 2048);

/// True while the current thread is executing a ParallelFor body (nested
/// calls therefore run serially). Exposed for tests and assertions.
bool InParallelRegion();

/// Cumulative activity counters of the parallel runtime, for telemetry.
/// Counters are updated with relaxed atomics once per region / chunk / park
/// cycle (never per item), so the cost is noise even on hot kernels.
struct ParallelPoolStats {
  uint64_t regions = 0;         // ParallelFor calls dispatched to the pool.
  uint64_t serial_regions = 0;  // Calls that ran inline (one chunk / nested / 1 thread).
  uint64_t chunks = 0;          // Dynamic chunks executed across all threads.
  uint64_t items = 0;           // Items covered by pool-dispatched regions.
  double worker_idle_seconds = 0.0;  // Total time workers spent parked.
};

/// Snapshot of the counters since process start. Epoch telemetry consumes
/// deltas between successive snapshots.
ParallelPoolStats GetParallelPoolStats();

}  // namespace sarn

#endif  // SARN_COMMON_PARALLEL_H_
