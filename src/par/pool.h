#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/metrics.h"

/// \file pool.h
/// gcr::par -- a small deterministic parallel-execution subsystem.
///
/// Design contract (docs/parallelism.md): *the result of every parallel
/// construct is bit-identical at any thread count, including 1*. Two rules
/// make that hold by construction:
///
///   1. Work is split into chunks whose boundaries depend only on the
///      range and the grain, never on the number of threads. Threads race
///      for whole chunks; they never subdivide or steal partial chunks.
///   2. Chunks write disjoint state, so no result depends on which chunk
///      finished first.
///
/// Scheduling therefore only changes *which thread* runs a chunk, never
/// what the chunk computes.
///
/// The pool is a fixed set of workers created once (`ThreadPool::global()`)
/// and parked on a condition variable between jobs; a construct's `width`
/// caps how many of them participate (the caller always participates too).
/// `width <= 1`, a single chunk, or a nested call from inside a worker all
/// fall back to running the same chunks inline on the calling thread.

namespace gcr::obs {
class Session;
}  // namespace gcr::obs

namespace gcr::par {

/// std::thread::hardware_concurrency() clamped to >= 1, cached.
[[nodiscard]] int hardware_threads();

/// The process default width: GCR_THREADS (clamped to [1, 256]) when set,
/// else hardware_threads(). Read once at first use.
[[nodiscard]] int default_threads();

/// Map an options-style request to an effective width: values > 0 pass
/// through, 0 (the "pick for me" default) resolves to default_threads().
[[nodiscard]] int resolve_threads(int requested);

/// True while the current thread is executing pool work (including a
/// caller participating in its own job). Nested constructs run serially.
[[nodiscard]] bool in_worker();

/// Dense 1-based ordinal of the pool lane owning the current thread;
/// 0 for every non-pool thread (including a caller participating in its
/// own job). Stable for the thread's lifetime -- gcr::log stamps it on
/// events so a worker's emissions sort onto its own track.
[[nodiscard]] int worker_ordinal();

class ThreadPool {
 public:
  /// Spawns `num_threads - 1` workers; the caller is the remaining lane.
  explicit ThreadPool(int num_threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] int num_threads() const { return num_threads_; }

  /// The process-wide pool. Sized to cover default_threads() but at least
  /// 8 lanes, so determinism suites can request widths above the machine's
  /// core count (idle workers just stay parked).
  static ThreadPool& global();

  /// Run job(c) for every chunk c in [0, num_chunks) using up to `width`
  /// threads including the caller; blocks until every chunk ran. The first
  /// exception thrown by a chunk is rethrown here after completion.
  /// Safe to call from multiple threads concurrently (the gcr::serve
  /// request lanes do): constructs serialize in arrival order on an
  /// internal dispatch lock, so each job owns the worker set exclusively
  /// -- latecomers block, they never corrupt a live job's chunk state.
  ///
  /// While metrics are enabled, each parallel dispatch (serial fallbacks
  /// excluded) feeds three registry counters, all monotonic nanoseconds:
  ///   * `par.jobs` -- one per dispatch;
  ///   * `par.busy_ns` -- chunk execution time summed over every lane that
  ///     ran chunks, the caller included;
  ///   * `par.dispatch_overhead_ns` -- the caller's wall time for the whole
  ///     construct minus its own chunk time: wakeup latency, lock traffic
  ///     and straggler wait. When it rivals `par.busy_ns`, the shards are
  ///     too small for the dispatch cost.
  /// With metrics off the pool reads no clock.
  void run_chunks(int width, std::int64_t num_chunks,
                  const std::function<void(std::int64_t)>& job);

 private:
  void worker_loop(std::size_t index);
  void run_job(const std::function<void(std::int64_t)>& job, std::int64_t total);

  int num_threads_;
  std::vector<std::thread> workers_;

  std::mutex dispatch_mu_;  ///< held for a whole construct; serializes jobs
  std::mutex mu_;
  std::condition_variable work_cv_;  ///< workers park here between jobs
  std::condition_variable done_cv_;  ///< the caller waits here
  std::uint64_t generation_{0};
  bool stop_{false};
  const std::function<void(std::int64_t)>* job_{nullptr};
  /// The dispatching caller's bound obs session (nullptr when unobserved);
  /// workers bind a Session worker view of it around run_job so their trace
  /// events reach the run's sink instead of vanishing (obs/session.h).
  obs::Session* job_session_{nullptr};
  /// Whether the current job feeds the `par.*` counters; latched by the
  /// caller so workers never read the process-wide metrics switch.
  bool job_metered_{false};
  std::int64_t total_chunks_{0};
  std::atomic<std::int64_t> next_chunk_{0};
  std::atomic<std::int64_t> done_chunks_{0};
  std::atomic<int> slots_{0};    ///< worker lanes the current job may use
  std::atomic<int> active_{0};   ///< workers currently inside run_job
  std::exception_ptr error_;     ///< first chunk exception (guarded by mu_)
};

namespace detail {
[[nodiscard]] inline std::int64_t chunk_count(std::int64_t n,
                                              std::int64_t grain) {
  return n <= 0 ? 0 : (n + grain - 1) / grain;
}

/// Shard-shape metrics, two observations per construct (never per chunk --
/// all shards in one job share a size except the tail, so the job-level
/// numbers are the distribution).
inline void observe_shards(std::int64_t n, std::int64_t grain,
                           std::int64_t chunks) {
  if (obs::metrics_enabled()) [[unlikely]] {
    static obs::Histogram& items =
        obs::Registry::global().histogram("par.shard_items");
    items.observe(static_cast<double>(std::min(n, grain)));
    static obs::Histogram& per_job =
        obs::Registry::global().histogram("par.chunks_per_job");
    per_job.observe(static_cast<double>(chunks));
  }
}
}  // namespace detail

/// body(b, e) over deterministic grain-sized subranges of [begin, end).
/// Safe when iterations write disjoint state; iterations must not touch
/// state another live chunk reads.
template <typename Body>
void parallel_for(int width, std::int64_t begin, std::int64_t end,
                  std::int64_t grain, Body&& body) {
  grain = std::max<std::int64_t>(1, grain);
  const std::int64_t chunks = detail::chunk_count(end - begin, grain);
  if (chunks == 0) return;
  detail::observe_shards(end - begin, grain, chunks);
  const std::function<void(std::int64_t)> job = [&](std::int64_t c) {
    const std::int64_t b = begin + c * grain;
    body(b, std::min(end, b + grain));
  };
  ThreadPool::global().run_chunks(width, chunks, job);
}

}  // namespace gcr::par
