#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
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
///   2. `parallel_reduce` stores one partial result per chunk and combines
///      them serially in ascending chunk order after the barrier, so
///      floating-point reduction order is fixed.
///
/// Scheduling therefore only changes *which thread* runs a chunk, never
/// what the chunk computes or how results are folded.
///
/// The pool is a fixed set of workers created once (`ThreadPool::global()`)
/// and parked on a condition variable between jobs; a construct's `width`
/// caps how many of them participate (the caller always participates too).
/// `width <= 1`, a single chunk, or a nested call from inside a worker all
/// fall back to running the same chunks inline on the calling thread.

namespace gcr::obs {
class Session;
}  // namespace gcr::obs

namespace gcr::obs::json {
class Value;
class Writer;
}  // namespace gcr::obs::json

namespace gcr::par {

/// Cumulative pool telemetry since process start (the global pool lives for
/// the process). All times are monotonic-clock nanoseconds.
///
///   * worker `busy_ns`   -- time spent inside run_job (chunk execution);
///   * worker `idle_ns`   -- time parked on the work condition variable;
///   * `dispatch_overhead_ns` -- per job, the caller's wall time for the
///     whole construct minus the caller lane's own busy time: wakeup
///     latency, lock traffic and straggler wait. This is the number that
///     makes the route_par t>1 regression explainable -- when it rivals
///     the busy time, the shards are too small for the dispatch cost.
///
/// The same overhead also feeds the `par.dispatch_overhead_ns` counter
/// (plus `par.jobs` and a `par.chunks_per_job` histogram) when metrics are
/// enabled, so run and bench reports capture it per run.
struct PoolTelemetry {
  struct Worker {
    std::uint64_t busy_ns{0};
    std::uint64_t idle_ns{0};
    std::uint64_t chunks{0};
  };
  std::vector<Worker> workers;
  std::uint64_t jobs{0};  ///< parallel dispatches (serial fallbacks excluded)
  std::uint64_t dispatch_overhead_ns{0};

  /// What accrued since `before`, an earlier snapshot of the same pool
  /// (a bench group's share of the process-lifetime totals).
  [[nodiscard]] PoolTelemetry since(const PoolTelemetry& before) const;
};

/// One-line human summary: "pool: 7 workers, busy 12.3%, dispatch overhead
/// 4.2 ms over 812 jobs". The --verbose CLI path appends this when running
/// with more than one thread.
void write_pool_summary(std::ostream& os, const PoolTelemetry& t);

/// `"pool": {"workers": [{busy_ns, idle_ns, chunks} ...], "jobs",
/// "dispatch_overhead_ns"}` -- the section run and bench reports share.
void write_pool_json(obs::json::Writer& w, const PoolTelemetry& t);

/// Shape-check a parsed `pool` section, appending one problem per
/// violation to `problems`.
void validate_pool_json(const obs::json::Value& pool,
                        std::vector<std::string>& problems);

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
  void run_chunks(int width, std::int64_t num_chunks,
                  const std::function<void(std::int64_t)>& job);

  /// Snapshot of the cumulative telemetry (workers sized num_threads - 1).
  [[nodiscard]] PoolTelemetry telemetry() const;

 private:
  /// Per-worker telemetry slots, cache-line separated so hot-loop bumps on
  /// one worker never false-share with another.
  struct alignas(64) WorkerStats {
    std::atomic<std::uint64_t> busy_ns{0};
    std::atomic<std::uint64_t> idle_ns{0};
    std::atomic<std::uint64_t> chunks{0};
  };

  void worker_loop(std::size_t index);
  void run_job(const std::function<void(std::int64_t)>& job, std::int64_t total,
               WorkerStats* stats);

  int num_threads_;
  std::vector<std::thread> workers_;
  std::vector<std::unique_ptr<WorkerStats>> worker_stats_;
  std::atomic<std::uint64_t> jobs_{0};
  std::atomic<std::uint64_t> dispatch_ns_{0};

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

/// Deterministic index-ordered reduction: map(b, e) produces one partial
/// value per chunk (chunk boundaries fixed by `grain` alone); partials are
/// folded serially in ascending chunk order as acc = combine(acc, partial).
/// Identical results at every width because neither the chunking nor the
/// fold order ever depends on the thread count.
template <typename T, typename MapChunk, typename Combine>
[[nodiscard]] T parallel_reduce(int width, std::int64_t begin,
                                std::int64_t end, std::int64_t grain, T init,
                                MapChunk&& map, Combine&& combine) {
  grain = std::max<std::int64_t>(1, grain);
  const std::int64_t chunks = detail::chunk_count(end - begin, grain);
  if (chunks == 0) return init;
  detail::observe_shards(end - begin, grain, chunks);
  std::vector<T> partial(static_cast<std::size_t>(chunks), init);
  const std::function<void(std::int64_t)> job = [&](std::int64_t c) {
    const std::int64_t b = begin + c * grain;
    partial[static_cast<std::size_t>(c)] = map(b, std::min(end, b + grain));
  };
  ThreadPool::global().run_chunks(width, chunks, job);
  T acc = std::move(init);
  for (std::int64_t c = 0; c < chunks; ++c)
    acc = combine(std::move(acc), std::move(partial[static_cast<std::size_t>(c)]));
  return acc;
}

}  // namespace gcr::par
