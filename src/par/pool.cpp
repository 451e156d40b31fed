#include "par/pool.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <ostream>

#include "guard/deadline.h"
#include "obs/json.h"
#include "obs/session.h"

namespace gcr::par {

namespace {

thread_local bool t_in_worker = false;
thread_local int t_worker_ordinal = 0;  ///< 1-based pool lane, 0 = caller

int clamp_threads(long v) {
  if (v < 1) return 1;
  if (v > 256) return 256;
  return static_cast<int>(v);
}

std::uint64_t mono_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

int hardware_threads() {
  static const int n =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  return n;
}

int default_threads() {
  static const int n = [] {
    if (const char* env = std::getenv("GCR_THREADS")) {
      char* end = nullptr;
      const long v = std::strtol(env, &end, 10);
      if (end != env) return clamp_threads(v);
    }
    return hardware_threads();
  }();
  return n;
}

int resolve_threads(int requested) {
  return requested > 0 ? requested : default_threads();
}

bool in_worker() { return t_in_worker; }

int worker_ordinal() { return t_worker_ordinal; }

void write_pool_summary(std::ostream& os, const PoolTelemetry& t) {
  std::uint64_t busy = 0;
  std::uint64_t idle = 0;
  for (const PoolTelemetry::Worker& w : t.workers) {
    busy += w.busy_ns;
    idle += w.idle_ns;
  }
  const double denom = static_cast<double>(busy + idle);
  const double busy_pct =
      denom > 0.0 ? 100.0 * static_cast<double>(busy) / denom : 0.0;
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "pool: %zu workers, busy %.1f%%, dispatch overhead %.2f ms"
                " over %llu jobs\n",
                t.workers.size(), busy_pct,
                static_cast<double>(t.dispatch_overhead_ns) / 1e6,
                static_cast<unsigned long long>(t.jobs));
  os << buf;
}

PoolTelemetry PoolTelemetry::since(const PoolTelemetry& before) const {
  const auto minus = [](std::uint64_t a, std::uint64_t b) {
    return a >= b ? a - b : 0;
  };
  PoolTelemetry d = *this;
  for (std::size_t i = 0; i < d.workers.size() && i < before.workers.size();
       ++i) {
    d.workers[i].busy_ns = minus(workers[i].busy_ns, before.workers[i].busy_ns);
    d.workers[i].idle_ns = minus(workers[i].idle_ns, before.workers[i].idle_ns);
    d.workers[i].chunks = minus(workers[i].chunks, before.workers[i].chunks);
  }
  d.jobs = minus(jobs, before.jobs);
  d.dispatch_overhead_ns =
      minus(dispatch_overhead_ns, before.dispatch_overhead_ns);
  return d;
}

void write_pool_json(obs::json::Writer& w, const PoolTelemetry& t) {
  w.key("pool").begin_object();
  w.key("workers").begin_array();
  for (const PoolTelemetry::Worker& worker : t.workers) {
    w.begin_object();
    w.field("busy_ns", worker.busy_ns);
    w.field("idle_ns", worker.idle_ns);
    w.field("chunks", worker.chunks);
    w.end_object();
  }
  w.end_array();
  w.field("jobs", t.jobs);
  w.field("dispatch_overhead_ns", t.dispatch_overhead_ns);
  w.end_object();
}

void validate_pool_json(const obs::json::Value& pool,
                        std::vector<std::string>& problems) {
  if (!pool.is_object()) {
    problems.emplace_back("pool is not an object");
    return;
  }
  const auto is_number = [](const obs::json::Value& obj, const char* key) {
    const obs::json::Value* v = obj.find(key);
    return v && v->is_number();
  };
  for (const char* key : {"jobs", "dispatch_overhead_ns"})
    if (!is_number(pool, key)) problems.push_back(std::string("pool.") + key +
                                                  " missing");
  const obs::json::Value* workers = pool.find("workers");
  if (!workers || !workers->is_array()) {
    problems.emplace_back("missing pool.workers array");
    return;
  }
  int idx = 0;
  for (const obs::json::Value& worker : workers->as_array()) {
    const std::string at = "pool.workers[" + std::to_string(idx++) + "]";
    if (!worker.is_object()) {
      problems.push_back(at + " is not an object");
      continue;
    }
    for (const char* key : {"busy_ns", "idle_ns", "chunks"})
      if (!is_number(worker, key)) problems.push_back(at + "." + key +
                                                      " missing");
  }
}

ThreadPool::ThreadPool(int num_threads)
    : num_threads_(std::max(1, num_threads)) {
  const std::size_t n = static_cast<std::size_t>(num_threads_ - 1);
  workers_.reserve(n);
  worker_stats_.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    worker_stats_.push_back(std::make_unique<WorkerStats>());
  for (std::size_t i = 0; i < n; ++i)
    workers_.emplace_back([this, i] { worker_loop(i); });
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool(std::max(default_threads(), 8));
  return pool;
}

PoolTelemetry ThreadPool::telemetry() const {
  PoolTelemetry t;
  t.workers.reserve(worker_stats_.size());
  for (const auto& ws : worker_stats_) {
    PoolTelemetry::Worker w;
    w.busy_ns = ws->busy_ns.load(std::memory_order_relaxed);
    w.idle_ns = ws->idle_ns.load(std::memory_order_relaxed);
    w.chunks = ws->chunks.load(std::memory_order_relaxed);
    t.workers.push_back(w);
  }
  t.jobs = jobs_.load(std::memory_order_relaxed);
  t.dispatch_overhead_ns = dispatch_ns_.load(std::memory_order_relaxed);
  return t;
}

void ThreadPool::worker_loop(std::size_t index) {
  t_in_worker = true;
  t_worker_ordinal = static_cast<int>(index) + 1;
  WorkerStats& stats = *worker_stats_[index];
  std::uint64_t seen = 0;
  for (;;) {
    const std::function<void(std::int64_t)>* job = nullptr;
    obs::Session* session = nullptr;
    std::int64_t total = 0;
    {
      const std::uint64_t park0 = mono_ns();
      std::unique_lock<std::mutex> lk(mu_);
      work_cv_.wait(lk, [&] { return stop_ || generation_ != seen; });
      stats.idle_ns.fetch_add(mono_ns() - park0, std::memory_order_relaxed);
      if (stop_) return;
      seen = generation_;
      // The job may already be fully drained (the caller reset it under
      // this mutex); there is nothing left to join.
      if (job_ == nullptr) continue;
      // The job's width caps how many workers join; latecomers skip.
      if (slots_.fetch_sub(1, std::memory_order_relaxed) <= 0) continue;
      job = job_;
      session = job_session_;
      total = total_chunks_;
      active_.fetch_add(1, std::memory_order_relaxed);
    }
    {
      // When the dispatching caller was observed, give this worker a view
      // of its session for the job's duration: shared trace sink and time
      // epoch, private phase tree (obs/session.h). Without this, trace
      // events emitted inside worker chunks are silently dropped.
      std::optional<obs::Session> view;
      std::optional<obs::Bind> bind;
      if (session != nullptr) {
        view.emplace(obs::Session::WorkerViewTag{}, *session);
        bind.emplace(&*view);
      }
      const std::uint64_t busy0 = mono_ns();
      run_job(*job, total, &stats);
      stats.busy_ns.fetch_add(mono_ns() - busy0, std::memory_order_relaxed);
    }
    {
      const std::lock_guard<std::mutex> lk(mu_);
      if (active_.fetch_sub(1, std::memory_order_acq_rel) == 1)
        done_cv_.notify_all();
    }
  }
}

void ThreadPool::run_job(const std::function<void(std::int64_t)>& job,
                         std::int64_t total, WorkerStats* stats) {
  for (;;) {
    const std::int64_t c = next_chunk_.fetch_add(1, std::memory_order_relaxed);
    if (c >= total) return;
    try {
      job(c);
    } catch (...) {
      const std::lock_guard<std::mutex> lk(mu_);
      if (!error_) error_ = std::current_exception();
    }
    if (stats != nullptr) stats->chunks.fetch_add(1, std::memory_order_relaxed);
    if (done_chunks_.fetch_add(1, std::memory_order_acq_rel) + 1 == total) {
      const std::lock_guard<std::mutex> lk(mu_);
      done_cv_.notify_all();
    }
  }
}

void ThreadPool::run_chunks(int width, std::int64_t num_chunks,
                            const std::function<void(std::int64_t)>& job) {
  if (num_chunks <= 0) return;
  // Cancellation check on the *caller* thread, before any dispatch: a
  // parallel construct either runs to completion or not at all, and pool
  // workers never observe the ambient deadline -- so the set of possible
  // abort points is the same at every thread width (docs/robustness.md).
  guard::poll_deadline("parallel");
  width = std::min(width, num_threads_);
  if (width <= 1 || num_chunks == 1 || t_in_worker || workers_.empty()) {
    // Serial fallback: same chunks, same order -- the chunking (and thus
    // every chunk-local decision) is identical to the parallel path.
    for (std::int64_t c = 0; c < num_chunks; ++c) job(c);
    return;
  }
  // One construct owns the worker set at a time. Concurrent callers (the
  // serve lanes routing independent requests) park here until the current
  // job fully drains; chunk state below is therefore never shared between
  // two live jobs. Nested constructs never reach this lock -- t_in_worker
  // sent them down the serial fallback above -- so it cannot self-deadlock.
  const std::lock_guard<std::mutex> dispatch(dispatch_mu_);
  const std::uint64_t t0 = mono_ns();
  {
    const std::lock_guard<std::mutex> lk(mu_);
    job_ = &job;
    job_session_ = obs::current();
    total_chunks_ = num_chunks;
    next_chunk_.store(0, std::memory_order_relaxed);
    done_chunks_.store(0, std::memory_order_relaxed);
    slots_.store(width - 1, std::memory_order_relaxed);
    ++generation_;
  }
  work_cv_.notify_all();
  // The caller is a lane too; mark it as pool work so nested constructs
  // reached from its chunks serialize instead of re-entering the pool.
  t_in_worker = true;
  const std::uint64_t busy0 = mono_ns();
  run_job(job, num_chunks, nullptr);
  const std::uint64_t caller_busy = mono_ns() - busy0;
  t_in_worker = false;
  std::exception_ptr err;
  {
    std::unique_lock<std::mutex> lk(mu_);
    // Wait for completion AND for every worker to leave run_job, so no
    // straggler can touch the chunk counters of a later job.
    done_cv_.wait(lk, [&] {
      return done_chunks_.load(std::memory_order_acquire) >= total_chunks_ &&
             active_.load(std::memory_order_acquire) == 0;
    });
    job_ = nullptr;
    job_session_ = nullptr;
    err = error_;
    error_ = nullptr;
  }
  // Everything the construct cost beyond the caller lane's own chunk work:
  // wakeup latency, lock traffic, straggler wait. See PoolTelemetry.
  const std::uint64_t wall = mono_ns() - t0;
  const std::uint64_t overhead = wall > caller_busy ? wall - caller_busy : 0;
  jobs_.fetch_add(1, std::memory_order_relaxed);
  dispatch_ns_.fetch_add(overhead, std::memory_order_relaxed);
  if (obs::metrics_enabled()) [[unlikely]] {
    static obs::Counter& c_overhead =
        obs::Registry::global().counter("par.dispatch_overhead_ns");
    c_overhead.inc(overhead);
    static obs::Counter& c_jobs = obs::Registry::global().counter("par.jobs");
    c_jobs.inc();
  }
  if (err) std::rethrow_exception(err);
}

}  // namespace gcr::par
