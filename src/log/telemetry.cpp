#include "log/telemetry.h"

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <unistd.h>

#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/report_util.h"
#include "obs/trace.h"

namespace gcr::log {

namespace {

/// Current resident set size in bytes, 0 when /proc is unavailable.
std::uint64_t current_rss_bytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long long total = 0;
  unsigned long long resident = 0;
  const int n = std::fscanf(f, "%llu %llu", &total, &resident);
  std::fclose(f);
  if (n != 2) return 0;
  static const long page = ::sysconf(_SC_PAGESIZE);
  return resident * static_cast<std::uint64_t>(page > 0 ? page : 4096);
}

struct HistoPrev {
  std::uint64_t count{0};
  double sum{0.0};
};

}  // namespace

struct TelemetryEmitter::Impl {
  std::thread thread;
  std::mutex mu;
  std::condition_variable wake;
  bool stop{false};  ///< guarded by mu
  bool running{false};
  int interval_ms{1000};
  std::uint64_t seq{0};

  std::map<std::string, std::uint64_t> prev_counters;
  std::map<std::string, HistoPrev> prev_histograms;

  /// Render one snapshot payload and enqueue it through the logger's ring.
  /// It bypasses the level floor and the rate limiter: a log that carries
  /// events carries the metrics too.
  void emit() {
    std::ostringstream os;
    obs::json::Writer w(os);
    w.begin_object();
    w.field("seq", ++seq);
    w.field("interval_ms", interval_ms);

    const obs::Registry& reg = obs::Registry::global();
    w.key("counters").begin_object();
    for (const auto& [name, value] : reg.counters()) {
      std::uint64_t& prev = prev_counters[name];
      if (value == prev) continue;
      // Registry::reset() between runs rewinds counters; restart deltas.
      const std::uint64_t delta = value >= prev ? value - prev : value;
      prev = value;
      if (delta != 0) w.field(name, delta);
    }
    w.end_object();
    w.key("gauges").begin_object();
    for (const auto& [name, value] : reg.gauges())
      if (value != 0.0) w.field(name, value);
    w.end_object();
    w.key("histograms").begin_object();
    for (const auto& [name, snap] : reg.histograms()) {
      HistoPrev& prev = prev_histograms[name];
      const std::uint64_t dcount =
          snap.count >= prev.count ? snap.count - prev.count : snap.count;
      const double dsum =
          snap.count >= prev.count ? snap.sum - prev.sum : snap.sum;
      prev.count = snap.count;
      prev.sum = snap.sum;
      if (dcount == 0) continue;
      w.key(name).begin_object();
      w.field("count", dcount);
      w.field("sum", dsum);
      w.end_object();
    }
    w.end_object();

    w.field("rss_bytes", current_rss_bytes());
    w.end_object();

    Logger& lg = Logger::instance();
    const std::string payload = os.str();
    Record r;
    r.level = Level::Info;
    r.name = "metrics.snapshot";
    r.tid = obs::trace_tid();
    r.t_ms = lg.now_ms();
    r.wall_ns = obs::wall_now_ns();
    r.data = payload.substr(1, payload.size() - 2);  // the braces go
    lg.enqueue(std::move(r));
  }

  /// Ticks on absolute deadlines (no drift from emit time) and returns
  /// as soon as stop() is signalled, not at the next tick.
  void loop() {
    auto next = std::chrono::steady_clock::now();
    std::unique_lock<std::mutex> lk(mu);
    for (;;) {
      next += std::chrono::milliseconds(interval_ms);
      if (wake.wait_until(lk, next, [this] { return stop; })) return;
      lk.unlock();
      emit();
      lk.lock();
    }
  }
};

TelemetryEmitter::TelemetryEmitter() : impl_(new Impl) {}

TelemetryEmitter::~TelemetryEmitter() {
  if (impl_->running) (void)stop();
}

void TelemetryEmitter::start(const Options& opts) {
  if (impl_->running) return;
  impl_->interval_ms = opts.interval_ms < 1 ? 1 : opts.interval_ms;
  impl_->stop = false;
  impl_->seq = 0;
  impl_->prev_counters.clear();
  impl_->prev_histograms.clear();
  impl_->thread = std::thread([this] { impl_->loop(); });
  impl_->running = true;
}

std::uint64_t TelemetryEmitter::stop() {
  if (!impl_->running) return impl_->seq;
  {
    const std::lock_guard<std::mutex> lk(impl_->mu);
    impl_->stop = true;
  }
  impl_->wake.notify_all();
  if (impl_->thread.joinable()) impl_->thread.join();
  impl_->emit();  // the tail delta, so short runs still snapshot once
  impl_->running = false;
  return impl_->seq;
}

CliScope::CliScope(std::string log_json, bool verbose, Level floor) {
  Options lopts;
  lopts.level = floor;
  if (const char* env = std::getenv("GCR_LOG_LEVEL"))
    if (const auto l = parse_level(env)) lopts.level = *l;
  if (verbose && lopts.level > Level::Debug) lopts.level = Level::Debug;
  lopts.stderr_level = verbose ? Level::Debug : Level::Warn;
  if (log_json.empty())
    if (const char* env = std::getenv("GCR_LOG")) log_json = env;
  lopts.json_path = log_json;
  const bool opened = Logger::instance().init(std::move(lopts));
  install_guard_bridge();
  if (!opened) {
    GCR_LOG_ERROR("cli.log_open_failed").kv("path", log_json);
  } else if (!log_json.empty()) {
    telemetry_.start({});
  }
}

CliScope::~CliScope() {
  (void)telemetry_.stop();
  remove_guard_bridge();
  Logger::instance().shutdown();
}

}  // namespace gcr::log
