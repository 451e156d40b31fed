#include "log/logger.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <ctime>
#include <map>
#include <mutex>
#include <thread>
#include <unistd.h>

#include "guard/status.h"
#include "log/ring.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/session.h"
#include "obs/trace.h"
#include "par/pool.h"

namespace gcr::log {

namespace detail {
bool g_log_on = false;
int g_runtime_level = static_cast<int>(Level::Info);
}  // namespace detail

std::string_view level_name(Level l) {
  switch (l) {
    case Level::Trace: return "trace";
    case Level::Debug: return "debug";
    case Level::Info: return "info";
    case Level::Warn: return "warn";
    case Level::Error: return "error";
    case Level::Off: return "off";
  }
  return "info";
}

std::optional<Level> parse_level(std::string_view s) {
  for (const Level l : {Level::Trace, Level::Debug, Level::Info, Level::Warn,
                        Level::Error, Level::Off})
    if (s == level_name(l)) return l;
  return std::nullopt;
}

std::string iso8601_utc_ms(std::int64_t wall_ns) {
  const std::time_t secs = static_cast<std::time_t>(wall_ns / 1000000000);
  const int ms = static_cast<int>((wall_ns / 1000000) % 1000);
  std::tm tm{};
  gmtime_r(&secs, &tm);
  char buf[40];
  std::snprintf(buf, sizeof buf, "%04d-%02d-%02dT%02d:%02d:%02d.%03dZ",
                tm.tm_year + 1900, tm.tm_mon + 1, tm.tm_mday, tm.tm_hour,
                tm.tm_min, tm.tm_sec, ms);
  return buf;
}

std::string render_event_json(const Record& r, const std::string& run_id) {
  if (r.kind == Record::Kind::Snapshot) return r.data;
  std::string out;
  out.reserve(160 + r.data.size());
  out += "{\"schema\":\"gcr.event\",\"v\":";
  out += std::to_string(kEventSchemaVersion);
  out += ",\"run\":";
  out += obs::json::quote(run_id);
  out += ",\"t_ms\":";
  out += obs::json::number(r.t_ms);
  out += ",\"wall\":";
  out += obs::json::quote(iso8601_utc_ms(r.wall_ns));
  out += ",\"level\":";
  out += obs::json::quote(level_name(r.level));
  out += ",\"event\":";
  out += obs::json::quote(r.name);
  out += ",\"phase\":";
  out += obs::json::quote(r.phase);
  out += ",\"tid\":";
  out += std::to_string(r.tid);
  out += ",\"worker\":";
  out += std::to_string(r.worker);
  if (r.suppressed > 0) {
    out += ",\"suppressed\":";
    out += std::to_string(r.suppressed);
  }
  out += ",\"data\":{";
  out += r.data;
  out += "}}";
  return out;
}

std::string render_human(const Record& r) {
  char head[64];
  std::snprintf(head, sizeof head, "[%9.3fms] %-5s ", r.t_ms,
                std::string(level_name(r.level)).c_str());
  std::string out = head;
  out += r.name;
  if (!r.phase.empty()) {
    out += " phase=";
    out += r.phase;
  }
  if (!r.data.empty()) {
    out += " {";
    out += r.data;
    out += "}";
  }
  if (r.suppressed > 0) {
    out += " (+";
    out += std::to_string(r.suppressed);
    out += " suppressed)";
  }
  return out;
}

// ---------------------------------------------------------------------------
// Sinks.

void StderrSink::write(const Record& r, const std::string&) {
  if (r.kind == Record::Kind::Snapshot) return;
  if (static_cast<int>(r.level) < static_cast<int>(min_level_)) return;
  const std::string line = render_human(r);
  std::fprintf(stderr, "%s\n", line.c_str());
}

void StderrSink::flush() { std::fflush(stderr); }

bool FileSink::open(const std::string& path) {
  file_ = std::fopen(path.c_str(), "w");
  return file_ != nullptr;
}

FileSink::~FileSink() {
  if (file_ != nullptr) std::fclose(file_);
}

void FileSink::write(const Record&, const std::string& json_line) {
  if (file_ == nullptr) return;
  std::fwrite(json_line.data(), 1, json_line.size(), file_);
  std::fputc('\n', file_);
}

void FileSink::flush() {
  if (file_ != nullptr) std::fflush(file_);
}

struct MemorySink::Impl {
  mutable std::mutex mu;
  std::vector<Record> records;
  std::vector<std::string> lines;
};

MemorySink::Impl& MemorySink::impl() const {
  if (!impl_) impl_ = std::make_shared<Impl>();
  return *impl_;
}

void MemorySink::write(const Record& r, const std::string& json_line) {
  Impl& im = impl();
  const std::lock_guard<std::mutex> lk(im.mu);
  im.records.push_back(r);
  im.lines.push_back(json_line);
}

std::vector<Record> MemorySink::records() const {
  Impl& im = impl();
  const std::lock_guard<std::mutex> lk(im.mu);
  return im.records;
}

std::vector<std::string> MemorySink::lines() const {
  Impl& im = impl();
  const std::lock_guard<std::mutex> lk(im.mu);
  return im.lines;
}

void MemorySink::clear() {
  Impl& im = impl();
  const std::lock_guard<std::mutex> lk(im.mu);
  im.records.clear();
  im.lines.clear();
}

// ---------------------------------------------------------------------------
// Logger core.

namespace {

constexpr std::size_t kRingSize = 4096;

std::int64_t wall_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

std::string derive_run_id() {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%012llx-%04x",
                static_cast<unsigned long long>(wall_now_ns()) & 0xffffffffffffULL,
                static_cast<unsigned>(::getpid()) & 0xffff);
  return buf;
}

struct TokenBucket {
  double tokens{0.0};
  std::int64_t last_ns{0};
  std::uint64_t admitted{0};
  std::uint64_t suppressed{0};  ///< not yet carried by an admitted record
  std::uint64_t suppressed_total{0};
};

}  // namespace

struct Logger::Impl {
  std::mutex init_mu;  ///< serializes init/shutdown
  bool running{false};
  Options opts;
  std::string run_id;
  std::chrono::steady_clock::time_point t0;

  BoundedMpscRing<Record, kRingSize> ring;
  std::atomic<std::uint64_t> dropped{0};

  std::vector<std::unique_ptr<Sink>> sinks;
  StderrSink* stderr_sink{nullptr};  ///< owned by sinks when present

  std::thread drain;
  std::mutex drain_mu;
  std::condition_variable drain_cv;   ///< wakes the drain thread
  std::condition_variable flush_cv;   ///< wakes flush() waiters
  bool stop{false};
  std::uint64_t enqueued{0};  ///< successful pushes (approximate order)
  std::uint64_t written{0};   ///< records delivered to sinks

  mutable std::mutex rate_mu;
  std::map<std::string, TokenBucket, std::less<>> buckets;

  double now_ms() const {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
  }

  void deliver(const Record& r) {
    const std::string line = render_event_json(r, run_id);
    for (const std::unique_ptr<Sink>& s : sinks) s->write(r, line);
  }

  void drain_loop() {
    Record r;
    for (;;) {
      bool any = false;
      while (ring.pop(r)) {
        any = true;
        deliver(r);
        {
          const std::lock_guard<std::mutex> lk(drain_mu);
          ++written;
        }
        flush_cv.notify_all();
      }
      std::unique_lock<std::mutex> lk(drain_mu);
      if (stop && written >= enqueued) return;
      if (!any)
        drain_cv.wait_for(lk, std::chrono::milliseconds(5));
    }
  }
};

Logger::Logger() : impl_(new Impl) {}
Logger::~Logger() = default;

Logger& Logger::instance() {
  static Logger* g = new Logger();  // leaked: outlive static destructors
  return *g;
}

bool Logger::init(Options opts) {
  Impl& im = *impl_;
  const std::lock_guard<std::mutex> lk(im.init_mu);
  if (im.running) return true;
  im.opts = std::move(opts);
  im.run_id = im.opts.run_id.empty() ? derive_run_id() : im.opts.run_id;
  im.t0 = std::chrono::steady_clock::now();
  im.sinks.clear();
  im.stderr_sink = nullptr;
  im.dropped.store(0, std::memory_order_relaxed);
  im.stop = false;
  im.enqueued = 0;
  im.written = 0;
  {
    const std::lock_guard<std::mutex> rlk(im.rate_mu);
    im.buckets.clear();
  }

  bool ok = true;
  if (im.opts.stderr_level != Level::Off) {
    auto s = std::make_unique<StderrSink>(im.opts.stderr_level);
    im.stderr_sink = s.get();
    im.sinks.push_back(std::move(s));
  }
  if (!im.opts.json_path.empty()) {
    auto f = std::make_unique<FileSink>();
    if (f->open(im.opts.json_path)) {
      im.sinks.push_back(std::move(f));
    } else {
      ok = false;  // caller decides whether a missing file sink is fatal
    }
  }
  if (im.opts.extra_sink) im.sinks.push_back(std::move(im.opts.extra_sink));

  im.drain = std::thread([this] { impl_->drain_loop(); });
  detail::g_runtime_level = static_cast<int>(im.opts.level);
  detail::g_log_on = true;
  im.running = true;
  return ok;
}

void Logger::shutdown() {
  Impl& im = *impl_;
  const std::lock_guard<std::mutex> lk(im.init_mu);
  if (!im.running) return;
  detail::g_log_on = false;

  // Final per-name suppression summary: everything the token buckets ate
  // that no later admitted record carried, plus ring-full drops.
  {
    const std::lock_guard<std::mutex> rlk(im.rate_mu);
    for (auto& [name, b] : im.buckets) {
      if (b.suppressed == 0) continue;
      Record r;
      r.level = Level::Warn;
      r.name = "log.suppressed";
      r.tid = obs::trace_tid();
      r.t_ms = im.now_ms();
      r.wall_ns = wall_now_ns();
      r.data = "\"event\":" + obs::json::quote(name) +
               ",\"count\":" + std::to_string(b.suppressed);
      b.suppressed = 0;
      if (im.ring.push(std::move(r))) {
        const std::lock_guard<std::mutex> dlk(im.drain_mu);
        ++im.enqueued;
      }
    }
  }
  const std::uint64_t drops = im.dropped.load(std::memory_order_relaxed);
  if (drops > 0) {
    Record r;
    r.level = Level::Warn;
    r.name = "log.dropped";
    r.tid = obs::trace_tid();
    r.t_ms = im.now_ms();
    r.wall_ns = wall_now_ns();
    r.data = "\"count\":" + std::to_string(drops);
    if (im.ring.push(std::move(r))) {
      const std::lock_guard<std::mutex> dlk(im.drain_mu);
      ++im.enqueued;
    }
  }

  {
    const std::lock_guard<std::mutex> dlk(im.drain_mu);
    im.stop = true;
  }
  im.drain_cv.notify_all();
  if (im.drain.joinable()) im.drain.join();
  for (const std::unique_ptr<Sink>& s : im.sinks) s->flush();
  im.sinks.clear();
  im.stderr_sink = nullptr;
  im.running = false;
}

bool Logger::running() const {
  const std::lock_guard<std::mutex> lk(impl_->init_mu);
  return impl_->running;
}

void Logger::flush() {
  Impl& im = *impl_;
  const std::lock_guard<std::mutex> init_lk(im.init_mu);
  if (!im.running) return;
  {
    std::unique_lock<std::mutex> lk(im.drain_mu);
    const std::uint64_t target = im.enqueued;
    im.drain_cv.notify_all();
    im.flush_cv.wait(lk, [&] { return im.written >= target; });
  }
  for (const std::unique_ptr<Sink>& s : im.sinks) s->flush();
}

double Logger::now_ms() const { return impl_->now_ms(); }

void Logger::set_level(Level l) {
  detail::g_runtime_level = static_cast<int>(l);
}

Level Logger::runtime_level() const {
  return static_cast<Level>(detail::g_runtime_level);
}

const std::string& Logger::run_id() const { return impl_->run_id; }

bool Logger::admit(const std::string& name, std::uint64_t& carry) {
  Impl& im = *impl_;
  carry = 0;
  if (im.opts.rate_per_sec <= 0.0) return true;
  const std::int64_t now =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count();
  const std::lock_guard<std::mutex> lk(im.rate_mu);
  auto it = im.buckets.find(name);
  if (it == im.buckets.end()) {
    it = im.buckets.emplace(name, TokenBucket{}).first;
    it->second.tokens = im.opts.rate_burst;
    it->second.last_ns = now;
  }
  TokenBucket& b = it->second;
  const double dt_s = static_cast<double>(now - b.last_ns) * 1e-9;
  if (dt_s > 0.0) {
    b.tokens = std::min(im.opts.rate_burst,
                        b.tokens + dt_s * im.opts.rate_per_sec);
    b.last_ns = now;
  }
  if (b.tokens < 1.0) {
    ++b.suppressed;
    ++b.suppressed_total;
    if (obs::metrics_enabled()) [[unlikely]] {
      static obs::Counter& c =
          obs::Registry::global().counter("log.suppressed");
      c.inc();
    }
    return false;
  }
  b.tokens -= 1.0;
  ++b.admitted;
  carry = b.suppressed;
  b.suppressed = 0;
  return true;
}

void Logger::enqueue(Record&& r) {
  Impl& im = *impl_;
  if (im.ring.push(std::move(r))) {
    const std::lock_guard<std::mutex> lk(im.drain_mu);
    ++im.enqueued;
  } else {
    im.dropped.fetch_add(1, std::memory_order_relaxed);
    if (obs::metrics_enabled()) [[unlikely]] {
      static obs::Counter& c = obs::Registry::global().counter("log.dropped");
      c.inc();
    }
  }
}

RateStats Logger::rate_stats(const std::string& name) const {
  Impl& im = *impl_;
  const std::lock_guard<std::mutex> lk(im.rate_mu);
  const auto it = im.buckets.find(name);
  if (it == im.buckets.end()) return {};
  return {it->second.admitted, it->second.suppressed_total};
}

std::uint64_t Logger::dropped() const {
  return impl_->dropped.load(std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// EventBuilder.

EventBuilder::EventBuilder(Level level, std::string_view name) {
  Logger& lg = Logger::instance();
  std::uint64_t carry = 0;
  rec_.name.assign(name);
  if (!lg.admit(rec_.name, carry)) return;
  admitted_ = true;
  rec_.level = level;
  rec_.suppressed = carry;
  rec_.tid = obs::trace_tid();
  rec_.worker = par::worker_ordinal();
  rec_.t_ms = lg.now_ms();
  rec_.wall_ns = wall_now_ns();
  if (const obs::Session* s = obs::current()) rec_.phase = s->timers().path();
}

EventBuilder::~EventBuilder() {
  if (!admitted_) return;
  Logger::instance().enqueue(std::move(rec_));
}

void EventBuilder::append_key(std::string_view key) {
  if (!rec_.data.empty()) rec_.data += ',';
  rec_.data += obs::json::quote(key);
  rec_.data += ':';
}

EventBuilder& EventBuilder::kv(std::string_view key, std::string_view v) {
  if (!admitted_) return *this;
  append_key(key);
  rec_.data += obs::json::quote(v);
  return *this;
}

EventBuilder& EventBuilder::kv(std::string_view key, double v) {
  if (!admitted_) return *this;
  append_key(key);
  rec_.data += obs::json::number(v);
  return *this;
}

EventBuilder& EventBuilder::kv(std::string_view key, std::int64_t v) {
  if (!admitted_) return *this;
  append_key(key);
  rec_.data += std::to_string(v);
  return *this;
}

EventBuilder& EventBuilder::kv(std::string_view key, std::uint64_t v) {
  if (!admitted_) return *this;
  append_key(key);
  rec_.data += std::to_string(v);
  return *this;
}

EventBuilder& EventBuilder::kv(std::string_view key, bool v) {
  if (!admitted_) return *this;
  append_key(key);
  rec_.data += v ? "true" : "false";
  return *this;
}

// ---------------------------------------------------------------------------
// guard::Diag bridge.

namespace {

guard::DiagHook g_prev_hook = nullptr;
bool g_bridge_installed = false;

void diag_bridge(const guard::Status& s) {
  const bool warning = s.severity == guard::Severity::Warning;
  if (obs::metrics_enabled()) [[unlikely]] {
    static obs::Counter& warns =
        obs::Registry::global().counter("log.guard_warnings");
    static obs::Counter& errors =
        obs::Registry::global().counter("log.guard_errors");
    (warning ? warns : errors).inc();
  }
  const Level lvl = warning ? Level::Warn : Level::Error;
  GCR_LOG_EVENT(lvl, "guard.diag")
      .kv("code", guard::code_name(s.code))
      .kv("severity", warning ? "warning" : "error")
      .msg(s.message)
      .kv("file", s.loc.file)
      .kv("line", s.loc.line)
      .kv("col", s.loc.col);
  if (g_prev_hook != nullptr) g_prev_hook(s);
}

}  // namespace

void install_guard_bridge() {
  if (g_bridge_installed) return;
  g_prev_hook = guard::set_diag_hook(&diag_bridge);
  g_bridge_installed = true;
}

void remove_guard_bridge() {
  if (!g_bridge_installed) return;
  guard::set_diag_hook(g_prev_hook);
  g_prev_hook = nullptr;
  g_bridge_installed = false;
}

}  // namespace gcr::log
