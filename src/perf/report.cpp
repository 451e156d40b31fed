#include "perf/report.h"

#include <ostream>

#include "obs/json.h"
#include "obs/report_util.h"
#include "obs/session.h"
#include "perf/memhook.h"

#ifndef GCR_GIT_SHA
#define GCR_GIT_SHA "unknown"
#endif
#ifndef GCR_BUILD_FLAGS
#define GCR_BUILD_FLAGS ""
#endif
#ifndef GCR_BUILD_TYPE
#define GCR_BUILD_TYPE ""
#endif

namespace gcr::perf {

Fingerprint Fingerprint::current() {
  Fingerprint f;
  f.git_sha = GCR_GIT_SHA;
#if defined(__clang__)
  f.compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  f.compiler = std::string("gcc ") + __VERSION__;
#else
  f.compiler = "unknown";
#endif
  f.flags = GCR_BUILD_FLAGS;
  f.build_type = GCR_BUILD_TYPE;
#if defined(__linux__)
  f.os = "linux";
#elif defined(__APPLE__)
  f.os = "darwin";
#else
  f.os = "unknown";
#endif
  f.timestamp_utc = obs::utc_timestamp();
  f.hostname = obs::host_name();
  return f;
}

namespace {

void write_fingerprint(obs::json::Writer& w) {
  const Fingerprint f = Fingerprint::current();
  w.key("fingerprint").begin_object();
  w.field("git_sha", f.git_sha);
  w.field("compiler", f.compiler);
  w.field("flags", f.flags);
  w.field("build_type", f.build_type);
  w.field("os", f.os);
  w.field("timestamp_utc", f.timestamp_utc);
  w.field("hostname", f.hostname);
  w.end_object();
}

void write_benchmark(obs::json::Writer& w, const BenchResult& r) {
  w.begin_object();
  w.field("name", r.name);
  w.field("reps", r.time_ms.reps);
  w.field("warmup_reps", r.warmup_reps);
  w.field("batch", r.batch);
  w.field("stable", r.stable);
  w.key("time_ms").begin_object();
  w.field("median", r.time_ms.median);
  w.field("min", r.time_ms.min);
  w.field("max", r.time_ms.max);
  w.field("mean", r.time_ms.mean);
  w.field("p90", r.time_ms.p90);
  w.field("mad", r.time_ms.mad);
  w.end_object();
  w.key("memory").begin_object();
  w.field("measured", r.memory.measured);
  w.field("allocs_per_rep", r.memory.allocs_per_rep);
  w.field("bytes_per_rep", r.memory.bytes_per_rep);
  w.field("peak_live_bytes", r.memory.peak_live_bytes);
  w.end_object();
  w.end_object();
}

}  // namespace

void write_bench_report(std::ostream& os, std::string_view bench_name,
                        const std::vector<BenchResult>& results,
                        const RunnerOptions& opts,
                        const obs::Session* session) {
  obs::json::Writer w(os);
  w.begin_object();
  w.field("schema", "gcr.bench_report");
  w.field("version", kBenchReportVersion);
  w.field("bench", bench_name);
  w.field("quick", opts.quick);
  write_fingerprint(w);
  w.key("benchmarks").begin_array();
  for (const auto& r : results) write_benchmark(w, r);
  w.end_array();
  w.key("memory").begin_object();
  w.field("hook_available", memhook::available());
  w.field("hook_enabled", memhook::enabled());
  const memhook::Stats m = memhook::stats();
  w.field("allocs", m.allocs);
  w.field("bytes_allocated", m.bytes_allocated);
  w.field("peak_live_bytes", m.peak_live_bytes);
  w.field("peak_rss_bytes", memhook::peak_rss_bytes());
  w.end_object();
  if (session) {
    obs::write_phase_forest(w, *session);
  } else {
    w.key("phases").begin_array();
    w.end_array();
  }
  obs::write_metrics(w);
  w.end_object();
  os << '\n';
}

}  // namespace gcr::perf
