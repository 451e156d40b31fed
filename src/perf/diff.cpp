#include "perf/diff.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ostream>
#include <set>

#include "perf/report.h"

namespace gcr::perf {

using obs::json::has;
using obs::json::has_number;
using obs::json::has_string;
using obs::json::require;
using obs::json::Value;

std::vector<std::string> validate_bench_report(const Value& doc) {
  std::vector<std::string> problems;
  if (!obs::json::check_header(problems, doc, "gcr.bench_report", "version",
                               kBenchReportVersion))
    return problems;
  const Value* bench = doc.find("bench");
  require(problems, bench && bench->is_string() && !bench->as_string().empty(),
          "missing bench name");
  require(problems, has(doc, "quick", &Value::is_bool), "missing quick flag");

  const Value* fp = doc.find("fingerprint");
  if (fp && fp->is_object()) {
    for (const char* key : {"git_sha", "compiler", "flags", "build_type", "os"})
      if (!has_string(*fp, key))
        problems.push_back(std::string("fingerprint.") + key +
                           " missing or not a string");
    // Emission-time stamps arrived after the first baselines were committed:
    // optional, but type-checked when present.
    for (const char* key : {"timestamp_utc", "hostname"}) {
      const Value* f = fp->find(key);
      if (f && !f->is_string())
        problems.push_back(std::string("fingerprint.") + key +
                           " is not a string");
    }
  } else {
    problems.emplace_back("missing fingerprint object");
  }

  const Value* memory = doc.find("memory");
  if (memory && memory->is_object()) {
    require(problems, has(*memory, "hook_enabled", &Value::is_bool),
            "memory.hook_enabled missing");
    require(problems, has_number(*memory, "peak_rss_bytes"),
            "memory.peak_rss_bytes missing");
  } else {
    problems.emplace_back("missing memory object");
  }

  require(problems, has(doc, "phases", &Value::is_array),
          "missing phases array");
  require(problems, has(doc, "counters", &Value::is_object),
          "missing counters object");
  const Value* histograms = doc.find("histograms");
  if (histograms && histograms->is_object()) {
    for (const auto& [hname, h] : histograms->as_object()) {
      if (!h.is_object()) {
        problems.push_back("histograms." + hname + " is not an object");
        continue;
      }
      for (const char* key : {"count", "sum"})
        if (!has_number(h, key))
          problems.push_back("histograms." + hname + "." + key + " missing");
      // bucket_scheme is optional (older reports), a string when present.
      const Value* scheme = h.find("bucket_scheme");
      if (scheme && !scheme->is_string())
        problems.push_back("histograms." + hname +
                           ".bucket_scheme is not a string");
    }
  }
  const Value* benchmarks = doc.find("benchmarks");
  if (!benchmarks || !benchmarks->is_array()) {
    problems.emplace_back("missing benchmarks array");
    return problems;
  }
  int idx = 0;
  for (const Value& b : benchmarks->as_array()) {
    const std::string at = "benchmarks[" + std::to_string(idx++) + "]";
    if (!b.is_object()) {
      problems.push_back(at + " is not an object");
      continue;
    }
    const Value* name = b.find("name");
    if (!name || !name->is_string() || name->as_string().empty())
      problems.push_back(at + ".name missing");
    const Value* reps = b.find("reps");
    if (!reps || !reps->is_number() || reps->as_number() < 1)
      problems.push_back(at + ".reps missing or < 1");
    const Value* t = b.find("time_ms");
    if (t && t->is_object()) {
      for (const char* key : {"median", "min", "max", "mean", "p90", "mad"})
        if (!has_number(*t, key))
          problems.push_back(at + ".time_ms." + key + " missing");
    } else {
      problems.push_back(at + ".time_ms missing");
    }
    const Value* m = b.find("memory");
    if (m && m->is_object()) {
      if (!has(*m, "measured", &Value::is_bool))
        problems.push_back(at + ".memory.measured missing");
      for (const char* key :
           {"allocs_per_rep", "bytes_per_rep", "peak_live_bytes"})
        if (!has_number(*m, key))
          problems.push_back(at + ".memory." + key + " missing");
    } else {
      problems.push_back(at + ".memory missing");
    }
  }
  return problems;
}

std::vector<std::string> report_fingerprint_warnings(const Value& doc) {
  std::vector<std::string> warnings;
  if (!doc.is_object()) return warnings;
  const Value* fp = doc.find("fingerprint");
  if (!fp || !fp->is_object()) return warnings;
  const Value* sha = fp->find("git_sha");
  if (!sha || !sha->is_string()) return warnings;
  const std::string& s = sha->as_string();
  constexpr std::string_view kDirty = "-dirty";
  if (s.size() >= kDirty.size() &&
      s.compare(s.size() - kDirty.size(), kDirty.size(), kDirty) == 0) {
    warnings.push_back("fingerprint.git_sha \"" + s +
                       "\" is from an uncommitted tree; regenerate the "
                       "report from a clean checkout before committing it "
                       "as a baseline");
  }
  return warnings;
}

std::optional<LoadedReport> load_bench_report(std::string_view text,
                                              std::string* error) {
  const std::optional<Value> doc = obs::json::parse(text);
  if (!doc) {
    if (error) *error = "not valid JSON";
    return std::nullopt;
  }
  const std::vector<std::string> problems = validate_bench_report(*doc);
  if (!problems.empty()) {
    if (error) *error = problems.front();
    return std::nullopt;
  }
  LoadedReport r;
  r.bench = doc->find("bench")->as_string();
  r.version = static_cast<int>(doc->find("version")->as_number());
  r.quick = doc->find("quick")->as_bool();
  if (const Value* fp = doc->find("fingerprint"))
    if (const Value* sha = fp->find("git_sha"))
      if (sha->is_string()) r.git_sha = sha->as_string();
  for (const Value& b : doc->find("benchmarks")->as_array()) {
    BenchSample s;
    const Value& t = *b.find("time_ms");
    s.median_ms = t.number_or("median", 0.0);
    s.mad_ms = t.number_or("mad", 0.0);
    s.min_ms = t.number_or("min", 0.0);
    s.reps = static_cast<int>(b.number_or("reps", 0.0));
    r.benchmarks.insert_or_assign(b.find("name")->as_string(), s);
  }
  return r;
}

std::string_view verdict_name(Verdict v) {
  switch (v) {
    case Verdict::Improvement: return "improvement";
    case Verdict::Regression: return "REGRESSION";
    case Verdict::WithinNoise: return "within-noise";
    case Verdict::OnlyOld: return "only-old";
    case Verdict::OnlyNew: return "only-new";
  }
  return "?";
}

Verdict classify(const BenchSample& older, const BenchSample& newer,
                 const DiffOptions& opts) {
  const double delta = newer.median_ms - older.median_ms;
  const double rel_gate = opts.threshold * older.median_ms;
  const double noise_gate =
      opts.noise_mads * std::max(older.mad_ms, newer.mad_ms);
  if (std::abs(delta) <= rel_gate || std::abs(delta) <= noise_gate ||
      std::abs(delta) <= opts.min_delta_ms)
    return Verdict::WithinNoise;
  return delta > 0.0 ? Verdict::Regression : Verdict::Improvement;
}

DiffReport diff_reports(const LoadedReport& older, const LoadedReport& newer,
                        const DiffOptions& opts) {
  DiffReport out;
  std::set<std::string> names;
  for (const auto& [name, s] : older.benchmarks) names.insert(name);
  for (const auto& [name, s] : newer.benchmarks) names.insert(name);
  for (const std::string& name : names) {
    const auto o = older.benchmarks.find(name);
    const auto n = newer.benchmarks.find(name);
    DiffEntry e;
    e.name = name;
    if (o == older.benchmarks.end()) {
      e.verdict = Verdict::OnlyNew;
      e.new_median_ms = n->second.median_ms;
    } else if (n == newer.benchmarks.end()) {
      e.verdict = Verdict::OnlyOld;
      e.old_median_ms = o->second.median_ms;
    } else {
      e.old_median_ms = o->second.median_ms;
      e.new_median_ms = n->second.median_ms;
      e.ratio = e.old_median_ms > 0.0 ? e.new_median_ms / e.old_median_ms : 0.0;
      e.verdict = classify(o->second, n->second, opts);
      if (e.verdict == Verdict::Regression) ++out.regressions;
      if (e.verdict == Verdict::Improvement) ++out.improvements;
    }
    out.entries.push_back(std::move(e));
  }
  return out;
}

void print_diff(std::ostream& os, const DiffReport& d) {
  os << "benchmark                                       old ms     new ms"
        "    ratio  verdict\n";
  char line[320];
  for (const auto& e : d.entries) {
    std::snprintf(line, sizeof line, "%-44s %10.4f %10.4f %8.3f  %s\n",
                  e.name.c_str(), e.old_median_ms, e.new_median_ms, e.ratio,
                  std::string(verdict_name(e.verdict)).c_str());
    os << line;
  }
  std::snprintf(line, sizeof line,
                "%d regression(s), %d improvement(s), %zu compared\n",
                d.regressions, d.improvements, d.entries.size());
  os << line;
}

}  // namespace gcr::perf
