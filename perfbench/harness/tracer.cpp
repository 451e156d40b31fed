#include "tracer.h"

#include <algorithm>
#include <fstream>
#include <utility>

namespace perfbench {

double now_us() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

int Tracer::open(std::string name, std::uint64_t rid) {
  const int parent = stack_.empty() ? -1 : stack_.back();
  spans_.push_back({std::move(name), now_us(), 0.0, parent, rid});
  const int idx = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(idx);
  return idx;
}

void Tracer::close(int idx) {
  spans_[static_cast<std::size_t>(idx)].end_us = now_us();
  stack_.pop_back();
}

void Tracer::add(std::string name, double start_us, double end_us,
                 std::uint64_t rid) {
  const int parent = stack_.empty() ? -1 : stack_.back();
  spans_.push_back({std::move(name), start_us, end_us, parent, rid});
}

bool Tracer::write(const std::string& path) const {
  std::ofstream os(path);
  os.precision(17);
  os << "[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRec& s = spans_[i];
    os << "  {\"name\": \"" << s.name << "\", \"start_us\": " << s.start_us
       << ", \"end_us\": " << s.end_us << ", \"parent\": " << s.parent
       << ", \"rid\": " << s.rid << "}" << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  os << "]\n";
  return static_cast<bool>(os);
}

std::vector<double> self_times_us(const std::vector<SpanRec>& spans) {
  std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
  for (const SpanRec& s : spans)
    if (s.parent >= 0)
      kids[static_cast<std::size_t>(s.parent)].emplace_back(s.start_us, s.end_us);
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRec& p = spans[i];
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0.0;
    double reach = p.start_us;  // end of the union so far
    for (const auto& [lo, hi] : iv) {
      const double a = std::max(lo, reach);
      const double b = std::min(hi, p.end_us);
      if (b > a) covered += b - a;
      reach = std::max(reach, std::min(hi, p.end_us));
    }
    self[i] = p.dur_us() - covered;
  }
  return self;
}

std::map<std::string, NameTotals> totals_by_name(const std::vector<SpanRec>& spans) {
  const std::vector<double> self = self_times_us(spans);
  std::map<std::string, NameTotals> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    NameTotals& t = out[spans[i].name];
    t.self_s += self[i] * 1e-6;
    ++t.calls;
  }
  return out;
}

}  // namespace perfbench
