#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  const auto rank = std::size_t(std::ceil(q * double(v.size())));
  const std::size_t idx = rank == 0 ? 0 : std::min(rank, v.size()) - 1;
  std::nth_element(v.begin(), v.begin() + std::ptrdiff_t(idx), v.end());
  return v[idx];
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

namespace {

/// " a b c ..." with each value of `v` (seconds) in milliseconds.
std::string ms_list(const std::vector<double>& v) {
  std::string out;
  char buf[32];
  for (const double x : v) {
    std::snprintf(buf, sizeof(buf), " %.1f", x * 1e3);
    out += buf;
  }
  return out;
}

}  // namespace

void SetupTimes::report(Result& res) const {
  res.set("setup_s", median(cpu_s), "s");
  res.set("setup_wall_s", median(wall_s), "s");
  res.notes.push_back("set-ups, CPU (ms):" + ms_list(cpu_s));
  res.notes.push_back("set-ups, wall (ms):" + ms_list(wall_s));
}

double peak_rss_mb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double process_cpu_s() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& t) {
    return double(t.tv_sec) + double(t.tv_usec) / 1e6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

std::uint64_t SpanLog::record(const char* name, std::int64_t start_ns,
                              std::int64_t end_ns, std::uint64_t op,
                              std::uint64_t parent, std::uint64_t id) {
  if (!enabled_ || spans_.size() >= cap_) return 0;
  if (id == 0) id = next_id_++;
  spans_.push_back(Span{name, start_ns, end_ns - start_ns, op, id, parent});
  return id;
}

bool SpanLog::write_chrome(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"traceEvents\":[");
  const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%llu,"
                 "\"span\":%llu,\"parent\":%llu}}",
                 i == 0 ? "" : ",", s.name, double(s.start_ns - t0) / 1e3,
                 double(s.dur_ns) / 1e3, (unsigned long long)s.op,
                 (unsigned long long)s.id, (unsigned long long)s.parent);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
