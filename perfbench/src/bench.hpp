// Shared plumbing of the repository benchmark: options, the result
// record every workload fills, timing and percentile helpers, and the
// in-memory span log the traced run writes out as Chrome trace JSON.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Scratch directory inside the checkout (WAL data, trace dumps).
  std::string work_dir;
  /// perfbench/ itself (recorded reference data).
  std::string bench_dir;
};

/// A workload's outcome. `metrics` holds every end-to-end metric the
/// workload defines (printed by name and unit) and, in traced runs,
/// every per-layer metric; main() selects what the JSON line carries.
struct Result {
  struct Metric {
    double value = 0;
    std::string unit;
  };
  std::map<std::string, Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Correctness-check failures; any entry fails the run.
  std::vector<std::string> errors;
  /// Extra human-readable lines (per-step ladder, layer table).
  std::vector<std::string> notes;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void check(bool ok, const std::string& what) {
    if (!ok) errors.push_back(what);
  }
};

/// Quantile q in [0,1] of `v` (nearest rank on a sorted copy); q = 0
/// is the smallest value.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] double median(std::vector<double> v);

/// Peak resident set size of this process, in MB.
[[nodiscard]] double peak_rss_mb();

/// CPU time (user + system, all threads) this process has used, in
/// seconds. The kernel leaves out time the hypervisor stole.
[[nodiscard]] double process_cpu_s();

/// The set-ups of one run, each timed as CPU time (user + system, every
/// thread) and as wall time. Teardown is never part of a set-up.
struct SetupTimes {
  std::vector<double> cpu_s;
  std::vector<double> wall_s;

  /// Time one set-up: `make()` runs between the two readings and its
  /// result is returned.
  template <typename Make>
  auto time(Make&& make) {
    const std::int64_t t0 = now_ns();
    const double cpu0 = process_cpu_s();
    auto made = make();
    cpu_s.push_back(process_cpu_s() - cpu0);
    wall_s.push_back(double(now_ns() - t0) * 1e-9);
    return made;
  }

  /// setup_s (CPU time, the gated figure) and setup_wall_s, each the
  /// median over the set-ups, and a line listing every set-up.
  void report(Result& res) const;
};

/// Spans recorded from the benchmark's own files around calls into
/// the program's layers. Kept in memory (bounded) and written once, at
/// the end, as Chrome trace_event JSON.
class SpanLog {
 public:
  explicit SpanLog(std::size_t cap = 60'000) : cap_(cap) {}

  void set_enabled(bool on) { enabled_ = on; }

  /// Id for a span recorded later (children name it as parent first).
  std::uint64_t reserve_id() { return next_id_++; }

  /// Record one complete span; `op` groups spans of one request and
  /// `parent` names the span that caused it (0 = none). `id` 0 draws a
  /// fresh id. Returns the span's id (0 when not recorded).
  std::uint64_t record(const char* name, std::int64_t start_ns,
                       std::int64_t end_ns, std::uint64_t op,
                       std::uint64_t parent = 0, std::uint64_t id = 0);

  /// Write the Chrome trace JSON; returns false on I/O failure.
  bool write_chrome(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t dur_ns;
    std::uint64_t op;
    std::uint64_t id;
    std::uint64_t parent;
  };
  std::vector<Span> spans_;
  std::size_t cap_;
  bool enabled_ = true;
  std::uint64_t next_id_ = 1;
};

// Workloads (one translation unit each).
Result run_ingest_open(const Options& opt);
Result run_resolve_skewed(const Options& opt);
Result run_sim_fig4(const Options& opt);

}  // namespace perfbench
