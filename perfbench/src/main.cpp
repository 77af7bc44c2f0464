// clash_perfbench: runs one named workload and prints its metrics.
//
//   clash_perfbench --workload <ingest_open|resolve_skewed|sim_fig4>
//                   --seed <n> --seconds <s> --trace <0|1>
//                   --work-dir <dir> --bench-dir <perfbench dir>
//
// Human-readable lines come first (every end-to-end metric of the
// workload by name and unit; in traced runs the per-layer table too).
// The last line is one JSON object: {"correct", "attempted", "failed",
// "metrics"} carrying the end-to-end set (--trace 0) or the per-layer
// set (--trace 1). Exits 1 when a correctness check fails.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>

#include "bench.hpp"
#include "common/logging.hpp"

namespace perfbench {
namespace {

struct Spec {
  const char* name;
  const char* unit;
};

/// The end-to-end metrics every workload reports, in every untraced
/// run's JSON line (DESIGN.md says why these and not latency).
const Spec kEndToEnd[] = {{"setup_s", "s"},
                          {"msgs_per_op", "count"},
                          {"probes_per_op", "count"},
                          {"peak_rss_mb", "MB"}};

/// The traced run's JSON: the end-to-end metrics that are not gated
/// (too noisy on a shared host, or defined on one workload only), then
/// the per-layer metrics. A layer a workload does not exercise reads 0.
const Spec kPerLayer[] = {
    // End-to-end, not gated.
    {"setup_wall_s", "s"}, {"cpu_us_per_op", "us"}, {"ops_per_s", "1/s"},
    {"p50_us", "us"}, {"p99_us", "us"}, {"p99_us.r20k", "us"},
    {"p99_us.r40k", "us"},
    {"max_ok_rate_per_s", "1/s"}, {"fail_frac", "ratio"},
    {"sim_events_per_s", "1/s"},
    // Load generator.
    {"gen.late_p99_us.r5k", "us"}, {"gen.late_p99_us.r10k", "us"},
    {"gen.late_p99_us.r20k", "us"}, {"gen.late_p99_us.r40k", "us"},
    {"gen.backlog_max.r5k", "count"}, {"gen.backlog_max.r10k", "count"},
    {"gen.backlog_max.r20k", "count"}, {"gen.backlog_max.r40k", "count"},
    {"lat.p999_us", "us"},
    // clash::client.
    {"client.self_us", "us"}, {"client.dht_lookups_per_op", "count"},
    {"client.restarts_per_kop", "count"}, {"client.cache_hit_frac", "ratio"},
    // dht.
    {"dht.hash_ns", "ns"}, {"dht.lookup_us", "us"},
    {"dht.hops_per_search", "count"},
    // net / wire.
    {"rpc.rtt_p50_us", "us"}, {"rpc.rtt_p99_us", "us"},
    {"wire.encode_ns", "ns"}, {"wire.decode_ns", "ns"},
    {"net.bytes_per_op", "B"}, {"net.flush_syscalls_per_op", "count"},
    {"loop.busy_frac_max", "ratio"}, {"loop.tick_p99_us", "us"},
    // clash::server / server_table.
    {"server.table_entries", "count"}, {"server.lpm_ns", "ns"},
    {"server.entry_for_ns", "ns"},
    // repl.
    {"repl.compactions_per_kop", "count"},
    {"repl.snapshot_installs_per_kop", "count"},
    {"repl.appends_per_op", "count"}, {"repl.bytes_per_op", "B"},
    {"repl.commit_p50_us", "us"}, {"repl.commit_p99_us", "us"},
    // storage.
    {"wal.append_ns", "ns"}, {"wal.records_per_op", "count"},
    {"wal.disk_bytes_per_op", "B"}, {"wal.fsync_p99_us", "us"},
    {"wal.fsyncs", "count"},
    // membership.
    {"gossip.msgs_per_s", "1/s"},
    // sim.
    {"sim.events", "count"}, {"sim.splits", "count"}, {"sim.merges", "count"},
    {"sim.keygroup_transfers", "count"}, {"sim.load_reports", "count"},
    // Whole run.
    {"unattributed_frac", "ratio"}, {"trace.overhead_frac", "ratio"}};


struct Args {
  Options opt;
  bool ok = true;
};

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      a.opt.workload = v;
    } else if (k == "--seed") {
      a.opt.seed = std::stoull(v);
    } else if (k == "--seconds") {
      a.opt.seconds = std::stod(v);
    } else if (k == "--trace") {
      a.opt.trace = v == "1";
    } else if (k == "--work-dir") {
      a.opt.work_dir = v;
    } else if (k == "--bench-dir") {
      a.opt.bench_dir = v;
    } else {
      a.ok = false;
    }
  }
  if (argc % 2 != 1 || a.opt.workload.empty() || a.opt.work_dir.empty() ||
      !(a.opt.seconds > 0)) {
    a.ok = false;
  }
  return a;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = parse(argc, argv);
  if (!args.ok) {
    std::fprintf(stderr,
                 "usage: clash_perfbench --workload W --seed N --seconds S "
                 "--trace 0|1 --work-dir DIR [--bench-dir DIR]\n");
    return 2;
  }
  // Node logs (connect retries, snapshot notices) are not results.
  clash::log::set_level(clash::log::Level::kError);

  const Options& opt = args.opt;
  Result res;
  try {
    if (opt.workload == "ingest_open") {
      res = run_ingest_open(opt);
    } else if (opt.workload == "resolve_skewed") {
      res = run_resolve_skewed(opt);
    } else if (opt.workload == "sim_fig4") {
      res = run_sim_fig4(opt);
    } else {
      std::fprintf(stderr, "unknown workload %s\n", opt.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "workload %s aborted: %s\n", opt.workload.c_str(),
                 e.what());
    return 2;
  }

  std::printf("# workload %s  seed %llu  seconds %g  trace %d\n",
              opt.workload.c_str(), (unsigned long long)opt.seed, opt.seconds,
              int(opt.trace));
  for (const auto& n : res.notes) std::printf("# %s\n", n.c_str());
  for (const auto& [name, m] : res.metrics) {
    std::printf("%-32s %16.6g %s\n", name.c_str(), m.value, m.unit.c_str());
  }
  for (const auto& [name, unit] : kEndToEnd) {
    const auto it = res.metrics.find(name);
    if (res.errors.empty() &&
        (it == res.metrics.end() || !(it->second.value > 0))) {
      res.errors.push_back(std::string("end-to-end metric ") + name +
                           " missing or not positive");
    }
  }
  for (const auto& e : res.errors) std::printf("CHECK FAILED: %s\n", e.c_str());

  std::string json = "{\"correct\": ";
  json += res.errors.empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(res.attempted);
  json += ", \"failed\": " + std::to_string(res.failed);
  json += ", \"metrics\": {";
  bool first = true;
  const auto emit = [&](const Spec& spec) {
    const auto it = res.metrics.find(spec.name);
    const double v = it == res.metrics.end() ? 0.0 : it->second.value;
    json += std::string(first ? "" : ", ") + "\"" + spec.name +
            "\": {\"value\": " + json_number(v) + ", \"unit\": \"" +
            spec.unit + "\"}";
    first = false;
  };
  if (opt.trace) {
    for (const auto& spec : kPerLayer) emit(spec);
  } else {
    for (const auto& spec : kEndToEnd) emit(spec);
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return res.errors.empty() ? 0 : 1;
}
