#include "resolve_loop.hpp"

#include <algorithm>
#include <cstdio>

namespace perfbench {
namespace {
constexpr std::uint64_t kBlockOps = 256;
}  // namespace

LoopStats run_resolve_loop(clash::ClientEnv& inner, const LoopConfig& cfg,
                           SpanLog& spans, const LoopOp& op) {
  clash::ClashClient::Options copts;
  copts.use_cache = false;
  TimingEnv timed(inner, spans);
  clash::ClashClient plain_client(*cfg.clash, inner, cfg.hasher, copts,
                                  cfg.seed);
  clash::ClashClient timed_client(*cfg.clash, timed, cfg.hasher, copts,
                                  cfg.seed);

  LoopStats s;
  const double cpu0 = process_cpu_s();
  const std::int64_t start = now_ns();
  const auto deadline = start + std::int64_t(cfg.seconds * 1e9);
  const auto window_ns = std::int64_t(cfg.window_s * 1e9);
  std::int64_t win_start = start;
  std::size_t win_first = 0;  // index into s.lat_us
  std::uint64_t win_ops = 0;
  double win_cpu = cpu0;
  const auto close_window = [&](std::int64_t at) {
    const std::vector<double> w(s.lat_us.begin() + std::ptrdiff_t(win_first),
                                s.lat_us.end());
    const double cpu = process_cpu_s();
    const double secs = double(at - win_start) / 1e9;
    s.win_ops_per_s.push_back(double(win_ops) / secs);
    s.win_cpu_us_per_op.push_back((cpu - win_cpu) * 1e6 / double(win_ops));
    win_cpu = cpu;
    win_ops = 0;
    s.win_p50_us.push_back(quantile(w, 0.50));
    s.win_p99_us.push_back(quantile(w, 0.99));
    win_start = at;
    win_first = s.lat_us.size();
  };
  double block_sum = 0;
  clash::ResolveOutcome out;
  for (std::uint64_t i = 0; i < cfg.max_ops; ++i) {
    const bool block_traced = cfg.trace && (i / kBlockOps) % 2 == 0;
    const std::int64_t t_iter = now_ns();
    if (i % kBlockOps == 0) {
      if (t_iter >= deadline) break;
      block_sum = 0;
    }
    const std::uint64_t span = block_traced ? spans.reserve_id() : 0;
    if (block_traced) timed.begin_op(i + 1, span);
    const std::int64_t t0 = now_ns();
    const bool correct = op(i, block_traced ? timed_client : plain_client, out);
    const std::int64_t t1 = now_ns();
    if (block_traced) spans.record("client_op", t0, t1, i + 1, 0, span);
    ++s.ops;
    ++win_ops;
    s.probes += out.probes;
    s.restarts += out.restarts;
    s.lookups += out.dht_lookups;
    if (!out.ok) {
      ++s.failed;
    } else if (!correct) {
      ++s.wrong;
    }
    const double lat = double(t1 - t0) / 1e3;
    if (!block_traced) s.lat_us.push_back(lat);
    block_sum += lat;
    const std::int64_t t_end = now_ns();
    if (block_traced) {
      ++s.traced_ops;
      s.traced_iter_us += double(t_end - t_iter) / 1e3;
      s.traced_call_us += lat;
    }
    if (cfg.trace && i % kBlockOps == kBlockOps - 1) {
      (block_traced ? s.block_mean_on_us : s.block_mean_off_us)
          .push_back(block_sum / double(kBlockOps));
    }
    if (t_end - win_start >= window_ns) close_window(t_end);
  }
  const std::int64_t stop = now_ns();
  if (win_ops > 0 &&
      (s.win_p50_us.empty() || stop - win_start >= window_ns / 2)) {
    close_window(stop);
  }
  s.traced_lookup_us = double(timed.lookup_ns()) / 1e3;
  s.traced_rpc_us = double(timed.rpc_ns()) / 1e3;
  s.traced_lookups = timed.lookups();
  s.rtt_us = timed.rtt_us();
  return s;
}

void LoopStats::add(const LoopStats& o) {
  ops += o.ops;
  failed += o.failed;
  wrong += o.wrong;
  probes += o.probes;
  restarts += o.restarts;
  lookups += o.lookups;
  const auto keep = [](std::vector<double>& into,
                       const std::vector<double>& from) {
    const std::size_t n =
        std::min(from.size(), kMaxSamples - std::min(kMaxSamples, into.size()));
    into.insert(into.end(), from.begin(), from.begin() + std::ptrdiff_t(n));
  };
  keep(lat_us, o.lat_us);
  win_ops_per_s.insert(win_ops_per_s.end(), o.win_ops_per_s.begin(),
                       o.win_ops_per_s.end());
  win_p50_us.insert(win_p50_us.end(), o.win_p50_us.begin(),
                    o.win_p50_us.end());
  win_p99_us.insert(win_p99_us.end(), o.win_p99_us.begin(),
                    o.win_p99_us.end());
  win_cpu_us_per_op.insert(win_cpu_us_per_op.end(),
                           o.win_cpu_us_per_op.begin(),
                           o.win_cpu_us_per_op.end());
  traced_ops += o.traced_ops;
  traced_iter_us += o.traced_iter_us;
  traced_call_us += o.traced_call_us;
  traced_lookup_us += o.traced_lookup_us;
  traced_rpc_us += o.traced_rpc_us;
  traced_lookups += o.traced_lookups;
  keep(rtt_us, o.rtt_us);
  block_mean_on_us.insert(block_mean_on_us.end(), o.block_mean_on_us.begin(),
                          o.block_mean_on_us.end());
  block_mean_off_us.insert(block_mean_off_us.end(),
                           o.block_mean_off_us.begin(),
                           o.block_mean_off_us.end());
}

void add_client_layers(Result& out, const LoopStats& s) {
  const double ops = double(std::max<std::uint64_t>(1, s.traced_ops));
  const double self_us =
      s.traced_call_us - s.traced_lookup_us - s.traced_rpc_us;
  out.set("client.self_us", self_us / ops, "us");
  out.set("client.dht_lookups_per_op",
          double(s.lookups) / double(std::max<std::uint64_t>(1, s.ops)),
          "count");
  out.set("client.restarts_per_kop",
          double(s.restarts) * 1e3 / double(std::max<std::uint64_t>(1, s.ops)),
          "count");
  out.set("dht.lookup_us",
          s.traced_lookup_us /
              double(std::max<std::uint64_t>(1, s.traced_lookups)),
          "us");
  out.set("rpc.rtt_p50_us", quantile(s.rtt_us, 0.50), "us");
  out.set("rpc.rtt_p99_us", quantile(s.rtt_us, 0.99), "us");
  out.set("lat.p999_us", quantile(s.lat_us, 0.999), "us");
  out.set("unattributed_frac",
          s.traced_iter_us > 0
              ? (s.traced_iter_us - s.traced_call_us) / s.traced_iter_us
              : 0.0,
          "ratio");
  out.set("trace.overhead_frac",
          median(s.block_mean_on_us) / median(s.block_mean_off_us) - 1.0,
          "ratio");
  char line[256];
  std::snprintf(line, sizeof(line),
                "layers per traced op (n=%llu): client.self %.2f us + "
                "dht.lookup %.2f us + rpc %.2f us = call %.2f us; "
                "unattributed (loop) %.2f us of %.2f us",
                (unsigned long long)s.traced_ops, self_us / ops,
                s.traced_lookup_us / ops, s.traced_rpc_us / ops,
                s.traced_call_us / ops,
                (s.traced_iter_us - s.traced_call_us) / ops,
                s.traced_iter_us / ops);
  out.notes.push_back(line);
}

}  // namespace perfbench
