// The closed loop both resolve workloads share: one synchronous
// ClashClient (cache off) issuing operations back to back, each timed
// around the client call. In traced runs the loop alternates blocks of
// operations through a TimingEnv-wrapped client (spans on) and through
// the bare environment (spans off); the layer sums come from the
// traced blocks and the block means price the tracing itself.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "bench.hpp"
#include "clash/client.hpp"
#include "timing_env.hpp"

namespace perfbench {

struct LoopStats {
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;  // outcome not ok
  std::uint64_t wrong = 0;   // ok, but not the expected group/owner
  std::uint64_t probes = 0;
  std::uint64_t restarts = 0;
  std::uint64_t lookups = 0;
  /// Client call per op, blocks without spans only: the end-to-end
  /// latency figures are measured with tracing off.
  std::vector<double> lat_us;
  /// Per-window statistics (LoopConfig::window_s windows): the
  /// end-to-end figures are medians over windows, so a burst of host
  /// noise in one window moves them little.
  std::vector<double> win_ops_per_s, win_p50_us, win_p99_us,
      win_cpu_us_per_op;

  // Traced blocks only.
  std::uint64_t traced_ops = 0;
  double traced_iter_us = 0;  // whole iteration: draw, call, verify
  double traced_call_us = 0;  // the ClashClient call
  double traced_lookup_us = 0;
  double traced_rpc_us = 0;
  std::uint64_t traced_lookups = 0;
  std::vector<double> rtt_us;
  std::vector<double> block_mean_on_us;   // per traced block
  std::vector<double> block_mean_off_us;  // per untraced block

  /// Fold another loop's counts and window statistics into this one.
  /// Per-op samples are kept up to kMaxSamples, so memory does not grow
  /// with the number of loops folded in.
  void add(const LoopStats& o);
  static constexpr std::size_t kMaxSamples = 200'000;
};

/// One operation: issue it through `client` and say whether the
/// outcome is the expected one (group depth and owner).
using LoopOp =
    std::function<bool(std::uint64_t i, clash::ClashClient& client,
                       clash::ResolveOutcome& out)>;

struct LoopConfig {
  const clash::ClashConfig* clash = nullptr;
  clash::dht::KeyHasher hasher{32};
  std::uint64_t seed = 1;
  bool trace = false;
  /// Stop after this long, or after max_ops (whichever first).
  double seconds = 1;
  std::uint64_t max_ops = UINT64_MAX;
  double window_s = 1;
};

LoopStats run_resolve_loop(clash::ClientEnv& inner, const LoopConfig& cfg,
                           SpanLog& spans, const LoopOp& op);

/// Per-layer metrics of a traced loop: client self time, DHT lookup,
/// RPC round trips, unattributed remainder and tracing overhead.
void add_client_layers(Result& out, const LoopStats& s);

}  // namespace perfbench
