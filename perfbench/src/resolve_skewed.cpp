// resolve_skewed: a closed loop of one synchronous ClashClient over
// BlockingClient (cache off) against the 3-node cluster: 90% probe-only
// resolves, 10% same-rate re-registrations of hot streams. The tree is
// pre-split during set-up by a fixed set of hot streams, 80% of them
// crowded under one root prefix, with load checks driven back to back
// until no split or merge happens for a while; the timed keys are
// skewed toward the deep part of that tree. The work falls on client
// depth search, SHA-1 hashing plus ring lookup, and ServerTable lookups
// over a deep table; the write path gets little.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <thread>

#include "bench.hpp"
#include "cluster.hpp"
#include "common/rng.hpp"
#include "isolate.hpp"
#include "net/blocking_client.hpp"
#include "resolve_loop.hpp"

namespace perfbench {
namespace {

using clash::ServerId;

constexpr int kSetups = 11;
constexpr int kSetupsBefore = 6;  // the rest follow the timed window
constexpr double kCapacity = 1000;
constexpr std::size_t kHot = 64;
constexpr std::size_t kHotUnderPrefix = 51;  // ~80%
constexpr double kHotRate = 30;
constexpr std::uint64_t kPrefix = 0b101101;     // the crowded root (6 bits)
constexpr std::uint64_t kStreet = 0x2b5;        // next 10 bits of hot keys
constexpr double kWriteFrac = 0.10;
constexpr int kQuietRounds = 8;
constexpr int kMaxRounds = 3000;

struct Hot {
  clash::Key key{0, 24};
  clash::ClientId source;
  std::size_t node = 0;
};

/// The fixed hot set that shapes the tree (not seeded: every run
/// measures against the same pre-split tree).
std::vector<Hot> hot_streams() {
  std::vector<Hot> hot;
  clash::Rng rng(0xc1a5b00cULL);
  for (std::size_t j = 0; j < kHot; ++j) {
    const std::uint64_t v =
        j < kHotUnderPrefix
            ? (kPrefix << 18) | (kStreet << 8) | ((j * 37) & 0xff)
            : rng.below(std::uint64_t{1} << 24);
    hot.push_back(Hot{clash::Key(v, 24), clash::ClientId{1'000'000 + j}, 0});
  }
  return hot;
}

/// A timed key: half in the hot street, 30% elsewhere under the
/// crowded prefix, 20% anywhere.
clash::Key draw_key(clash::Rng& rng) {
  const double u = rng.uniform01();
  if (u < 0.5) {
    return clash::Key((kPrefix << 18) | (kStreet << 8) | rng.below(256), 24);
  }
  if (u < 0.8) return clash::Key((kPrefix << 18) | rng.below(1u << 18), 24);
  return clash::Key(rng.below(std::uint64_t{1} << 24), 24);
}

clash::AcceptObject registration(const Hot& h) {
  clash::AcceptObject o;
  o.key = h.key;
  o.kind = clash::ObjectKind::kData;
  o.source = h.source;
  o.stream_rate = kHotRate;
  return o;
}

clash::net::BlockingClient::Config client_config(const LocalCluster& c) {
  clash::net::BlockingClient::Config cfg;
  cfg.members = c.members();
  cfg.ring_salt = LocalCluster::ring_salt();
  return cfg;
}

/// Start the cluster, register the hot streams, then drive load checks
/// round-robin until the tree has been quiet for kQuietRounds rounds.
std::unique_ptr<LocalCluster> set_up(const Options& opt, int attempt,
                                     const std::vector<Hot>& hot,
                                     Result& res) {
  ClusterSpec spec;
  spec.clash = tcp_clash_config();
  spec.clash.capacity = kCapacity;
  spec.load_check_interval = std::chrono::hours(1);  // driven below
  spec.data_dir = opt.work_dir + "/resolve-" + std::to_string(::getpid()) +
                  "-" + std::to_string(attempt);
  auto cluster = std::make_unique<LocalCluster>(spec);
  res.check(cluster->wait_converged(std::chrono::seconds(10)),
            "membership did not converge");

  clash::net::BlockingClient env(client_config(*cluster));
  clash::ClashClient client(spec.clash, env, env.hasher());
  for (const auto& h : hot) {
    if (!client.insert(registration(h)).ok) {
      res.errors.push_back("hot stream registration failed");
      return cluster;
    }
  }
  res.check(env.transport_errors() == 0, "set-up client transport errors");

  // A node's splits and merges are read in the same hop as its check:
  // set-up time follows the number of sequential cross-thread hops.
  std::uint64_t last = 0;
  int quiet = 0, round = 0;
  for (; round < kMaxRounds && quiet < kQuietRounds; ++round) {
    std::uint64_t changes = 0;
    for (std::size_t i = 0; i < LocalCluster::kNodes; ++i) {
      changes += cluster->node(i).run_on_loop([](clash::ClashServer& s) {
        s.run_load_check();
        return s.stats().splits + s.stats().merges;
      });
    }
    // Let the round's group transfers land before the next checks.
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    quiet = changes == last ? quiet + 1 : 0;
    last = changes;
  }
  res.check(quiet >= kQuietRounds, "the pre-split tree did not settle");
  return cluster;
}

}  // namespace

Result run_resolve_skewed(const Options& opt) {
  Result res;
  std::vector<Hot> hot = hot_streams();

  std::unique_ptr<LocalCluster> cluster;
  flush_fs(opt.work_dir);  // earlier runs' and the build's writes
  // Set-ups are timed before the window and again after it, so that
  // their median samples the host at both ends of the run.
  SetupTimes setups;
  const auto time_set_ups = [&](int n) {
    for (int k = 0; k < n && res.errors.empty(); ++k) {
      cluster.reset();  // teardown is not set-up
      cluster = setups.time([&] {
        return set_up(opt, int(setups.cpu_s.size()), hot, res);
      });
    }
  };
  time_set_ups(kSetupsBefore);
  if (!res.errors.empty()) return res;

  const auto groups = cluster->active_groups();
  std::vector<unsigned> depths;
  for (const auto& [g, _] : groups) depths.push_back(g.depth());
  const ClusterReading start = cluster->read();
  {
    char line[160];
    std::snprintf(line, sizeof(line),
                  "pre-split tree: %zu active groups, depths %u..%u, "
                  "%llu splits, %llu merges",
                  groups.size(),
                  *std::min_element(depths.begin(), depths.end()),
                  *std::max_element(depths.begin(), depths.end()),
                  (unsigned long long)start.msgs.splits,
                  (unsigned long long)start.msgs.merges);
    res.notes.push_back(line);
  }
  for (auto& h : hot) {
    h.node = std::size_t(group_for(groups, h.key)->second.value);
  }

  // --- Timed closed loop -----------------------------------------------
  clash::net::BlockingClient env(client_config(*cluster));
  clash::Rng rng(opt.seed * 0x9e3779b97f4a7c15ULL + 7);
  std::vector<clash::Key> keys;  // for the isolation timings
  std::uint64_t writes = 0;
  cluster->reset_registries();
  const ClusterReading window_start = cluster->read();
  LoopConfig lc;
  lc.clash = &cluster->clash();
  lc.hasher = env.hasher();
  lc.seed = opt.seed;
  lc.trace = opt.trace;
  lc.seconds = opt.seconds;
  SpanLog spans;
  const LoopStats loop = run_resolve_loop(
      env, lc, spans,
      [&](std::uint64_t, clash::ClashClient& client,
          clash::ResolveOutcome& out) {
        clash::Key key{0, 24};
        if (rng.uniform01() < kWriteFrac) {
          const Hot& h = hot[rng.below(hot.size())];
          key = h.key;
          out = client.insert(registration(h));
          ++writes;
        } else {
          key = draw_key(rng);
          out = client.resolve(key);
        }
        if (keys.size() < 100'000) keys.push_back(key);
        const auto* g = group_for(groups, key);
        return g != nullptr && out.depth == g->first.depth() &&
               out.server == g->second;
      });
  const ClusterReading window_end = cluster->read();

  // --- Correctness -------------------------------------------------------
  res.attempted = loop.ops;
  res.failed = loop.failed + loop.wrong;
  res.check(loop.wrong == 0, "a reply named the wrong group depth or owner");
  res.check(env.transport_errors() == 0, "client transport errors");
  res.check(window_end.msgs.splits == start.msgs.splits &&
                window_end.msgs.merges == start.msgs.merges,
            "the tree split or merged inside the timed window");
  std::vector<std::size_t> want(LocalCluster::kNodes, 0);
  for (const auto& h : hot) ++want[h.node];
  for (std::size_t i = 0; i < LocalCluster::kNodes; ++i) {
    res.check(cluster->streams(i) == want[i] && cluster->queries(i) == 0,
              "node" + std::to_string(i) +
                  " stream/query counts differ from the hot set");
  }
  std::string lag;
  res.check(cluster->heads_converged(std::chrono::seconds(10), &lag),
            "replica log heads did not converge: " + lag);

  // --- End-to-end metrics ---------------------------------------------
  const double ops = double(std::max<std::uint64_t>(1, loop.ops));
  // Other tenants' load only ever adds CPU time: the least-disturbed
  // window is the figure.
  res.set("cpu_us_per_op", quantile(loop.win_cpu_us_per_op, 0), "us");
  res.set("msgs_per_op", frames_per_op(window_start, window_end, ops),
          "count");
  res.set("ops_per_s", median(loop.win_ops_per_s), "1/s");
  res.set("p50_us", median(loop.win_p50_us), "us");
  res.set("p99_us", median(loop.win_p99_us), "us");
  res.set("probes_per_op", double(loop.probes) / ops, "count");
  res.set("fail_frac", double(res.failed) / ops, "ratio");
  res.set("peak_rss_mb", peak_rss_mb(), "MB");
  // The traced part below works on the last set-up's cluster: the same
  // configuration and tree as the one timed.
  time_set_ups(kSetups - kSetupsBefore);
  setups.report(res);
  if (!opt.trace) return res;

  // --- Per-layer metrics (traced run) ------------------------------------
  add_client_layers(res, loop);
  add_cluster_layers(res, window_start, window_end, ops);
  res.set("dht.hash_ns", time_hash_ns(env.hasher(), keys), "ns");
  const clash::ServerTable table = cluster->hottest_table();
  const TableTimes tt = time_table_ns(table, keys);
  res.set("server.table_entries", double(table.size()), "count");
  res.set("server.lpm_ns", tt.lpm_ns, "ns");
  res.set("server.entry_for_ns", tt.entry_for_ns, "ns");
  std::vector<clash::AcceptObject> objs;
  for (std::size_t i = 0; i < keys.size() && i < 20'000; ++i) {
    clash::AcceptObject o;
    o.key = keys[i];
    o.depth = group_for(groups, keys[i])->first.depth();
    o.source = clash::ClientId{i};
    o.stream_rate = kHotRate;
    objs.push_back(o);
  }
  const CodecTimes ct = time_codec_ns(objs);
  res.set("wire.encode_ns", ct.encode_ns, "ns");
  res.set("wire.decode_ns", ct.decode_ns, "ns");
  res.set("wal.append_ns",
          time_wal_append_ns(opt.work_dir + "/wal-iso-" +
                                 std::to_string(::getpid()),
                             cluster->clash(), objs),
          "ns");
  res.set("gossip.msgs_per_s", idle_gossip_per_s(*cluster), "1/s");
  spans.write_chrome(opt.work_dir + "/trace-resolve_skewed-" +
                     std::to_string(opt.seed) + ".json");
  {
    char line[160];
    std::snprintf(line, sizeof(line), "timed window: %llu ops, %llu writes",
                  (unsigned long long)loop.ops, (unsigned long long)writes);
    res.notes.push_back(line);
  }
  return res;
}

}  // namespace perfbench
