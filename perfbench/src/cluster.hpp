// The TCP workloads' system under test: three net::ClashNodes on
// loopback in this process, log replication r=2 and a WAL with
// interval fsync, bootstrapped from the shared Chord ring. The harness
// only drives the nodes through their public, thread-safe doors
// (run_on_loop, scrape_text) and reads what they already export.
#pragma once

#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "clash/config.hpp"
#include "clash/stats.hpp"
#include "dht/chord.hpp"
#include "keys/key.hpp"
#include "keys/key_group.hpp"
#include "net/node.hpp"

namespace perfbench {

/// Flush every pending write of the file system holding `dir`, so
/// that nothing written or deleted before is still on its way to disk
/// when a set-up's fsyncs are timed.
void flush_fs(const std::string& dir);

struct ClusterSpec {
  clash::ClashConfig clash;
  std::chrono::microseconds load_check_interval = std::chrono::seconds(1);
  /// Parent of the per-node WAL directories (removed on teardown).
  std::string data_dir;
};

/// The standard TCP configuration both TCP workloads share.
[[nodiscard]] clash::ClashConfig tcp_clash_config();

/// Counter readings summed over the nodes (plus per-node extremes),
/// taken between phases; deltas of two readings price a window.
struct ClusterReading {
  std::int64_t at_ns = 0;
  clash::MessageStats msgs;
  /// Exposition series summed over nodes (histogram quantiles are
  /// max-over-nodes instead: they do not add).
  std::map<std::string, double> series;
  /// clash_loop_tick_usec_sum per node.
  std::vector<double> tick_usec;
  std::uint64_t wal_records = 0;
  std::uint64_t wal_bytes = 0;
  std::uint64_t wal_syncs = 0;

  [[nodiscard]] double get(const std::string& name) const {
    const auto it = series.find(name);
    return it == series.end() ? 0.0 : it->second;
  }
};

class LocalCluster {
 public:
  static constexpr std::size_t kNodes = 3;

  explicit LocalCluster(const ClusterSpec& spec);
  ~LocalCluster();

  LocalCluster(const LocalCluster&) = delete;
  LocalCluster& operator=(const LocalCluster&) = delete;

  [[nodiscard]] const std::map<clash::ServerId, clash::net::Endpoint>&
  members() const {
    return members_;
  }
  [[nodiscard]] clash::net::ClashNode& node(std::size_t i) {
    return *nodes_[i];
  }
  [[nodiscard]] const clash::ClashConfig& clash() const {
    return spec_.clash;
  }
  [[nodiscard]] const clash::dht::ChordRing& ring() const { return *ring_; }
  [[nodiscard]] static constexpr std::uint64_t ring_salt() { return 77; }

  /// Every node sees every other node alive on its ring.
  bool wait_converged(std::chrono::milliseconds limit);

  /// Active group -> owning node, over the whole cluster.
  [[nodiscard]] std::map<clash::KeyGroup, clash::ServerId> active_groups();

  /// Streams / queries stored by node `i`.
  [[nodiscard]] std::size_t streams(std::size_t i);
  [[nodiscard]] std::size_t queries(std::size_t i);

  /// True once every owned group's log head equals its head at each
  /// replica holder (polls up to `limit`). `detail` names a laggard.
  bool heads_converged(std::chrono::milliseconds limit, std::string* detail);

  /// Protocol counters summed over the nodes (cheap: no scrape).
  [[nodiscard]] clash::MessageStats stats();

  /// Zero every node's metrics registry (window start for histograms).
  void reset_registries();
  [[nodiscard]] ClusterReading read();

  /// Largest server table in the cluster (copied off its loop).
  [[nodiscard]] clash::ServerTable hottest_table();

 private:
  ClusterSpec spec_;
  std::map<clash::ServerId, clash::net::Endpoint> members_;
  std::unique_ptr<clash::dht::ChordRing> ring_;
  std::vector<std::unique_ptr<clash::net::ClashNode>> nodes_;
};

struct Result;

/// Per-layer metrics of the window between readings `a` and `b`
/// (registries reset at `a`), priced per completed operation:
/// net/loop/repl/wal counters the nodes export.
void add_cluster_layers(Result& out, const ClusterReading& a,
                        const ClusterReading& b, double ops);

/// Frames the nodes sent between readings `a` and `b`, per operation:
/// replies, replication, gossip — the TCP workloads' msgs_per_op.
[[nodiscard]] double frames_per_op(const ClusterReading& a,
                                   const ClusterReading& b, double ops);

/// Background frames per second on the idle cluster (SWIM gossip):
/// frames sent over one quiet second, minus the protocol messages the
/// servers themselves count.
[[nodiscard]] double idle_gossip_per_s(LocalCluster& cluster);

/// The group of `groups` containing `key` (nullptr: none).
[[nodiscard]] const std::pair<const clash::KeyGroup, clash::ServerId>*
group_for(const std::map<clash::KeyGroup, clash::ServerId>& groups,
          const clash::Key& key);

}  // namespace perfbench
