// Durable storage over real TCP: a ClashNode restarted against its
// data directory recovers its groups from local disk — WAL + snapshot
// files through storage::FileBackend — instead of pulling them over
// the network, and reconciles with the surviving replica set through
// anti-entropy only.
#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <thread>

#include "clash/bootstrap.hpp"
#include "net/blocking_client.hpp"
#include "net/node.hpp"
#include "tests/net/probed_ports.hpp"

namespace clash::net {
namespace {

constexpr unsigned kWidth = 16;

std::string fresh_dir(const char* tag) {
  static int counter = 0;
  char buf[128];
  std::snprintf(buf, sizeof(buf), "/tmp/clash_durable_%s_%d_%d", tag,
                int(::getpid()), counter++);
  return buf;
}

ClashConfig durable_clash(unsigned factor) {
  ClashConfig clash;
  clash.key_width = kWidth;
  clash.initial_depth = 2;
  clash.capacity = 10000;
  clash.replication_factor = factor;
  clash.durability_mode = ClashConfig::DurabilityMode::kWalSnapshot;
  clash.fsync_policy = ClashConfig::FsyncPolicy::kPerAppend;
  return clash;
}

template <typename Pred>
bool eventually(Pred pred, int rounds = 300) {
  for (int i = 0; i < rounds; ++i) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return false;
}

TEST(DurableRestartNet, SingleNodeRecoversEverythingFromItsDataDir) {
  const std::string dir = fresh_dir("single");
  NodeConfig cfg;
  cfg.id = ServerId{0};
  cfg.listen = Endpoint{"127.0.0.1", 0};
  cfg.members[cfg.id] = cfg.listen;
  cfg.clash = durable_clash(0);
  cfg.storage_dir = dir;
  cfg.load_check_interval = std::chrono::milliseconds(25);
  cfg.enable_membership = false;

  constexpr std::size_t kStreams = 24;
  constexpr std::size_t kQueries = 6;
  std::uint16_t port = 0;
  {
    ClashNode node(cfg);
    dht::ChordRing ring(dht::ChordRing::Config{
        32, cfg.virtual_servers, cfg.hash_algo, cfg.ring_salt});
    ring.add_server(cfg.id);
    const auto entries =
        compute_bootstrap_entries(ring, ring.hasher(), cfg.clash);
    const auto it = entries.find(cfg.id);
    ASSERT_NE(it, entries.end());
    node.install_entries(it->second);
    node.start();
    port = node.port();

    BlockingClient::Config ccfg;
    ccfg.members = {{cfg.id, Endpoint{"127.0.0.1", port}}};
    ccfg.ring_salt = cfg.ring_salt;
    BlockingClient env(ccfg);
    ClashClient client(cfg.clash, env, env.hasher());
    for (std::size_t i = 0; i < kStreams; ++i) {
      AcceptObject obj;
      obj.key = Key((0x1111 * (i + 3)) & 0xFFFF, kWidth);
      obj.kind = ObjectKind::kData;
      obj.source = ClientId{i};
      obj.stream_rate = 1;
      ASSERT_TRUE(client.insert(obj).ok);
    }
    for (std::size_t i = 0; i < kQueries; ++i) {
      AcceptObject obj;
      obj.key = Key((0x0731 * (i + 1)) & 0xFFFF, kWidth);
      obj.kind = ObjectKind::kQuery;
      obj.query_id = QueryId{i};
      ASSERT_TRUE(client.insert(obj).ok);
    }
    node.stop();  // per-append fsync: everything already on disk
  }

  // A fresh process over the same data directory: no bootstrap
  // entries installed — every group must come off the disk.
  ClashNode node(cfg);
  node.start();
  EXPECT_TRUE(eventually([&] {
    return node.run_on_loop([](ClashServer& s) {
             return s.total_streams() + s.total_queries();
           }) == kStreams + kQueries;
  })) << "restart did not recover the stored groups";
  const auto streams =
      node.run_on_loop([](ClashServer& s) { return s.total_streams(); });
  const auto queries =
      node.run_on_loop([](ClashServer& s) { return s.total_queries(); });
  EXPECT_EQ(streams, kStreams);
  EXPECT_EQ(queries, kQueries);

  // And it serves reads again through a real socket.
  BlockingClient::Config ccfg;
  ccfg.members = {{cfg.id, Endpoint{"127.0.0.1", node.port()}}};
  ccfg.ring_salt = cfg.ring_salt;
  BlockingClient env(ccfg);
  ClashClient client(cfg.clash, env, env.hasher());
  AcceptObject probe;
  probe.key = Key((0x1111 * 3) & 0xFFFF, kWidth);
  probe.kind = ObjectKind::kData;
  probe.source = ClientId{99};
  probe.stream_rate = 1;
  probe.probe_only = true;
  EXPECT_TRUE(client.insert(probe).ok);
  node.stop();
}

TEST(DurableRestartNet, QuickRestartKeepsOwnershipWithoutSnapshotPull) {
  // Two nodes, replica factor 1: node 1's groups replicate to node 0.
  // Node 1 restarts faster than SWIM's suspicion timeout, so it is
  // never evicted; it must re-own its groups straight from disk — the
  // recovery probes find the replica set at the same heads and stream
  // nothing.
  std::vector<NodeConfig> configs(2);
  std::map<ServerId, Endpoint> members;
  const std::string dirs[2] = {fresh_dir("quick0"), fresh_dir("quick1")};
  for (std::size_t i = 0; i < 2; ++i) {
    auto& cfg = configs[i];
    cfg.id = ServerId{i};
    cfg.clash = durable_clash(1);
    cfg.storage_dir = dirs[i];
    cfg.ring_salt = 99;
    cfg.load_check_interval = std::chrono::milliseconds(25);
    cfg.protocol_period = std::chrono::milliseconds(50);
    cfg.recovery_grace = std::chrono::milliseconds(80);
    // A quick restart must beat the death verdict.
    cfg.membership.suspicion_periods = 40;
  }
  dht::ChordRing ring(dht::ChordRing::Config{32, 8,
                                             dht::KeyHasher::Algo::kSha1,
                                             99});
  ring.add_server(ServerId{0});
  ring.add_server(ServerId{1});
  const auto entries =
      compute_bootstrap_entries(ring, ring.hasher(), configs[0].clash);

  auto nodes = testing::start_on_probed_ports(
      configs, members, [&entries](std::size_t i, ClashNode& node) {
        const auto it = entries.find(ServerId{i});
        if (it != entries.end()) node.install_entries(it->second);
      });

  BlockingClient::Config ccfg;
  ccfg.members = members;
  ccfg.ring_salt = 99;
  BlockingClient env(ccfg);
  ClashClient client(configs[0].clash, env, env.hasher());
  constexpr std::size_t kStreams = 20;
  for (std::size_t i = 0; i < kStreams; ++i) {
    AcceptObject obj;
    obj.key = Key((0x3131 * (i + 1)) & 0xFFFF, kWidth);
    obj.kind = ObjectKind::kData;
    obj.source = ClientId{i};
    obj.stream_rate = 1;
    ASSERT_TRUE(client.insert(obj).ok);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  const auto before = nodes[1]->run_on_loop(
      [](ClashServer& s) { return s.total_streams(); });
  ASSERT_GT(before, 0u) << "node 1 owns nothing; pick different keys";

  // Quick restart: stop, new process over the same data dir.
  nodes[1]->stop();
  nodes[1] = std::make_unique<ClashNode>(configs[1]);
  nodes[1]->start();

  EXPECT_TRUE(eventually([&] {
    return nodes[1]->run_on_loop(
               [](ClashServer& s) { return s.total_streams(); }) == before;
  })) << "restarted node did not re-own its groups from disk";

  // Local disk, not a peer snapshot, carried the state.
  const auto pulled = nodes[1]->run_on_loop([](ClashServer& s) {
    return s.recovery_stats().snapshots_pulled;
  });
  EXPECT_EQ(pulled, 0u);
  const auto lost = nodes[1]->run_on_loop(
      [](ClashServer& s) { return s.stats().groups_lost; });
  EXPECT_EQ(lost, 0u);

  // Nothing lost cluster-wide.
  std::size_t total = 0;
  for (auto& node : nodes) {
    total += node->run_on_loop(
        [](ClashServer& s) { return s.total_streams(); });
  }
  EXPECT_EQ(total, kStreams);
  for (auto& node : nodes) node->stop();
}

}  // namespace
}  // namespace clash::net
