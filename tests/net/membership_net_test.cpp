// SWIM membership over real TCP: survivors detect a stopped node via
// missed pings, shrink their rings, and promote their replicas of the
// dead node's groups (automatic failover) — plus the run_on_loop/stop
// race regression test.
#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "clash/bootstrap.hpp"
#include "net/blocking_client.hpp"
#include "net/node.hpp"
#include "tests/net/probed_ports.hpp"

namespace clash::net {
namespace {

constexpr unsigned kWidth = 16;
constexpr unsigned kInitialDepth = 3;
constexpr std::size_t kNodes = 4;

struct MemberNetCluster {
  explicit MemberNetCluster(unsigned replication = 2) {
    ClashConfig clash;
    clash.key_width = kWidth;
    clash.initial_depth = kInitialDepth;
    clash.capacity = 10000;  // no load-driven splits in these tests
    clash.replication_factor = replication;

    std::map<ServerId, Endpoint> members;
    for (std::size_t i = 0; i < kNodes; ++i) {
      NodeConfig cfg;
      cfg.id = ServerId{i};
      cfg.listen = Endpoint{"127.0.0.1", 0};
      cfg.members[cfg.id] = cfg.listen;
      cfg.clash = clash;
      cfg.ring_salt = 77;
      cfg.load_check_interval = std::chrono::milliseconds(25);
      cfg.protocol_period = std::chrono::milliseconds(20);
      configs.push_back(cfg);
    }
    ring = std::make_unique<dht::ChordRing>(dht::ChordRing::Config{
        32, 8, dht::KeyHasher::Algo::kSha1, 77});
    for (std::size_t i = 0; i < kNodes; ++i) ring->add_server(ServerId{i});
    const auto entries =
        compute_bootstrap_entries(*ring, ring->hasher(), clash);
    nodes = testing::start_on_probed_ports(
        configs, members, [&entries](std::size_t, ClashNode& node) {
          const auto it = entries.find(node.id());
          if (it != entries.end()) node.install_entries(it->second);
        });
  }

  ~MemberNetCluster() {
    for (auto& node : nodes) node->stop();
  }

  /// Poll until `pred` holds or ~5 s pass.
  template <typename Pred>
  bool eventually(Pred pred) {
    for (int i = 0; i < 250; ++i) {
      if (pred()) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    return false;
  }

  std::vector<NodeConfig> configs;
  std::vector<std::unique_ptr<ClashNode>> nodes;
  std::unique_ptr<dht::ChordRing> ring;
};

TEST(MembershipNet, HealthyClusterSeesEveryoneAlive) {
  MemberNetCluster cluster(/*replication=*/0);
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  for (auto& node : cluster.nodes) {
    EXPECT_EQ(node->ring_server_count(), kNodes);
    for (std::size_t j = 0; j < kNodes; ++j) {
      EXPECT_EQ(node->member_state(ServerId{j}), MemberState::kAlive)
          << to_string(node->id()) << " -> " << j;
    }
  }
}

TEST(MembershipNet, StoppedNodeIsDetectedEvictedAndFailedOver) {
  MemberNetCluster cluster(/*replication=*/2);

  // Register streams across the key space through real sockets.
  BlockingClient::Config ccfg;
  ccfg.members = cluster.configs[0].members;
  ccfg.ring_salt = 77;
  BlockingClient env(ccfg);
  ClashClient client(cluster.configs[0].clash, env, env.hasher());
  constexpr std::size_t kStreams = 12;
  for (std::size_t i = 0; i < kStreams; ++i) {
    AcceptObject obj;
    obj.key = Key((0x1111 * (i + 1)) & 0xFFFF, kWidth);
    obj.kind = ObjectKind::kData;
    obj.source = ClientId{i};
    obj.stream_rate = 1;
    ASSERT_TRUE(client.insert(obj).ok);
  }
  // A few load-check rounds so every group's replicas are in sync.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));

  // Kill the owner of the first key.
  const ServerId victim = cluster.ring->map(
      cluster.ring->hasher().hash_key(shape(Key(0x1111, kWidth),
                                            kInitialDepth)));
  const std::size_t victim_streams =
      cluster.nodes[victim.value]->run_on_loop(
          [](ClashServer& s) { return s.total_streams(); });
  ASSERT_GT(victim_streams, 0u);
  cluster.nodes[victim.value]->stop();

  // Survivors declare it dead and shrink their rings.
  const bool converged = cluster.eventually([&] {
    for (auto& node : cluster.nodes) {
      if (node->id() == victim) continue;
      if (node->member_state(victim) != MemberState::kDead) return false;
      if (node->ring_server_count() != kNodes - 1) return false;
    }
    return true;
  });
  ASSERT_TRUE(converged) << "survivors never declared " << to_string(victim)
                         << " dead";

  // Automatic failover: every stream survived on some live node.
  const bool recovered = cluster.eventually([&] {
    std::size_t total = 0;
    std::uint64_t failovers = 0;
    for (auto& node : cluster.nodes) {
      if (node->id() == victim) continue;
      total += node->run_on_loop(
          [](ClashServer& s) { return s.total_streams(); });
      failovers += node->run_on_loop(
          [](ClashServer& s) { return s.stats().failovers; });
    }
    return total == kStreams && failovers > 0;
  });
  EXPECT_TRUE(recovered) << "streams were not promoted onto survivors";
}

TEST(MembershipNet, DisabledMembershipKeepsStaticView) {
  ClashConfig clash;
  clash.key_width = kWidth;
  NodeConfig cfg;
  cfg.id = ServerId{0};
  cfg.listen = Endpoint{"127.0.0.1", 0};
  cfg.members[cfg.id] = cfg.listen;
  cfg.members[ServerId{1}] = Endpoint{"127.0.0.1", 1};  // never started
  cfg.clash = clash;
  cfg.enable_membership = false;
  cfg.protocol_period = std::chrono::milliseconds(10);
  ClashNode node(cfg);
  node.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  // No detector runs: the unreachable peer stays in the static view.
  EXPECT_EQ(node.ring_server_count(), 2u);
  EXPECT_EQ(node.member_state(ServerId{1}), MemberState::kAlive);
  node.stop();
}

TEST(MembershipNet, RunOnLoopNeverHangsAcrossStop) {
  // Regression for the stop() race: a run_on_loop whose posted lambda
  // lands after the loop's last iteration used to wait forever on the
  // promise. Hammer run_on_loop from another thread while stopping.
  for (int round = 0; round < 20; ++round) {
    NodeConfig cfg;
    cfg.id = ServerId{0};
    cfg.listen = Endpoint{"127.0.0.1", 0};
    cfg.members[cfg.id] = cfg.listen;
    cfg.enable_membership = false;
    ClashNode node(cfg);
    node.start();

    std::thread prober([&] {
      for (int i = 0; i < 200; ++i) {
        (void)node.run_on_loop(
            [](ClashServer& s) { return s.total_streams(); });
      }
    });
    std::this_thread::sleep_for(std::chrono::microseconds(50 * round));
    node.stop();
    prober.join();  // hangs here if the race regresses
  }
  SUCCEED();
}

}  // namespace
}  // namespace clash::net
