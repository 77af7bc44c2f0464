// Replication & recovery over real TCP (log mode): continuous queries
// survive the owner's death — SWIM detects it, the heir holds the
// promotion open for the recovery-grace window while peers stream the
// missing log suffix, and matches keep firing on the promoted node's
// stream engine. A stopped node restarted in place is re-admitted via
// incarnation refutation and receives its groups back with state
// (the rejoin-gap fix) instead of serving them empty. When the heir
// dies inside its grace window, the next holder takes the group over.
#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <memory>
#include <thread>

#include "clash/bootstrap.hpp"
#include "cq/engine_hooks.hpp"
#include "net/blocking_client.hpp"
#include "net/node.hpp"
#include "tests/net/probed_ports.hpp"

namespace clash::net {
namespace {

constexpr unsigned kWidth = 16;
constexpr unsigned kInitialDepth = 3;
constexpr std::size_t kNodes = 4;

struct RecoveryNetCluster {
  /// Edits the node configs before any node starts; `ring` is the
  /// cluster's own seed ring.
  using Tune = std::function<void(const dht::ChordRing& ring,
                                  std::vector<NodeConfig>& configs)>;

  explicit RecoveryNetCluster(const Tune& tune = nullptr) {
    ClashConfig clash;
    clash.key_width = kWidth;
    clash.initial_depth = kInitialDepth;
    clash.capacity = 10000;  // no load-driven splits
    clash.replication_factor = 2;

    std::map<ServerId, Endpoint> members;
    for (std::size_t i = 0; i < kNodes; ++i) {
      NodeConfig cfg;
      cfg.id = ServerId{i};
      cfg.clash = clash;
      cfg.ring_salt = 77;
      cfg.load_check_interval = std::chrono::milliseconds(25);
      cfg.protocol_period = std::chrono::milliseconds(20);
      cfg.recovery_grace = std::chrono::milliseconds(60);
      configs.push_back(cfg);
    }

    ring = std::make_unique<dht::ChordRing>(dht::ChordRing::Config{
        32, 8, dht::KeyHasher::Algo::kSha1, 77});
    for (std::size_t i = 0; i < kNodes; ++i) ring->add_server(ServerId{i});
    if (tune) tune(*ring, configs);
    const auto entries =
        compute_bootstrap_entries(*ring, ring->hasher(), clash);
    engines.resize(kNodes);
    hooks.resize(kNodes);
    nodes = testing::start_on_probed_ports(
        configs, members, [&](std::size_t i, ClashNode& node) {
          bind_hooks(i, node);
          const auto it = entries.find(node.id());
          if (it != entries.end()) node.install_entries(it->second);
        });
  }

  ~RecoveryNetCluster() {
    for (auto& node : nodes) {
      if (node != nullptr) node->stop();
    }
  }

  /// Give node `i` a fresh engine + hooks and bind them.
  void bind_hooks(std::size_t i, ClashNode& node) {
    engines[i] = std::make_unique<cq::StreamEngine>(kWidth);
    hooks[i] = std::make_unique<cq::EngineHooks>(*engines[i]);
    (void)node.run_on_loop([&, i](ClashServer& s) {
      hooks[i]->bind(&s);
      s.set_app_hooks(hooks[i].get());
      return true;
    });
  }

  /// Recreate node `i` (same port, same data) with fresh hooks.
  void boot(std::size_t i) {
    nodes[i] = std::make_unique<ClashNode>(configs[i]);
    bind_hooks(i, *nodes[i]);
  }

  template <typename Pred>
  bool eventually(Pred pred, int rounds = 400) {
    for (int i = 0; i < rounds; ++i) {
      if (pred()) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    return false;
  }

  /// Fire a record on node `i`'s engine, serialised onto its loop.
  std::size_t fire(std::size_t i, const Key& key) {
    return nodes[i]->run_on_loop([&, i](ClashServer&) {
      return engines[i]->process(cq::Record{key, {}});
    });
  }

  /// The live node whose table actively covers `key` (SIZE_MAX: none).
  std::size_t owner_of(const Key& key, std::size_t skip = SIZE_MAX) {
    for (std::size_t i = 0; i < kNodes; ++i) {
      if (i == skip || nodes[i] == nullptr || !nodes[i]->running()) continue;
      const bool active = nodes[i]->run_on_loop([&](ClashServer& s) {
        return s.table().active_entry_for(key) != nullptr;
      });
      if (active) return i;
    }
    return SIZE_MAX;
  }

  std::vector<NodeConfig> configs;
  std::vector<std::unique_ptr<ClashNode>> nodes;
  std::vector<std::unique_ptr<cq::StreamEngine>> engines;
  std::vector<std::unique_ptr<cq::EngineHooks>> hooks;
  std::unique_ptr<dht::ChordRing> ring;
};

TEST(RecoveryNet, QueriesSurviveOwnerDeathAndKeepFiring) {
  RecoveryNetCluster cluster;

  // Register continuous queries through real sockets, and mirror each
  // into the owner's stream engine (app delta through the log).
  BlockingClient::Config ccfg;
  ccfg.members = cluster.configs[0].members;
  ccfg.ring_salt = 77;
  BlockingClient env(ccfg);
  ClashClient client(cluster.configs[0].clash, env, env.hasher());
  constexpr std::size_t kQueries = 12;
  std::vector<Key> keys;
  for (std::size_t i = 0; i < kQueries; ++i) {
    AcceptObject obj;
    obj.key = Key((0x1357 * (i + 1)) & 0xFFFF, kWidth);
    obj.kind = ObjectKind::kQuery;
    obj.query_id = QueryId{i};
    ASSERT_TRUE(client.insert(obj).ok);
    keys.push_back(obj.key);
    const std::size_t owner = cluster.owner_of(obj.key);
    ASSERT_NE(owner, SIZE_MAX);
    const bool registered =
        cluster.nodes[owner]->run_on_loop([&](ClashServer&) {
          cq::ContinuousQuery q;
          q.id = QueryId{i};
          q.scope = KeyGroup::of(obj.key, kWidth);
          return cluster.hooks[owner]->register_query(q);
        });
    ASSERT_TRUE(registered) << "query " << i;
  }
  // Let appends/snapshots reach the replica sets.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));

  const ServerId victim = cluster.ring->map(
      cluster.ring->hasher().hash_key(shape(keys[0], kInitialDepth)));
  ASSERT_GT(cluster.fire(victim.value, keys[0]), 0u);  // fires pre-kill
  cluster.nodes[victim.value]->stop();

  // Survivors converge, promote with recovery, and every query
  // reappears on a live node.
  const bool recovered = cluster.eventually([&] {
    std::size_t total = 0;
    for (auto& node : cluster.nodes) {
      if (node->id() == victim) continue;
      if (node->member_state(victim) != MemberState::kDead) return false;
      total +=
          node->run_on_loop([](ClashServer& s) { return s.total_queries(); });
    }
    return total == kQueries;
  });
  ASSERT_TRUE(recovered) << "queries lost in failover";

  // The app-level query state came along: the promoted owner's engine
  // still matches the record.
  const std::size_t heir = cluster.owner_of(keys[0], victim.value);
  ASSERT_NE(heir, SIZE_MAX);
  EXPECT_GT(cluster.fire(heir, keys[0]), 0u)
      << "promoted owner lost the app query state";
  std::uint64_t lost = 0;
  for (auto& node : cluster.nodes) {
    if (node->id() == victim) continue;
    lost += node->run_on_loop(
        [](ClashServer& s) { return s.stats().groups_lost; });
  }
  EXPECT_EQ(lost, 0u);
}

TEST(RecoveryNet, ThirdHolderTakesOverWhenTheHeirDiesInItsGrace) {
  // The owner dies and the survivors declare it dead; its heir opens a
  // long recovery grace. The heir dies before that grace ends, while
  // the survivors' rings still route the group to it. Once they
  // declare the heir dead too, the third holder, whose replica record
  // still names the first dead owner, must take the group over.
  const KeyGroup group = KeyGroup::of(Key(0x9abc, kWidth), kInitialDepth);
  ServerId owner;
  ServerId heir;
  ServerId third;
  RecoveryNetCluster cluster(
      [&](const dht::ChordRing& ring, std::vector<NodeConfig>& configs) {
        const auto set =
            ring.successors(ring.hasher().hash_key(group.virtual_key()), 3);
        owner = set[0];
        heir = set[1];
        third = set[2];
        configs[heir.value].recovery_grace = std::chrono::seconds(30);
      });

  BlockingClient::Config ccfg;
  ccfg.members = cluster.configs[0].members;
  ccfg.ring_salt = 77;
  BlockingClient env(ccfg);
  ClashClient client(cluster.configs[0].clash, env, env.hasher());
  constexpr std::size_t kQueries = 6;
  std::vector<Key> keys;
  for (std::size_t i = 0; i < kQueries; ++i) {
    AcceptObject obj;
    obj.key = Key(group.virtual_key().value() | ((0x0357 * (i + 1)) & 0x1FFF),
                  kWidth);
    ASSERT_TRUE(group.contains(obj.key));
    obj.kind = ObjectKind::kQuery;
    obj.query_id = QueryId{i};
    ASSERT_TRUE(client.insert(obj).ok);
    keys.push_back(obj.key);
    ASSERT_EQ(cluster.owner_of(obj.key), owner.value);
    const bool registered =
        cluster.nodes[owner.value]->run_on_loop([&](ClashServer&) {
          cq::ContinuousQuery q;
          q.id = QueryId{i};
          q.scope = KeyGroup::of(obj.key, kWidth);
          return cluster.hooks[owner.value]->register_query(q);
        });
    ASSERT_TRUE(registered) << "query " << i;
  }
  // Let appends/snapshots reach the replica set.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  for (const ServerId holder : {heir, third}) {
    ASSERT_TRUE(cluster.nodes[holder.value]->run_on_loop(
        [&](ClashServer& s) { return s.has_replica(group); }))
        << "no replica on " << to_string(holder);
  }

  cluster.nodes[owner.value]->stop();
  ASSERT_TRUE(cluster.eventually([&] {
    for (auto& node : cluster.nodes) {
      if (node->id() == owner) continue;
      if (node->member_state(owner) != MemberState::kDead) return false;
    }
    return true;
  })) << "survivors never declared the owner dead";
  // The heir is inside its 30 s grace: it has not promoted yet.
  ASSERT_EQ(cluster.owner_of(keys[0], owner.value), SIZE_MAX);
  cluster.nodes[heir.value]->stop();

  const bool taken_over = cluster.eventually([&] {
    if (cluster.owner_of(keys[0]) != third.value) return false;
    return cluster.nodes[third.value]->run_on_loop([&](ClashServer& s) {
      const GroupState* st = s.group_state(group);
      return st != nullptr && st->queries.size() == kQueries;
    });
  });
  ASSERT_TRUE(taken_over) << "the third holder never took the group over";
  EXPECT_GT(cluster.fire(third.value, keys[0]), 0u)
      << "the third holder lost the app query state";
  EXPECT_EQ(cluster.nodes[third.value]->run_on_loop(
                [](ClashServer& s) { return s.stats().groups_lost; }),
            0u);
}

TEST(RecoveryNet, RestartedNodeIsHandedItsGroupsBackWithState) {
  RecoveryNetCluster cluster;

  BlockingClient::Config ccfg;
  ccfg.members = cluster.configs[0].members;
  ccfg.ring_salt = 77;
  BlockingClient env(ccfg);
  ClashClient client(cluster.configs[0].clash, env, env.hasher());
  constexpr std::size_t kStreams = 16;
  for (std::size_t i = 0; i < kStreams; ++i) {
    AcceptObject obj;
    obj.key = Key((0x2222 * (i + 1)) & 0xFFFF, kWidth);
    obj.kind = ObjectKind::kData;
    obj.source = ClientId{i};
    obj.stream_rate = 1;
    ASSERT_TRUE(client.insert(obj).ok);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(200));

  // Stop one node and wait for eviction + failover.
  const ServerId victim{1};
  cluster.nodes[victim.value]->stop();
  ASSERT_TRUE(cluster.eventually([&] {
    std::size_t total = 0;
    for (auto& node : cluster.nodes) {
      if (node->id() == victim) continue;
      if (node->member_state(victim) != MemberState::kDead) return false;
      total +=
          node->run_on_loop([](ClashServer& s) { return s.total_streams(); });
    }
    return total == kStreams;
  })) << "survivors never absorbed the victim's groups";

  // Restart it in place: fresh process, same identity and address. It
  // refutes its death rumour, rejoins the ring, and the current owners
  // hand its mapped groups back with full state.
  cluster.boot(victim.value);
  cluster.nodes[victim.value]->start();
  const bool handed_back = cluster.eventually([&] {
    for (auto& node : cluster.nodes) {
      if (node->member_state(victim) != MemberState::kAlive) return false;
      if (node->ring_server_count() != kNodes) return false;
    }
    const auto streams = cluster.nodes[victim.value]->run_on_loop(
        [](ClashServer& s) { return s.total_streams(); });
    return streams > 0;
  });
  EXPECT_TRUE(handed_back)
      << "rejoined node still serves empty state (rejoin gap)";

  // Nothing was lost end to end.
  std::size_t total = 0;
  for (auto& node : cluster.nodes) {
    total +=
        node->run_on_loop([](ClashServer& s) { return s.total_streams(); });
  }
  EXPECT_EQ(total, kStreams);
}

}  // namespace
}  // namespace clash::net
