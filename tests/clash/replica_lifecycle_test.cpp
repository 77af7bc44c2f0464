// Replica lifecycle coverage (fault-tolerance extension): replicas
// form on ring successors, retire when their group stops being active,
// promotion recovers the exact state, and the empty-root fallback
// covers the key space when no replica exists.
#include <gtest/gtest.h>

#include <algorithm>

#include "clash/client.hpp"
#include "common/rng.hpp"
#include "sim/cluster.hpp"
#include "tests/clash/test_util.hpp"

namespace clash {
namespace {

sim::SimCluster::Config replicated_config(unsigned factor) {
  auto cfg = testing::small_cluster_config(16, 10, 3, /*capacity=*/500.0);
  cfg.clash.replication_factor = factor;
  return cfg;
}

TEST(ReplicaLifecycle, ReplicasLandOnRingSuccessors) {
  sim::SimCluster cluster(replicated_config(2));
  cluster.bootstrap();
  ClashClient client(cluster.clash_config(), cluster.client_env(ServerId{0}),
                     cluster.hasher());
  for (std::size_t i = 0; i < 40; ++i) {
    testing::add_stream(cluster, client, ClientId{i},
                        Key((i * 37) & 0x3FF, 10), 1.0);
  }
  cluster.set_now(SimTime::from_minutes(5));
  cluster.run_all_load_checks();

  // Every active group's replicas sit on exactly the 2 ring successors
  // after the owner.
  for (const auto& [group, owner] : cluster.owner_index()) {
    const auto ring_set = cluster.ring().successors(
        cluster.hasher().hash_key(group.virtual_key()), 3);
    ASSERT_GE(ring_set.size(), 3u);
    ASSERT_EQ(ring_set[0], owner);
    for (std::size_t r = 1; r < 3; ++r) {
      EXPECT_TRUE(cluster.server(ring_set[r]).replicator().has_replica(group))
          << group.label() << " missing on successor " << r;
    }
    // And nowhere else.
    for (std::size_t i = 0; i < 16; ++i) {
      const ServerId id{i};
      if (id == owner || id == ring_set[1] || id == ring_set[2]) continue;
      EXPECT_FALSE(cluster.server(id).replicator().has_replica(group))
          << group.label() << " leaked to " << to_string(id);
    }
  }
}

TEST(ReplicaLifecycle, SplitRetiresStaleParentReplicas) {
  auto cfg = replicated_config(2);
  // Keep the forced split in place: consolidation would merge the cold
  // children straight back before the second replication round.
  cfg.clash.enable_consolidation = false;
  sim::SimCluster cluster(cfg);
  cluster.bootstrap();
  ClashClient client(cluster.clash_config(), cluster.client_env(ServerId{0}),
                     cluster.hasher());
  const Key hot(0b1010000000, 10);
  testing::add_stream(cluster, client, ClientId{1}, hot, 3.0);
  cluster.set_now(SimTime::from_minutes(5));
  cluster.run_all_load_checks();

  const KeyGroup parent = cluster.find_active_group(hot).value();
  std::size_t holders_before = 0;
  for (std::size_t i = 0; i < 16; ++i) {
    holders_before +=
        cluster.server(ServerId{i}).replicator().has_replica(parent) ? 1 : 0;
  }
  ASSERT_EQ(holders_before, 2u);

  // Splitting deactivates the parent: its replicas must be dropped so
  // no stale copy can ever be promoted over the children.
  ASSERT_TRUE(cluster.server(*cluster.find_owner(hot)).force_split(parent));
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_FALSE(cluster.server(ServerId{i}).replicator().has_replica(parent))
        << "stale replica of " << parent.label() << " on s" << i;
  }
  EXPECT_GT(cluster.total_stats().replica_drops, 0u);

  // The children replicate at the next check.
  cluster.set_now(SimTime::from_minutes(10));
  cluster.run_all_load_checks();
  const KeyGroup child = cluster.find_active_group(hot).value();
  ASSERT_GT(child.depth(), parent.depth());
  std::size_t child_holders = 0;
  for (std::size_t i = 0; i < 16; ++i) {
    child_holders +=
        cluster.server(ServerId{i}).replicator().has_replica(child) ? 1 : 0;
  }
  EXPECT_EQ(child_holders, 2u);
}

TEST(ReplicaLifecycle, PromotionRecoversExactState) {
  sim::SimCluster cluster(replicated_config(2));
  cluster.bootstrap();
  ClashClient client(cluster.clash_config(), cluster.client_env(ServerId{0}),
                     cluster.hasher());
  const Key key(0b0110000000, 10);
  testing::add_stream(cluster, client, ClientId{10}, key, 2.5);
  testing::add_stream(cluster, client, ClientId{11}, Key(0b0110000001, 10),
                      1.5);
  cluster.set_now(SimTime::from_minutes(5));
  cluster.run_all_load_checks();

  const KeyGroup group = cluster.find_active_group(key).value();
  const ServerId owner = *cluster.find_owner(key);
  const auto recovered = cluster.fail_server(owner);
  EXPECT_GE(recovered, 1u);

  const ServerId heir = *cluster.find_owner(key);
  ASSERT_NE(heir, owner);
  const GroupState* state = cluster.server(heir).group_state(group);
  ASSERT_NE(state, nullptr);
  ASSERT_EQ(state->streams.size(), 2u);
  EXPECT_DOUBLE_EQ(state->streams.at(ClientId{10}).rate, 2.5);
  EXPECT_DOUBLE_EQ(state->streams.at(ClientId{11}).rate, 1.5);
  EXPECT_DOUBLE_EQ(state->stream_rate, 4.0);
  // The promoted entry keeps the root flag of the original.
  EXPECT_EQ(cluster.check_invariants(), std::nullopt);
}

TEST(ReplicaLifecycle, FreshSplitGroupsAreProtectedImmediately) {
  // Children born from a split must be replicated at activation, not
  // at the next load check: an owner crash inside that window would
  // otherwise lose them outright (and in the deployed layer no
  // survivor would even know the group existed).
  sim::SimCluster cluster(replicated_config(2));
  cluster.bootstrap();
  ClashClient client(cluster.clash_config(), cluster.client_env(ServerId{0}),
                     cluster.hasher());
  const Key key(0b0011000000, 10);
  testing::add_stream(cluster, client, ClientId{40}, key, 2.0);
  cluster.set_now(SimTime::from_minutes(5));
  cluster.run_all_load_checks();

  // Split the group; no load check runs before the owner dies.
  const KeyGroup parent = cluster.find_active_group(key).value();
  ASSERT_TRUE(cluster.server(*cluster.find_owner(key)).force_split(parent));
  const KeyGroup child = cluster.find_active_group(key).value();
  ASSERT_GT(child.depth(), parent.depth());

  const ServerId owner = *cluster.find_owner(key);
  ASSERT_GE(cluster.fail_server(owner), 1u);
  EXPECT_EQ(cluster.total_stats().groups_lost, 0u);
  const GroupState* state =
      cluster.server(*cluster.find_owner(key)).group_state(child);
  ASSERT_NE(state, nullptr);
  EXPECT_EQ(state->streams.count(ClientId{40}), 1u);
  EXPECT_EQ(cluster.check_invariants(), std::nullopt);
}

TEST(ReplicaLifecycle, BackToBackOwnerDeathsWithinOnePeriod) {
  // Promotion must re-replicate under the new owner immediately: if it
  // waited for the next periodic refresh, the holders' records would
  // still name the first dead owner and a second failure inside the
  // window would strand a perfectly good replica.
  sim::SimCluster cluster(replicated_config(2));
  cluster.bootstrap();
  ClashClient client(cluster.clash_config(), cluster.client_env(ServerId{0}),
                     cluster.hasher());
  const Key key(0b1100000000, 10);
  testing::add_stream(cluster, client, ClientId{30}, key, 2.0);
  cluster.set_now(SimTime::from_minutes(5));
  cluster.run_all_load_checks();

  const ServerId first_owner = *cluster.find_owner(key);
  ASSERT_GE(cluster.fail_server(first_owner), 1u);
  const ServerId second_owner = *cluster.find_owner(key);
  ASSERT_NE(second_owner, first_owner);

  // The holders' records must already name the new owner — that is
  // the exact lookup (replicas_owned_by) the TCP death handler does.
  const KeyGroup group = cluster.find_active_group(key).value();
  std::size_t holders_naming_new_owner = 0;
  for (std::size_t i = 0; i < 16; ++i) {
    const ServerId id{i};
    if (!cluster.is_alive(id) || id == second_owner) continue;
    const auto owned =
        cluster.server(id).replicator().replicas_owned_by(second_owner);
    holders_naming_new_owner +=
        std::count(owned.begin(), owned.end(), group);
  }
  EXPECT_EQ(holders_naming_new_owner, 2u)
      << "promotion did not refresh the replica ownership records";

  // No load check in between: the second death relies entirely on the
  // promotion-time re-replication.
  ASSERT_GE(cluster.fail_server(second_owner), 1u);
  const ServerId third_owner = *cluster.find_owner(key);
  const GroupState* state = cluster.server(third_owner)
                                .group_state(*cluster.find_active_group(key));
  ASSERT_NE(state, nullptr);
  ASSERT_EQ(state->streams.size(), 1u);
  EXPECT_DOUBLE_EQ(state->streams.at(ClientId{30}).rate, 2.0);
  EXPECT_EQ(cluster.total_stats().groups_lost, 0u);
  EXPECT_EQ(cluster.check_invariants(), std::nullopt);
}

TEST(ReplicaLifecycle, HoldersEvictedBeforeTheirOwnerAreReplacedAtOnce) {
  // Every eviction runs the ring-change rule on the survivors, and its
  // refresh step probes each active group's current replica set: the
  // owner re-replicates to the successors that replace its dead
  // holders at once. With no load check in between, the owner's own
  // death right after must still find a holder.
  sim::SimCluster cluster(replicated_config(2));
  cluster.bootstrap();
  ClashClient client(cluster.clash_config(), cluster.client_env(ServerId{0}),
                     cluster.hasher());
  const Key key(0b0101000000, 10);
  testing::add_stream(cluster, client, ClientId{50}, key, 2.0);
  cluster.set_now(SimTime::from_minutes(5));
  cluster.run_all_load_checks();

  const KeyGroup group = cluster.find_active_group(key).value();
  const ServerId owner = *cluster.find_owner(key);
  std::vector<ServerId> holders;
  for (std::size_t i = 0; i < 16; ++i) {
    if (cluster.server(ServerId{i}).replicator().has_replica(group)) {
      holders.push_back(ServerId{i});
    }
  }
  ASSERT_EQ(holders.size(), 2u);
  for (const ServerId holder : holders) {
    cluster.crash_server(holder);
    cluster.evict_server(holder);
  }
  cluster.crash_server(owner);
  cluster.evict_server(owner);

  EXPECT_EQ(cluster.total_stats().groups_lost, 0u);
  const auto heir = cluster.find_owner(key);
  ASSERT_TRUE(heir.has_value());
  ASSERT_TRUE(cluster.is_alive(*heir));
  const GroupState* state = cluster.server(*heir).group_state(group);
  ASSERT_NE(state, nullptr);
  EXPECT_EQ(state->streams.count(ClientId{50}), 1u);
  EXPECT_EQ(cluster.check_invariants(), std::nullopt);
}

TEST(ReplicaLifecycle, EmptyRootFallbackWithoutReplicas) {
  sim::SimCluster cluster(replicated_config(0));
  cluster.bootstrap();
  ClashClient client(cluster.clash_config(), cluster.client_env(ServerId{0}),
                     cluster.hasher());
  const Key key(0b0001000000, 10);
  testing::add_stream(cluster, client, ClientId{20}, key, 2.0);
  cluster.set_now(SimTime::from_minutes(5));
  cluster.run_all_load_checks();

  const KeyGroup group = cluster.find_active_group(key).value();
  const ServerId owner = *cluster.find_owner(key);
  const auto recovered = cluster.fail_server(owner);
  EXPECT_EQ(recovered, 0u);  // nothing to promote from
  EXPECT_GT(cluster.total_stats().groups_lost, 0u);

  // Coverage is healed through an empty root entry: resolvable, no
  // state, lineage unknown so it must be a root.
  const ServerId heir = *cluster.find_owner(key);
  const GroupState* state = cluster.server(heir).group_state(group);
  ASSERT_NE(state, nullptr);
  EXPECT_TRUE(state->empty());
  const auto* entry = cluster.server(heir).table().find(group);
  ASSERT_NE(entry, nullptr);
  EXPECT_TRUE(entry->active);
  EXPECT_TRUE(entry->root);
  EXPECT_EQ(cluster.check_invariants(), std::nullopt);
}

TEST(ReplicaLifecycle, PromotionIsIdempotentAndRefusesOverlap) {
  testing::MockServerEnv env;
  ClashConfig cfg;
  cfg.key_width = 8;
  ClashServer server(ServerId{0}, cfg, env,
                     dht::KeyHasher(32, dht::KeyHasher::Algo::kMix64, 0));

  const KeyGroup group = testing::group("0110*", 8);
  // No replica, no entry: fallback adoption, reported as not recovered.
  EXPECT_FALSE(server.promote_replica(group));
  EXPECT_TRUE(server.table().find(group)->active);
  // A duplicate promotion of an already-active group is a no-op "ok".
  EXPECT_TRUE(server.promote_replica(group));
  EXPECT_EQ(server.stats().failovers, 1u);

  // A promotion that would overlap an existing active group is refused
  // outright -- it would corrupt the prefix-free table.
  EXPECT_FALSE(server.promote_replica(testing::group("01101*", 8)));
  EXPECT_EQ(server.table().find(testing::group("01101*", 8)), nullptr);
}

}  // namespace
}  // namespace clash
