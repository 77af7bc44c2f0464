// The gossiped cost census under membership churn: every live node's
// census table converges to the live set, death evicts records, a
// revival re-enters with a bumped incarnation, a healed partition
// reconciles both sides, and the converged view's totals match the
// cluster's ground truth.
#include <gtest/gtest.h>

#include <algorithm>

#include "clash/client.hpp"
#include "common/rng.hpp"
#include "sim/churn.hpp"

namespace clash::sim {
namespace {

constexpr std::size_t kServers = 16;
constexpr unsigned kWidth = 10;
constexpr int kConvergenceBound = 40;

ChurnSim::Config census_config() {
  ChurnSim::Config cfg;
  cfg.cluster.num_servers = kServers;
  cfg.cluster.seed = 4321;
  cfg.cluster.clash.key_width = kWidth;
  cfg.cluster.clash.initial_depth = 3;
  cfg.cluster.clash.capacity = 2000.0;
  cfg.cluster.clash.replication_factor = 2;
  cfg.protocol_period = SimTime::from_seconds(1);
  cfg.gossip_delay = SimTime::from_seconds(0.02);
  cfg.census.refresh_periods = 2;
  cfg.seed = 77;
  return cfg;
}

void load_streams(ChurnSim& sim, std::size_t n) {
  ClashClient client(sim.cluster().clash_config(),
                     sim.cluster().client_env(ServerId{0}),
                     sim.cluster().hasher());
  Rng rng(11);
  for (std::size_t i = 0; i < n; ++i) {
    AcceptObject obj;
    obj.key = Key(rng.next() & 0x3FF, kWidth);
    obj.kind = ObjectKind::kData;
    obj.source = ClientId{i};
    obj.stream_rate = 2;
    ASSERT_TRUE(client.insert(obj).ok);
  }
}

/// Every live node's census table holds exactly the live set.
bool census_converged(ChurnSim& sim) {
  std::size_t alive = 0;
  for (std::size_t i = 0; i < kServers; ++i) {
    if (sim.cluster().is_alive(ServerId{i})) ++alive;
  }
  for (std::size_t i = 0; i < kServers; ++i) {
    const ServerId id{i};
    if (!sim.cluster().is_alive(id)) continue;
    if (sim.census_of(id).table_size() != alive) return false;
    for (std::size_t j = 0; j < kServers; ++j) {
      const ServerId peer{j};
      const bool have = sim.census_of(id).record_of(peer) != nullptr;
      if (have != sim.cluster().is_alive(peer)) return false;
    }
  }
  return true;
}

int run_until_census_converged(ChurnSim& sim) {
  for (int period = 1; period <= kConvergenceBound; ++period) {
    sim.run_for(sim.protocol_period());
    if (census_converged(sim)) return period;
  }
  return -1;
}

TEST(CensusChurn, HealthyClusterConvergesToFullView) {
  ChurnSim sim(census_config());
  sim.start();
  load_streams(sim, 48);

  const int periods = run_until_census_converged(sim);
  ASSERT_GE(periods, 0) << "census never converged";

  // Give every node one more refresh so the stream/query gauges settle,
  // then check the folded view against ground truth on every node.
  sim.run_for(SimTime::from_seconds(8));
  std::uint64_t truth_streams = 0;
  std::uint64_t truth_groups = 0;
  for (std::size_t i = 0; i < kServers; ++i) {
    truth_streams += sim.cluster().server(ServerId{i}).total_streams();
    truth_groups += sim.cluster().server(ServerId{i}).table().active_count();
  }
  for (std::size_t i = 0; i < kServers; ++i) {
    const auto view = sim.census_of(ServerId{i}).view();
    EXPECT_EQ(view.nodes.size(), kServers) << "node " << i;
    EXPECT_EQ(view.total_streams, truth_streams) << "node " << i;
    EXPECT_EQ(view.total_groups, truth_groups) << "node " << i;
    EXPECT_GT(view.total_load, 0.0) << "node " << i;
  }
}

TEST(CensusChurn, DeathEvictsRecordEverywhere) {
  ChurnSim sim(census_config());
  sim.start();
  load_streams(sim, 32);
  ASSERT_GE(run_until_census_converged(sim), 0);

  const ServerId victim{5};
  sim.kill(victim);
  const int periods = run_until_census_converged(sim);
  ASSERT_GE(periods, 0) << "census never dropped the dead node";
  for (std::size_t i = 0; i < kServers; ++i) {
    const ServerId id{i};
    if (!sim.cluster().is_alive(id)) continue;
    EXPECT_EQ(sim.census_of(id).record_of(victim), nullptr) << "node " << i;
    EXPECT_EQ(sim.census_of(id).view().nodes.size(), kServers - 1);
  }
}

TEST(CensusChurn, RevivalReentersWithBumpedIncarnation) {
  ChurnSim sim(census_config());
  sim.start();
  load_streams(sim, 32);
  ASSERT_GE(run_until_census_converged(sim), 0);

  const ServerId victim{9};
  const auto* before = sim.census_of(ServerId{0}).record_of(victim);
  ASSERT_NE(before, nullptr);
  const std::uint64_t old_incarnation = before->incarnation;

  sim.kill(victim);
  ASSERT_GE(run_until_census_converged(sim), 0);
  sim.revive(victim);
  ASSERT_GE(run_until_census_converged(sim), 0);

  const auto* after = sim.census_of(ServerId{0}).record_of(victim);
  ASSERT_NE(after, nullptr);
  // Refuting its own death bumped the incarnation; the revived node's
  // census records carry it, so any stale pre-crash record loses.
  EXPECT_GT(after->incarnation, old_incarnation);
  // The revived node itself relearned the whole cluster from scratch.
  EXPECT_EQ(sim.census_of(victim).view().nodes.size(), kServers);
}

TEST(CensusChurn, PartitionHealReconcilesBothSides) {
  auto cfg = census_config();
  // A suspicion leash longer than the cut: both sides suspect each
  // other but neither declares deaths, so the censuses merely go stale
  // about the far side. (A cut that outlives the leash turns into the
  // death/revival scenarios covered above — and the post-heal rumour
  // storm can excommunicate slow refuters, which is the fail-slow
  // fencing path, not the census reconciliation under test here.)
  cfg.membership.suspicion_periods = 30;
  ChurnSim sim(cfg);
  sim.start();
  load_streams(sim, 32);
  ASSERT_GE(run_until_census_converged(sim), 0);

  const std::vector<ServerId> side{ServerId{0}, ServerId{1}, ServerId{2}};
  sim.partition(side);
  sim.run_for(SimTime::from_seconds(10));
  sim.heal_partitions();

  const int periods = run_until_census_converged(sim);
  ASSERT_GE(periods, 0) << "census never reconciled after the heal";
  // Nobody may have been excommunicated along the way: the leash held.
  for (std::size_t i = 0; i < kServers; ++i) {
    ASSERT_TRUE(sim.cluster().is_alive(ServerId{i})) << "node " << i;
  }
  // Reconciliation must be fresh on both sides: no record older than
  // the TTL leash, and sequence numbers advanced past the cut.
  for (std::size_t i = 0; i < kServers; ++i) {
    const auto view = sim.census_of(ServerId{i}).view();
    EXPECT_EQ(view.nodes.size(), kServers) << "node " << i;
    EXPECT_LT(view.max_age_periods, census_config().census.ttl_periods);
  }
}

TEST(CensusChurn, FlappingLinkStaysConvergedAfterSettle) {
  ChurnSim sim(census_config());
  sim.start();
  load_streams(sim, 32);
  ASSERT_GE(run_until_census_converged(sim), 0);

  sim.schedule_flaps({ServerId{4}, ServerId{8}}, SimTime::from_seconds(3),
                     /*cycles=*/4);
  sim.run_for(SimTime::from_seconds(30));  // ride out the flapping

  const int periods = run_until_census_converged(sim);
  ASSERT_GE(periods, 0) << "census never re-converged after flapping";
  EXPECT_TRUE(sim.ring_matches_membership());
  EXPECT_TRUE(sim.views_agree());
}

TEST(CensusChurn, DisabledCensusSendsNoRecords) {
  auto cfg = census_config();
  cfg.enable_census = false;
  ChurnSim sim(cfg);
  sim.start();
  sim.run_for(SimTime::from_seconds(20));
  EXPECT_EQ(sim.cluster().total_stats().census_records, 0u);
  for (std::size_t i = 0; i < kServers; ++i) {
    EXPECT_EQ(sim.census_of(ServerId{i}).table_size(), 0u);
  }
}

}  // namespace
}  // namespace clash::sim
