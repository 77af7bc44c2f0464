// Replication acks under a synchronous environment. SimCluster has no
// timers: ServerEnv::defer_after runs inline, so the cumulative-ack
// batching must collapse to exactly one ReplAck per ReplAppend per
// holder, delivered inside the same insert — the message counts every
// seeded sim bench reports depend on.
#include <gtest/gtest.h>

#include "clash/client.hpp"
#include "common/rng.hpp"
#include "sim/cluster.hpp"

namespace clash::sim {
namespace {

TEST(ReplAckSync, OneInlineAckPerAppendPerHolder) {
  SimCluster::Config cfg;
  cfg.num_servers = 8;
  cfg.seed = 7;
  cfg.clash.key_width = 24;
  cfg.clash.initial_depth = 3;
  cfg.clash.capacity = 1e9;
  cfg.clash.replication_factor = 2;
  SimCluster cluster(cfg);
  cluster.bootstrap();

  ClashClient client(cluster.clash_config(), cluster.client_env(ServerId{0}),
                     cluster.hasher());
  // Seed every replica (first appends nack and repair by snapshot),
  // then price steady-state inserts one at a time.
  Rng rng(11);
  const auto insert = [&](std::uint64_t i) {
    AcceptObject obj;
    obj.key = Key(rng.next() & 0xFFFFFF, 24);
    obj.kind = ObjectKind::kData;
    obj.source = ClientId{i};
    obj.stream_rate = 1.0;
    ASSERT_TRUE(client.insert(obj).ok);
  };
  for (std::uint64_t i = 0; i < 64; ++i) insert(i);
  cluster.reset_stats();

  for (std::uint64_t i = 64; i < 164; ++i) {
    const MessageStats before = cluster.transport_stats();
    insert(i);
    const MessageStats& after = cluster.transport_stats();
    const std::uint64_t appends = after.repl_appends - before.repl_appends;
    EXPECT_EQ(appends, cfg.clash.replication_factor) << "insert " << i;
    EXPECT_EQ(after.repl_acks - before.repl_acks, appends)
        << "acks not delivered inline with insert " << i;
  }
  const MessageStats& total = cluster.transport_stats();
  EXPECT_EQ(total.snapshot_offers, 0u);
  EXPECT_EQ(total.repl_acks, total.repl_appends);
  EXPECT_EQ(cluster.check_invariants(), std::nullopt);
}

}  // namespace
}  // namespace clash::sim
