// Cumulative replication acks over real TCP. A replica holds its
// positive ReplAcks for repl::Replicator::kAckWindow and then sends every
// group head it owes one peer in a single frame; nacks (gap, epoch,
// no record, snapshot chunk) still leave at once. The owner's commit
// latency histogram and journal ops must close exactly as they did
// with one ack per append, and a node stopped with acks still owed
// must tear down cleanly (the ASan job runs this suite).
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <thread>

#include "clash/bootstrap.hpp"
#include "net/node.hpp"
#include "tests/net/probed_ports.hpp"

namespace clash::net {
namespace {

constexpr std::size_t kNodes = 3;

std::uint64_t frames_sent(ClashServer& s) {
  return s.obs_hub().registry.counter_value("clash_net_frames_sent_total");
}

std::uint64_t commits(ClashServer& s) {
  return s.obs_hub().registry.histogram_snapshot("clash_repl_commit_usec")
      .count;
}

std::size_t open_append_ops(ClashServer& s) {
  std::size_t n = 0;
  for (const auto& op : s.obs_hub().journal.open_ops()) {
    if (op.kind == obs::Kind::kReplAppend) ++n;
  }
  return n;
}

/// Three log-replicated nodes (r = 2, so every group's holders are the
/// other two nodes) with membership off and load checks parked: after
/// warm-up, the only frames a holder sends are replication acks.
struct AckCluster {
  AckCluster() {
    ClashConfig clash;
    clash.key_width = 16;
    clash.initial_depth = 4;
    clash.capacity = 1e9;
    clash.replication_factor = 2;

    std::vector<NodeConfig> configs;
    std::map<ServerId, Endpoint> members;
    for (std::size_t i = 0; i < kNodes; ++i) {
      NodeConfig cfg;
      cfg.id = ServerId{i};
      cfg.clash = clash;
      cfg.ring_salt = 91;
      cfg.enable_membership = false;
      cfg.load_check_interval = std::chrono::hours(1);
      configs.push_back(cfg);
    }
    dht::ChordRing ring(dht::ChordRing::Config{
        32, 8, dht::KeyHasher::Algo::kSha1, 91});
    for (std::size_t i = 0; i < kNodes; ++i) ring.add_server(ServerId{i});
    const auto entries = compute_bootstrap_entries(ring, ring.hasher(), clash);
    nodes = testing::start_on_probed_ports(
        configs, members, [&entries](std::size_t i, ClashNode& node) {
          const auto it = entries.find(ServerId{i});
          if (it != entries.end()) node.install_entries(it->second);
        });
    for (std::size_t i = 0; i < kNodes; ++i) {
      owned.push_back(nodes[i]->run_on_loop([](ClashServer& s) {
        std::vector<KeyGroup> groups;
        for (const auto* e : s.table().active_entries()) {
          groups.push_back(e->group);
        }
        return groups;
      }));
    }
  }

  ~AckCluster() {
    for (auto& node : nodes) {
      if (node != nullptr) node->stop();
    }
  }

  template <typename Pred>
  static bool eventually(Pred pred) {
    for (int i = 0; i < 500; ++i) {
      if (pred()) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return false;
  }

  /// Log one app delta to each of `groups` on node `i`, in one loop
  /// hop (so one dispatch tick, one ReplAppend per group).
  void append(std::size_t i, const std::vector<KeyGroup>& groups) {
    ASSERT_TRUE(nodes[i]->run_on_loop([&](ClashServer& s) {
      bool ok = true;
      for (const auto& g : groups) ok &= s.append_app_delta(g, {1, 2, 3});
      return ok;
    }));
  }

  /// Every holder's replica of every group sits at the owner's head.
  bool converged() {
    for (std::size_t i = 0; i < kNodes; ++i) {
      for (const auto& g : owned[i]) {
        const auto head = nodes[i]->run_on_loop(
            [&](ClashServer& s) { return s.log_head(g); });
        for (std::size_t j = 0; j < kNodes; ++j) {
          if (j == i) continue;
          const auto rh = nodes[j]->run_on_loop(
              [&](ClashServer& s) { return s.replica_head(g); });
          if (!head || rh != head) return false;
        }
      }
    }
    return true;
  }

  /// Seed every group's log and its replicas (first appends nack for
  /// want of a base and are repaired by snapshot), then wait until all
  /// holders caught up and every commit closed.
  void warm_up() {
    for (std::size_t i = 0; i < kNodes; ++i) append(i, owned[i]);
    ASSERT_TRUE(eventually([&] { return converged(); }));
    ASSERT_TRUE(eventually([&] {
      for (auto& n : nodes) {
        if (n->run_on_loop(open_append_ops) != 0) return false;
      }
      return true;
    }));
    // The second holder's ack of each batch may still be owed.
    settle();
  }

  /// Wait out the ack window many times over.
  static void settle() {
    std::this_thread::sleep_for(
        std::chrono::microseconds(20 * repl::Replicator::kAckWindow.usec));
  }

  /// The node owning the most groups (at least two: depth 4 gives 16).
  [[nodiscard]] std::size_t busiest() const {
    std::size_t best = 0;
    for (std::size_t i = 1; i < kNodes; ++i) {
      if (owned[i].size() > owned[best].size()) best = i;
    }
    return best;
  }

  std::vector<std::unique_ptr<ClashNode>> nodes;
  std::vector<std::vector<KeyGroup>> owned;
};

/// A well-formed append for `group` sitting right on `holder`'s
/// replica head (or `gap` seqs past it).
ReplAppend append_at(ClashNode& holder, const KeyGroup& group,
                     ServerId owner, std::uint64_t gap = 0) {
  const auto head =
      holder.run_on_loop([&](ClashServer& s) { return s.replica_head(group); });
  EXPECT_TRUE(head.has_value());
  ReplAppend m;
  m.group = group;
  m.owner = owner;
  m.epoch = head ? head->epoch : 0;
  m.base_seq = (head ? head->seq : 0) + gap;
  m.entries.push_back(repl::LogOp::app_delta_op({4, 5}));
  return m;
}

TEST(ReplAckNet, AppendsInOneWindowShareOneAckFramePerPeer) {
  AckCluster c;
  c.warm_up();
  const std::size_t x = c.busiest();
  const auto& groups = c.owned[x];
  ASSERT_GE(groups.size(), 2u);

  std::vector<std::uint64_t> sent_before(kNodes);
  for (std::size_t i = 0; i < kNodes; ++i) {
    sent_before[i] = c.nodes[i]->run_on_loop(frames_sent);
  }
  const std::uint64_t commits_before = c.nodes[x]->run_on_loop(commits);

  c.append(x, groups);
  // One ReplAppend batch per group, each committed by the first
  // holder ack that covers it.
  ASSERT_TRUE(AckCluster::eventually([&] {
    return c.nodes[x]->run_on_loop(commits) ==
           commits_before + groups.size();
  }));
  ASSERT_TRUE(AckCluster::eventually([&] { return c.converged(); }));
  EXPECT_TRUE(AckCluster::eventually(
      [&] { return c.nodes[x]->run_on_loop(open_append_ops) == 0; }));
  AckCluster::settle();  // let any straggling frame land before counting

  EXPECT_EQ(c.nodes[x]->run_on_loop(frames_sent) - sent_before[x],
            2u * groups.size())
      << "owner: one ReplAppend per group per holder";
  for (std::size_t i = 0; i < kNodes; ++i) {
    if (i == x) continue;
    EXPECT_EQ(c.nodes[i]->run_on_loop(frames_sent) - sent_before[i], 1u)
        << "holder " << i << " acked " << groups.size()
        << " groups in one cumulative frame";
  }
  EXPECT_EQ(c.nodes[x]->run_on_loop(commits), commits_before + groups.size());
}

TEST(ReplAckNet, GapNackLeavesAtOnceWhilePositiveAckWaitsForWindow) {
  AckCluster c;
  c.warm_up();
  const std::size_t x = c.busiest();
  const std::size_t y = (x + 1) % kNodes;
  const KeyGroup g = c.owned[x].front();
  const ServerId owner{x};

  // Frames node y queues while handling one message, read in the same
  // loop hop (frames are counted when queued).
  const auto frames_for = [&](const ReplAppend& m) {
    return c.nodes[y]->run_on_loop([&](ClashServer& s) {
      const auto before = frames_sent(s);
      s.deliver(owner, Message(m));
      return frames_sent(s) - before;
    });
  };
  // Applied append: the ack is owed, not sent.
  EXPECT_EQ(frames_for(append_at(*c.nodes[y], g, owner)), 0u);
  // Gap: the nack is on the wire before the handler returns.
  EXPECT_EQ(frames_for(append_at(*c.nodes[y], g, owner, /*gap=*/5)), 1u);
}

TEST(ReplAckNet, StoppingWithAcksOwedIsClean) {
  AckCluster c;
  c.warm_up();
  const std::size_t x = c.busiest();
  const std::size_t y = (x + 1) % kNodes;
  const ServerId owner{x};
  for (const auto& g : c.owned[x]) {
    const ReplAppend m = append_at(*c.nodes[y], g, owner);
    (void)c.nodes[y]->run_on_loop([&](ClashServer& s) {
      s.deliver(owner, Message(m));
      return true;
    });
  }
  // Acks are owed and the flush timer is armed: stop and destroy the
  // node before it fires. The timer is cancelled with the server.
  c.nodes[y]->stop();
  c.nodes[y].reset();
  // The survivors keep serving.
  c.append(x, c.owned[x]);
  const std::size_t z = (x + 2) % kNodes;
  EXPECT_TRUE(AckCluster::eventually([&] {
    for (const auto& g : c.owned[x]) {
      const auto head = c.nodes[x]->run_on_loop(
          [&](ClashServer& s) { return s.log_head(g); });
      const auto rh = c.nodes[z]->run_on_loop(
          [&](ClashServer& s) { return s.replica_head(g); });
      if (!head || rh != head) return false;
    }
    return true;
  }));
}

}  // namespace
}  // namespace clash::net
