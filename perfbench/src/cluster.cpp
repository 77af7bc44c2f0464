#include "cluster.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "clash/bootstrap.hpp"
#include "obs/expose.hpp"

namespace perfbench {

using clash::ClashServer;
using clash::ServerId;
using clash::net::ClashNode;
using clash::net::Endpoint;
using clash::net::NodeConfig;

clash::ClashConfig tcp_clash_config() {
  clash::ClashConfig c;
  c.key_width = 24;
  c.initial_depth = 6;
  c.replication_factor = 2;
  c.replication_mode = clash::ClashConfig::ReplicationMode::kLog;
  c.durability_mode = clash::ClashConfig::DurabilityMode::kWal;
  c.fsync_policy = clash::ClashConfig::FsyncPolicy::kInterval;
  return c;
}

void flush_fs(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  ::syncfs(fd);
  ::close(fd);
}

LocalCluster::LocalCluster(const ClusterSpec& spec) : spec_(spec) {
  std::vector<NodeConfig> configs;
  for (std::size_t i = 0; i < kNodes; ++i) {
    NodeConfig cfg;
    cfg.id = ServerId{i};
    cfg.listen = Endpoint{"127.0.0.1", 0};
    cfg.members[cfg.id] = cfg.listen;
    cfg.clash = spec_.clash;
    cfg.ring_salt = ring_salt();
    cfg.load_check_interval = spec_.load_check_interval;
    cfg.storage_dir = spec_.data_dir + "/node" + std::to_string(i);
    configs.push_back(cfg);
  }
  // Every node needs the full member book before it starts: reserve
  // three free ports (held open together, so they differ), release them,
  // and let the nodes listen there.
  {
    std::vector<clash::net::Fd> reserved;
    for (std::size_t i = 0; i < kNodes; ++i) {
      auto fd = clash::net::listen_tcp(Endpoint{"127.0.0.1", 0});
      if (!fd.ok()) throw std::runtime_error("no free loopback port");
      const auto port = clash::net::bound_port(fd.value());
      if (!port.ok()) throw std::runtime_error("no free loopback port");
      members_[ServerId{i}] = Endpoint{"127.0.0.1", port.value()};
      reserved.push_back(std::move(fd).value());
    }
  }
  for (auto& cfg : configs) {
    cfg.listen = members_[cfg.id];
    cfg.members = members_;
  }

  ring_ = std::make_unique<clash::dht::ChordRing>(clash::dht::ChordRing::Config{
      configs[0].hash_bits, configs[0].virtual_servers, configs[0].hash_algo,
      ring_salt()});
  for (std::size_t i = 0; i < kNodes; ++i) ring_->add_server(ServerId{i});
  const auto entries =
      clash::compute_bootstrap_entries(*ring_, ring_->hasher(), spec_.clash);
  for (std::size_t i = 0; i < kNodes; ++i) {
    nodes_.push_back(std::make_unique<ClashNode>(configs[i]));
    const auto it = entries.find(ServerId{i});
    if (it != entries.end()) nodes_[i]->install_entries(it->second);
    nodes_[i]->start();
  }
}

LocalCluster::~LocalCluster() {
  for (auto& n : nodes_) n->stop();
  nodes_.clear();
  // Wait for the deletion to reach the disk here, in teardown: left
  // pending, its journal commit made the next set-up's fsyncs wait.
  std::error_code ec;
  std::filesystem::remove_all(spec_.data_dir, ec);
  flush_fs(std::filesystem::path(spec_.data_dir).parent_path().string());
}

bool LocalCluster::wait_converged(std::chrono::milliseconds limit) {
  const auto deadline = Clock::now() + limit;
  while (Clock::now() < deadline) {
    bool all = true;
    for (std::size_t i = 0; i < kNodes && all; ++i) {
      for (std::size_t j = 0; j < kNodes && all; ++j) {
        all = nodes_[i]->member_state(ServerId{j}) ==
              clash::MemberState::kAlive;
      }
    }
    if (all) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return false;
}

std::map<clash::KeyGroup, ServerId> LocalCluster::active_groups() {
  std::map<clash::KeyGroup, ServerId> out;
  for (std::size_t i = 0; i < kNodes; ++i) {
    const auto groups = nodes_[i]->run_on_loop([](ClashServer& s) {
      std::vector<clash::KeyGroup> g;
      for (const auto* e : s.table().active_entries()) g.push_back(e->group);
      return g;
    });
    for (const auto& g : groups) out.emplace(g, ServerId{i});
  }
  return out;
}

std::size_t LocalCluster::streams(std::size_t i) {
  return nodes_[i]->run_on_loop(
      [](ClashServer& s) { return s.total_streams(); });
}

std::size_t LocalCluster::queries(std::size_t i) {
  return nodes_[i]->run_on_loop(
      [](ClashServer& s) { return s.total_queries(); });
}

bool LocalCluster::heads_converged(std::chrono::milliseconds limit,
                                   std::string* detail) {
  const auto deadline = Clock::now() + limit;
  for (;;) {
    bool ok = true;
    for (std::size_t i = 0; i < kNodes && ok; ++i) {
      const auto owned = nodes_[i]->run_on_loop([](ClashServer& s) {
        std::vector<std::pair<clash::KeyGroup, clash::repl::LogHead>> v;
        for (const auto* e : s.table().active_entries()) {
          if (const auto h = s.log_head(e->group)) v.emplace_back(e->group, *h);
        }
        return v;
      });
      for (const auto& [group, head] : owned) {
        for (std::size_t j = 0; j < kNodes && ok; ++j) {
          if (j == i) continue;
          const auto have = nodes_[j]->run_on_loop(
              [&](ClashServer& s) { return s.replica_head(group); });
          if (!have || *have != head) {
            ok = false;
            if (detail != nullptr) {
              *detail = "group " + group.label() + " owner head " +
                        head.to_string() + " replica node" +
                        std::to_string(j) + " at " +
                        (have ? have->to_string() : std::string("none"));
            }
          }
        }
        if (!ok) break;
      }
    }
    if (ok) return true;
    if (Clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

clash::MessageStats LocalCluster::stats() {
  clash::MessageStats sum;
  for (auto& n : nodes_) {
    sum += n->run_on_loop([](ClashServer& s) { return s.stats(); });
  }
  return sum;
}

void LocalCluster::reset_registries() {
  for (auto& n : nodes_) {
    ClashNode* node = n.get();
    node->run_on_loop([node](ClashServer&) {
      node->hub().registry.reset();
      return true;
    });
  }
}

ClusterReading LocalCluster::read() {
  ClusterReading r;
  r.msgs = stats();
  for (auto& n : nodes_) {
    ClashNode* node = n.get();
    const auto wal = node->run_on_loop([node](ClashServer&) {
      return node->store() != nullptr ? node->store()->wal_stats()
                                      : clash::storage::Wal::Stats{};
    });
    r.wal_records += wal.records;
    r.wal_bytes += wal.bytes;
    r.wal_syncs += wal.syncs;
    const auto series = clash::obs::parse_exposition(node->scrape_text());
    for (const auto& [name, value] : series) {
      double& slot = r.series[name];
      slot = name.find("quantile=") != std::string::npos
                 ? std::max(slot, value)
                 : slot + value;
    }
    const auto tick = series.find("clash_loop_tick_usec_sum");
    r.tick_usec.push_back(tick == series.end() ? 0.0 : tick->second);
  }
  r.at_ns = now_ns();
  return r;
}

clash::ServerTable LocalCluster::hottest_table() {
  clash::ServerTable best(spec_.clash.key_width);
  for (auto& n : nodes_) {
    auto t = n->run_on_loop([](ClashServer& s) { return s.table(); });
    if (t.size() > best.size()) best = std::move(t);
  }
  return best;
}

void add_cluster_layers(Result& out, const ClusterReading& a,
                        const ClusterReading& b, double ops) {
  const double per = ops > 0 ? 1.0 / ops : 0.0;
  const auto delta = [&](const char* name) {
    return b.get(name) - a.get(name);
  };
  const auto q = [&](const std::string& hist, const char* quant) {
    return b.get(hist + "{quantile=\"" + quant + "\"}");
  };
  const clash::MessageStats m = b.msgs - a.msgs;
  const double wall_us = double(b.at_ns - a.at_ns) / 1e3;

  out.set("net.bytes_per_op", delta("clash_net_bytes_sent_total") * per, "B");
  out.set("net.flush_syscalls_per_op",
          delta("clash_net_flush_syscalls_total") * per, "count");
  double busy = 0;
  for (std::size_t i = 0; i < b.tick_usec.size() && i < a.tick_usec.size();
       ++i) {
    busy = std::max(busy, (b.tick_usec[i] - a.tick_usec[i]) / wall_us);
  }
  out.set("loop.busy_frac_max", busy, "ratio");
  out.set("loop.tick_p99_us", q("clash_loop_tick_usec", "0.99"), "us");

  out.set("repl.compactions_per_kop", double(m.log_compactions) * per * 1e3,
          "count");
  // TCP nodes count protocol events, not message classes (only the
  // simulator's dispatcher does): snapshot transfers show as installs,
  // append batches as commits.
  out.set("repl.snapshot_installs_per_kop",
          delta("clash_snapshot_install_usec_count") * per * 1e3, "count");
  out.set("repl.appends_per_op", delta("clash_repl_commit_usec_count") * per,
          "count");
  out.set("repl.bytes_per_op", delta("clash_repl_bytes_total") * per, "B");
  out.set("repl.commit_p50_us", q("clash_repl_commit_usec", "0.5"), "us");
  out.set("repl.commit_p99_us", q("clash_repl_commit_usec", "0.99"), "us");

  out.set("wal.records_per_op", double(b.wal_records - a.wal_records) * per,
          "count");
  out.set("wal.disk_bytes_per_op", double(b.wal_bytes - a.wal_bytes) * per,
          "B");
  out.set("wal.fsync_p99_us", q("clash_wal_fsync_usec", "0.99"), "us");
  out.set("wal.fsyncs", double(b.wal_syncs - a.wal_syncs), "count");
}

double frames_per_op(const ClusterReading& a, const ClusterReading& b,
                     double ops) {
  return (b.get("clash_net_frames_sent_total") -
          a.get("clash_net_frames_sent_total")) /
         std::max(1.0, ops);
}

double idle_gossip_per_s(LocalCluster& cluster) {
  const ClusterReading a = cluster.read();
  std::this_thread::sleep_for(std::chrono::seconds(1));
  const ClusterReading b = cluster.read();
  const clash::MessageStats m = b.msgs - a.msgs;
  const double protocol = double(
      m.replication_log_messages() + m.load_reports + m.keygroup_transfers +
      m.keygroup_acks + m.reclaim_requests + m.reclaim_replies +
      m.replications + m.replica_drops);
  const double frames = b.get("clash_net_frames_sent_total") -
                        a.get("clash_net_frames_sent_total");
  return std::max(0.0, frames - protocol) / (double(b.at_ns - a.at_ns) / 1e9);
}

const std::pair<const clash::KeyGroup, ServerId>* group_for(
    const std::map<clash::KeyGroup, ServerId>& groups, const clash::Key& key) {
  for (int d = int(key.width()); d >= 0; --d) {
    const auto it = groups.find(clash::KeyGroup::of(key, unsigned(d)));
    if (it != groups.end()) return &*it;
  }
  return nullptr;
}

}  // namespace perfbench
