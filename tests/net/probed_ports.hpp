// Two-pass bring-up for multi-node TCP tests. Each node first binds
// port 0 to learn a free port (a probe node started and stopped); then
// every config gets the full member book and the real nodes start on
// the learned ports. Between the probe's stop and the real bind, a test
// running in parallel can take the port, and the real start throws
// "listen failed". The helper then drops every node it started, probes
// afresh and retries the whole bring-up, a bounded number of times.
#pragma once

#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <vector>

#include "net/node.hpp"

namespace clash::net::testing {

/// Probe a port for every config, rewrite `configs` to listen there
/// with `members` (in: extra members, e.g. a phantom peer; out: plus
/// every node) as their member book, and start one node per config.
/// `prepare(i, node)` runs on node i before its start (bootstrap
/// entries, app hooks).
inline std::vector<std::unique_ptr<ClashNode>> start_on_probed_ports(
    std::vector<NodeConfig>& configs, std::map<ServerId, Endpoint>& members,
    const std::function<void(std::size_t, ClashNode&)>& prepare = {}) {
  constexpr int kAttempts = 5;
  for (int attempt = 1;; ++attempt) {
    for (auto& cfg : configs) {
      cfg.listen = Endpoint{"127.0.0.1", 0};
      cfg.members = {{cfg.id, cfg.listen}};
      ClashNode probe(cfg);
      probe.start();
      members[cfg.id] = Endpoint{"127.0.0.1", probe.port()};
      probe.stop();
      cfg.listen = members[cfg.id];
    }
    for (auto& cfg : configs) cfg.members = members;
    std::vector<std::unique_ptr<ClashNode>> nodes;
    try {
      for (std::size_t i = 0; i < configs.size(); ++i) {
        nodes.push_back(std::make_unique<ClashNode>(configs[i]));
        if (prepare) prepare(i, *nodes.back());
        nodes.back()->start();
      }
      return nodes;
    } catch (const std::runtime_error& e) {
      if (attempt == kAttempts ||
          std::strstr(e.what(), "listen failed") == nullptr) {
        throw;
      }
    }
  }
}

}  // namespace clash::net::testing
