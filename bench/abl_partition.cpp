// Partition ablation: drives the link-level fault matrix through four
// WAN failure scenarios against the log-replication engine under live
// SWIM membership —
//
//   split     symmetric split-brain (a minority quarter cut off)
//   oneway    asymmetric cut (the minority is heard by nobody)
//   lossy     every link drops 5% of messages
//   splitkill a server dies while the cluster is split
//
// with continuous queries registered before AND during the fault. The
// run self-gates: after the heal, every replica must converge to its
// owner's exact (epoch, seq) log head and zero queries may be lost at
// replication factor >= 2 — a non-converging scenario fails the
// process, so CI catches repair-path regressions without a human
// reading the JSON.
//
// Usage: abl_partition [--servers=16] [--queries=60] [--seed=42]
//                      [--fault-minutes=3] [--json=PATH]
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "clash/client.hpp"
#include "common/argparse.hpp"
#include "obs/expose.hpp"
#include "obs/hub.hpp"
#include "obs/postmortem.hpp"
#include "common/rng.hpp"
#include "sim/churn.hpp"

using namespace clash;
using namespace clash::sim;

namespace {

constexpr unsigned kWidth = 10;

struct ScenarioResult {
  const char* scenario;
  bool converged = false;
  double converge_minutes = 0;   // after the heal
  std::size_t queries_registered = 0;
  std::size_t queries_kept = 0;
  std::uint64_t link_drops = 0;
  std::uint64_t failovers = 0;
  std::uint64_t groups_lost = 0;
  std::uint64_t snapshot_aborts = 0;
  std::uint64_t offers_ignored = 0;
  std::uint64_t snapshot_chunks = 0;
  std::uint64_t repl_appends = 0;
};

ChurnSim::Config base_config(std::size_t servers, std::uint64_t seed) {
  ChurnSim::Config cfg;
  cfg.cluster.num_servers = servers;
  cfg.cluster.seed = seed;
  cfg.cluster.clash.key_width = kWidth;
  cfg.cluster.clash.initial_depth = 3;
  cfg.cluster.clash.capacity = 1e9;  // isolate replication from splitting
  cfg.cluster.clash.replication_factor = 2;
  cfg.protocol_period = SimTime::from_seconds(1);
  cfg.gossip_delay = SimTime::from_seconds(0.02);
  cfg.seed = seed * 31 + 7;
  return cfg;
}

std::vector<ServerId> minority(std::size_t servers) {
  std::vector<ServerId> side;
  for (std::size_t i = 0; i < servers / 4; ++i) {
    side.push_back(ServerId{i * 3 + 1});
  }
  return side;
}

std::size_t register_queries(ChurnSim& sim, std::size_t n,
                             std::uint64_t first_id) {
  ClashClient client(sim.cluster().clash_config(),
                     sim.cluster().client_env(ServerId{0}),
                     sim.cluster().hasher());
  Rng rng(first_id * 131 + 5);
  std::size_t registered = 0;
  for (std::size_t i = 0; i < n; ++i) {
    AcceptObject obj;
    obj.key = Key(rng.next() & ((1u << kWidth) - 1), kWidth);
    obj.kind = ObjectKind::kQuery;
    obj.query_id = QueryId{first_id + i};
    if (client.insert(obj).ok) ++registered;
  }
  return registered;
}

std::size_t live_queries(const SimCluster& cluster) {
  std::size_t total = 0;
  for (std::size_t i = 0; i < cluster.num_servers(); ++i) {
    if (cluster.is_alive(ServerId{i})) {
      total += cluster.server(ServerId{i}).total_queries();
    }
  }
  return total;
}

ScenarioResult run_scenario(const char* scenario, std::size_t servers,
                            std::size_t queries, std::uint64_t seed,
                            double fault_minutes) {
  ChurnSim sim(base_config(servers, seed));
  sim.start();
  // Dump target for the invariant abort and the main()-side gate: the
  // source must be removed before `sim` dies (the lambda captures it).
  obs::Postmortem& pm = obs::Postmortem::global();
  if (pm.dir().empty()) pm.set_dir(".");
  const std::uint64_t pm_src = obs::register_hub_source(
      pm, obs::Hub::global(), std::string("abl_partition-") + scenario,
      [&sim] { return sim.cluster().now().usec; });
  ScenarioResult r{};
  r.scenario = scenario;
  r.queries_registered = register_queries(sim, queries, 0);
  sim.run_for(SimTime::from_minutes(11));  // replication settles

  const auto side = minority(servers);
  const std::string name(scenario);
  if (name == "split" || name == "splitkill") {
    sim.partition(side);
  } else if (name == "oneway") {
    sim.one_way_partition(side);
  } else {
    sim.set_loss_rate(0.05);
  }
  if (name == "splitkill") {
    // A majority-side server dies mid-split; failover must still
    // recover every replicated group.
    sim.kill(ServerId{side.back().value + 1});
  }
  // The fault does not stop writes: clients keep registering.
  r.queries_registered += register_queries(sim, queries / 3, 100000);
  sim.run_for(SimTime::from_minutes(fault_minutes));

  sim.heal_partitions();
  const auto healed_at = sim.cluster().now();
  bool converged = false;
  // Anti-entropy runs on the 5-minute load checks: give it up to six
  // rounds after the heal before calling the scenario diverged.
  for (int minutes = 0; minutes < 31 && !converged; ++minutes) {
    sim.run_for(SimTime::from_minutes(1));
    converged = sim.cluster().check_replica_heads() == std::nullopt &&
                live_queries(sim.cluster()) == r.queries_registered;
  }
  r.converged = converged;
  r.converge_minutes = (sim.cluster().now() - healed_at).minutes();
  r.queries_kept = live_queries(sim.cluster());

  const auto stats = sim.cluster().total_stats();
  r.link_drops = stats.link_drops;
  r.failovers = stats.failovers;
  r.groups_lost = stats.groups_lost;
  r.snapshot_aborts = stats.snapshot_aborts;
  r.offers_ignored = stats.snapshot_offers_ignored;
  r.snapshot_chunks = stats.snapshot_chunks;
  r.repl_appends = stats.repl_appends;

  if (const auto err = sim.cluster().check_invariants()) {
    std::fprintf(stderr, "INVARIANT VIOLATION (%s): %s\n", scenario,
                 err->c_str());
    pm.dump(std::string("abl_partition invariant (") + scenario + "): " +
            *err);
    std::abort();
  }
  if (!r.converged || r.queries_kept != r.queries_registered ||
      r.groups_lost != 0) {
    pm.dump(std::string("abl_partition gate failure: ") + scenario);
  }
  pm.remove_source(pm_src);
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const ArgParser args(argc, argv);
  const auto servers = std::size_t(args.get_int("servers", 16));
  const auto queries = std::size_t(args.get_int("queries", 60));
  const auto seed = std::uint64_t(args.get_int("seed", 42));
  const double fault_minutes = double(args.get_int("fault-minutes", 3));
  const std::string repro = args.repro(
      {{"servers", std::to_string(servers)},
       {"queries", std::to_string(queries)},
       {"seed", std::to_string(seed)},
       {"fault-minutes", std::to_string(args.get_int("fault-minutes", 3))}});

  std::printf("# Partition ablation: %zu servers, replication factor 2 "
              "(log mode), %.0f-minute faults\n",
              servers, fault_minutes);
  std::printf("%-10s %-9s %14s %13s %11s %9s %6s %13s %13s\n", "scenario",
              "converged", "converge_min", "queries_kept", "link_drops",
              "failover", "lost", "snap_aborts", "dup_offers");

  std::string json = "{\n  \"bench\": \"abl_partition\",\n  \"runs\": [\n";
  bool ok = true;
  bool first = true;
  for (const char* scenario : {"split", "oneway", "lossy", "splitkill"}) {
    const ScenarioResult r =
        run_scenario(scenario, servers, queries, seed, fault_minutes);
    std::printf("%-10s %-9s %14.1f %8zu/%-4zu %11llu %9llu %6llu %13llu "
                "%13llu\n",
                r.scenario, r.converged ? "yes" : "NO", r.converge_minutes,
                r.queries_kept, r.queries_registered,
                (unsigned long long)r.link_drops,
                (unsigned long long)r.failovers,
                (unsigned long long)r.groups_lost,
                (unsigned long long)r.snapshot_aborts,
                (unsigned long long)r.offers_ignored);
    char line[512];
    std::snprintf(
        line, sizeof(line),
        "    %s{\"scenario\": \"%s\", \"converged\": %s, "
        "\"converge_minutes\": %.1f, \"queries_registered\": %zu, "
        "\"queries_kept\": %zu, \"link_drops\": %llu, \"failovers\": %llu, "
        "\"groups_lost\": %llu, \"snapshot_aborts\": %llu, "
        "\"dup_offers_ignored\": %llu, \"snapshot_chunks\": %llu, "
        "\"repl_appends\": %llu}",
        first ? "" : ",", r.scenario, r.converged ? "true" : "false",
        r.converge_minutes, r.queries_registered, r.queries_kept,
        (unsigned long long)r.link_drops, (unsigned long long)r.failovers,
        (unsigned long long)r.groups_lost,
        (unsigned long long)r.snapshot_aborts,
        (unsigned long long)r.offers_ignored,
        (unsigned long long)r.snapshot_chunks,
        (unsigned long long)r.repl_appends);
    json += line;
    json += "\n";
    first = false;

    // Self-gate: at replication factor >= 2 every scenario must heal
    // to identical log heads with zero lost queries.
    if (!r.converged || r.queries_kept != r.queries_registered ||
        r.groups_lost != 0) {
      std::fprintf(stderr,
                   "FAIL: scenario %s did not converge cleanly "
                   "(%zu/%zu queries, %llu groups lost); repro: %s\n",
                   r.scenario, r.queries_kept, r.queries_registered,
                   (unsigned long long)r.groups_lost, repro.c_str());
      ok = false;
    }
  }
  json += "  ]\n}\n";

  std::printf("\n# expectation: every scenario converges after the heal — "
              "identical (epoch, seq) heads on all replicas, zero lost "
              "queries. snap_aborts > 0 under loss shows the nack-driven "
              "transfer restart at work; dup_offers shows assemblies "
              "surviving competing offers.\n");

  obs::maybe_embed_metrics(args, json, obs::Hub::global().registry);
  if (!write_json_artifact(args, json)) return 1;
  return ok ? 0 : 1;
}
