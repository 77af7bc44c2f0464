// The experiment runtime: drives a SimCluster through the paper's
// Section 6 scenario — data sources with exponentially-long virtual
// streams, churning query clients, staggered per-server load checks,
// phased workloads (A -> B -> C), periodic metric sampling.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "clash/client.hpp"
#include "sim/cluster.hpp"
#include "sim/event_queue.hpp"
#include "sim/metrics.hpp"
#include "sim/workload.hpp"

namespace clash {
class PowerOfDChoices;
}

namespace clash::sim {

/// Which placement scheme the run exercises.
enum class Mode {
  kClash,       // full protocol (adaptive splitting/merging)
  kFixedDepth,  // basic DHT(x): groups pinned at initial_depth
  kPowerOfTwo,  // fixed depth + least-loaded-of-2-candidates placement
};

struct RuntimeConfig {
  SimCluster::Config cluster;
  Mode mode = Mode::kClash;

  std::size_t num_sources = 100'000;
  std::size_t num_query_clients = 50'000;

  /// Mean virtual stream length in packets (paper's Ld).
  double mean_stream_packets = 1000;
  /// Mean query-client lifetime (paper's Lq).
  SimDuration mean_query_lifetime = SimTime::from_minutes(30);

  /// On a key change, probability of re-sampling a fresh key from the
  /// workload (vs a local move that keeps the semantic prefix).
  double p_jump = 0.1;
  /// Bits re-rolled by a local move.
  unsigned local_move_bits = 8;

  /// Metric sampling cadence.
  SimDuration sample_period = SimTime::from_minutes(5);

  /// Also validate cluster invariants at every sample, not only at each
  /// phase boundary (kPowerOfTwo checks neither: the same group may
  /// legitimately live on two candidate servers, so the global
  /// prefix-free invariant does not apply).
  bool paranoid = false;

  struct Phase {
    char workload;  // 'A', 'B', or 'C'
    SimDuration duration;
  };
  std::vector<Phase> phases;

  std::uint64_t seed = 42;
};

struct PhaseStats {
  std::string workload;
  SimDuration duration{0};
  MessageStats delta;  // messages during this phase

  /// The paper's Figure 5 metric.
  [[nodiscard]] double msgs_per_sec_per_server(std::size_t servers,
                                               bool include_state) const {
    const double secs = duration.seconds();
    if (secs <= 0 || servers == 0) return 0;
    const auto n = include_state ? delta.total_messages()
                                 : delta.control_messages();
    return double(n) / secs / double(servers);
  }
};

struct RunResult {
  // Figure 4 time series (percent of capacity, counts, depths).
  TimeSeries max_load_pct;
  TimeSeries avg_load_pct;
  TimeSeries active_servers;
  TimeSeries active_groups;
  TimeSeries depth_min;
  TimeSeries depth_avg;
  TimeSeries depth_max;

  std::vector<PhaseStats> phase_stats;
  MessageStats totals;

  // Depth-search behaviour (Section 5 claims).
  Summary probes_per_search;
  Summary hops_per_search;
  std::uint64_t cache_hits = 0;
  std::uint64_t searches = 0;
  std::uint64_t failed_resolves = 0;

  std::uint64_t events_processed = 0;
  std::string invariant_violation;  // empty when clean
};

class Runtime {
 public:
  explicit Runtime(RuntimeConfig config);
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  RunResult run();

  [[nodiscard]] SimCluster& cluster() { return *cluster_; }

 private:
  [[nodiscard]] bool verify_invariants() const {
    return config_.mode != Mode::kPowerOfTwo;
  }
  struct Source {
    ClientId id{};
    Key key{0, 24};
    double rate = 0;
    ServerId access{};
    unsigned epoch = 0;  // workload phase the key was drawn from
    bool registered = false;
    std::unique_ptr<ClashClient> client;
    Rng rng{0};
  };

  struct LiveQuery {
    QueryId id{};
    Key key{0, 24};
    bool alive = false;
  };

  void setup_phases();
  void setup_sources();
  void setup_query_clients();
  void setup_load_checks();
  void setup_sampling();

  void register_source(std::size_t idx);
  void schedule_key_change(std::size_t idx);
  void on_key_change(std::size_t idx);

  void spawn_query(std::size_t slot);
  void expire_query(std::size_t slot, std::uint64_t expected_generation);

  void record_outcome(const ResolveOutcome& out);
  void take_sample();

  [[nodiscard]] const WorkloadSpec& current_spec() const;
  [[nodiscard]] const KeyGenerator& current_keygen() const;

  /// Fixed-depth / power-of-two insert path (no depth search).
  ResolveOutcome insert_fixed(Source& src, AcceptObject obj);

  RuntimeConfig config_;
  std::unique_ptr<SimCluster> cluster_;
  EventQueue events_;
  Rng master_rng_;

  std::vector<WorkloadSpec> phase_specs_;
  std::vector<std::unique_ptr<KeyGenerator>> phase_keygens_;
  unsigned current_phase_ = 0;

  std::deque<Source> sources_;
  std::vector<LiveQuery> queries_;
  std::vector<std::uint64_t> query_generation_;
  /// Per-server load-check closures (owned here so the rescheduling
  /// lambdas can capture weakly instead of leaking a self-cycle).
  std::vector<std::shared_ptr<std::function<void()>>> load_check_ticks_;
  std::uint64_t next_query_id_ = 1;

  // Power-of-two-choices bookkeeping (kPowerOfTwo mode only).
  std::unique_ptr<PowerOfDChoices> po2_;
  std::vector<ServerId> po2_stream_home_;
  std::vector<ServerId> po2_query_home_;

  RunResult result_;
  MessageStats phase_start_stats_;
  SimTime phase_start_time_{0};
};

}  // namespace clash::sim
