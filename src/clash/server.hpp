// ClashServer: the server side of the protocol (Sections 4 and 5):
// accept, split, merge, reclaim, load reports, and the ring-change
// handoff. Transport-agnostic: all I/O goes through ServerEnv, so the
// same logic runs under the discrete-event simulator, unit tests, and
// the TCP deployment layer. Replication and durability (this
// repository's fault-tolerance extension) live in the member
// repl::Replicator (replicator()), which the protocol drives through
// group-lifecycle calls only.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "clash/config.hpp"
#include "clash/group_state.hpp"
#include "clash/load.hpp"
#include "clash/messages.hpp"
#include "clash/server_table.hpp"
#include "clash/stats.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "dht/dht.hpp"
#include "obs/hub.hpp"
#include "repl/replicator.hpp"

namespace clash::dht {
class ChordRing;
}  // namespace clash::dht

namespace clash {

/// Runtime services a ClashServer needs. Implementations count the
/// messages they carry (that is how the Figure 5 overheads are
/// measured).
class ServerEnv {
 public:
  virtual ~ServerEnv() = default;

  /// Route `h` through the DHT from this server; the implementation
  /// accounts for the O(log S) overlay hops.
  virtual dht::LookupResult dht_lookup(dht::HashKey h) = 0;

  /// The `n` servers after the owner of `h` on the ring (Chord's
  /// replica set). Empty when the substrate offers no replication.
  [[nodiscard]] virtual std::vector<ServerId> replica_targets(
      dht::HashKey h, unsigned n) {
    (void)h;
    (void)n;
    return {};
  }

  /// Deliver a protocol message to a peer server.
  virtual void send(ServerId to, const Message& msg) = 0;

  [[nodiscard]] virtual SimTime now() const = 0;

  /// How many more replication SnapshotChunk messages the transport is
  /// willing to carry toward `to` right now. The default (unlimited)
  /// suits synchronous simulators, which deliver instantly; the TCP
  /// layer derives the budget from the peer connection's outbound
  /// queue depth so huge snapshots never bury a socket, and
  /// Replicator::pump_snapshots resumes paused transfers as the queue
  /// drains.
  [[nodiscard]] virtual std::size_t snapshot_chunk_budget(ServerId to) {
    (void)to;
    return std::numeric_limits<std::size_t>::max();
  }

  /// Run `fn` at the end of the current dispatch tick — the
  /// transport's write-coalescing boundary. Synchronous environments
  /// have no tick, so the default runs it inline. The Replicator uses
  /// this to batch the tick's ReplAppend entries into one frame per
  /// group.
  virtual void defer(std::function<void()> fn) { fn(); }

  /// Run `fn` once, `delay` from now, and return a handle for
  /// cancel_deferred (0: nothing left to cancel). Synchronous
  /// environments have no timers, so the default runs it inline, the
  /// same way defer does. The Replicator uses this to batch positive
  /// replication acks per peer over repl::Replicator::kAckWindow.
  virtual std::uint64_t defer_after(SimDuration delay,
                                    std::function<void()> fn) {
    (void)delay;
    fn();
    return 0;
  }

  /// Drop a defer_after callback that has not run yet.
  virtual void cancel_deferred(std::uint64_t handle) { (void)handle; }

  /// Table-change notifications: `group` became / stopped being an
  /// active leaf on this server. Default no-ops; the simulator uses
  /// them to maintain a global owner index for exact metrics.
  virtual void on_group_activated(const KeyGroup& group) { (void)group; }
  virtual void on_group_deactivated(const KeyGroup& group) { (void)group; }

  /// Where this server's metrics and trace spans go. The default is
  /// the process-global hub (sim substrate, benches); net::ClashNode
  /// overrides with a node-private hub so its stats endpoint serves
  /// exactly one node's view.
  [[nodiscard]] virtual obs::Hub& obs() { return obs::Hub::global(); }
};

/// Application integration (Section 7's game-middleware API): the
/// hosted application can contribute to a group's load ("indicate
/// application overload") and ship opaque state when CLASH moves a
/// group ("distribute application-specific state"). All callbacks run
/// on the server's protocol thread.
class AppHooks {
 public:
  virtual ~AppHooks() = default;

  /// Extra load units the application attributes to `group` (e.g. game
  /// physics cost); added to the data-rate/query model each check.
  [[nodiscard]] virtual double app_load(const KeyGroup& group) {
    (void)group;
    return 0;
  }

  /// Serialise and relinquish the application state belonging to
  /// `group` (it is moving to `destination`).
  [[nodiscard]] virtual std::vector<std::uint8_t> export_state(
      const KeyGroup& group, ServerId destination) {
    (void)group;
    (void)destination;
    return {};
  }

  /// Install state exported by a peer for `group`.
  virtual void import_state(const KeyGroup& group,
                            const std::vector<std::uint8_t>& state) {
    (void)group;
    (void)state;
  }

  /// Non-destructive serialisation of `group`'s application state for
  /// a replication snapshot — unlike export_state, the application
  /// keeps owning (and mutating) the state afterwards.
  [[nodiscard]] virtual std::vector<std::uint8_t> snapshot_state(
      const KeyGroup& group) {
    (void)group;
    return {};
  }

  /// Replay one opaque delta previously pushed through
  /// ClashServer::append_app_delta — called after import_state when a
  /// recovered replica carries logged deltas beyond its app snapshot.
  virtual void apply_delta(const KeyGroup& group,
                           const std::vector<std::uint8_t>& delta) {
    (void)group;
    (void)delta;
  }
};

class ClashServer {
 public:
  ClashServer(ServerId self, const ClashConfig& cfg, ServerEnv& env,
              dht::KeyHasher hasher);
  ClashServer(const ClashServer&) = delete;
  ClashServer& operator=(const ClashServer&) = delete;

  [[nodiscard]] ServerId id() const { return self_; }
  [[nodiscard]] const ClashConfig& config() const { return cfg_; }
  [[nodiscard]] const ServerTable& table() const { return table_; }
  [[nodiscard]] const MessageStats& stats() const { return stats_; }
  void reset_stats() { stats_ = MessageStats{}; }

  // --- Per-group cost metering (observability layer) -------------------
  /// The Gray cost vector per group this server owns or replicates:
  /// what each group costs in serving, replication, and storage. The
  /// record follows the group — split, handoff, and replica drop
  /// evict it (keeping the census bounded under churn).
  [[nodiscard]] const std::map<KeyGroup, GroupCost>& group_costs() const {
    return group_costs_;
  }
  [[nodiscard]] GroupCost total_group_cost() const {
    GroupCost total;
    for (const auto& [group, c] : group_costs_) total += c;
    return total;
  }
  void reset_group_costs() { group_costs_.clear(); }
  /// Fill a census record's gauges + top-`top_k` per-group costs from
  /// this server's registry and cost map (the obs::Census collector;
  /// identity, seq, and checksum are stamped by the census itself).
  void fold_census(NodeCensusRecord& rec, std::size_t top_k) const;
  /// Attribute `n` query matches (serving `bytes` to clients) to the
  /// active group covering `key` — called by cq::EngineHooks when the
  /// stream engine fires.
  void meter_matches(const Key& key, std::size_t n, std::size_t bytes);
  /// Meter `bytes` of replication stream out of `group`.
  void meter_repl_bytes(const KeyGroup& group, std::uint64_t bytes);
  /// Meter `bytes` of durable-storage writes for `group`.
  void meter_storage_bytes(const KeyGroup& group, std::uint64_t bytes);
  /// The hub this server records into (env-provided).
  [[nodiscard]] obs::Hub& obs_hub() const { return hub_; }

  // --- Bootstrap -----------------------------------------------------
  /// Install an entry directly (used by the bootstrap splitter and by
  /// tests building Figure 1/2 scenarios).
  void install_entry(const ServerTableEntry& entry);

  /// Force-split an active group regardless of load (bootstrap path;
  /// also the paper's administrative splitting). Returns false if the
  /// group is absent/inactive/at max depth.
  bool force_split(const KeyGroup& group);

  /// Mark an active group as a root entry (ParentID = -1): an
  /// administrative floor consolidation never collapses through.
  bool mark_group_root(const KeyGroup& group);

  // --- Application API (Section 7 extension) --------------------------
  /// Attach application callbacks (load contribution, state shipping).
  /// The hooks must outlive the server.
  void set_app_hooks(AppHooks* hooks) { app_hooks_ = hooks; }

  /// Application-signalled overload: shed the hottest group now, ahead
  /// of the periodic check. Returns false when nothing is splittable.
  bool signal_overload();

  /// Application-pushed opaque state delta: appended to `group`'s log,
  /// streamed to the replica set, and replayed through
  /// AppHooks::apply_delta when a replica is promoted. Returns false
  /// when this server does not actively own `group` (the caller's
  /// registration raced a migration — re-resolve and retry).
  bool append_app_delta(const KeyGroup& group,
                        std::vector<std::uint8_t> delta);

  // --- Ring changes and failover ------------------------------------------
  /// The one ring-change rule, called by every transport after it
  /// edits `ring` and after Replicator::restore_from_storage (README
  /// "Membership & failover"). Hands each active group `ring` maps
  /// elsewhere to that member, then lets the Replicator probe the
  /// replica sets and promote the orphans `ring` maps here
  /// (Replicator::ring_changed). Reads `ring` with map/contains only
  /// (no hops counted); it must outlive a running grace.
  void on_ring_change(const dht::ChordRing& ring, SimDuration grace);

  /// Promote this server's replica of `group` to active ownership: the
  /// Replicator pulls the freshest suffix from the surviving holders,
  /// and the group installs under a bumped epoch. Falls back to an
  /// empty root entry when no replica exists; returns whether state was
  /// recovered.
  bool promote_replica(const KeyGroup& group);


  // --- Replication and durability (src/repl/replicator.hpp) ---------------
  [[nodiscard]] repl::Replicator& replicator() { return repl_; }
  [[nodiscard]] const repl::Replicator& replicator() const { return repl_; }
  /// Owner-side log head of an active group.
  [[nodiscard]] std::optional<repl::LogHead> log_head(
      const KeyGroup& group) const {
    return repl_.log_head(group);
  }
  /// Replica-side applied head for a group held on behalf of a peer.
  [[nodiscard]] std::optional<repl::LogHead> replica_head(
      const KeyGroup& group) const {
    return repl_.replica_head(group);
  }

  // --- Client RPC (Section 5, three cases) ----------------------------
  [[nodiscard]] AcceptObjectReply handle_accept_object(const AcceptObject& m);

  // --- Peer messages ---------------------------------------------------
  void deliver(ServerId from, const Message& msg);

  // --- Periodic driver --------------------------------------------------
  /// One LOAD_CHECK_PERIOD tick: emit load reports, then split when
  /// overloaded / consolidate when underloaded.
  void run_load_check();

  // --- Bookkeeping used by the simulator and applications ---------------
  /// Remove a stream registration (source key changed or went away).
  /// Not a protocol message: equivalent to the rate decaying to zero in
  /// a per-packet deployment.
  void remove_stream(ClientId source, const Key& key);

  /// Remove an expired continuous query.
  void remove_query(QueryId id, const Key& key);

  // --- Introspection ----------------------------------------------------
  [[nodiscard]] double server_load() const;
  [[nodiscard]] double load_of(const KeyGroup& group) const;
  [[nodiscard]] const GroupState* group_state(const KeyGroup& group) const;
  [[nodiscard]] std::size_t total_queries() const;
  [[nodiscard]] std::size_t total_streams() const;
  [[nodiscard]] bool is_active() const { return table_.active_count() > 0; }

 private:
  struct ChildReport {
    double load = 0;
    bool is_leaf = false;
    SimTime at{0};
  };

  // Protocol peer messages (the Replicator takes the replication ones).
  void handle(ServerId from, const AcceptKeyGroup& m);
  void handle(ServerId from, const LoadReport& m);
  void handle(ServerId from, const ReclaimKeyGroup& m);
  void handle(ServerId from, const ReclaimAck& m);
  void handle(ServerId from, const ReclaimRefused& m);
  /// Acknowledgement only; the transfer was already applied locally.
  void handle(ServerId /*from*/, const AcceptKeyGroupAck& /*m*/) {}

  /// `group` stopped being active here: the Replicator retires its log
  /// and replicas, and its cost history goes with it.
  void retire_group(const KeyGroup& group);
  /// Drop `group`'s cost history unless it is active here (a replica
  /// record of it went away).
  void forget_costs_unless_active(const KeyGroup& group);

  /// Split `group`, shedding its right half (Section 5). When
  /// `reshed_on_self_map` is set and the right child maps back to this
  /// server, the right group's depth is increased again for "another
  /// randomized attempt" (load-shedding semantics); otherwise both
  /// children simply stay local (administrative splitting).
  void split_group(const KeyGroup& group, bool reshed_on_self_map);

  void send_load_reports();
  void try_split_for_overload();
  void try_consolidate();

  [[nodiscard]] std::optional<KeyGroup> pick_split_candidate();
  [[nodiscard]] std::optional<KeyGroup> pick_merge_candidate() const;

  /// Move the members of `subset` out of `st` into the returned state.
  static GroupState extract_subset(GroupState& st, const KeyGroup& subset);

  /// True when `group` is entangled in an in-flight reclaim: it must
  /// neither split nor move, since the merge handler needs the local
  /// leaves exactly where the reports said.
  [[nodiscard]] bool in_reclaim(const KeyGroup& group) const {
    return !group.is_root() && pending_reclaims_.count(group.sibling()) > 0;
  }
  /// Move active `group` to `to` with full state (ring re-admission
  /// healed the routing — without this, a rejoined node would serve its
  /// key ranges empty).
  void hand_over(const KeyGroup& group, ServerId to);

  /// Drop an emptied ephemeral group (fixed-depth baseline mode).
  void maybe_gc_group(const KeyGroup& group);

  /// Queries-to-STATE_TRANSFER-message accounting.
  [[nodiscard]] std::uint64_t state_msgs_for(std::size_t query_count) const;

  ServerId self_;
  ClashConfig cfg_;
  ServerEnv& env_;
  dht::KeyHasher hasher_;
  AppHooks* app_hooks_ = nullptr;
  ServerTable table_;
  std::map<KeyGroup, GroupState> state_;
  std::map<KeyGroup, ChildReport> child_reports_;  // right-child group -> report
  std::set<KeyGroup> pending_reclaims_;            // right-child groups asked back

  Rng rng_;
  MessageStats stats_;

  // --- Observability (src/obs/) ----------------------------------------
  obs::Hub& hub_;  // env_.obs(), cached at construction
  obs::Counter puts_total_;
  obs::Counter repl_bytes_total_;

  std::map<KeyGroup, GroupCost> group_costs_;

  // --- Journal glue -----------------------------------------------------
  /// Stable correlation tag for a group in journal records (the label
  /// string itself lives in the open-op index).
  [[nodiscard]] static std::uint64_t group_tag(const KeyGroup& group) {
    return std::hash<KeyGroup>{}(group);
  }
  [[nodiscard]] std::uint32_t node_id() const {
    return std::uint32_t(self_.value);
  }
  /// Record one instant about `group` in the hub's journal.
  void note(obs::Kind kind, const KeyGroup& group, std::uint64_t b = 0) {
    if (!hub_.journal.recording(kind)) return;
    hub_.journal.instant(kind, node_id(), env_.now().usec, group_tag(group),
                         b, active_trace_);
  }
  /// Open a journal op about `group` toward `peer`.
  [[nodiscard]] obs::Op begin_op(obs::Kind kind, const KeyGroup& group,
                                 ServerId peer, std::uint64_t target = 0,
                                 std::uint64_t trace_id = 0) {
    return hub_.journal.begin(kind, node_id(), env_.now().usec,
                              group.label(), peer.value, group_tag(group),
                              target, trace_id);
  }
  /// Group lifecycle hooks with a journal record attached.
  void note_group_activated(const KeyGroup& group) {
    note(obs::Kind::kGroupActivated, group);
    env_.on_group_activated(group);
  }
  void note_group_deactivated(const KeyGroup& group) {
    note(obs::Kind::kGroupDeactivated, group);
    env_.on_group_deactivated(group);
  }

  /// Correlation id of the operation currently being dispatched
  /// (nonzero only while handling a traced AcceptObject / ReplAppend /
  /// snapshot): every span recorded and every replication message sent
  /// downstream inside the dispatch inherits it, which is what stitches
  /// one query's flow across nodes. Scoped by TraceScope.
  std::uint64_t active_trace_ = 0;
  /// RAII for active_trace_: installs `id` (when nonzero) for one
  /// message dispatch and restores the previous value on exit, so
  /// nested dispatches under synchronous transports keep their own ids.
  struct TraceScope {
    TraceScope(std::uint64_t& s, std::uint64_t id) : slot(s), saved(s) {
      if (id != 0) slot = id;
    }
    ~TraceScope() { slot = saved; }
    std::uint64_t& slot;
    std::uint64_t saved;
  };

  /// Replication and durability; constructed last, since it reads the
  /// members above.
  friend class repl::Replicator;
  repl::Replicator repl_{*this};
};

}  // namespace clash
