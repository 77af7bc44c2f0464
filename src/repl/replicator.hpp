// repl::Replicator: the replication and durability half of one
// ClashServer (this repository's fault-tolerance extension; the paper's
// protocol stays in ClashServer). It owns the operation logs and their
// WAL records, ReplAppend batches, acks, paced snapshot transfers,
// anti-entropy, replica records, recovery sessions, the durable store
// and the orphan-promotion half of the ring-change rule. The server
// drives it through group-lifecycle calls only (activated, logged,
// retired, take_for_promotion, ring_changed, tick); with
// replication_factor 0 and no store each returns at once. As a member
// of its server it reads the server's table, state, hooks and stats.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "clash/config.hpp"
#include "clash/messages.hpp"
#include "clash/server_table.hpp"
#include "obs/hub.hpp"
#include "repl/log.hpp"

namespace clash {
class ClashServer;
class ServerEnv;
namespace dht {
class ChordRing;
}  // namespace dht
namespace storage {
class NodeStore;
}  // namespace storage
}  // namespace clash

namespace clash::repl {

/// Counters of the recovery sessions that promotions run: the heir
/// probes the surviving replica set for fresher (epoch, seq) heads and
/// peers stream back the missing suffix (or a snapshot when it was
/// compacted) before the promotion installs, so a stale replica is
/// never silently promoted when a fresher peer existed.
struct RecoveryStats {
  std::uint64_t sessions = 0;          // recoveries opened
  std::uint64_t entries_repaired = 0;  // log ops pulled from peers
  std::uint64_t snapshots_pulled = 0;  // full-state pulls from peers
  /// Promotions that would have installed stale state but were healed
  /// by peer repair before installing.
  std::uint64_t stale_promotions_averted = 0;
  /// Promotions that went ahead while still behind the freshest head
  /// any peer or owner ever advertised (availability over freshness:
  /// the alternative is losing the group outright).
  std::uint64_t stale_promotions = 0;
};

class Replicator {
 public:
  explicit Replicator(ClashServer& server);
  ~Replicator();
  Replicator(const Replicator&) = delete;
  Replicator& operator=(const Replicator&) = delete;

  /// How long a replica holds positive ReplAcks before sending them:
  /// every group head owed to one peer within the window leaves as a
  /// single cumulative ReplAck. Nacks are never held.
  static constexpr SimDuration kAckWindow{1000};

  // --- Group lifecycle (called by the server) ---------------------------
  /// `entry` just became an active group here. With `min_epoch == 0`
  /// an existing log is kept (split children, a merged parent, a
  /// bootstrap install); otherwise the log restarts at an epoch above
  /// both `min_epoch` and any epoch used here before (a transfer or a
  /// promotion starts a new ownership line), which also drops any
  /// recovery still open for the group. The replica set then gets a
  /// snapshot at once: a group must never live a check period with no
  /// replica, or its owner's crash in that window would lose it (and,
  /// on TCP, leave its key range unroutable), and a second failure
  /// after a promotion must still find fresh holders.
  void activated(const ServerTableEntry& entry, std::uint64_t min_epoch = 0);

  /// Append one op to an active group's log: WAL first, then queued
  /// for the replica set. Ops queued during one dispatch tick coalesce
  /// into one ReplAppend frame per group (flushed through
  /// ServerEnv::defer; synchronous environments flush inline).
  void logged(const KeyGroup& group, LogOp op);

  /// `group` stopped being active here (gc, split, merge, handoff):
  /// its log retires and its replica holders drop their records.
  void retired(const KeyGroup& group);

  /// What take_for_promotion hands the server to install.
  struct Promotion {
    /// The replica's image at its repaired head; nullopt when no
    /// replica exists here (adopt the bare group).
    std::optional<GroupImage> image;
    /// Floor of the new ownership line: above anything ever
    /// advertised for the group (pass to activated).
    std::uint64_t min_epoch = 1;
  };
  /// Take this server's replica of `group` for promotion: pulls the
  /// freshest suffix from the surviving holders, then closes the
  /// recovery session. nullopt (and the session dropped) when an entry
  /// for, or an active entry overlapping, `group` exists here.
  [[nodiscard]] std::optional<Promotion> take_for_promotion(
      const KeyGroup& group);

  /// The orphan half of ClashServer::on_ring_change: probes every
  /// active group's replica set (anti-entropy), then promotes each
  /// replica record `ring` maps here whose owner is off the ring (or,
  /// right after restore_from_storage, is this server) once `grace`
  /// has passed and that still holds (ServerEnv::defer_after). `ring`
  /// must outlive a running grace.
  void ring_changed(const dht::ChordRing& ring, SimDuration grace);

  /// One load-check period: store fsync backstop and snapshot retries,
  /// replica lease GC, anti-entropy, and paused snapshot transfers.
  void tick();

  // --- Peer messages -----------------------------------------------------
  void handle(ServerId from, const DropReplica& m);
  void handle(ServerId from, const ReplAppend& m);
  void handle(ServerId from, const ReplAck& m);
  void handle(ServerId from, const SnapshotOffer& m);
  void handle(ServerId from, const SnapshotChunk& m);
  void handle(ServerId from, const AntiEntropyProbe& m);
  void handle(ServerId from, const AntiEntropyDiff& m);

  // --- Configuration and durable storage ---------------------------------
  /// True when groups are replicated (by the operation log).
  [[nodiscard]] bool replicating() const {
    return cfg_.replication_factor > 0;
  }
  /// True when a store is attached and the config enables durability.
  [[nodiscard]] bool durable() const {
    return storage_ != nullptr &&
           cfg_.durability_mode != ClashConfig::DurabilityMode::kNone;
  }
  /// Attach the node's durable store: every owned-group mutation
  /// appends to its WAL, activations write baseline snapshots, and log
  /// compaction cuts checkpoint snapshots. Attach before any traffic;
  /// the store must outlive the server.
  void set_storage(storage::NodeStore* store) { storage_ = store; }
  /// Install the store's recovered pre-crash image as replica records
  /// (owner = self). The next ring change re-adopts each one the ring
  /// maps here under a bumped epoch, and the recovery pull fetches only
  /// the divergent suffix from live holders. Returns the number of
  /// groups restored.
  std::size_t restore_from_storage();

  /// Resume snapshot transfers that paused on transport backpressure:
  /// sends as many pending chunks as each destination's budget allows.
  /// Returns the number of transfers still unfinished. Driven by tick
  /// and, on the TCP layer, by connection-drain callbacks.
  std::size_t pump_snapshots();
  [[nodiscard]] bool has_pending_snapshots() const {
    return !outbound_snapshots_.empty();
  }

  // --- Introspection -------------------------------------------------------
  /// Owner-side log head of an active group.
  [[nodiscard]] std::optional<LogHead> log_head(const KeyGroup& group) const;
  /// Replica-side applied head for a group held on behalf of a peer.
  [[nodiscard]] std::optional<LogHead> replica_head(
      const KeyGroup& group) const;
  /// Replica-side object state.
  [[nodiscard]] const GroupState* replica_state(const KeyGroup& group) const;
  [[nodiscard]] const RecoveryStats& recovery_stats() const {
    return recovery_stats_;
  }
  [[nodiscard]] std::size_t replica_count() const { return replicas_.size(); }
  [[nodiscard]] bool has_replica(const KeyGroup& group) const {
    return replicas_.count(group) > 0;
  }
  /// Groups this server holds replicas of on behalf of `owner`.
  [[nodiscard]] std::vector<KeyGroup> replicas_owned_by(ServerId owner) const;

 private:
  /// A replica held on behalf of another owner.
  struct ReplicaRecord {
    ServerId owner{};
    /// The held state; image.head always equals log.head().
    GroupImage image;
    /// Last time any owner/peer touched this record (lease clock).
    SimTime refreshed{0};
    /// Applied position + retained suffix (entries repair peers).
    GroupLog log{0, 0};
    /// Freshest head any owner/peer ever advertised for the group.
    LogHead advertised;
    /// Head of the last transfer this holder tore down and nacked: the
    /// dead stream's remaining chunks must stay silent (one nack per
    /// failed transfer, not one per stale chunk).
    LogHead last_nacked{};

    /// In-flight chunked snapshot assembly (chunks must arrive in
    /// order; a mismatch drops the assembly, nacks the sender for an
    /// immediate restart, and anti-entropy backstops the retry).
    struct PendingSnapshot {
      ServerId owner{};
      GroupImage image;  // group, head, root, parent from the offer
      std::uint32_t total = 0;
      std::uint32_t received = 0;
      /// Journal op (kSnapshotIn) opened by the offer.
      obs::Op op;
    };
    std::optional<PendingSnapshot> pending;
  };
  using Replicas = std::map<KeyGroup, ReplicaRecord>;

  /// Paced outbound snapshot transfers: chunks are pre-cut at offer
  /// time (a stable image regardless of later mutations) and drained
  /// by pump_snapshots as the destination's budget allows.
  struct OutboundSnapshot {
    std::vector<SnapshotChunk> chunks;
    std::size_t next = 0;
    obs::Op op;  // kSnapshotOut, opened by the offer
  };

  /// Per-tick ReplAppend batch of one group.
  struct PendingAppend {
    std::uint64_t epoch = 0;
    std::uint64_t base_seq = 0;
    /// Correlation id of the traced op (if any) batched here; a batch
    /// coalescing several ops keeps the first traced one's id.
    std::uint64_t trace_id = 0;
    std::vector<LogOp> entries;
  };

  /// ReplAppend batches in flight: head seq + send time, popped by the
  /// first ok ReplAck at or past that seq (commit-latency histogram).
  /// One kReplAppend journal op per group spans the time its batch
  /// queue is non-empty.
  struct PendingCommit {
    std::uint64_t epoch = 0;
    std::uint64_t seq = 0;
    SimTime sent{0};
    std::uint64_t trace_id = 0;
  };
  struct PendingCommits {
    std::deque<PendingCommit> batches;
    obs::Op op;
  };

  /// The ring successors holding `group`'s replicas.
  [[nodiscard]] std::vector<ServerId> replica_set(const KeyGroup& group);
  [[nodiscard]] const ServerTableEntry* active_entry(
      const KeyGroup& group) const;

  // Owner side: the log, its batches and commits.
  void send_append_batch(const KeyGroup& group, PendingAppend&& batch);
  void flush_pending_appends();
  /// Send (and forget) one group's queued batch — run before its log
  /// is retired or re-epoched so no batch outlives its line.
  void flush_pending_append(const KeyGroup& group);
  /// Start (or restart) a group's log at an epoch strictly above both
  /// `min_epoch` and any epoch this server previously used for it.
  GroupLog& init_group_log(const KeyGroup& group, std::uint64_t min_epoch);
  /// Heads registered under the old line can never be acked now.
  void drop_pending_commits(const KeyGroup& group);
  void commit_acked(const KeyGroup& group, const LogHead& head);

  // Snapshots.
  /// An active group's image at its log head (the owner's snapshot).
  [[nodiscard]] GroupImage owner_image(const ServerTableEntry& entry) const;
  /// Snapshot an active group that has a log to its whole replica set
  /// and compact.
  void snapshot_group(const ServerTableEntry& entry);
  /// Write `entry`'s image as its on-disk snapshot (no-op without a
  /// durable store). Baselines anchor WAL replay; checkpoints also
  /// advance the truncation floor.
  void persist_group_snapshot(const ServerTableEntry& entry, bool checkpoint);
  /// Chunk `img` to `to` as `owner`'s snapshot (owner snapshots and
  /// peer-built repair snapshots share this path). The offer goes out
  /// at once; chunks flow through the paced outbound cursor.
  void send_state_snapshot(ServerId to, const GroupImage& img,
                           ServerId owner);
  /// Drop the unsent remainder of `group`'s transfers — only the one to
  /// `to` when it is valid (its receiver nacked) — or of all of them
  /// (the group left this server); repair restarts from scratch.
  void cancel_outbound_snapshots(const KeyGroup& group, ServerId to = {});

  // Repair.
  /// Periodic anti-entropy: batched (epoch, seq) vectors per holder.
  void send_anti_entropy();
  /// Answer a peer that reported being behind on `group` at `have`.
  void repair_peer(ServerId to, const KeyGroup& group, LogHead have);
  /// Nack one group's append or snapshot chunk now, naming our head.
  void send_nack(ServerId to, const KeyGroup& group, LogHead head);
  /// Owe `to` a positive ack for `group` at `head` (newer heads replace
  /// older ones) and arm the kAckWindow flush if it is not armed.
  void owe_ack(ServerId to, const KeyGroup& group, LogHead head);
  /// Send every owed head: one cumulative ReplAck per peer.
  void flush_owed_acks();
  /// Count and journal a frame dropped by a corruption fence.
  void reject_corrupt(const KeyGroup& group);

  // Replica records and recovery.
  /// Drop replica records nobody has refreshed for several check
  /// periods: an ownership move re-targets the replica set, and the
  /// ex-holders' stale copies must not linger as promotion poison.
  void gc_stale_replicas();
  /// Erase a replica record; a snapshot assembly it still holds is
  /// aborted, or its op would stay open (and read as stalled) forever.
  Replicas::iterator erase_replica(Replicas::iterator it);
  /// The promotion test: a replica record of `group` that `ring` maps
  /// here, whose owner is off the ring (or is this server when
  /// `restored`).
  [[nodiscard]] bool orphaned_here(const dht::ChordRing& ring,
                                   const KeyGroup& group,
                                   bool restored) const;
  /// Open a recovery session for a group about to be promoted here:
  /// probes the replica set for fresher heads so peers can stream the
  /// missing suffix before the promotion installs.
  void begin_group_recovery(const KeyGroup& group);
  /// Drop an open recovery session without promoting (a leaked session
  /// would suppress the peer probes of every future recovery).
  void abandon_group_recovery(const KeyGroup& group);
  /// A session's local copy advanced: `entries` ops, or a whole
  /// snapshot when 0.
  void note_repaired(const KeyGroup& group, std::size_t entries);

  ClashServer& srv_;
  ServerEnv& env_;
  const ClashConfig& cfg_;
  obs::Hub& hub_;
  ServerId self_;
  storage::NodeStore* storage_ = nullptr;

  /// Owner-side logs of the groups this server actively manages. Acks
  /// confirm holder progress; repair is nack-driven, so no per-holder
  /// state is kept here.
  std::map<KeyGroup, GroupLog> logs_;
  /// Last epoch used locally for a no-longer-active group: a
  /// reactivation must start strictly above it so stale copies can
  /// never dominate the new line.
  std::map<KeyGroup, std::uint64_t> retired_epochs_;
  std::map<KeyGroup, PendingAppend> pending_appends_;
  bool append_flush_scheduled_ = false;
  std::map<KeyGroup, PendingCommits> pending_commits_;
  /// Positive acks owed per peer, newest head per group (owe_ack).
  std::map<ServerId, std::map<KeyGroup, LogHead>> owed_acks_;
  /// Pending flush_owed_acks (ServerEnv::defer_after handle; 0: none).
  std::uint64_t ack_flush_timer_ = 0;
  std::map<std::pair<ServerId, KeyGroup>, OutboundSnapshot>
      outbound_snapshots_;
  bool pumping_snapshots_ = false;  // re-entrancy guard (nack restarts)

  Replicas replicas_;
  /// Open recovery sessions, one per group being promoted here.
  struct RecoverySession {
    LogHead start;          // the local head when the probes went out
    bool repaired = false;  // a peer moved the local copy since
    /// kRecoveryPull journal op: ended by the promotion (the failover
    /// span), aborted by any cancellation.
    obs::Op op;
  };
  std::map<KeyGroup, RecoverySession> recovering_;
  RecoveryStats recovery_stats_;
  /// Set by restore_from_storage: the next ring change also re-adopts
  /// the records it restored (owner = this server).
  bool adopt_restored_ = false;
  /// Replica-lease clock: the GC lease floors at the slowest observed
  /// gap between ticks (the real refresh cadence).
  SimTime last_tick_{-1};
  std::int64_t observed_tick_gap_usec_ = 0;

  obs::HistogramHandle commit_latency_us_;
  obs::HistogramHandle failover_us_;
  obs::HistogramHandle snapshot_install_us_;
  obs::Counter corrupt_rejected_total_;
};

}  // namespace clash::repl
