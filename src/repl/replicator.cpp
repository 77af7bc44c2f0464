#include "repl/replicator.hpp"

#include <algorithm>

#include "clash/server.hpp"
#include "common/logging.hpp"
#include "dht/chord.hpp"
#include "storage/store.hpp"
#include "wire/codec.hpp"

namespace clash::repl {

// Structural wire-size model for the cost vector: close enough to the
// encoded sizes for placement decisions, free on the hot path (no
// second encode).
namespace {

constexpr std::uint64_t kMsgOverheadBytes = 24;

std::uint64_t approx_append_bytes(const std::vector<LogOp>& ops) {
  std::uint64_t b = kMsgOverheadBytes;
  for (const auto& op : ops) b += 24 + op.app_delta.size();
  return b;
}

std::uint64_t approx_chunk_bytes(const SnapshotChunk& c) {
  std::uint64_t b = kMsgOverheadBytes + 24 * c.streams.size() +
                    16 * c.queries.size() + c.app_state.size();
  for (const auto& d : c.app_deltas) b += d.size();
  return b;
}

}  // namespace

Replicator::Replicator(ClashServer& server)
    : srv_(server),
      env_(server.env_),
      cfg_(server.cfg_),
      hub_(server.hub_),
      self_(server.self_) {
  auto& reg = hub_.registry;
  commit_latency_us_ = reg.histogram("clash_repl_commit_usec");
  failover_us_ = reg.histogram("clash_failover_recovery_usec");
  snapshot_install_us_ = reg.histogram("clash_snapshot_install_usec");
  corrupt_rejected_total_ = reg.counter("clash_corrupt_rejected_total");
}

Replicator::~Replicator() {
  // Acks still owed die with the server (the owner re-syncs through
  // anti-entropy); only the pending flush must not outlive it.
  if (ack_flush_timer_ != 0) env_.cancel_deferred(ack_flush_timer_);
}

std::vector<ServerId> Replicator::replica_set(const KeyGroup& group) {
  return env_.replica_targets(srv_.hasher_.hash_key(group.virtual_key()),
                              cfg_.replication_factor);
}

const ServerTableEntry* Replicator::active_entry(const KeyGroup& group) const {
  const ServerTableEntry* entry = srv_.table().find(group);
  return entry != nullptr && entry->active ? entry : nullptr;
}

// ---------------------------------------------------------------------------
// Group lifecycle.
// ---------------------------------------------------------------------------

void Replicator::activated(const ServerTableEntry& entry,
                           std::uint64_t min_epoch) {
  if (!replicating() && !durable()) return;
  if (min_epoch != 0) {
    // A new ownership line supersedes any in-flight recovery of the
    // same group (e.g. a handoff landing inside a promotion grace).
    abandon_group_recovery(entry.group);
    init_group_log(entry.group, min_epoch);
  } else if (logs_.count(entry.group) == 0) {
    // Creating the log writes the baseline snapshot.
    init_group_log(entry.group, 1);
  }
  if (replicating()) snapshot_group(entry);
}

void Replicator::retired(const KeyGroup& group) {
  if (!replicating() && !durable()) return;
  cancel_outbound_snapshots(group);  // the image being streamed is dead
  flush_pending_append(group);
  drop_pending_commits(group);
  if (const auto it = logs_.find(group); it != logs_.end()) {
    // A reactivation must start above this line's epoch.
    retired_epochs_[group] = it->second.epoch();
    if (durable()) {
      storage_->drop_group(group, it->second.epoch(), env_.now());
    }
    logs_.erase(it);
  }
  if (!replicating()) return;
  for (const ServerId target : replica_set(group)) {
    if (target != self_) env_.send(target, DropReplica{group});
  }
}

std::optional<Replicator::Promotion> Replicator::take_for_promotion(
    const KeyGroup& group) {
  // Stale or duplicate promotion requests must never corrupt the
  // table; their recovery session goes with them.
  if (srv_.table().find(group) != nullptr) {
    abandon_group_recovery(group);
    return std::nullopt;
  }
  for (const ServerTableEntry* e : srv_.table().active_entries()) {
    if (e->group.covers(group) || group.covers(e->group)) {
      CLASH_WARN << to_string(self_) << ": refusing promotion of "
                 << group.label() << " (overlaps active "
                 << e->group.label() << ")";
      abandon_group_recovery(group);
      return std::nullopt;
    }
  }
  // A replica that lags the highest advertised head is repaired (or
  // superseded by a fresher peer), never silently promoted: synchronous
  // transports complete the pull inside begin_group_recovery; on TCP,
  // ring_changed opened the session when its grace began. A
  // durable-only node (factor 0) pulls nothing: its record is its disk.
  begin_group_recovery(group);

  Promotion out;
  LogHead head;
  LogHead advertised;
  if (const auto it = replicas_.find(group); it != replicas_.end()) {
    head = it->second.log.head();
    advertised = it->second.advertised;
    out.image = std::move(it->second.image);
    erase_replica(it);
  }
  const auto rs = recovering_.find(group);
  if (head < advertised) {
    ++recovery_stats_.stale_promotions;
  } else if (rs != recovering_.end() && rs->second.repaired &&
             rs->second.start < head) {
    ++recovery_stats_.stale_promotions_averted;  // healed by peer repair
  }
  if (rs != recovering_.end()) {
    failover_us_.record_signed(env_.now().usec - rs->second.op.start_us);
    hub_.journal.end(rs->second.op, env_.now().usec, out.image ? 1 : 0);
    recovering_.erase(rs);
  }
  // New ownership line: the epoch rises above anything ever advertised.
  out.min_epoch = std::max(head.epoch, advertised.epoch) + 1;
  return out;
}

void Replicator::ring_changed(const dht::ChordRing& ring, SimDuration grace) {
  if (replicating()) send_anti_entropy();

  std::vector<KeyGroup> orphans;
  for (const auto& [group, rec] : replicas_) {
    if (orphaned_here(ring, group, adopt_restored_)) orphans.push_back(group);
  }
  adopt_restored_ = false;
  for (const KeyGroup& group : orphans) {
    if (!replicating()) {
      (void)srv_.promote_replica(group);
      continue;
    }
    if (recovering_.count(group) > 0) continue;  // its grace is running
    // Probe the holders now so the freshest can stream the missing
    // suffix during the grace. An owner back on the ring, or a ring
    // that moved the group on, cancels: promoting anyway would leave
    // two owners, the fenced-out epoch winning.
    begin_group_recovery(group);
    env_.defer_after(grace, [this, &ring, group] {
      if (orphaned_here(ring, group, /*restored=*/true)) {
        (void)srv_.promote_replica(group);
      } else {
        abandon_group_recovery(group);
      }
    });
  }
}

void Replicator::tick() {
  if (!replicating() && !durable()) return;
  // The replica lease must track the cadence ticks actually run at:
  // the deployment layer drives load checks on its own interval, which
  // may be far longer than ClashConfig::load_check_period — deriving
  // the lease from the config alone could expire perfectly live
  // replicas between two refreshes.
  const SimTime now = env_.now();
  if (last_tick_.usec >= 0) {
    observed_tick_gap_usec_ =
        std::max(observed_tick_gap_usec_, (now - last_tick_).usec);
  }
  last_tick_ = now;
  if (durable()) {
    storage_->tick(now);  // group-commit fsync backstop
    // Re-anchor any group whose snapshot write failed (ENOSPC,
    // transient I/O): without the baseline, recovery would replay its
    // ops onto an empty image and call the partial result success.
    for (const ServerTableEntry* e : srv_.table().active_entries()) {
      if (storage_->snapshot_retry_pending(e->group)) {
        persist_group_snapshot(*e, /*checkpoint=*/false);
      }
    }
  }
  gc_stale_replicas();
  // The steady-state refresh is one (epoch, seq) vector per holder;
  // divergence is repaired by exactly the missing suffix.
  if (replicating()) send_anti_entropy();
  // Resume any snapshot transfer that paused on transport backpressure
  // (the drain callback is the fast path; this is the periodic
  // backstop).
  pump_snapshots();
}

// ---------------------------------------------------------------------------
// Owner side: the operation log, per-tick batches, commits.
// ---------------------------------------------------------------------------

GroupLog& Replicator::init_group_log(const KeyGroup& group,
                                    std::uint64_t min_epoch) {
  // A queued batch must not outlive its epoch: send it under the old
  // line before the new one starts.
  flush_pending_append(group);
  std::uint64_t epoch = std::max<std::uint64_t>(min_epoch, 1);
  const auto it = retired_epochs_.find(group);
  if (it != retired_epochs_.end()) epoch = std::max(epoch, it->second + 1);
  GroupLog& log =
      logs_.insert_or_assign(group, GroupLog(epoch, 0)).first->second;
  srv_.note(obs::Kind::kEpochBump, group, epoch);
  drop_pending_commits(group);
  // A new line's baseline must hit the disk before any of its WAL
  // records: recovery anchors the replay on it (the state adopted with
  // the group — a split's share, a handoff, a promoted replica — never
  // went through append, so only the snapshot carries it).
  if (const ServerTableEntry* entry = active_entry(group)) {
    persist_group_snapshot(*entry, /*checkpoint=*/false);
  }
  return log;
}

void Replicator::drop_pending_commits(const KeyGroup& group) {
  const auto it = pending_commits_.find(group);
  if (it == pending_commits_.end()) return;
  hub_.journal.abort(it->second.op, env_.now().usec);
  pending_commits_.erase(it);
}

void Replicator::logged(const KeyGroup& group, LogOp op) {
  const bool replicating = this->replicating();
  if (!replicating && !durable()) return;
  const auto lit = logs_.find(group);
  GroupLog& log = lit != logs_.end() ? lit->second : init_group_log(group, 1);

  if (replicating) {
    // One ReplAppend frame per group per dispatch tick: the transport
    // already coalesces writes, but encode/decode cost is per message,
    // so ops accumulate here and flush at the tick boundary. A
    // synchronous env runs the deferred flush inline — per-op
    // delivery.
    auto [pit, fresh] = pending_appends_.try_emplace(group);
    if (fresh) {
      pit->second.epoch = log.epoch();
      pit->second.base_seq = log.head().seq;
    }
    if (pit->second.trace_id == 0) pit->second.trace_id = srv_.active_trace_;
    pit->second.entries.push_back(op);
  }
  // Append-on-mutate, WAL first: the op is durable (per the fsync
  // policy) before the in-memory log observes it.
  const LogHead head{log.epoch(), log.head().seq + 1};
  if (durable()) {
    srv_.meter_storage_bytes(group, storage_->append_op(group, head, op,
                                                        env_.now()));
  }
  log.append(std::move(op));
  if (replicating && !append_flush_scheduled_) {
    // Scheduled only after the local append: a synchronous env runs
    // the deferred flush inline, and the batch must never be sent
    // ahead of the owner's own log head.
    append_flush_scheduled_ = true;
    env_.defer([this] { flush_pending_appends(); });
  }

  // Bound the retained suffix: cut a fresh snapshot boundary once the
  // log outgrows the threshold (the snapshot resets every holder, and
  // on disk advances the WAL truncation floor).
  if (log.size() > cfg_.log_compact_threshold) {
    if (const ServerTableEntry* entry = active_entry(group)) {
      srv_.stats_.log_compactions++;
      if (replicating) {
        snapshot_group(*entry);
      } else {
        persist_group_snapshot(*entry, /*checkpoint=*/true);
        log.compact();
      }
    }
  }
}

void Replicator::send_append_batch(const KeyGroup& group,
                                   PendingAppend&& batch) {
  ReplAppend msg;
  msg.group = group;
  msg.owner = self_;
  msg.epoch = batch.epoch;
  msg.base_seq = batch.base_seq;
  msg.trace_id = batch.trace_id;
  msg.entries = std::move(batch.entries);
  msg.checksum = wire::content_crc(msg);  // trace_id set first: covered
  const auto targets = replica_set(group);
  const std::uint64_t wire = approx_append_bytes(msg.entries);
  bool fanned_out = false;
  for (const ServerId target : targets) {
    if (target != self_) {
      fanned_out = true;
      srv_.meter_repl_bytes(group, wire);
    }
  }
  if (fanned_out) {
    // Register the in-flight head *before* sending: a synchronous env
    // delivers the holders' acks re-entrantly inside env_.send.
    auto& pending = pending_commits_[group];
    if (pending.batches.empty()) {
      // Queue going empty -> non-empty opens the group's replication
      // op; the last draining ack ends it.
      const ServerId first_peer =
          *std::find_if(targets.begin(), targets.end(),
                        [this](ServerId t) { return t != self_; });
      pending.op = srv_.begin_op(obs::Kind::kReplAppend, group, first_peer, 0,
                                 msg.trace_id);
    }
    pending.batches.push_back(PendingCommit{
        msg.epoch, msg.base_seq + msg.entries.size(), env_.now(),
        msg.trace_id});
    if (pending.batches.size() > 4096) pending.batches.pop_front();
  }
  for (const ServerId target : targets) {
    if (target != self_) env_.send(target, msg);
  }
}

void Replicator::flush_pending_appends() {
  append_flush_scheduled_ = false;
  // Move the batches out first: sending can re-enter log paths.
  auto pending = std::exchange(pending_appends_, {});
  for (auto& [group, batch] : pending) {
    send_append_batch(group, std::move(batch));
  }
}

void Replicator::flush_pending_append(const KeyGroup& group) {
  const auto it = pending_appends_.find(group);
  if (it == pending_appends_.end()) return;
  PendingAppend batch = std::move(it->second);
  pending_appends_.erase(it);
  send_append_batch(group, std::move(batch));
}

void Replicator::commit_acked(const KeyGroup& group, const LogHead& head) {
  // The first positive ack at or past an in-flight batch head commits
  // it: record ReplAppend -> ReplAck latency (later acks for the same
  // head find the deque already drained).
  const auto it = pending_commits_.find(group);
  if (it == pending_commits_.end()) return;
  auto& batches = it->second.batches;
  const SimTime now = env_.now();
  while (!batches.empty() && batches.front().epoch == head.epoch &&
         batches.front().seq <= head.seq) {
    const PendingCommit& c = batches.front();
    commit_latency_us_.record_signed((now - c.sent).usec);
    if (hub_.journal.recording(obs::Kind::kCommit)) {
      hub_.journal.span(obs::Kind::kCommit, srv_.node_id(), c.sent.usec,
                        now.usec, ClashServer::group_tag(group), c.seq,
                        c.trace_id);
    }
    batches.pop_front();
  }
  if (batches.empty()) {
    hub_.journal.end(it->second.op, now.usec);
    pending_commits_.erase(it);
  } else {
    hub_.journal.progress(it->second.op, now.usec);
  }
}

// ---------------------------------------------------------------------------
// Snapshots: owner images, the disk copy, paced transfers.
// ---------------------------------------------------------------------------

GroupImage Replicator::owner_image(const ServerTableEntry& entry) const {
  GroupImage img;
  img.group = entry.group;
  const auto lit = logs_.find(entry.group);
  img.head = lit != logs_.end() ? lit->second.head() : LogHead{1, 0};
  img.root = entry.root;
  img.parent = entry.parent;
  if (const GroupState* st = srv_.group_state(entry.group)) img.state = *st;
  if (srv_.app_hooks_ != nullptr) {
    img.app_state = srv_.app_hooks_->snapshot_state(entry.group);
  }
  return img;
}

void Replicator::persist_group_snapshot(const ServerTableEntry& entry,
                                        bool checkpoint) {
  if (!durable()) return;
  srv_.meter_storage_bytes(
      entry.group, storage_->write_snapshot(owner_image(entry), checkpoint));
}

void Replicator::snapshot_group(const ServerTableEntry& entry) {
  // The snapshot defines the new compaction boundary at the current
  // head; anyone behind it is repaired by the snapshot itself.
  logs_.at(entry.group).compact();
  const GroupImage img = owner_image(entry);
  if (durable()) {
    srv_.meter_storage_bytes(
        entry.group, storage_->write_snapshot(img, /*checkpoint=*/true));
  }
  for (const ServerId target : replica_set(entry.group)) {
    if (target != self_) send_state_snapshot(target, img, self_);
  }
}

void Replicator::send_state_snapshot(ServerId to, const GroupImage& img,
                                     ServerId owner) {
  const GroupState& st = img.state;
  const std::size_t per_chunk = std::max(1u, cfg_.snapshot_chunk_objects);
  const std::size_t objects = st.streams.size() + st.queries.size();
  const auto total =
      std::uint32_t(std::max<std::size_t>(1, (objects + per_chunk - 1) /
                                                 per_chunk));
  // Every transfer gets a correlation id: the active trace when the
  // snapshot is a consequence of a traced op, a fresh one otherwise
  // (| 1 keeps it nonzero), so offer, chunks, and the receiver's
  // install span stitch into one flow.
  const std::uint64_t trace_id =
      srv_.active_trace_ != 0 ? srv_.active_trace_ : (srv_.rng_.next() | 1);
  SnapshotOffer offer;
  offer.group = img.group;
  offer.owner = owner;
  offer.head = img.head;
  offer.root = img.root;
  offer.parent = img.parent;
  offer.total_chunks = total;
  offer.trace_id = trace_id;
  srv_.meter_repl_bytes(img.group, kMsgOverheadBytes);
  OutboundSnapshot out;
  out.op = srv_.begin_op(obs::Kind::kSnapshotOut, img.group, to, total,
                         trace_id);
  env_.send(to, offer);

  // Pre-cut the chunks into an outbound cursor instead of blasting them
  // all now: pump_snapshots drains the cursor as fast as the
  // destination's budget allows (unbounded in the sync sim; queue-depth
  // driven over TCP) and resumes when the transport drains.
  out.chunks.reserve(total);
  auto stream_it = st.streams.begin();
  auto query_it = st.queries.begin();
  for (std::uint32_t idx = 0; idx < total; ++idx) {
    SnapshotChunk chunk;
    chunk.group = img.group;
    chunk.head = img.head;
    chunk.index = idx;
    chunk.total = total;
    chunk.trace_id = trace_id;  // before the CRC stamp below
    std::size_t in_chunk = 0;
    while (in_chunk < per_chunk && stream_it != st.streams.end()) {
      chunk.streams.push_back(stream_it->second);
      ++stream_it;
      ++in_chunk;
    }
    while (in_chunk < per_chunk && query_it != st.queries.end()) {
      chunk.queries.push_back(query_it->second);
      ++query_it;
      ++in_chunk;
    }
    if (idx == 0) {  // app payload rides whole on the first chunk
      chunk.app_state = img.app_state;
      chunk.app_deltas = img.app_deltas;
    }
    chunk.checksum = wire::content_crc(chunk);
    out.chunks.push_back(std::move(chunk));
  }
  // A restart for the same (to, group) replaces the cursor below: abort
  // the superseded transfer's op first.
  if (const auto oit = outbound_snapshots_.find({to, img.group});
      oit != outbound_snapshots_.end()) {
    hub_.journal.abort(oit->second.op, env_.now().usec, to.value);
  }
  outbound_snapshots_[{to, img.group}] = std::move(out);
  pump_snapshots();
}

std::size_t Replicator::pump_snapshots() {
  // A chunk delivery can nack synchronously and restart the very
  // transfer being pumped (the map entry is replaced or erased under
  // the loop), so: no held iterators across sends, and no nested
  // pumps — the outermost loop re-finds each entry per chunk and
  // naturally picks up a restarted cursor.
  if (pumping_snapshots_) return outbound_snapshots_.size();
  pumping_snapshots_ = true;
  bool progress = true;
  while (progress) {
    progress = false;
    std::vector<std::pair<ServerId, KeyGroup>> keys;
    keys.reserve(outbound_snapshots_.size());
    for (const auto& [key, _] : outbound_snapshots_) keys.push_back(key);
    for (const auto& key : keys) {
      std::size_t budget = env_.snapshot_chunk_budget(key.first);
      for (;;) {
        const auto it = outbound_snapshots_.find(key);
        if (it == outbound_snapshots_.end()) break;  // cancelled mid-pump
        OutboundSnapshot& out = it->second;
        if (out.next >= out.chunks.size()) {
          hub_.journal.end(out.op, env_.now().usec, out.chunks.size());
          outbound_snapshots_.erase(it);
          break;
        }
        if (budget == 0) break;
        --budget;
        progress = true;
        srv_.meter_repl_bytes(key.second,
                              approx_chunk_bytes(out.chunks[out.next]));
        Message msg(std::move(out.chunks[out.next]));
        ++out.next;
        // Copy the handle out: the send may re-enter and replace or
        // erase this very map entry (stale handles are ignored).
        const obs::Op op = out.op;
        env_.send(key.first, msg);
        hub_.journal.progress(op, env_.now().usec);
      }
    }
    if (outbound_snapshots_.empty()) break;
  }
  pumping_snapshots_ = false;
  return outbound_snapshots_.size();
}

void Replicator::cancel_outbound_snapshots(const KeyGroup& group,
                                           ServerId to) {
  for (auto it = outbound_snapshots_.begin();
       it != outbound_snapshots_.end();) {
    if (it->first.second == group &&
        (!to.valid() || it->first.first == to)) {
      hub_.journal.abort(it->second.op, env_.now().usec,
                         it->first.first.value);
      it = outbound_snapshots_.erase(it);
    } else {
      ++it;
    }
  }
}

// ---------------------------------------------------------------------------
// Repair: anti-entropy, nacks, cumulative acks.
// ---------------------------------------------------------------------------

void Replicator::send_anti_entropy() {
  std::map<ServerId, std::vector<GroupHead>> per_holder;
  for (const ServerTableEntry* e : srv_.table().active_entries()) {
    const auto lit = logs_.find(e->group);
    if (lit == logs_.end()) {
      activated(*e);  // missing log: heal with a fresh log and snapshot
      continue;
    }
    const auto head = lit->second.head();
    for (const ServerId target : replica_set(e->group)) {
      if (target != self_) {
        per_holder[target].push_back(GroupHead{e->group, head});
      }
    }
  }
  for (auto& [holder, heads] : per_holder) {
    env_.send(holder, AntiEntropyProbe{self_, std::move(heads)});
  }
}

void Replicator::repair_peer(ServerId to, const KeyGroup& group,
                             LogHead have) {
  // Active-owner path: repair from the authoritative log.
  if (const ServerTableEntry* entry = active_entry(group)) {
    const auto lit = logs_.find(group);
    if (lit == logs_.end()) return;  // no log yet: nothing to diff
    GroupLog& log = lit->second;
    std::vector<LogOp> out;
    if (have.epoch == log.epoch() && log.suffix_from(have.seq, out)) {
      if (!out.empty()) {
        srv_.meter_repl_bytes(group, approx_append_bytes(out));
        ReplAppend repair{group, self_, log.epoch(), have.seq,
                          srv_.active_trace_, std::move(out)};
        repair.checksum = wire::content_crc(repair);
        env_.send(to, repair);
      }
    } else {
      send_state_snapshot(to, owner_image(*entry), self_);
    }
    return;
  }
  // Peer path (owner dead, a promoting heir is pulling): repair from
  // our replica when it is strictly fresher than the requester.
  const auto rit = replicas_.find(group);
  if (rit == replicas_.end()) return;
  ReplicaRecord& rec = rit->second;
  const auto head = rec.log.head();
  if (!(have < head)) return;
  std::vector<LogOp> out;
  if (have.epoch == head.epoch && rec.log.suffix_from(have.seq, out)) {
    if (!out.empty()) {
      ReplAppend repair{group, rec.owner, head.epoch, have.seq,
                        srv_.active_trace_, std::move(out)};
      repair.checksum = wire::content_crc(repair);
      env_.send(to, repair);
    }
    return;
  }
  // The requester predates our retained suffix: ship a peer-built
  // snapshot — object state at our head, app snapshot + delta tail.
  send_state_snapshot(to, rec.image, rec.owner);
}

void Replicator::send_nack(ServerId to, const KeyGroup& group, LogHead head) {
  env_.send(to, ReplAck{{GroupHead{group, head}}, false});
}

void Replicator::owe_ack(ServerId to, const KeyGroup& group, LogHead head) {
  owed_acks_[to][group] = head;
  if (ack_flush_timer_ != 0) return;
  // A synchronous env flushes inline and returns 0: nothing stays armed.
  ack_flush_timer_ =
      env_.defer_after(kAckWindow, [this] { flush_owed_acks(); });
}

void Replicator::flush_owed_acks() {
  ack_flush_timer_ = 0;
  // Move the map out first: a synchronous env delivers each ack
  // re-entrantly, and the owner's reaction can owe us new acks.
  const auto owed = std::exchange(owed_acks_, {});
  for (const auto& [peer, groups] : owed) {
    ReplAck ack;
    ack.heads.reserve(groups.size());
    for (const auto& [group, head] : groups) {
      ack.heads.push_back(GroupHead{group, head});
    }
    env_.send(peer, ack);
  }
}

void Replicator::reject_corrupt(const KeyGroup& group) {
  srv_.stats_.corrupt_rejected++;
  corrupt_rejected_total_.inc();
  srv_.note(obs::Kind::kCorruptReject, group);
}

// ---------------------------------------------------------------------------
// Peer messages.
// ---------------------------------------------------------------------------

void Replicator::handle(ServerId /*from*/, const DropReplica& m) {
  if (const auto it = replicas_.find(m.group); it != replicas_.end()) {
    erase_replica(it);
  }
  srv_.forget_costs_unless_active(m.group);
}

void Replicator::handle(ServerId from, const ReplAppend& m) {
  const ClashServer::TraceScope trace(srv_.active_trace_, m.trace_id);
  // Corruption fences, before any state is touched. The content CRC
  // catches in-flight byte flips that survive the codec's structural
  // checks; the seq overflow guard catches a base_seq flipped into
  // wrap-around territory. Rejected appends are simply dropped — no
  // nack, because a nack would trigger repair off a forged head; the
  // sender's anti-entropy probe re-syncs us on the next period.
  if ((m.checksum != 0 && m.checksum != wire::content_crc(m)) ||
      m.base_seq + m.entries.size() < m.base_seq) {
    reject_corrupt(m.group);
    return;
  }
  // Never apply replica traffic to a group this server actively owns
  // (a stale owner racing a promotion).
  if (active_entry(m.group) != nullptr) return;
  const auto it = replicas_.find(m.group);
  if (it == replicas_.end()) {
    // No base to apply deltas onto: nack so the sender repairs us.
    send_nack(from, m.group, LogHead{});
    return;
  }
  ReplicaRecord& rec = it->second;
  rec.refreshed = env_.now();
  const LogHead tip{m.epoch, m.base_seq + m.entries.size()};
  if (rec.advertised < tip) rec.advertised = tip;
  if (m.owner.valid()) rec.owner = m.owner;

  const LogHead head = rec.log.head();
  if (m.epoch != head.epoch || m.base_seq > head.seq) {
    if (rec.pending) {
      // A snapshot assembly is already in flight for this group: it
      // will re-anchor us past this gap, so stay quiet. Nacking here
      // would make the sender cancel and restart that very transfer —
      // under paced TCP streaming, every routine append during a long
      // transfer would reset it and it could never complete.
      return;
    }
    // Epoch change or a gap: nack with our real head; the sender diffs
    // us forward (suffix or snapshot).
    send_nack(from, m.group, head);
    return;
  }
  // Skip the overlap (idempotent re-delivery), apply the rest.
  const std::size_t skip = std::size_t(head.seq - m.base_seq);
  for (std::size_t i = skip; i < m.entries.size(); ++i) {
    const LogOp& op = m.entries[i];
    GroupLog::apply(op, rec.image.state);
    if (op.kind == OpKind::kAppDelta) {
      rec.image.app_deltas.push_back(op.app_delta);
    }
    rec.log.append(op);
  }
  rec.image.head = rec.log.head();
  const std::size_t applied =
      m.entries.size() > skip ? m.entries.size() - skip : 0;
  if (applied > 0) {
    srv_.note(obs::Kind::kReplApply, m.group, applied);
    note_repaired(m.group, applied);
  }
  owe_ack(from, m.group, rec.log.head());
}

void Replicator::handle(ServerId from, const ReplAck& m) {
  for (const GroupHead& gh : m.heads) {
    if (m.ok) {
      commit_acked(gh.group, gh.head);
      continue;
    }
    // A nack asks for repair, served from the owner log or, on a
    // non-owner (peer recovery), from the replica record. It also
    // aborts any snapshot still streaming to that peer for the group —
    // the receiver tore down its assembly, so the unsent chunks would
    // only be nacked again; repair restarts the transfer from scratch.
    cancel_outbound_snapshots(gh.group, from);
    repair_peer(from, gh.group, gh.head);
  }
}

void Replicator::handle(ServerId from, const SnapshotOffer& m) {
  // Sanity fence: no legitimate snapshot approaches a million chunks
  // (the pacer would never finish one); a count that large is a
  // corrupted or hostile offer and would wedge the assembly forever
  // waiting for chunks that do not exist.
  constexpr std::uint32_t kMaxSaneChunks = 1u << 20;
  if (m.total_chunks == 0 || m.total_chunks > kMaxSaneChunks) {
    reject_corrupt(m.group);
    return;
  }
  if (active_entry(m.group) != nullptr) return;
  ReplicaRecord& rec = replicas_[m.group];
  rec.refreshed = env_.now();
  if (rec.pending && !(rec.pending->image.head < m.head)) {
    // A transfer is mid-flight and this offer is not strictly fresher:
    // a duplicate or competing offer for the same head must not
    // discard the chunks already assembled — overwriting the record
    // here desyncs the chunk cursor and loses the whole transfer. Only
    // a strictly newer head (a snapshot superseding the one in flight)
    // preempts the assembly.
    srv_.stats_.snapshot_offers_ignored++;
    return;
  }
  if (rec.pending) {
    // A strictly fresher offer preempts the assembly in flight; its op
    // must not outlive the record it tracked.
    hub_.journal.abort(rec.pending->op, env_.now().usec,
                       rec.pending->owner.value);
  }
  ReplicaRecord::PendingSnapshot& p = rec.pending.emplace();
  p.owner = m.owner;
  p.image.group = m.group;
  p.image.head = m.head;
  p.image.root = m.root;
  p.image.parent = m.parent;
  p.total = m.total_chunks;
  p.op = srv_.begin_op(obs::Kind::kSnapshotIn, m.group, from, m.total_chunks,
                       m.trace_id);
  rec.last_nacked = LogHead{};  // the new stream starts clean
}

void Replicator::handle(ServerId from, const SnapshotChunk& m) {
  // Corruption fence first: installing a flipped stream rate or query
  // id into a pending assembly would poison the replica at promotion.
  // Dropping the chunk desyncs the stream, and the *next* chunk's index
  // mismatch nacks the transfer into a clean restart.
  if (m.checksum != 0 && m.checksum != wire::content_crc(m)) {
    reject_corrupt(m.group);
    return;
  }
  if (active_entry(m.group) != nullptr) return;
  const auto it = replicas_.find(m.group);
  if (it == replicas_.end()) return;  // offer was never seen
  ReplicaRecord& rec = it->second;
  rec.refreshed = env_.now();
  if (!rec.pending && rec.last_nacked == m.head) {
    return;  // remnants of a transfer already nacked: stay silent
  }
  if (rec.pending && rec.pending->image.head == m.head &&
      m.total == rec.pending->total && m.index < rec.pending->received) {
    return;  // duplicated frame of an already-applied chunk: idempotent
  }
  if (!rec.pending || rec.pending->image.head != m.head ||
      m.index != rec.pending->received || m.total != rec.pending->total) {
    // Stream out of sync (lost, reordered, or never-offered chunk):
    // tear the assembly down and nack with our real head so the sender
    // restarts NOW — staying silent would leave it streaming a dead
    // transfer while recovery waits out a full anti-entropy period.
    if (rec.pending) {
      hub_.journal.abort(rec.pending->op, env_.now().usec, from.value);
    }
    rec.pending.reset();
    rec.last_nacked = m.head;
    srv_.stats_.snapshot_aborts++;
    send_nack(from, m.group, rec.log.head());
    return;
  }
  ReplicaRecord::PendingSnapshot& p = *rec.pending;
  GroupState& st = p.image.state;
  for (const auto& s : m.streams) {
    // A re-delivered stream replaces its map entry; its rate must not
    // accumulate twice (subtract what the overwritten entry carried).
    auto [sit, inserted] = st.streams.try_emplace(s.source, s);
    if (!inserted) {
      st.stream_rate -= sit->second.rate;
      sit->second = s;
    }
    st.stream_rate += s.rate;
  }
  for (const auto& q : m.queries) st.queries[q.id] = q;
  p.image.app_state.insert(p.image.app_state.end(), m.app_state.begin(),
                           m.app_state.end());
  for (const auto& d : m.app_deltas) p.image.app_deltas.push_back(d);
  ++p.received;
  hub_.journal.progress(p.op, env_.now().usec);
  if (p.received < p.total) return;

  // Complete: install the image and re-anchor the retained log.
  rec.owner = p.owner;
  rec.image = std::move(p.image);
  rec.log.reset(m.head.epoch, m.head.seq);
  if (rec.advertised < m.head) rec.advertised = m.head;
  snapshot_install_us_.record_signed(env_.now().usec - p.op.start_us);
  hub_.journal.end(p.op, env_.now().usec, p.total);
  rec.pending.reset();
  note_repaired(m.group, 0);
  owe_ack(from, m.group, rec.log.head());
}

void Replicator::handle(ServerId from, const AntiEntropyProbe& m) {
  AntiEntropyDiff diff;
  for (const GroupHead& gh : m.heads) {
    if (active_entry(gh.group) != nullptr) {
      continue;  // both sides claim ownership; promotion sorts it out
    }
    const auto it = replicas_.find(gh.group);
    if (it == replicas_.end()) {
      diff.behind.push_back(GroupHead{gh.group, LogHead{}});
      continue;
    }
    ReplicaRecord& rec = it->second;
    rec.refreshed = env_.now();
    if (rec.advertised < gh.head) rec.advertised = gh.head;
    if (m.owner.valid()) rec.owner = m.owner;
    const auto head = rec.log.head();
    if (head == gh.head) continue;
    if (head.epoch == gh.head.epoch && head < gh.head) {
      diff.behind.push_back(GroupHead{gh.group, head});
    } else {
      // Epoch drift in either direction: our copy belongs to a dead
      // ownership line — the probing owner is the authority, resync
      // from scratch.
      diff.behind.push_back(GroupHead{gh.group, LogHead{}});
    }
  }
  if (!diff.behind.empty()) env_.send(from, diff);
}

void Replicator::handle(ServerId from, const AntiEntropyDiff& m) {
  for (const GroupHead& gh : m.behind) repair_peer(from, gh.group, gh.head);
}

// ---------------------------------------------------------------------------
// Replica records, durable restore, recovery sessions.
// ---------------------------------------------------------------------------

void Replicator::gc_stale_replicas() {
  const SimTime now = env_.now();
  const auto lease = SimTime(
      std::max(cfg_.load_check_period.usec, observed_tick_gap_usec_) * 3);
  for (auto it = replicas_.begin(); it != replicas_.end();) {
    if (now - it->second.refreshed > lease) {
      // Replication-byte costs metered for a replica we no longer hold
      // go too — unless the group is also actively owned here.
      srv_.forget_costs_unless_active(it->first);
      it = erase_replica(it);
    } else {
      ++it;
    }
  }
}

Replicator::Replicas::iterator Replicator::erase_replica(
    Replicas::iterator it) {
  if (it->second.pending) {
    hub_.journal.abort(it->second.pending->op, env_.now().usec,
                       it->second.pending->owner.value);
  }
  return replicas_.erase(it);
}

std::size_t Replicator::restore_from_storage() {
  if (storage_ == nullptr) return 0;
  auto image = storage_->take_image();
  if (!durable()) return 0;
  for (auto& [group, g] : image.groups) {
    ReplicaRecord rec;
    rec.owner = self_;
    rec.refreshed = env_.now();
    rec.log.reset(g.head.epoch, g.head.seq);
    rec.advertised = g.head;
    // The group's next ownership line must rise above the recovered
    // one even if promotion happens before any peer is heard.
    auto [it, inserted] = retired_epochs_.try_emplace(group, g.head.epoch);
    if (!inserted && it->second < g.head.epoch) it->second = g.head.epoch;
    rec.image = std::move(g);
    replicas_[group] = std::move(rec);
  }
  adopt_restored_ = !image.groups.empty();
  return image.groups.size();
}

bool Replicator::orphaned_here(const dht::ChordRing& ring,
                               const KeyGroup& group, bool restored) const {
  const auto it = replicas_.find(group);
  if (it == replicas_.end() ||
      ring.map(srv_.hasher_.hash_key(group.virtual_key())) != self_) {
    return false;
  }
  const ServerId owner = it->second.owner;
  return owner == self_ ? restored : !ring.contains(owner);
}

void Replicator::begin_group_recovery(const KeyGroup& group) {
  if (!replicating()) return;
  if (active_entry(group) != nullptr) return;
  const auto it = replicas_.find(group);
  const LogHead start =
      it != replicas_.end() ? it->second.log.head() : LogHead{};
  const auto [rs, fresh] = recovering_.try_emplace(group);
  if (!fresh) return;  // probes already out
  ++recovery_stats_.sessions;
  rs->second.start = start;
  rs->second.op = srv_.begin_op(obs::Kind::kRecoveryPull, group, ServerId{0});
  const AntiEntropyDiff pull{{GroupHead{group, start}}};
  for (const ServerId peer : replica_set(group)) {
    if (peer != self_) env_.send(peer, pull);
  }
}

void Replicator::abandon_group_recovery(const KeyGroup& group) {
  if (const auto it = recovering_.find(group); it != recovering_.end()) {
    hub_.journal.abort(it->second.op, env_.now().usec);
    recovering_.erase(it);
  }
}

void Replicator::note_repaired(const KeyGroup& group, std::size_t entries) {
  const auto it = recovering_.find(group);
  if (it == recovering_.end()) return;
  if (entries > 0) {
    recovery_stats_.entries_repaired += entries;
  } else {
    ++recovery_stats_.snapshots_pulled;
  }
  it->second.repaired = true;
  hub_.journal.progress(it->second.op, env_.now().usec,
                        entries > 0 ? entries : 1);
}

std::optional<LogHead> Replicator::log_head(const KeyGroup& group) const {
  const auto it = logs_.find(group);
  if (it == logs_.end()) return std::nullopt;
  return it->second.head();
}

std::optional<LogHead> Replicator::replica_head(const KeyGroup& group) const {
  const auto it = replicas_.find(group);
  if (it == replicas_.end()) return std::nullopt;
  return it->second.log.head();
}

const GroupState* Replicator::replica_state(const KeyGroup& group) const {
  const auto it = replicas_.find(group);
  return it == replicas_.end() ? nullptr : &it->second.image.state;
}

std::vector<KeyGroup> Replicator::replicas_owned_by(ServerId owner) const {
  std::vector<KeyGroup> out;
  for (const auto& [group, rec] : replicas_) {
    if (rec.owner == owner) out.push_back(group);
  }
  return out;
}

}  // namespace clash::repl
