#include "clash/server.hpp"

#include <algorithm>
#include <cassert>

#include "common/logging.hpp"
#include "dht/chord.hpp"

namespace clash {

ClashServer::ClashServer(ServerId self, const ClashConfig& cfg, ServerEnv& env,
                         dht::KeyHasher hasher)
    : self_(self),
      cfg_(cfg),
      env_(env),
      hasher_(hasher),
      table_(cfg.key_width),
      rng_(self.value * 0x9e3779b97f4a7c15ULL + 17),
      hub_(env.obs()) {
  auto& reg = hub_.registry;
  puts_total_ = reg.counter("clash_puts_total");
  repl_bytes_total_ = reg.counter("clash_repl_bytes_total");
}

namespace {

// Structural wire size of one put, for the cost vector.
constexpr std::uint64_t kPutWireBytes = 40;

}  // namespace

void ClashServer::meter_matches(const Key& key, std::size_t n,
                                std::size_t bytes) {
  const ServerTableEntry* entry = table_.active_entry_for(key);
  if (entry == nullptr) return;
  GroupCost& cost = group_costs_[entry->group];
  cost.matches += n;
  cost.bytes_served += bytes;
  note(obs::Kind::kQueryMatch, entry->group, n);
}

void ClashServer::meter_repl_bytes(const KeyGroup& group,
                                   std::uint64_t bytes) {
  group_costs_[group].repl_bytes += bytes;
  repl_bytes_total_.inc(bytes);
}

void ClashServer::meter_storage_bytes(const KeyGroup& group,
                                      std::uint64_t bytes) {
  group_costs_[group].storage_bytes += bytes;
}

void ClashServer::fold_census(NodeCensusRecord& rec,
                              std::size_t top_k) const {
  rec.load = server_load();
  rec.active_groups = std::uint32_t(table_.active_count());
  rec.replica_records = std::uint32_t(repl_.replica_count());
  rec.queries = total_queries();
  rec.streams = total_streams();
  rec.totals = total_group_cost();
  rec.top_groups.clear();
  rec.top_groups.reserve(group_costs_.size());
  for (const auto& [group, cost] : group_costs_) {
    rec.top_groups.push_back(CensusGroupCost{group, cost});
  }
  // Deterministic top-K: heaviest first, ties by group identity so two
  // folds of the same state publish the same record.
  std::sort(rec.top_groups.begin(), rec.top_groups.end(),
            [](const CensusGroupCost& a, const CensusGroupCost& b) {
              if (a.cost.total_bytes() != b.cost.total_bytes()) {
                return a.cost.total_bytes() > b.cost.total_bytes();
              }
              return a.group < b.group;
            });
  if (rec.top_groups.size() > top_k) rec.top_groups.resize(top_k);
}

void ClashServer::install_entry(const ServerTableEntry& entry) {
  table_.insert(entry);
  if (entry.active) {
    state_.try_emplace(entry.group);
    note_group_activated(entry.group);
    repl_.activated(entry);
  }
}

bool ClashServer::mark_group_root(const KeyGroup& group) {
  ServerTableEntry* entry = table_.find(group);
  if (entry == nullptr || !entry->active) return false;
  entry->root = true;
  return true;
}

// ---------------------------------------------------------------------------
// Client RPC: the three cases of Section 5.
// ---------------------------------------------------------------------------

AcceptObjectReply ClashServer::handle_accept_object(const AcceptObject& m) {
  const TraceScope trace(active_trace_, m.trace_id);
  ServerTableEntry* entry = table_.active_entry_for(m.key);
  if (entry == nullptr) {
    // Case (c): not responsible. Reply with the longest prefix match
    // across all entries so the client can narrow its depth search.
    return IncorrectDepth{table_.longest_prefix_match(m.key)};
  }
  // Cases (a) (right depth) and (b) (wrong depth, right server) differ
  // only in the echoed depth; the client compares.
  if (!m.probe_only) {
    note(obs::Kind::kIngest, entry->group, std::uint64_t(m.kind));
    GroupState& gs = state_[entry->group];
    GroupCost& cost = group_costs_[entry->group];
    ++cost.puts;
    cost.bytes_served += kPutWireBytes;
    puts_total_.inc();
    if (m.kind == ObjectKind::kQuery) {
      gs.queries[m.query_id] = QueryInfo{m.query_id, m.key};
      repl_.logged(entry->group,
                   repl::LogOp::put_query(QueryInfo{m.query_id, m.key}));
    } else {
      auto [it, inserted] = gs.streams.try_emplace(m.source);
      if (!inserted) gs.stream_rate -= it->second.rate;
      it->second = StreamInfo{m.source, m.key, m.stream_rate};
      gs.stream_rate += m.stream_rate;
      repl_.logged(entry->group,
                   repl::LogOp::put_stream(StreamInfo{m.source, m.key,
                                                      m.stream_rate}));
    }
  }
  return AcceptObjectOk{entry->group.depth()};
}

void ClashServer::remove_stream(ClientId source, const Key& key) {
  ServerTableEntry* entry = table_.active_entry_for(key);
  if (entry == nullptr) return;
  const auto st = state_.find(entry->group);
  if (st == state_.end()) return;
  const auto it = st->second.streams.find(source);
  if (it == st->second.streams.end()) return;
  st->second.stream_rate -= it->second.rate;
  if (st->second.stream_rate < 0) st->second.stream_rate = 0;  // fp dust
  st->second.streams.erase(it);
  repl_.logged(entry->group, repl::LogOp::del_stream(source));
  maybe_gc_group(entry->group);
}

void ClashServer::remove_query(QueryId id, const Key& key) {
  ServerTableEntry* entry = table_.active_entry_for(key);
  if (entry == nullptr) return;
  const auto st = state_.find(entry->group);
  if (st == state_.end()) return;
  st->second.queries.erase(id);
  repl_.logged(entry->group, repl::LogOp::del_query(id));
  maybe_gc_group(entry->group);
}

void ClashServer::maybe_gc_group(const KeyGroup& group_ref) {
  if (!cfg_.ephemeral_groups) return;
  // Callers pass a reference into the table entry that table_.erase is
  // about to free — copy first.
  const KeyGroup group = group_ref;
  const auto st = state_.find(group);
  if (st == state_.end() || !st->second.empty()) return;
  state_.erase(st);
  table_.erase(group);
  note_group_deactivated(group);
  retire_group(group);
}

// ---------------------------------------------------------------------------
// Peer message dispatch.
// ---------------------------------------------------------------------------

void ClashServer::deliver(ServerId from, const Message& msg) {
  std::visit(
      [&](const auto& m) {
        if constexpr (requires { repl_.handle(from, m); }) {
          repl_.handle(from, m);
        } else if constexpr (requires { handle(from, m); }) {
          handle(from, m);
        } else {
          CLASH_WARN << to_string(self_)
                     << ": unexpected message variant from peer";
        }
      },
      msg);
}

void ClashServer::handle(ServerId from, const AcceptKeyGroup& m) {
  // Section 5: a node must accept every ACCEPT_KEYGROUP (it can always
  // split further itself if overloaded).
  ServerTableEntry entry;
  entry.group = m.group;
  entry.parent = m.parent;
  entry.root = m.root;  // handoffs preserve lineage; splits send false
  entry.active = true;
  table_.insert(entry);
  note_group_activated(m.group);

  GroupState& gs = state_[m.group];
  for (const auto& s : m.streams) {
    gs.streams[s.source] = s;
    gs.stream_rate += s.rate;
  }
  for (const auto& q : m.queries) gs.queries[q.id] = q;
  if (app_hooks_ != nullptr && !m.app_state.empty()) {
    app_hooks_->import_state(m.group, m.app_state);
  }
  // A transfer starts a new ownership line above the sender's.
  repl_.activated(entry, m.epoch + 1);

  env_.send(from, AcceptKeyGroupAck{m.group});
}

void ClashServer::handle(ServerId from, const LoadReport& m) {
  child_reports_[m.group] = ChildReport{m.load, m.is_leaf, env_.now()};
  // Self-healing child pointer: after a failover the group's new owner
  // reports here; update the lineage entry so consolidation can still
  // reach it.
  if (m.group.is_right_child()) {
    ServerTableEntry* parent_entry = table_.find(m.group.parent());
    if (parent_entry != nullptr && !parent_entry->active &&
        parent_entry->right_child.valid() &&
        parent_entry->right_child != from &&
        pending_reclaims_.count(m.group) == 0) {
      parent_entry->right_child = from;
    }
  }
}

void ClashServer::handle(ServerId from, const ReclaimKeyGroup& m) {
  ServerTableEntry* entry = table_.find(m.group);
  // Refuse unless the group is still an active leaf we hold for this
  // parent (it may have been split further since the last report).
  if (entry == nullptr || !entry->active || entry->root ||
      entry->parent != from) {
    stats_.merge_refusals++;
    env_.send(from, ReclaimRefused{m.group});
    return;
  }
  GroupState st;
  const auto it = state_.find(m.group);
  if (it != state_.end()) {
    st = std::move(it->second);
    state_.erase(it);
  }
  table_.erase(m.group);
  child_reports_.erase(m.group);
  note_group_deactivated(m.group);
  retire_group(m.group);

  ReclaimAck ack;
  ack.group = m.group;
  ack.streams.reserve(st.streams.size());
  for (const auto& [_, s] : st.streams) ack.streams.push_back(s);
  ack.queries.reserve(st.queries.size());
  for (const auto& [_, q] : st.queries) ack.queries.push_back(q);
  if (app_hooks_ != nullptr) {
    ack.app_state = app_hooks_->export_state(m.group, from);
  }
  stats_.state_transfer_msgs += state_msgs_for(ack.queries.size());
  env_.send(from, std::move(ack));
}

void ClashServer::handle(ServerId from, const ReclaimAck& m) {
  pending_reclaims_.erase(m.group);
  child_reports_.erase(m.group);

  const KeyGroup parent_group = m.group.parent();
  ServerTableEntry* parent_entry = table_.find(parent_group);
  if (parent_entry == nullptr || parent_entry->active ||
      parent_entry->right_child != from) {
    // Should not happen with the pending-reclaim guard; drop the state
    // loudly rather than corrupt the table.
    CLASH_ERROR << to_string(self_) << ": stray ReclaimAck for "
                << m.group.label();
    return;
  }

  const KeyGroup left = parent_group.left_child();
  ServerTableEntry* left_entry = table_.find(left);
  assert(left_entry != nullptr && left_entry->active);

  GroupState merged;
  const auto left_state = state_.find(left);
  if (left_state != state_.end()) {
    merged = std::move(left_state->second);
    state_.erase(left_state);
  }
  for (const auto& s : m.streams) {
    merged.streams[s.source] = s;
    merged.stream_rate += s.rate;
  }
  for (const auto& q : m.queries) merged.queries[q.id] = q;
  if (app_hooks_ != nullptr && !m.app_state.empty()) {
    app_hooks_->import_state(parent_group, m.app_state);
  }

  table_.erase(left);
  (void)left_entry;
  note_group_deactivated(left);
  parent_entry->active = true;
  parent_entry->right_child = ServerId{};
  state_[parent_group] = std::move(merged);
  note_group_activated(parent_group);
  repl_.activated(*parent_entry);
  // The merged parent's baseline is anchored; only now may the left
  // child's durable record be dropped (see split_group).
  retire_group(left);
  stats_.merges++;
}

void ClashServer::handle(ServerId /*from*/, const ReclaimRefused& m) {
  pending_reclaims_.erase(m.group);
  // Mark the report non-leaf so we stop trying until a fresh report.
  const auto it = child_reports_.find(m.group);
  if (it != child_reports_.end()) it->second.is_leaf = false;
}

// ---------------------------------------------------------------------------
// Splitting (Section 4/5).
// ---------------------------------------------------------------------------

bool ClashServer::force_split(const KeyGroup& group) {
  ServerTableEntry* entry = table_.find(group);
  if (entry == nullptr || !entry->active ||
      group.depth() >= cfg_.key_width) {
    return false;
  }
  split_group(group, /*reshed_on_self_map=*/false);
  return true;
}

void ClashServer::split_group(const KeyGroup& group,
                              bool reshed_on_self_map) {
  [[maybe_unused]] ServerTableEntry* entry = table_.find(group);
  assert(entry != nullptr && entry->active);
  assert(group.depth() < cfg_.key_width);

  GroupState st;
  const auto state_it = state_.find(group);
  if (state_it != state_.end()) {
    st = std::move(state_it->second);
    state_.erase(state_it);
  }

  KeyGroup current = group;
  // Replica/log retirement of the groups this split deactivates is
  // deferred to the end: the WAL drop record of a split-away group
  // must never hit the disk before every object it covered is
  // re-anchored (children baselines written, or the right half sent),
  // or a crash inside the split would lose state that only the old
  // snapshot still described.
  std::vector<KeyGroup> retired;
  for (;;) {
    const KeyGroup left = current.left_child();
    const KeyGroup right = current.right_child();

    // The left child expands to the same N-bit virtual key, so it maps
    // back to this server by construction; only the right child needs a
    // DHT lookup.
    const dht::LookupResult owner =
        env_.dht_lookup(hasher_.hash_key(right.virtual_key()));

    GroupState right_state = extract_subset(st, right);

    ServerTableEntry* cur_entry = table_.find(current);
    assert(cur_entry != nullptr);
    cur_entry->active = false;
    cur_entry->right_child = owner.owner;
    note_group_deactivated(current);

    ServerTableEntry left_entry;
    left_entry.group = left;
    left_entry.parent = self_;
    left_entry.active = true;
    table_.insert(left_entry);
    state_[left] = std::move(st);
    note_group_activated(left);
    // The left child is a final placement: replicated at once.
    repl_.activated(left_entry);
    retired.push_back(current);

    if (owner.owner != self_ || right.depth() >= cfg_.key_width ||
        !reshed_on_self_map) {
      if (owner.owner == self_) {
        // Administrative split, or a maximal-depth right child that
        // still maps here: keep the right child local and active.
        ServerTableEntry right_entry;
        right_entry.group = right;
        right_entry.parent = self_;
        right_entry.active = true;
        cur_entry = table_.find(current);
        cur_entry->right_child = self_;
        table_.insert(right_entry);
        state_[right] = std::move(right_state);
        note_group_activated(right);
        repl_.activated(right_entry);
        stats_.self_remaps++;
      } else {
        AcceptKeyGroup msg;
        msg.group = right;
        msg.parent = self_;
        msg.streams.reserve(right_state.streams.size());
        for (const auto& [_, s] : right_state.streams) {
          msg.streams.push_back(s);
        }
        msg.queries.reserve(right_state.queries.size());
        for (const auto& [_, q] : right_state.queries) {
          msg.queries.push_back(q);
        }
        if (app_hooks_ != nullptr) {
          msg.app_state = app_hooks_->export_state(right, owner.owner);
        }
        stats_.state_transfer_msgs += state_msgs_for(msg.queries.size());
        env_.send(owner.owner, std::move(msg));
      }
      stats_.splits++;
      for (const KeyGroup& g : retired) retire_group(g);
      return;
    }

    // Right child mapped back to us: make "another randomized attempt"
    // by increasing the depth of the right group again (Section 5).
    stats_.self_remaps++;
    ServerTableEntry right_entry;
    right_entry.group = right;
    right_entry.parent = self_;
    right_entry.active = true;  // immediately re-split below
    table_.insert(right_entry);
    note_group_activated(right);
    st = std::move(right_state);
    current = right;
  }
}

// ---------------------------------------------------------------------------
// Periodic load management.
// ---------------------------------------------------------------------------

void ClashServer::run_load_check() {
  send_load_reports();
  repl_.tick();
  const double load = server_load();
  switch (classify_load(cfg_, load)) {
    case LoadVerdict::kOverloaded:
      try_split_for_overload();
      break;
    case LoadVerdict::kUnderloaded:
      if (cfg_.enable_consolidation) try_consolidate();
      break;
    case LoadVerdict::kNormal:
      break;
  }
}

void ClashServer::send_load_reports() {
  for (const ServerTableEntry* e : table_.all_entries()) {
    if (e->root || !e->parent.valid() || e->parent == self_) continue;
    LoadReport r;
    r.group = e->group;
    r.is_leaf = e->active;
    r.load = e->active ? load_of(e->group) : 0.0;
    env_.send(e->parent, r);
  }
}

void ClashServer::try_split_for_overload() {
  for (unsigned i = 0; i < cfg_.max_splits_per_check; ++i) {
    if (classify_load(cfg_, server_load()) != LoadVerdict::kOverloaded) break;
    const auto candidate = pick_split_candidate();
    if (!candidate) break;  // nothing splittable (all at max depth)
    split_group(*candidate, /*reshed_on_self_map=*/true);
  }
}

std::optional<KeyGroup> ClashServer::pick_split_candidate() {
  std::vector<const ServerTableEntry*> eligible;
  for (const ServerTableEntry* e : table_.active_entries()) {
    if (e->group.depth() >= cfg_.key_width) continue;
    if (in_reclaim(e->group)) continue;
    eligible.push_back(e);
  }
  if (eligible.empty()) return std::nullopt;

  switch (cfg_.split_policy) {
    case ClashConfig::SplitPolicy::kRandom:
      return eligible[rng_.below(eligible.size())]->group;
    case ClashConfig::SplitPolicy::kMostKeys: {
      const auto it = std::max_element(
          eligible.begin(), eligible.end(), [](const auto* a, const auto* b) {
            return a->group.cardinality() < b->group.cardinality();
          });
      return (*it)->group;
    }
    case ClashConfig::SplitPolicy::kHottest:
      break;
  }
  const auto it = std::max_element(
      eligible.begin(), eligible.end(), [this](const auto* a, const auto* b) {
        return load_of(a->group) < load_of(b->group);
      });
  // Splitting a zero-load group cannot shed anything.
  if (load_of((*it)->group) <= 0.0) return std::nullopt;
  return (*it)->group;
}

std::optional<KeyGroup> ClashServer::pick_merge_candidate() const {
  // Candidates: inactive local entries whose left child is a local
  // active non-root leaf and whose right child reported being a cold
  // leaf recently.
  const SimTime now = env_.now();
  const auto fresh_within =
      SimTime(cfg_.load_check_period.usec * 3);  // staleness bound

  std::optional<KeyGroup> best;
  double best_combined = 0;
  for (const ServerTableEntry* e : table_.all_entries()) {
    if (e->active || !e->right_child.valid()) continue;
    if (pending_reclaims_.count(e->group.right_child()) > 0) continue;

    const KeyGroup left = e->group.left_child();
    const ServerTableEntry* left_entry = table_.find(left);
    if (left_entry == nullptr || !left_entry->active || left_entry->root) {
      continue;
    }

    const KeyGroup right = e->group.right_child();
    double right_load = 0;
    if (e->right_child == self_) {
      const ServerTableEntry* right_entry = table_.find(right);
      if (right_entry == nullptr || !right_entry->active ||
          right_entry->root) {
        continue;
      }
      right_load = load_of(right);
    } else {
      const auto rep = child_reports_.find(right);
      if (rep == child_reports_.end() || !rep->second.is_leaf) continue;
      if (now - rep->second.at > fresh_within) continue;
      right_load = rep->second.load;
    }

    const double combined = load_of(left) + right_load;
    if (combined > cfg_.merge_target_frac * cfg_.capacity) continue;
    // Absorbing the right child must not push us over the overload
    // threshold.
    if (server_load() + right_load > cfg_.overload_frac * cfg_.capacity) {
      continue;
    }
    if (!best) {
      best = e->group;
      best_combined = combined;
    } else if (cfg_.merge_policy == ClashConfig::MergePolicy::kColdest &&
               combined < best_combined) {
      best = e->group;
      best_combined = combined;
    }
  }
  return best;
}

void ClashServer::try_consolidate() {
  const auto candidate = pick_merge_candidate();
  if (!candidate) return;
  const ServerTableEntry* entry = table_.find(*candidate);
  assert(entry != nullptr && !entry->active);
  const KeyGroup right = candidate->right_child();

  if (entry->right_child == self_) {
    // Both halves local: merge without messages.
    ServerTableEntry* right_entry = table_.find(right);
    assert(right_entry != nullptr && right_entry->active);
    (void)right_entry;
    GroupState right_state;
    const auto rs = state_.find(right);
    if (rs != state_.end()) {
      right_state = std::move(rs->second);
      state_.erase(rs);
    }
    table_.erase(right);
    note_group_deactivated(right);
    retire_group(right);

    ReclaimAck local_ack;
    local_ack.group = right;
    for (const auto& [_, s] : right_state.streams) {
      local_ack.streams.push_back(s);
    }
    for (const auto& [_, q] : right_state.queries) {
      local_ack.queries.push_back(q);
    }
    handle(self_, local_ack);
    return;
  }

  pending_reclaims_.insert(right);
  env_.send(entry->right_child, ReclaimKeyGroup{right});
}

// ---------------------------------------------------------------------------
// Group retirement, app deltas, ring changes and failover.
// ---------------------------------------------------------------------------

void ClashServer::retire_group(const KeyGroup& group) {
  repl_.retired(group);
  // The group left this server (gc / split / merge / handoff): its cost
  // history goes with it, or the map — and its scrape-time gauges —
  // grow without bound under churn. The new owner meters from zero.
  group_costs_.erase(group);
}

void ClashServer::forget_costs_unless_active(const KeyGroup& group) {
  const ServerTableEntry* entry = table_.find(group);
  if (entry == nullptr || !entry->active) group_costs_.erase(group);
}

bool ClashServer::append_app_delta(const KeyGroup& group,
                                   std::vector<std::uint8_t> delta) {
  const ServerTableEntry* entry = table_.find(group);
  if (entry == nullptr || !entry->active) return false;
  repl_.logged(group, repl::LogOp::app_delta_op(std::move(delta)));
  return true;
}

void ClashServer::hand_over(const KeyGroup& group, ServerId to) {
  const ServerTableEntry* entry = table_.find(group);
  AcceptKeyGroup msg;
  msg.group = group;
  msg.parent = entry->parent;
  msg.root = entry->root;
  const auto head = repl_.log_head(group);
  msg.epoch = head ? head->epoch : 0;
  GroupState st;
  const auto sit = state_.find(group);
  if (sit != state_.end()) {
    st = std::move(sit->second);
    state_.erase(sit);
  }
  msg.streams.reserve(st.streams.size());
  for (const auto& [_, s] : st.streams) msg.streams.push_back(s);
  msg.queries.reserve(st.queries.size());
  for (const auto& [_, q] : st.queries) msg.queries.push_back(q);
  if (app_hooks_ != nullptr) {
    msg.app_state = app_hooks_->export_state(group, to);
  }
  // Retire replicas and the local entry BEFORE the transfer: the new
  // owner re-replicates on install, and a retire arriving afterwards
  // would wipe the fresh records.
  table_.erase(group);
  child_reports_.erase(group);
  note_group_deactivated(group);
  retire_group(group);
  stats_.state_transfer_msgs += state_msgs_for(msg.queries.size());
  stats_.handoffs++;
  env_.send(to, std::move(msg));
}

void ClashServer::on_ring_change(const dht::ChordRing& ring,
                                 SimDuration grace) {
  // Hand back before refreshing: a group about to leave needs no probe.
  // Each group goes to the member `ring` maps it to, one target after
  // another in id order.
  std::map<ServerId, std::vector<KeyGroup>> moving;
  for (const ServerTableEntry* e : table_.active_entries()) {
    if (in_reclaim(e->group)) continue;
    const ServerId to = ring.map(hasher_.hash_key(e->group.virtual_key()));
    if (to != self_ && to.valid()) moving[to].push_back(e->group);
  }
  for (const auto& [to, groups] : moving) {
    for (const KeyGroup& group : groups) hand_over(group, to);
  }
  repl_.ring_changed(ring, grace);
}

bool ClashServer::promote_replica(const KeyGroup& group) {
  auto taken = repl_.take_for_promotion(group);
  if (!taken) {
    const ServerTableEntry* existing = table_.find(group);
    return existing != nullptr && existing->active;
  }
  std::optional<repl::GroupImage>& image = taken->image;
  ServerTableEntry entry;
  entry.group = group;
  entry.active = true;
  entry.root = !image || image->root;  // no replica: lineage unknown
  if (image) entry.parent = image->parent;
  table_.insert(entry);
  if (image) {
    state_[group] = std::move(image->state);
    if (app_hooks_ != nullptr) {
      if (!image->app_state.empty()) {
        app_hooks_->import_state(group, image->app_state);
      }
      for (const auto& d : image->app_deltas) app_hooks_->apply_delta(group, d);
    }
  } else {
    // No replica anywhere: adopt the bare group so the key space stays
    // covered.
    state_.try_emplace(group);
    stats_.groups_lost++;
  }
  note_group_activated(group);
  stats_.failovers++;
  repl_.activated(entry, taken->min_epoch);
  return image.has_value();
}

GroupState ClashServer::extract_subset(GroupState& st,
                                       const KeyGroup& subset) {
  GroupState out;
  for (auto it = st.streams.begin(); it != st.streams.end();) {
    if (subset.contains(it->second.key)) {
      out.stream_rate += it->second.rate;
      st.stream_rate -= it->second.rate;
      out.streams.insert(*it);
      it = st.streams.erase(it);
    } else {
      ++it;
    }
  }
  if (st.stream_rate < 0) st.stream_rate = 0;
  for (auto it = st.queries.begin(); it != st.queries.end();) {
    if (subset.contains(it->second.key)) {
      out.queries.insert(*it);
      it = st.queries.erase(it);
    } else {
      ++it;
    }
  }
  return out;
}

std::uint64_t ClashServer::state_msgs_for(std::size_t query_count) const {
  const unsigned batch = std::max(1u, cfg_.state_batch);
  return (query_count + batch - 1) / batch;
}

double ClashServer::server_load() const {
  double total = 0;
  for (const ServerTableEntry* e : table_.active_entries()) {
    total += load_of(e->group);
  }
  return total;
}

double ClashServer::load_of(const KeyGroup& group) const {
  const auto it = state_.find(group);
  if (it == state_.end()) return 0;
  double load =
      group_load(cfg_, it->second.stream_rate, it->second.queries.size());
  if (app_hooks_ != nullptr) load += app_hooks_->app_load(group);
  return load;
}

bool ClashServer::signal_overload() {
  const auto candidate = pick_split_candidate();
  if (!candidate) return false;
  split_group(*candidate, /*reshed_on_self_map=*/true);
  return true;
}

const GroupState* ClashServer::group_state(const KeyGroup& group) const {
  const auto it = state_.find(group);
  return it == state_.end() ? nullptr : &it->second;
}

std::size_t ClashServer::total_queries() const {
  std::size_t n = 0;
  for (const auto& [_, gs] : state_) n += gs.queries.size();
  return n;
}

std::size_t ClashServer::total_streams() const {
  std::size_t n = 0;
  for (const auto& [_, gs] : state_) n += gs.streams.size();
  return n;
}

}  // namespace clash
