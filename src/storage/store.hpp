// storage::NodeStore: the per-node durable store a ClashServer writes
// through. One WAL (append-on-mutate) plus one snapshot file per owned
// group (baseline at activation; checkpoint at log compaction in
// kWalSnapshot mode, which also truncates the WAL past the snapshot
// floor). Construction scans the backend and rebuilds the pre-crash
// image eagerly — take_image() hands it to the server's restore path —
// so the WAL always restarts on a fresh segment, never appending to a
// possibly-torn tail.
// Thread contract: a NodeStore is affine to its owner's single thread
// (the node's event loop; the simulator's thread in sim runs). State is
// CLASH_GUARDED_BY(affinity_) and public methods witness the token at
// entry; net::ClashNode binds the token to its event-loop probe, so
// off-loop storage calls abort in CLASH_LOOP_CHECKS builds.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>

#include "clash/config.hpp"
#include "common/affinity.hpp"
#include "common/thread_annotations.hpp"
#include "obs/hub.hpp"
#include "storage/recovery.hpp"
#include "storage/snapshot.hpp"
#include "storage/wal.hpp"

namespace clash::storage {

class NodeStore {
 public:
  struct Config {
    ClashConfig::DurabilityMode mode =
        ClashConfig::DurabilityMode::kWalSnapshot;
    ClashConfig::FsyncPolicy fsync = ClashConfig::FsyncPolicy::kInterval;
    SimDuration fsync_interval = SimTime::from_seconds(1);
    std::uint64_t segment_bytes = 1u << 20;
    std::string wal_dir = "wal";
    std::string snap_dir = "snap";

    /// Durability knobs as the protocol config carries them.
    [[nodiscard]] static Config from(const ClashConfig& c) {
      Config cfg;
      cfg.mode = c.durability_mode;
      cfg.fsync = c.fsync_policy;
      cfg.fsync_interval = c.fsync_interval;
      cfg.segment_bytes = c.wal_segment_bytes;
      return cfg;
    }
  };

  struct Stats {
    std::uint64_t ops_appended = 0;
    std::uint64_t snapshots_written = 0;
    std::uint64_t snapshot_bytes = 0;
    std::uint64_t snapshot_write_failures = 0;
    std::uint64_t drops = 0;
    std::uint64_t truncated_segments = 0;
  };

  /// Scans `backend` (recovery) and opens the WAL one segment past the
  /// highest on disk. The backend must outlive the store.
  NodeStore(Backend& backend, Config cfg);

  /// The affinity capability guarding all store state; the embedding
  /// node binds it to its home-thread probe during setup.
  [[nodiscard]] common::AffinityToken& affinity()
      CLASH_RETURN_CAPABILITY(affinity_) {
    return affinity_;
  }

  /// The image recovered at construction (pre-crash owned groups).
  /// Moves: call once, from the server's restore path.
  [[nodiscard]] RecoveredImage take_image() {
    affinity_.assert_held();
    return std::move(image_);
  }
  [[nodiscard]] const RecoveryScanStats& recovery_stats() const {
    affinity_.assert_held();
    return recovery_stats_;
  }

  /// Append one mutation of an owned group (`head` is the op's
  /// position after the append). Applies the fsync policy. Returns the
  /// WAL bytes the record cost (per-group storage metering).
  std::uint64_t append_op(const KeyGroup& group, repl::LogHead head,
                          const repl::LogOp& op, SimTime now);

  /// Write `img` atomically as `group`'s snapshot file. Baselines
  /// (`checkpoint == false`: activation under a new epoch) are written
  /// in every durable mode — they anchor WAL replay. Checkpoints
  /// (log-compaction cuts) only land in kWalSnapshot mode, where they
  /// advance the truncation floor and reclaim covered segments.
  /// Returns the encoded bytes written (0 when skipped or failed).
  std::uint64_t write_snapshot(const SnapshotImage& img, bool checkpoint);

  /// The group left this node (split away, reclaimed, handed off):
  /// log a drop record (fsync policy applies) and delete its snapshot
  /// file.
  void drop_group(const KeyGroup& group, std::uint64_t epoch, SimTime now);

  /// Periodic driver hook: group-commit fsync (kInterval policy).
  void tick(SimTime now);

  /// True when `group`'s last snapshot write failed and the server
  /// should re-persist it (checked each load check).
  [[nodiscard]] bool snapshot_retry_pending(const KeyGroup& group) const {
    affinity_.assert_held();
    return failed_snapshots_.count(group) > 0;
  }

  /// Force everything appended so far to stable storage.
  void flush() {
    affinity_.assert_held();
    timed_sync(last_sync_);
  }

  /// Attach an observability hub: fsync latencies feed its
  /// clash_wal_fsync_usec histogram (wall-clock cost of each sync,
  /// one kWalFsync journal record stamped with `node`), and the
  /// construction-time recovery scan is published as the
  /// clash_storage_recovery_usec gauge plus a kRecoveryScan record.
  void set_obs(obs::Hub* hub, std::uint64_t node);

  [[nodiscard]] const Stats& stats() const {
    affinity_.assert_held();
    return stats_;
  }
  [[nodiscard]] const Wal::Stats& wal_stats() const {
    affinity_.assert_held();
    return wal_->stats();
  }
  [[nodiscard]] const Config& config() const { return cfg_; }

 private:
  void maybe_sync(SimTime now) CLASH_REQUIRES(affinity_);
  /// wal_->sync() wrapped with the fsync histogram/trace span (`now`
  /// stamps the span; the duration is wall-clock).
  bool timed_sync(SimTime now) CLASH_REQUIRES(affinity_);
  void truncate() CLASH_REQUIRES(affinity_);

  common::AffinityToken affinity_;
  Backend& backend_;
  Config cfg_;
  std::unique_ptr<Wal> wal_ CLASH_PT_GUARDED_BY(affinity_);
  RecoveredImage image_ CLASH_GUARDED_BY(affinity_);
  RecoveryScanStats recovery_stats_ CLASH_GUARDED_BY(affinity_);
  /// Durable snapshot head per group; WAL records at or below their
  /// group's floor are reclaimable.
  std::map<KeyGroup, repl::LogHead> floors_ CLASH_GUARDED_BY(affinity_);
  /// Epoch at which a group was dropped (covers its records without a
  /// floor entry).
  std::map<KeyGroup, std::uint64_t> dropped_ CLASH_GUARDED_BY(affinity_);
  /// Groups whose snapshot write failed (retried via
  /// snapshot_retry_pending).
  std::set<KeyGroup> failed_snapshots_ CLASH_GUARDED_BY(affinity_);
  SimTime last_sync_ CLASH_GUARDED_BY(affinity_){0};
  Stats stats_ CLASH_GUARDED_BY(affinity_);

  obs::Hub* hub_ CLASH_GUARDED_BY(affinity_) = nullptr;
  std::uint64_t node_ CLASH_GUARDED_BY(affinity_) = 0;
  obs::HistogramHandle fsync_us_ CLASH_GUARDED_BY(affinity_);
  // Construction-scan duration / group count (before take_image moves).
  std::int64_t recovery_usec_ CLASH_GUARDED_BY(affinity_) = 0;
  std::size_t recovered_groups_ CLASH_GUARDED_BY(affinity_) = 0;
};

}  // namespace clash::storage
