// storage::Recovery: the crash-recovery scanner. Rebuilds the groups a
// node owned from its durable store: load every valid snapshot file,
// then replay the WAL segments in order, applying each op record that
// chains onto its group's head (snapshot floor or previous op). The
// result is exactly the pre-crash owner state up to the last complete,
// uncorrupted record — a torn tail truncates cleanly, a CRC-corrupt
// record fences the rest of its segment (a WAL is trustworthy only up
// to its first damage), and anti-entropy with the replica set repairs
// whatever suffix the disk lost.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "repl/op.hpp"
#include "storage/backend.hpp"

namespace clash::storage {

struct RecoveryScanStats {
  std::uint64_t snapshots_loaded = 0;
  std::uint64_t snapshots_rejected = 0;  // CRC / decode failures
  std::uint64_t segments_scanned = 0;
  std::uint64_t records_replayed = 0;
  std::uint64_t records_skipped = 0;  // stale epoch, covered seq, or gap
  std::uint64_t torn_tails = 0;       // segments ending mid-record
  std::uint64_t corrupt_records = 0;  // CRC-rejected frames
  std::uint64_t orphan_groups = 0;    // ops with no snapshot baseline
  std::uint64_t drops_applied = 0;
};

struct RecoveredImage {
  /// Each group's image after snapshot + replay (head: the last record
  /// applied; app_deltas: the snapshot's plus every replayed delta).
  std::map<KeyGroup, repl::GroupImage> groups;
  /// Head of each group's on-disk snapshot as loaded (the WAL
  /// truncation floors the restarted store starts from).
  std::map<KeyGroup, repl::LogHead> snapshot_floors;
  /// Last head each group reached in each surviving segment (drop
  /// records as {epoch, max}), index order. The restarted Wal adopts
  /// these as closed segments so checkpoints can reclaim them —
  /// without this, pre-crash segments would leak forever.
  std::vector<std::pair<std::uint64_t, std::map<KeyGroup, repl::LogHead>>>
      segment_tails;
  /// Groups whose last word in the WAL was a drop, at that epoch
  /// (covers their residual records without a snapshot floor).
  std::map<KeyGroup, std::uint64_t> dropped_epochs;
  RecoveryScanStats stats;
  /// One past the highest segment seen: the restarted WAL writes here,
  /// never appending to a possibly-torn tail file.
  std::uint64_t next_segment_index = 0;
};

/// Scan `backend` and rebuild the image. Read-only: repair decisions
/// (fresh baselines, truncation) belong to the restarted NodeStore.
[[nodiscard]] RecoveredImage recover_image(Backend& backend,
                                           const std::string& wal_dir,
                                           const std::string& snap_dir);

}  // namespace clash::storage
