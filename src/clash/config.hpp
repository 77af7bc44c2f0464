// Tunables for the CLASH protocol. Defaults reproduce the paper's
// simulation parameters (Section 6.1).
#pragma once

#include <cstdint>

#include "common/sim_time.hpp"

namespace clash {

struct ClashConfig {
  /// Identifier key width N (paper: 24).
  unsigned key_width = 24;

  /// Depth of the bootstrap key groups ("starting depth" in Figure 4c;
  /// paper: 6). The 2^initial_depth root groups are distributed by the
  /// DHT at startup and consolidation never rises above them.
  unsigned initial_depth = 6;

  /// Server capacity in load units (1 unit == 1 data packet/sec; see
  /// LoadParams). DESIGN.md's calibration notes derive 2400.
  double capacity = 2400.0;

  /// Overload threshold as a fraction of capacity (paper: 90 %).
  double overload_frac = 0.90;

  /// Underload threshold as a fraction of capacity (paper: 54 %).
  double underload_frac = 0.54;

  /// A reclaimed (merged) group must fit under this fraction of
  /// capacity, so a merge can never immediately re-trigger a split.
  double merge_target_frac = 0.45;

  /// Load model: load = alpha * data_rate + beta * log2(1 + queries),
  /// per key group ("linear in the data rate, logarithmic in the number
  /// of queries", Section 6).
  double load_alpha = 1.0;
  double load_beta = 8.0;

  /// How often servers evaluate overload/underload
  /// (LOAD_CHECK_PERIOD; paper: 5 minutes).
  SimDuration load_check_period = SimTime::from_minutes(5);

  /// Splits performed per overloaded check. The paper sheds one group
  /// per detection; raising this trades transient spike height for
  /// split churn (see bench/abl_policies).
  unsigned max_splits_per_check = 1;

  /// Queries per STATE_TRANSFER message during migration.
  unsigned state_batch = 1;

  /// Split-selection policy (paper: hottest).
  enum class SplitPolicy : std::uint8_t { kHottest, kRandom, kMostKeys };
  SplitPolicy split_policy = SplitPolicy::kHottest;

  /// Merge-selection policy (paper: coldest).
  enum class MergePolicy : std::uint8_t { kColdest, kRandom };
  MergePolicy merge_policy = MergePolicy::kColdest;

  /// Enable bottom-up consolidation (ablation hook).
  bool enable_consolidation = true;

  /// Garbage-collect a group's table entry when its last object leaves.
  /// Used by the fixed-depth DHT(x) baselines, whose 2^x groups are
  /// materialised lazily (DHT(24) would otherwise need 16M entries).
  bool ephemeral_groups = false;

  /// Fault-tolerance extension (0 = paper-faithful): each active key
  /// group keeps a per-group operation log (src/repl/) streamed to this
  /// many ring successors. Every mutation reaches the replica set
  /// immediately; the periodic traffic is one (epoch, seq)
  /// anti-entropy probe per holder; failover and rejoin pull exactly
  /// the missing suffix (a snapshot only when it was compacted).
  unsigned replication_factor = 0;

  /// Read by nothing: log replication is the only engine. Kept only
  /// because perfbench/src/cluster.cpp pins it.
  enum class ReplicationMode : std::uint8_t { kLog };
  ReplicationMode replication_mode = ReplicationMode::kLog;

  /// Retained entries per group log before the owner cuts a fresh
  /// snapshot and compacts (bounds both memory and the size of a
  /// catch-up delta).
  unsigned log_compact_threshold = 256;

  /// Streams+queries per SnapshotChunk message.
  unsigned snapshot_chunk_objects = 128;

  // --- Durable storage subsystem (src/storage/) ------------------------
  /// What survives a process crash:
  ///  - kNone: the seed behaviour — a restarted node is empty and
  ///    pulls everything back over the network.
  ///  - kWal: every owned-group mutation is appended to a segmented,
  ///    CRC32-framed write-ahead log; one baseline snapshot per group
  ///    anchors replay. The log grows without bound (no truncation).
  ///  - kWalSnapshot: kWal plus periodic on-disk snapshots cut at log
  ///    compaction, with WAL truncation past the snapshot floor —
  ///    bounded disk and bounded replay.
  enum class DurabilityMode : std::uint8_t { kNone, kWal, kWalSnapshot };
  DurabilityMode durability_mode = DurabilityMode::kNone;

  /// When WAL appends reach stable storage:
  ///  - kPerAppend: fsync every record (no loss, highest latency).
  ///  - kInterval: group commit — fsync at most once per
  ///    fsync_interval (bounded loss window).
  ///  - kNever: leave it to the OS (a crash may lose any unsynced
  ///    suffix; recovery still truncates to the last complete record).
  enum class FsyncPolicy : std::uint8_t { kPerAppend, kInterval, kNever };
  FsyncPolicy fsync_policy = FsyncPolicy::kInterval;

  /// Group-commit window for FsyncPolicy::kInterval.
  SimDuration fsync_interval = SimTime::from_seconds(1);

  /// WAL segment rollover size (truncation reclaims whole segments).
  std::uint64_t wal_segment_bytes = 1u << 20;
};

}  // namespace clash
