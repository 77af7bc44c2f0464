// On-disk group snapshots: one atomic file per key group holding the
// group's full object state at a log head, plus the opaque application
// payload (the same blob format StreamEngine::export_group produces /
// import_blob consumes, shipped through AppHooks::snapshot_state).
// Object state is serialised as a run of put_stream/put_query LogOps —
// the exact wire encoding the replication subsystem already uses — so
// recovery replays a snapshot through GroupLog::apply like any log
// suffix. The whole file is CRC32-trailed: a half-written or bit-rotted
// snapshot is rejected, never half-applied.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "repl/op.hpp"

namespace clash::storage {

/// Serialise an image (magic + version + payload + trailing CRC32).
[[nodiscard]] std::vector<std::uint8_t> encode_snapshot(
    const repl::GroupImage& img);

/// Decode + CRC-validate; false on any damage (caller falls back to
/// WAL-only recovery for the group).
bool decode_snapshot(std::span<const std::uint8_t> data,
                     repl::GroupImage& out);

/// Stable, filesystem-safe path for a group's snapshot file
/// ("snap/<depth>-<virtual key hex>.snap"; the label's '*' wildcard is
/// not filename material).
[[nodiscard]] std::string snapshot_path(const std::string& dir,
                                        const KeyGroup& group);

}  // namespace clash::storage
