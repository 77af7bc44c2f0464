// Isolation timings for the traced run: one layer's public function
// called in a tight loop on the workload's own inputs, outside the
// timed window. Each result is the median over batches of the mean
// nanoseconds per call.
#pragma once

#include <string>
#include <vector>

#include "clash/config.hpp"
#include "clash/messages.hpp"
#include "clash/server_table.hpp"
#include "dht/hash.hpp"

namespace perfbench {

/// dht::KeyHasher::hash_key.
[[nodiscard]] double time_hash_ns(const clash::dht::KeyHasher& hasher,
                                  const std::vector<clash::Key>& keys);

struct TableTimes {
  double lpm_ns = 0;        // ServerTable::longest_prefix_match
  double entry_for_ns = 0;  // ServerTable::active_entry_for
};
[[nodiscard]] TableTimes time_table_ns(const clash::ServerTable& table,
                                       const std::vector<clash::Key>& keys);

struct CodecTimes {
  double encode_ns = 0;  // AcceptObject request frame + its reply
  double decode_ns = 0;
};
[[nodiscard]] CodecTimes time_codec_ns(
    const std::vector<clash::AcceptObject>& objs);

/// storage::NodeStore::append_op over a FileBackend rooted at `dir`
/// (created and removed here), one put per object.
[[nodiscard]] double time_wal_append_ns(
    const std::string& dir, const clash::ClashConfig& cfg,
    const std::vector<clash::AcceptObject>& objs);

}  // namespace perfbench
