#include "storage/wal.hpp"

#include <cstdio>
#include <limits>

#include "common/crc32.hpp"
#include "common/logging.hpp"
#include "wire/fields.hpp"

namespace clash::storage {

namespace {

constexpr std::size_t kFrameHeader = 8;  // u32 len + u32 crc

}  // namespace

/// The record payload: [kind][group][head][op, kOp only].
template <typename IO>
void fields(IO& io, wire::Ref<IO, WalRecord> r) {
  io.enum8(r.kind, RecordKind::kOp, RecordKind::kDrop);
  fields(io, r.group);
  fields(io, r.head);
  if (r.kind == RecordKind::kOp) fields(io, r.op);
}

std::vector<std::uint8_t> encode_wal_record(const WalRecord& r) {
  wire::Writer payload;
  wire::encode(payload, r);
  wire::Writer framed;
  framed.reserve(kFrameHeader + payload.size());
  framed.u32(std::uint32_t(payload.size()));
  framed.u32(crc32(payload.data()));
  framed.bytes(payload.data());
  return framed.take();
}

ScanResult scan_wal_segment(
    std::span<const std::uint8_t> data,
    const std::function<void(const WalRecord&)>& fn) {
  ScanResult result;
  std::size_t pos = 0;
  while (pos < data.size()) {
    if (data.size() - pos < kFrameHeader) {
      result.end = ScanEnd::kTornTail;
      return result;
    }
    const std::uint32_t len = wire::load_u32_le(data.data() + pos);
    const std::uint32_t want_crc = wire::load_u32_le(data.data() + pos + 4);
    if (data.size() - pos - kFrameHeader < len) {
      result.end = ScanEnd::kTornTail;
      return result;
    }
    const auto payload = data.subspan(pos + kFrameHeader, len);
    if (crc32(payload) != want_crc) {
      result.end = ScanEnd::kCorrupt;
      return result;
    }
    wire::Reader reader(payload);
    const auto rec = wire::decode<WalRecord>(reader);
    if (!reader.exhausted()) {
      result.end = ScanEnd::kCorrupt;
      return result;
    }
    fn(rec);
    pos += kFrameHeader + len;
    ++result.records;
    result.valid_bytes = pos;
  }
  return result;
}

std::string Wal::segment_path(const std::string& dir, std::uint64_t index) {
  char name[32];
  std::snprintf(name, sizeof(name), "%08llu.seg",
                (unsigned long long)index);
  return dir + "/" + name;
}

Wal::Wal(Backend& backend, Config cfg, std::uint64_t next_index)
    : backend_(backend), cfg_(std::move(cfg)), index_(next_index) {}

bool Wal::append_op(const KeyGroup& group, repl::LogHead head,
                    const repl::LogOp& op) {
  WalRecord rec;
  rec.kind = RecordKind::kOp;
  rec.group = group;
  rec.head = head;
  rec.op = op;
  return append_record(rec);
}

bool Wal::append_drop(const KeyGroup& group, std::uint64_t epoch) {
  WalRecord rec;
  rec.kind = RecordKind::kDrop;
  rec.group = group;
  // A drop supersedes every seq of its epoch: only a snapshot from a
  // strictly newer epoch (a re-activation) covers it.
  rec.head = repl::LogHead{epoch,
                           std::numeric_limits<std::uint64_t>::max()};
  return append_record(rec);
}

bool Wal::append_record(const WalRecord& rec) {
  if (segment_ == nullptr && !roll_segment()) {
    stats_.io_errors++;
    return false;
  }
  const auto frame = encode_wal_record(rec);
  if (!segment_->append(frame)) {
    stats_.io_errors++;
    CLASH_ERROR << "wal append failed on segment " << index_
                << " (durability void until the disk recovers)";
    return false;
  }
  stats_.records++;
  stats_.bytes += frame.size();
  auto [it, inserted] = open_tails_.try_emplace(rec.group, rec.head);
  if (!inserted && it->second < rec.head) it->second = rec.head;
  if (segment_->size() >= cfg_.segment_bytes) return roll_segment();
  return true;
}

bool Wal::roll_segment() {
  if (segment_ != nullptr) {
    // A segment must be durable before the writer moves past it, or a
    // crash could lose a middle segment while keeping a later one.
    if (!segment_->sync()) {
      stats_.io_errors++;
      CLASH_ERROR << "wal fsync failed closing segment " << index_;
    }
    closed_.push_back(ClosedSegment{index_, std::move(open_tails_)});
    open_tails_.clear();
    ++index_;
  }
  segment_ = backend_.open_append(segment_path(cfg_.dir, index_));
  if (segment_ == nullptr) {
    stats_.io_errors++;
    return false;
  }
  stats_.segments_opened++;
  return true;
}

bool Wal::sync() {
  if (segment_ == nullptr) return true;
  stats_.syncs++;
  if (!segment_->sync()) {
    stats_.io_errors++;
    CLASH_ERROR << "wal fsync failed on segment " << index_
                << " (fsync policy guarantee void)";
    return false;
  }
  return true;
}

std::size_t Wal::truncate_covered(
    const std::function<bool(const KeyGroup&, repl::LogHead)>& covered) {
  std::size_t deleted = 0;
  while (!closed_.empty()) {
    const ClosedSegment& seg = closed_.front();
    bool all_covered = true;
    for (const auto& [group, tail] : seg.tails) {
      if (!covered(group, tail)) {
        all_covered = false;
        break;
      }
    }
    if (!all_covered) break;
    backend_.remove_file(segment_path(cfg_.dir, seg.index));
    closed_.pop_front();
    ++deleted;
    stats_.segments_deleted++;
  }
  return deleted;
}

}  // namespace clash::storage
