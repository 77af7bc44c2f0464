#include "obs/journal.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <cstring>
#include <iterator>
#include <limits>
#include <new>

namespace clash::obs {

namespace {

std::uint64_t round_up_pow2(std::size_t n) {
  std::uint64_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

void append_escaped(std::string& out, std::string_view s) {
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (std::uint8_t(c) >= 0x20) {
      out.push_back(c);
    }
  }
}

using Word = std::atomic_ref<std::uint64_t>;

/// Names of a kind's edges, indexed by Kind. `end` names instants and
/// end records; ops also name their other edges and their open-op row.
struct Names {
  const char* end;
  const char* category;
  const char* span = nullptr;  // nullptr: not drawn in the Chrome view
  const char* op = nullptr;
  const char* begin = nullptr;
  const char* progress = nullptr;
  const char* abort = nullptr;
};

constexpr Names kNames[] = {
    {"group_activated", "clash"},
    {"group_deactivated", "clash"},
    {"epoch_bump", "repl"},
    {"member_suspected", "membership"},
    {"member_dead", "membership"},
    {"member_joined", "membership"},
    {"wal_rollover", "storage"},
    {"fault_drop", "net"},
    {"fault_corrupt", "net"},
    {"corrupt_reject", "repl"},
    {"stall_tick", "obs"},
    {"stall_op", "obs"},
    {"invariant_fail", "obs"},
    {"wal_fsync", "storage", "wal_fsync"},
    {"tick_overrun", "net", "loop_tick"},
    {"recovery_scan", "storage", "recovery_scan"},
    {"snapshot_installed", "repl", "snapshot_transfer", "snapshot_in",
     "snapshot_offer_recv", "snapshot_chunk_recv", "snapshot_aborted"},
    {"snapshot_sent", "repl", "snapshot_transfer", "snapshot_out",
     "snapshot_offer_sent", "snapshot_chunk_sent", "snapshot_aborted"},
    {"replica_promoted", "repl", "failover", "recovery_pull",
     "recovery_begin", "recovery_repair", "recovery_abandon"},
    {"ingest", "clash", "ingest"},
    {"repl_apply", "repl", "repl_apply"},
    {"query_match", "cq", "query_match"},
    {"repl_commit", "repl", "repl_commit"},
    {"loop_tick", "net", "loop_tick"},
    {"repl_append_done", "repl", nullptr, "repl_append", "repl_append_begin",
     "repl_append_ack", "repl_append_abort"},
    {"connect_done", "net", nullptr, "connect", "connect_begin",
     "connect_progress", "connect_abort"},
};
static_assert(std::size(kNames) == std::size_t(Kind::kConnect) + 1,
              "one Names row per Kind");

const Names& names(Kind kind) { return kNames[std::size_t(kind)]; }

}  // namespace

const char* edge_name(Kind kind, Phase phase) {
  const Names& n = names(kind);
  const char* name = n.end;
  if (phase == Phase::kBegin) name = n.begin;
  if (phase == Phase::kProgress) name = n.progress;
  if (phase == Phase::kAbort) name = n.abort;
  return name != nullptr ? name : "unknown";
}

const char* op_name(Kind kind) {
  const char* name = names(kind).op;
  return name != nullptr ? name : "unknown";
}

const char* span_name(Kind kind) { return names(kind).span; }
const char* span_category(Kind kind) { return names(kind).category; }

Journal::Journal(std::size_t capacity, std::size_t traced_capacity) {
  const std::uint64_t small = round_up_pow2(capacity);
  const std::uint64_t wide = std::max(small, round_up_pow2(traced_capacity));
  mask_ = small - 1;
  traced_mask_ = wide - 1;
  // Anonymous pages read as zero (every stamp empty) and are committed
  // only when first written: the untraced window costs what it touches.
  ring_bytes_ = std::size_t(wide) * sizeof(Slot);
  void* mem = ::mmap(nullptr, ring_bytes_, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (mem == MAP_FAILED) throw std::bad_alloc();
  ring_ = static_cast<Slot*>(mem);
}

Journal::~Journal() { ::munmap(ring_, ring_bytes_); }

void Journal::write(Kind kind, Phase phase, std::uint32_t node,
                    std::int64_t t_us, std::int64_t dur_us, std::uint64_t a,
                    std::uint64_t b, std::uint64_t trace_id) {
  const std::uint64_t seq = next_.fetch_add(1, std::memory_order_relaxed);
  Slot& s = ring_[seq & mask()];
  // Claim -> write payload -> publish. The CAS claim serialises writers
  // whose sequences collide on one slot (the ring wrapped within their
  // race window): the loser drops its record rather than interleave
  // payload stores that the later publish would bless.
  Word stamp(s.stamp);
  std::uint64_t cur = stamp.load(std::memory_order_relaxed);
  if (cur == kWriting ||
      !stamp.compare_exchange_strong(cur, kWriting,
                                     std::memory_order_acq_rel,
                                     std::memory_order_relaxed)) {
    return;
  }
  Word(s.t_us).store(std::uint64_t(t_us), std::memory_order_relaxed);
  Word(s.dur_us).store(std::uint64_t(std::max<std::int64_t>(dur_us, 0)),
                       std::memory_order_relaxed);
  Word(s.a).store(a, std::memory_order_relaxed);
  Word(s.b).store(b, std::memory_order_relaxed);
  Word(s.trace_id).store(trace_id, std::memory_order_relaxed);
  Word(s.meta).store((std::uint64_t(node) << 32) |
                         (std::uint64_t(phase) << 8) | std::uint64_t(kind),
                     std::memory_order_relaxed);
  stamp.store(seq + 1, std::memory_order_release);
}

Op Journal::begin(Kind kind, std::uint32_t node, std::int64_t now_us,
                  std::string_view group, std::uint64_t peer,
                  std::uint64_t subject, std::uint64_t target,
                  std::uint64_t trace_id) {
  Op op{0, now_us, subject, trace_id, node, kind, true};
  if (recording(kind)) {
    write(kind, Phase::kBegin, node, now_us, 0, subject, target, trace_id);
  }
  for (std::size_t i = 0; i < kOpSlots; ++i) {
    OpSlot& s = ops_[i];
    std::uint64_t expected = 0;
    if (!s.token.compare_exchange_strong(expected, kWriting,
                                         std::memory_order_acq_rel,
                                         std::memory_order_relaxed)) {
      continue;
    }
    s.meta.store((std::uint64_t(node) << 8) | std::uint64_t(kind),
                 std::memory_order_relaxed);
    s.peer.store(peer, std::memory_order_relaxed);
    s.start_us.store(now_us, std::memory_order_relaxed);
    s.last_progress_us.store(now_us, std::memory_order_relaxed);
    s.progress.store(0, std::memory_order_relaxed);
    s.target.store(target, std::memory_order_relaxed);
    char label[kLabelBytes] = {};
    if (!group.empty()) {
      std::memcpy(label, group.data(),
                  std::min(group.size(), kLabelBytes - 1));
    }
    for (std::size_t w = 0; w < kLabelBytes / 8; ++w) {
      std::uint64_t word;
      std::memcpy(&word, label + w * 8, 8);
      s.label[w].store(word, std::memory_order_relaxed);
    }
    // The slot index rides in the low byte; the counter never reaches
    // it in any realistic run (2^56 begins).
    op.token = (next_token_.fetch_add(1, std::memory_order_relaxed) << 8) |
               std::uint64_t(i);
    s.token.store(op.token, std::memory_order_release);
    return op;
  }
  op_overflow_.fetch_add(1, std::memory_order_relaxed);
  return op;
}

void Journal::progress(const Op& op, std::int64_t now_us,
                       std::uint64_t delta) {
  if (!op.open) return;
  if (op.token != 0) {
    OpSlot& s = ops_[op.token % kOpSlots];
    if (s.token.load(std::memory_order_acquire) != op.token) return;
    s.progress.fetch_add(delta, std::memory_order_relaxed);
    s.last_progress_us.store(now_us, std::memory_order_relaxed);
  }
  if (tracing()) {
    write(op.kind, Phase::kProgress, op.node, now_us, 0, op.subject, delta,
          op.trace_id);
  }
}

void Journal::close(Op& op, Phase phase, std::int64_t now_us,
                    std::uint64_t b) {
  if (!op.open) return;
  op.open = false;
  if (op.token != 0) {
    std::uint64_t expected = op.token;
    ops_[op.token % kOpSlots].token.compare_exchange_strong(
        expected, 0, std::memory_order_acq_rel, std::memory_order_relaxed);
  }
  if (!recording(op.kind)) return;
  write(op.kind, phase, op.node, now_us, now_us - op.start_us, op.subject, b,
        op.trace_id);
}

std::uint64_t Journal::total() const {
  // Floor first: it only ever takes a past value of next_.
  const std::uint64_t floor = floor_.load(std::memory_order_acquire);
  return next_.load(std::memory_order_acquire) - floor;
}

std::size_t Journal::capacity() const { return std::size_t(mask() + 1); }

std::uint64_t Journal::dropped() const {
  const std::uint64_t n = total();
  return n > capacity() ? n - capacity() : 0;
}

std::vector<Record> Journal::records() const {
  const std::uint64_t floor = floor_.load(std::memory_order_acquire);
  const std::uint64_t end = next_.load(std::memory_order_acquire);
  const std::uint64_t cap = mask() + 1;
  const std::uint64_t begin = std::max(end > cap ? end - cap : 0, floor);
  std::vector<Record> out;
  out.reserve(std::size_t(end - begin));
  for (std::uint64_t seq = begin; seq < end; ++seq) {
    Slot& s = ring_[seq & (cap - 1)];
    Word stamp(s.stamp);
    const std::uint64_t before = stamp.load(std::memory_order_acquire);
    if (before != seq + 1) continue;  // overwritten or mid-write
    Record r;
    r.t_us = std::int64_t(Word(s.t_us).load(std::memory_order_relaxed));
    r.dur_us = std::int64_t(Word(s.dur_us).load(std::memory_order_relaxed));
    r.a = Word(s.a).load(std::memory_order_relaxed);
    r.b = Word(s.b).load(std::memory_order_relaxed);
    r.trace_id = Word(s.trace_id).load(std::memory_order_relaxed);
    const std::uint64_t meta = Word(s.meta).load(std::memory_order_relaxed);
    r.node = std::uint32_t(meta >> 32);
    r.phase = Phase((meta >> 8) & 0xff);
    r.kind = Kind(meta & 0xff);
    std::atomic_thread_fence(std::memory_order_acquire);
    if (stamp.load(std::memory_order_relaxed) != before) continue;
    out.push_back(r);
  }
  return out;
}

std::vector<Record> Journal::spans() const {
  auto out = records();
  std::erase_if(out, [](const Record& r) { return !r.is_span(); });
  return out;
}

bool Journal::read_op(const OpSlot& s, OpenOp* out) const {
  const std::uint64_t token = s.token.load(std::memory_order_acquire);
  if (token == 0 || token == kWriting) return false;
  OpenOp op;
  op.token = token;
  const std::uint64_t meta = s.meta.load(std::memory_order_relaxed);
  op.kind = Kind(meta & 0xff);
  op.node = std::uint32_t(meta >> 8);
  op.peer = s.peer.load(std::memory_order_relaxed);
  op.start_us = s.start_us.load(std::memory_order_relaxed);
  op.last_progress_us = s.last_progress_us.load(std::memory_order_relaxed);
  op.progress = s.progress.load(std::memory_order_relaxed);
  op.target = s.target.load(std::memory_order_relaxed);
  char label[kLabelBytes];
  for (std::size_t w = 0; w < kLabelBytes / 8; ++w) {
    const std::uint64_t word = s.label[w].load(std::memory_order_relaxed);
    std::memcpy(label + w * 8, &word, 8);
  }
  label[kLabelBytes - 1] = '\0';
  op.group.assign(label);
  std::atomic_thread_fence(std::memory_order_acquire);
  if (s.token.load(std::memory_order_relaxed) != token) return false;
  *out = std::move(op);
  return true;
}

std::vector<OpenOp> Journal::open_ops() const {
  return stalled(0, std::numeric_limits<std::int64_t>::min());
}

std::vector<OpenOp> Journal::stalled(std::int64_t now_us,
                                     std::int64_t threshold_us) const {
  std::vector<OpenOp> out;
  for (const OpSlot& s : ops_) {
    OpenOp op;
    if (read_op(s, &op) && now_us - op.last_progress_us >= threshold_us) {
      out.push_back(std::move(op));
    }
  }
  return out;
}

std::string Journal::flight_json() const {
  const auto recs = records();
  std::string out;
  out.reserve(64 + recs.size() * 96);
  out += "{\"schema\":\"clash-flightrec-v1\",\"total\":";
  out += std::to_string(total());
  out += ",\"dropped\":";
  out += std::to_string(dropped());
  out += ",\"capacity\":";
  out += std::to_string(capacity());
  out += ",\"events\":[";
  bool first = true;
  for (const auto& r : recs) {
    if (!first) out.push_back(',');
    first = false;
    out += "{\"t_us\":";
    out += std::to_string(r.t_us);
    out += ",\"node\":";
    out += std::to_string(r.node);
    out += ",\"kind\":\"";
    out += edge_name(r.kind, r.phase);
    out += "\",\"a\":";
    out += std::to_string(r.a);
    out += ",\"b\":";
    out += std::to_string(r.b);
    out.push_back('}');
  }
  out += "]}";
  return out;
}

std::string Journal::inflight_json(std::int64_t now_us) const {
  const auto ops = open_ops();
  std::string out;
  out.reserve(64 + ops.size() * 160);
  out += "{\"schema\":\"clash-inflight-v1\",\"now_us\":";
  out += std::to_string(now_us);
  out += ",\"active\":";
  out += std::to_string(ops.size());
  out += ",\"overflow\":";
  out += std::to_string(op_overflow());
  out += ",\"ops\":[";
  bool first = true;
  for (const auto& op : ops) {
    if (!first) out.push_back(',');
    first = false;
    out += "{\"kind\":\"";
    out += op_name(op.kind);
    out += "\",\"node\":";
    out += std::to_string(op.node);
    out += ",\"group\":\"";
    append_escaped(out, op.group);
    out += "\",\"peer\":";
    out += std::to_string(op.peer);
    out += ",\"start_us\":";
    out += std::to_string(op.start_us);
    out += ",\"last_progress_us\":";
    out += std::to_string(op.last_progress_us);
    out += ",\"age_us\":";
    out += std::to_string(now_us - op.start_us);
    out += ",\"since_progress_us\":";
    out += std::to_string(now_us - op.last_progress_us);
    out += ",\"progress\":";
    out += std::to_string(op.progress);
    out += ",\"target\":";
    out += std::to_string(op.target);
    out.push_back('}');
  }
  out += "]}";
  return out;
}

std::string Journal::chrome_json() const {
  auto all = spans();
  std::stable_sort(all.begin(), all.end(),
                   [](const Record& x, const Record& y) {
                     return x.start_us() < y.start_us();
                   });
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  for (const auto& r : all) {
    if (!first) out += ",";
    first = false;
    out += "\n{\"name\":\"";
    out += span_name(r.kind);
    out += "\",\"cat\":\"";
    out += span_category(r.kind);
    out += "\",\"ph\":\"X\",\"ts\":";
    out += std::to_string(r.start_us());
    out += ",\"dur\":";
    out += std::to_string(r.dur_us);
    out += ",\"pid\":";
    out += std::to_string(r.node);
    out += ",\"tid\":";
    out += std::to_string(unsigned(r.kind));
    out += ",\"args\":{\"arg\":";
    out += std::to_string(r.b);
    if (r.trace_id != 0) {
      // Decimal id string: grep-able across per-node dumps, and what
      // the bench-side merge matches on.
      out += ",\"trace_id\":\"";
      out += std::to_string(r.trace_id);
      out += "\"";
    }
    out += "}}";
  }
  out += "\n]}\n";
  return out;
}

void Journal::clear() {
  floor_.store(next_.load(std::memory_order_relaxed),
               std::memory_order_release);
}

}  // namespace clash::obs
