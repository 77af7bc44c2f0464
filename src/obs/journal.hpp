// obs::Journal: a node's one event journal. Every lifecycle edge worth
// seeing — a group activating, a member dying, a WAL fsync, a snapshot
// transfer opening and installing, a recovery session ending in a
// promotion — is one record in one bounded ring. Three views read it:
//   * the flight view (/flightrec, postmortem dumps): every surviving
//     record, oldest first, as {"schema":"clash-flightrec-v1",...};
//   * the Chrome view (/trace, bench --trace): the records of kinds
//     that have a span name, as trace_event "X" events;
//   * the open-op view (/flightrec's "inflight", StallWatchdog): the
//     ops begun and not yet ended, as {"schema":"clash-inflight-v1"}.
//
// Long-lived operations (a snapshot transfer, a recovery pull, an
// un-acked append batch, an async connect) are begun, progressed and
// ended through an Op handle. The handle holds the start time, so the
// end record alone carries the whole span; while the op is open it is
// also indexed in a fixed slot table, so a long op is never lost when
// the ring wraps past its begin record.
//
// Kinds from kIngest on are per-operation and recorded only while
// tracing is on (one relaxed load when off); progress records too.
// Turning tracing on also widens the ring window from `capacity` to
// `traced_capacity` records, for good: a trace stays readable after
// tracing is turned off. The ring is mapped lazily, so a journal that
// never traces commits only the small window's pages.
//
// Everything is lock-free and readable from any thread, including a
// crash-signal handler:
//   * ring slots are seqlock-stamped: a writer claims the slot by CAS
//     (a collision with another writer drops the loser's record), writes
//     the payload as relaxed atomic words, then publishes stamp=seq+1
//     (release). A reader accepts a slot only when the stamp it saw
//     before and after the copy is the exact sequence it expected, so
//     torn or overwritten slots are skipped, never misreported;
//   * open-op slots are claimed by CAS on a token that embeds the slot
//     index, so progress/end are O(1) and stale tokens are ignored.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace clash::obs {

/// What a record is about; `a`/`b` are kind-specific payload words.
enum class Kind : std::uint8_t {
  // Instants.
  kGroupActivated = 0,  // a: group tag
  kGroupDeactivated,    // a: group tag
  kEpochBump,           // a: group tag, b: new epoch
  kMemberSuspected,     // a: member
  kMemberDead,          // a: member
  kMemberJoined,        // a: member
  kWalRollover,         // a: new segment index
  kFaultDrop,           // a: peer fd, b: frames dropped so far
  kFaultCorrupt,        // a: peer fd
  kCorruptReject,       // a: group tag
  kStallTick,           // a: tick age usec, b: tick seq
  kStallOp,             // a: op token, b: stall age usec
  kInvariantFail,       // a: caller-defined code
  // Spans: one end record carries start and duration.
  kWalFsync,      // a: duration usec, b: 1 on failure
  kTickOverrun,   // a: tick duration usec, b: budget usec
  kRecoveryScan,  // b: groups recovered
  // Ops. a: group tag. b: the target (begin), chunks (snapshot end),
  // the peer or owner given up on (snapshot abort), 1 when promoted
  // from a replica (recovery end).
  kSnapshotIn,
  kSnapshotOut,
  kRecoveryPull,
  // Traced only: recorded while tracing is on.
  kIngest,      // a: group tag, b: object kind
  kReplApply,   // a: group tag, b: ops applied
  kQueryMatch,  // a: group tag, b: matches fired
  kCommit,      // a: group tag, b: committed seq
  kLoopTick,    // a: tick duration usec, b: budget usec
  kReplAppend,  // op: un-acked append batches toward a group's peers
  kConnect,     // op: async TCP connect toward a peer
};

enum class Phase : std::uint8_t { kInstant, kBegin, kProgress, kEnd, kAbort };

/// Flight-view name of one edge ("snapshot_offer_recv"...).
[[nodiscard]] const char* edge_name(Kind kind, Phase phase);
/// Open-op view name of an op kind ("snapshot_in"...).
[[nodiscard]] const char* op_name(Kind kind);
/// Chrome-view name and category; span_name is nullptr for kinds the
/// Chrome view does not draw.
[[nodiscard]] const char* span_name(Kind kind);
[[nodiscard]] const char* span_category(Kind kind);

/// One record as the views read it. `t_us` is when the edge happened on
/// the recording host's clock (sim time or a node's wall timeline);
/// end records also carry the op's duration.
struct Record {
  std::int64_t t_us = 0;
  std::int64_t dur_us = 0;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  /// Cross-node correlation id: records of one logical operation carry
  /// the same nonzero id on every node it touched. 0 = untraced.
  std::uint64_t trace_id = 0;
  std::uint32_t node = 0;
  Kind kind = Kind::kGroupActivated;
  Phase phase = Phase::kInstant;

  [[nodiscard]] std::int64_t start_us() const { return t_us - dur_us; }
  /// Drawn in the Chrome view (instants as zero-length spans).
  [[nodiscard]] bool is_span() const {
    return span_name(kind) != nullptr &&
           (phase == Phase::kEnd || phase == Phase::kInstant);
  }
};

/// Handle of a begun op: where it started, and its open-op slot.
struct Op {
  std::uint64_t token = 0;  // 0 when the open-op table was full
  std::int64_t start_us = 0;
  std::uint64_t subject = 0;  // the records' `a` word
  std::uint64_t trace_id = 0;
  std::uint32_t node = 0;
  Kind kind = Kind::kConnect;
  bool open = false;  // begun and not yet ended or aborted
};

/// An open op as the open-op view reads it.
struct OpenOp {
  std::uint64_t token = 0;
  Kind kind = Kind::kConnect;
  std::uint32_t node = 0;
  std::uint64_t peer = 0;
  std::string group;
  std::int64_t start_us = 0;
  std::int64_t last_progress_us = 0;
  std::uint64_t progress = 0;  // kind-specific units (chunks, acks...)
  std::uint64_t target = 0;    // expected total, 0 when unknown
};

class Journal {
 public:
  static constexpr std::size_t kCapacity = 2048;
  static constexpr std::size_t kTracedCapacity = 32768;
  static constexpr std::size_t kOpSlots = 256;
  /// Group labels longer than this are truncated.
  static constexpr std::size_t kLabelBytes = 32;

  /// Both capacities round up to a power of two; the traced window is
  /// never smaller than the untraced one.
  explicit Journal(std::size_t capacity = kCapacity,
                   std::size_t traced_capacity = kTracedCapacity);
  ~Journal();
  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  /// The one recording gate: per-op kinds and progress records (and,
  /// from the first time it is turned on, the wide ring window). Off
  /// by default.
  void set_tracing(bool on) {
    if (on) wide_.store(true, std::memory_order_relaxed);
    tracing_.store(on, std::memory_order_relaxed);
  }
  [[nodiscard]] bool tracing() const {
    return tracing_.load(std::memory_order_relaxed);
  }
  /// Whether records of `kind` are kept now: false for per-operation
  /// kinds while tracing is off, so callers can skip building payloads.
  [[nodiscard]] bool recording(Kind kind) const {
    return kind < Kind::kIngest || tracing();
  }

  void instant(Kind kind, std::uint32_t node, std::int64_t t_us,
               std::uint64_t a = 0, std::uint64_t b = 0,
               std::uint64_t trace_id = 0) {
    if (!recording(kind)) return;
    write(kind, Phase::kInstant, node, t_us, 0, a, b, trace_id);
  }
  /// A finished span whose start the caller timed itself.
  void span(Kind kind, std::uint32_t node, std::int64_t start_us,
            std::int64_t end_us, std::uint64_t a = 0, std::uint64_t b = 0,
            std::uint64_t trace_id = 0) {
    if (!recording(kind)) return;
    write(kind, Phase::kEnd, node, end_us, end_us - start_us, a, b,
          trace_id);
  }

  /// Open an op: writes its begin record (b = target) and indexes it in
  /// the open-op table. A full table leaves the op unindexed (counted
  /// in op_overflow()); its records are still written.
  [[nodiscard]] Op begin(Kind kind, std::uint32_t node, std::int64_t now_us,
                         std::string_view group, std::uint64_t peer,
                         std::uint64_t subject = 0, std::uint64_t target = 0,
                         std::uint64_t trace_id = 0);
  /// Bump the op's progress. Stale or closed handles are ignored.
  void progress(const Op& op, std::int64_t now_us, std::uint64_t delta = 1);
  /// Close the op: one end record (the Chrome span and the flight
  /// event) and its open-op slot freed. No-op on a closed handle.
  void end(Op& op, std::int64_t now_us, std::uint64_t b = 0) {
    close(op, Phase::kEnd, now_us, b);
  }
  /// Close the op as failed: an abort record, drawn in no span.
  void abort(Op& op, std::int64_t now_us, std::uint64_t b = 0) {
    close(op, Phase::kAbort, now_us, b);
  }

  /// Records written since the last clear(), overwritten ones included.
  [[nodiscard]] std::uint64_t total() const;
  /// Records lost to ring wraparound.
  [[nodiscard]] std::uint64_t dropped() const;
  /// The current ring window.
  [[nodiscard]] std::size_t capacity() const;
  /// begin() calls the open-op table had no slot for.
  [[nodiscard]] std::uint64_t op_overflow() const {
    return op_overflow_.load(std::memory_order_relaxed);
  }

  /// Surviving records, oldest first; slots being rewritten are
  /// skipped, never misread.
  [[nodiscard]] std::vector<Record> records() const;
  /// The records the Chrome view draws.
  [[nodiscard]] std::vector<Record> spans() const;
  [[nodiscard]] std::vector<OpenOp> open_ops() const;
  /// Open ops whose last progress is older than `threshold_us`.
  [[nodiscard]] std::vector<OpenOp> stalled(std::int64_t now_us,
                                            std::int64_t threshold_us) const;

  [[nodiscard]] std::string flight_json() const;
  [[nodiscard]] std::string inflight_json(std::int64_t now_us) const;
  /// {"traceEvents": [...]}: one "X" event per span, one track per
  /// (node, kind), sorted by start.
  [[nodiscard]] std::string chrome_json() const;

  /// Forget the recorded history; open ops stay open.
  void clear();

 private:
  static constexpr std::uint64_t kWriting = ~std::uint64_t{0};

  /// One cache line: stamp (0 empty, kWriting claimed, seq+1 published)
  /// and the payload. The ring lives in lazily mapped memory, so the
  /// words are plain integers accessed through std::atomic_ref.
  struct alignas(64) Slot {
    std::uint64_t stamp;
    std::uint64_t t_us;
    std::uint64_t dur_us;
    std::uint64_t a;
    std::uint64_t b;
    std::uint64_t trace_id;
    std::uint64_t meta;  // node << 32 | phase << 8 | kind
  };

  struct OpSlot {
    std::atomic<std::uint64_t> token{0};  // 0 free, kWriting claimed
    std::atomic<std::uint64_t> meta{0};   // node << 8 | kind
    std::atomic<std::uint64_t> peer{0};
    std::atomic<std::int64_t> start_us{0};
    std::atomic<std::int64_t> last_progress_us{0};
    std::atomic<std::uint64_t> progress{0};
    std::atomic<std::uint64_t> target{0};
    // Group label, 8 chars per word, NUL-padded.
    std::atomic<std::uint64_t> label[kLabelBytes / 8]{};
  };

  [[nodiscard]] std::uint64_t mask() const {
    return wide_.load(std::memory_order_relaxed) ? traced_mask_ : mask_;
  }
  void write(Kind kind, Phase phase, std::uint32_t node, std::int64_t t_us,
             std::int64_t dur_us, std::uint64_t a, std::uint64_t b,
             std::uint64_t trace_id);
  void close(Op& op, Phase phase, std::int64_t now_us, std::uint64_t b);
  bool read_op(const OpSlot& s, OpenOp* out) const;

  Slot* ring_ = nullptr;
  std::size_t ring_bytes_ = 0;
  std::uint64_t mask_ = 0;
  std::uint64_t traced_mask_ = 0;
  std::atomic<bool> tracing_{false};
  std::atomic<bool> wide_{false};  // tracing was ever on
  std::atomic<std::uint64_t> next_{0};   // next sequence to write
  std::atomic<std::uint64_t> floor_{0};  // first sequence since clear()

  OpSlot ops_[kOpSlots];
  std::atomic<std::uint64_t> next_token_{1};
  std::atomic<std::uint64_t> op_overflow_{0};
};

}  // namespace clash::obs
