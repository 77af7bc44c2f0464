// obs::Journal: the seqlock record ring and its three views, the
// CAS-claimed open-op index, and the "one record per lifecycle edge"
// contract at real call sites. The TraceRecorder, FlightRecorder and
// InflightTable suites pin what the Chrome view, the flight view and
// the open-op view promised when each was a recorder of its own; the
// Journal suite pins what only the one journal does.
#include "obs/journal.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "clash/server.hpp"
#include "obs/hub.hpp"
#include "storage/backend.hpp"
#include "storage/store.hpp"
#include "tests/clash/test_util.hpp"

namespace clash::obs {
namespace {

std::size_t count(const std::string& hay, const std::string& needle) {
  std::size_t n = 0;
  for (auto pos = hay.find(needle); pos != std::string::npos;
       pos = hay.find(needle, pos + 1)) {
    ++n;
  }
  return n;
}

// --- Chrome view ----------------------------------------------------------

TEST(TraceRecorder, DisabledByDefaultRecordsNothing) {
  Journal j;
  EXPECT_FALSE(j.tracing());
  j.span(Kind::kCommit, 1, 100, 110);
  EXPECT_TRUE(j.spans().empty());
  EXPECT_TRUE(j.records().empty());
  EXPECT_EQ(j.dropped(), 0u);
}

TEST(TraceRecorder, RecordsSpansWhenEnabled) {
  Journal j;
  j.set_tracing(true);
  j.span(Kind::kCommit, 7, 1000, 1250, 0, 42);
  const auto spans = j.spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].kind, Kind::kCommit);
  EXPECT_EQ(spans[0].node, 7u);
  EXPECT_EQ(spans[0].start_us(), 1000);
  EXPECT_EQ(spans[0].dur_us, 250);
  EXPECT_EQ(spans[0].b, 42u);
}

TEST(TraceRecorder, NegativeDurationsClampToZero) {
  Journal j;
  j.set_tracing(true);
  j.span(Kind::kCommit, 0, 5, 2);
  ASSERT_EQ(j.spans().size(), 1u);
  EXPECT_EQ(j.spans()[0].dur_us, 0);
}

TEST(TraceRecorder, RingOverwritesOldestAndCountsDrops) {
  Journal j(4, 4);
  j.set_tracing(true);
  for (int i = 0; i < 6; ++i) j.span(Kind::kWalFsync, 0, i, i + 1);
  const auto spans = j.spans();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(j.dropped(), 2u);
  // Spans 0 and 1 were overwritten; 2..5 survive.
  std::vector<std::int64_t> starts;
  for (const auto& s : spans) starts.push_back(s.start_us());
  EXPECT_EQ(*std::min_element(starts.begin(), starts.end()), 2);
  EXPECT_EQ(*std::max_element(starts.begin(), starts.end()), 5);
}

TEST(TraceRecorder, ClearEmptiesTheRing) {
  Journal j(2, 2);
  j.set_tracing(true);
  for (int i = 0; i < 5; ++i) j.span(Kind::kLoopTick, 0, i, i + 1);
  j.clear();
  EXPECT_TRUE(j.spans().empty());
  EXPECT_EQ(j.dropped(), 0u);
  EXPECT_EQ(j.total(), 0u);
  j.span(Kind::kLoopTick, 0, 9, 10);
  EXPECT_EQ(j.spans().size(), 1u);
}

TEST(TraceRecorder, ChromeJsonHasCompleteEvents) {
  Journal j;
  j.set_tracing(true);
  j.span(Kind::kCommit, 3, 100, 150, 0, 7);
  // An op's end record alone draws its span.
  Op op = j.begin(Kind::kSnapshotIn, 4, 200, "01*", 3);
  j.end(op, 225);
  const std::string json = j.chrome_json();

  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  // One complete ("X") event per span, named per kind.
  EXPECT_EQ(count(json, "\"ph\":\"X\""), 2u);
  EXPECT_NE(json.find("\"name\":\"repl_commit\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"snapshot_transfer\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":100"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":50"), std::string::npos);
  EXPECT_NE(json.find("\"pid\":3"), std::string::npos);
  EXPECT_NE(json.find("\"ts\":200,\"dur\":25,\"pid\":4"), std::string::npos);
}

TEST(TraceRecorder, WrapManyTimesKeepsExactlyTheNewestSpans) {
  constexpr std::size_t kCap = 8;
  constexpr int kTotal = 8 * 10 + 3;  // wrap ten times, land mid-ring
  Journal j(kCap, kCap);
  j.set_tracing(true);
  for (int i = 0; i < kTotal; ++i) {
    j.instant(Kind::kIngest, 1, i, 0, std::uint64_t(i));
  }
  const auto spans = j.spans();
  ASSERT_EQ(spans.size(), kCap);
  EXPECT_EQ(j.dropped(), std::uint64_t(kTotal) - kCap);
  // Exactly the newest kCap starts survive, each exactly once.
  std::vector<std::int64_t> starts;
  for (const auto& s : spans) starts.push_back(s.start_us());
  std::sort(starts.begin(), starts.end());
  for (std::size_t i = 0; i < kCap; ++i) {
    EXPECT_EQ(starts[i], std::int64_t(kTotal - kCap + i));
  }
}

TEST(TraceRecorder, ChromeJsonAfterWrapExportsOnlySurvivors) {
  Journal j(4, 4);
  j.set_tracing(true);
  for (int i = 0; i < 7; ++i) j.span(Kind::kCommit, 2, 1000 + i, 1005 + i);
  const std::string json = j.chrome_json();
  // Overwritten spans (ts 1000..1002) must not leak into the export;
  // the four survivors (1003..1006) must all be present.
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(json.find("\"ts\":" + std::to_string(1000 + i)),
              std::string::npos);
  }
  for (int i = 3; i < 7; ++i) {
    EXPECT_NE(json.find("\"ts\":" + std::to_string(1000 + i)),
              std::string::npos);
  }
  // Structurally: one "X" event per surviving span, balanced braces.
  EXPECT_EQ(count(json, "\"ph\":\"X\""), 4u);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

TEST(TraceRecorder, ConcurrentRecordDuringExportStaysConsistent) {
  constexpr std::size_t kCap = 64;
  Journal j(kCap, kCap);
  j.set_tracing(true);
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    std::int64_t t = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      j.span(Kind::kLoopTick, 9, t, t + 1);
      ++t;
    }
  });
  // Export repeatedly while the writer wraps the ring under us. Every
  // export must see a coherent ring: never more than capacity spans,
  // and every span intact (the kind/node we wrote, a 1us duration).
  for (int i = 0; i < 200; ++i) {
    const std::string json = j.chrome_json();
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    const auto spans = j.spans();
    EXPECT_LE(spans.size(), kCap);
    for (const auto& s : spans) {
      EXPECT_EQ(s.kind, Kind::kLoopTick);
      EXPECT_EQ(s.node, 9u);
      EXPECT_EQ(s.dur_us, 1);
    }
  }
  stop.store(true, std::memory_order_relaxed);
  writer.join();
  EXPECT_LE(j.spans().size(), kCap);
}

TEST(TraceRecorder, SpanNamesCoverEveryKind) {
  for (const Kind k :
       {Kind::kQueryMatch, Kind::kCommit, Kind::kRecoveryPull,
        Kind::kSnapshotIn, Kind::kSnapshotOut, Kind::kWalFsync,
        Kind::kLoopTick, Kind::kTickOverrun, Kind::kRecoveryScan,
        Kind::kIngest, Kind::kReplApply}) {
    ASSERT_NE(span_name(k), nullptr);
    EXPECT_NE(std::string(span_name(k)), "");
  }
  for (int k = 0; k <= int(Kind::kConnect); ++k) {
    ASSERT_NE(span_category(Kind(k)), nullptr);
    EXPECT_NE(std::string(span_category(Kind(k))), "");
  }
}

// --- Flight view ----------------------------------------------------------

TEST(FlightRecorder, RoundTripsEveryField) {
  Journal j(16);
  j.instant(Kind::kEpochBump, /*node=*/7, /*t_us=*/1234, /*a=*/0xdeadbeef,
            /*b=*/42, /*trace_id=*/99);
  const auto recs = j.records();
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].kind, Kind::kEpochBump);
  EXPECT_EQ(recs[0].phase, Phase::kInstant);
  EXPECT_EQ(recs[0].node, 7u);
  EXPECT_EQ(recs[0].t_us, 1234);
  EXPECT_EQ(recs[0].dur_us, 0);
  EXPECT_EQ(recs[0].a, 0xdeadbeefu);
  EXPECT_EQ(recs[0].b, 42u);
  EXPECT_EQ(recs[0].trace_id, 99u);
  EXPECT_EQ(j.total(), 1u);
  EXPECT_EQ(j.dropped(), 0u);
}

TEST(FlightRecorder, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(Journal(5).capacity(), 8u);
  EXPECT_EQ(Journal(8).capacity(), 8u);
  EXPECT_EQ(Journal(9).capacity(), 16u);
  EXPECT_EQ(Journal(0).capacity(), 1u);
  Journal j(5, 9);
  j.set_tracing(true);
  EXPECT_EQ(j.capacity(), 16u);
}

TEST(FlightRecorder, EnabledByDefaultAndGateable) {
  // Lifecycle records need no switch — the journal exists for the
  // crashes nobody planned. Per-op kinds wait for the one gate.
  Journal j(8);
  j.span(Kind::kWalFsync, 0, 1, 2);
  j.instant(Kind::kIngest, 0, 3);
  EXPECT_EQ(j.total(), 1u);
  j.set_tracing(true);
  j.instant(Kind::kIngest, 0, 4);
  EXPECT_EQ(j.total(), 2u);
  j.set_tracing(false);
  j.instant(Kind::kIngest, 0, 5);
  EXPECT_EQ(j.total(), 2u);
}

TEST(FlightRecorder, WrapKeepsTheNewestWindowOldestFirst) {
  Journal j(8);
  for (int i = 0; i < 21; ++i) {
    j.instant(Kind::kGroupActivated, 1, i, std::uint64_t(i));
  }
  EXPECT_EQ(j.total(), 21u);
  EXPECT_EQ(j.dropped(), 21u - 8u);
  const auto recs = j.records();
  ASSERT_EQ(recs.size(), 8u);
  for (std::size_t i = 0; i < recs.size(); ++i) {
    EXPECT_EQ(recs[i].t_us, std::int64_t(13 + i));  // 13..20, in order
  }
}

TEST(FlightRecorder, JsonIsSelfDescribing) {
  Journal j(8);
  Op op = j.begin(Kind::kSnapshotIn, 3, 50, "01", 5, /*subject=*/11);
  j.abort(op, 99, 22);
  const std::string json = j.flight_json();
  EXPECT_NE(json.find("\"schema\":\"clash-flightrec-v1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"snapshot_offer_recv\""), std::string::npos);
  EXPECT_NE(json.find("{\"t_us\":99,\"node\":3,\"kind\":\"snapshot_aborted\","
                      "\"a\":11,\"b\":22}"),
            std::string::npos);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

TEST(FlightRecorder, KindNamesCoverEveryEnumerator) {
  for (int k = 0; k <= int(Kind::kConnect); ++k) {
    const Kind kind = Kind(k);
    EXPECT_STRNE(edge_name(kind, Phase::kInstant), "unknown")
        << "Kind " << k << " has no name";
    if (std::string(op_name(kind)) == "unknown") continue;
    for (const Phase p : {Phase::kBegin, Phase::kProgress, Phase::kEnd,
                          Phase::kAbort}) {
      EXPECT_STRNE(edge_name(kind, p), "unknown")
          << "op Kind " << k << " lacks an edge name";
    }
  }
}

TEST(FlightRecorder, ConcurrentWritersNeverTearAReader) {
  // 4 writers hammer a tiny ring (constant wraparound) while a reader
  // snapshots. The seqlock contract: every record a reader returns is
  // one a writer actually wrote — each writer ties every payload word
  // to `a` (b == a * 3 + node, dur == node, trace == a * 5), which a
  // torn read would break.
  Journal j(16);
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (std::uint32_t node = 1; node <= 4; ++node) {
    writers.emplace_back([&j, &stop, node] {
      std::uint64_t a = node;
      while (!stop.load(std::memory_order_relaxed)) {
        j.span(Kind::kWalFsync, node, std::int64_t(a),
               std::int64_t(a + node), a, a * 3 + node, a * 5);
        ++a;
      }
    });
  }
  // Don't start reading until the writers are demonstrably wrapping
  // the ring, so the snapshot passes overlap live rewrites rather than
  // racing thread startup.
  while (j.total() < 64) std::this_thread::yield();
  for (int i = 0; i < 500; ++i) {
    for (const auto& r : j.records()) {
      ASSERT_GE(r.node, 1u);
      ASSERT_LE(r.node, 4u);
      ASSERT_EQ(r.b, r.a * 3 + r.node) << "torn journal slot";
      ASSERT_EQ(r.dur_us, std::int64_t(r.node)) << "torn journal slot";
      ASSERT_EQ(r.trace_id, r.a * 5) << "torn journal slot";
    }
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : writers) t.join();
  EXPECT_GT(j.total(), 16u);
  EXPECT_LE(j.records().size(), j.capacity());
}

// --- Open-op view ---------------------------------------------------------

TEST(InflightTable, BeginSnapshotRoundTrip) {
  Journal j;
  const Op op = j.begin(Kind::kSnapshotIn, /*node=*/5, /*now_us=*/1000,
                        "0123", /*peer=*/9, /*subject=*/0, /*target=*/4);
  ASSERT_NE(op.token, 0u);
  const auto ops = j.open_ops();
  ASSERT_EQ(ops.size(), 1u);
  EXPECT_EQ(ops[0].token, op.token);
  EXPECT_EQ(ops[0].kind, Kind::kSnapshotIn);
  EXPECT_EQ(ops[0].node, 5u);
  EXPECT_EQ(ops[0].group, "0123");
  EXPECT_EQ(ops[0].peer, 9u);
  EXPECT_EQ(ops[0].start_us, 1000);
  EXPECT_EQ(ops[0].last_progress_us, 1000);
  EXPECT_EQ(ops[0].progress, 0u);
  EXPECT_EQ(ops[0].target, 4u);
}

TEST(InflightTable, ProgressBumpsCountAndTimestamp) {
  Journal j;
  const Op op = j.begin(Kind::kReplAppend, 1, 100, "g", 2);
  j.progress(op, 250);
  j.progress(op, 400, /*delta=*/3);
  const auto ops = j.open_ops();
  ASSERT_EQ(ops.size(), 1u);
  EXPECT_EQ(ops[0].progress, 4u);
  EXPECT_EQ(ops[0].last_progress_us, 400);
  EXPECT_EQ(ops[0].start_us, 100);  // start never moves
}

TEST(InflightTable, EndFreesTheSlotAndStaleTokensAreIgnored) {
  Journal j;
  Op op = j.begin(Kind::kConnect, 1, 10, "", 7);
  const Op stale = op;  // a copy taken before the op ended
  j.end(op, 15);
  EXPECT_FALSE(op.open);
  EXPECT_TRUE(j.open_ops().empty());
  // The slot is reused by the next begin(); the dead token must not
  // touch the new occupant (this is the re-entrant-send safety net).
  const Op op2 = j.begin(Kind::kSnapshotOut, 2, 20, "x", 8);
  EXPECT_EQ(op2.token % Journal::kOpSlots, stale.token % Journal::kOpSlots);
  j.progress(stale, 999);  // stale
  Op stale_copy = stale;
  j.end(stale_copy, 999);  // stale
  j.progress(Op{}, 999);   // never begun
  const auto ops = j.open_ops();
  ASSERT_EQ(ops.size(), 1u);
  EXPECT_EQ(ops[0].token, op2.token);
  EXPECT_EQ(ops[0].progress, 0u);
  EXPECT_EQ(ops[0].last_progress_us, 20);
  // Ending twice records once.
  Op op3 = j.begin(Kind::kSnapshotIn, 3, 30, "y", 9);
  j.end(op3, 40);
  const std::uint64_t before = j.total();
  j.end(op3, 50);
  j.abort(op3, 60);
  EXPECT_EQ(j.total(), before);
}

TEST(InflightTable, OverflowRefusesGracefully) {
  Journal j;
  std::vector<Op> ops;
  for (std::size_t i = 0; i < Journal::kOpSlots; ++i) {
    ops.push_back(j.begin(Kind::kReplAppend, 1, 0, "g", 0));
    ASSERT_NE(ops.back().token, 0u);
  }
  EXPECT_EQ(j.open_ops().size(), Journal::kOpSlots);
  EXPECT_EQ(j.begin(Kind::kReplAppend, 1, 0, "g", 0).token, 0u);
  EXPECT_EQ(j.op_overflow(), 1u);
  // Freeing one slot makes begin() succeed again.
  j.end(ops[17], 1);
  EXPECT_NE(j.begin(Kind::kConnect, 1, 0, "g", 0).token, 0u);
}

TEST(InflightTable, StalledFiltersByLastProgress) {
  Journal j;
  const Op fresh = j.begin(Kind::kSnapshotOut, 1, 1000, "a", 2);
  const Op stale = j.begin(Kind::kSnapshotIn, 1, 1000, "b", 3);
  j.progress(fresh, 9000);
  const auto stalled = j.stalled(/*now_us=*/10000, /*threshold_us=*/5000);
  ASSERT_EQ(stalled.size(), 1u);
  EXPECT_EQ(stalled[0].token, stale.token);
  EXPECT_EQ(stalled[0].group, "b");
  // Progress on the stale op rescues it.
  j.progress(stale, 9999);
  EXPECT_TRUE(j.stalled(10000, 5000).empty());
}

TEST(InflightTable, LongGroupLabelsTruncateSafely) {
  Journal j;
  const std::string longlabel(100, '1');
  const Op op = j.begin(Kind::kRecoveryPull, 1, 0, longlabel, 0);
  ASSERT_NE(op.token, 0u);
  const auto ops = j.open_ops();
  ASSERT_EQ(ops.size(), 1u);
  EXPECT_EQ(ops[0].group, longlabel.substr(0, Journal::kLabelBytes - 1));
}

TEST(InflightTable, JsonNamesTheOperation) {
  Journal j;
  const Op op = j.begin(Kind::kSnapshotIn, 4, 500, "0132", 11, 0, 8);
  j.progress(op, 750, 3);
  const std::string json = j.inflight_json(/*now_us=*/1000);
  EXPECT_NE(json.find("\"schema\":\"clash-inflight-v1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"snapshot_in\""), std::string::npos);
  EXPECT_NE(json.find("\"group\":\"0132\""), std::string::npos);
  EXPECT_NE(json.find("\"peer\":11"), std::string::npos);
  EXPECT_NE(json.find("\"last_progress_us\":750"), std::string::npos);
  EXPECT_NE(json.find("\"since_progress_us\":250"), std::string::npos);
  EXPECT_NE(json.find("\"progress\":3"), std::string::npos);
  EXPECT_NE(json.find("\"target\":8"), std::string::npos);
}

TEST(InflightTable, ConcurrentBeginEndSnapshotStaysCoherent) {
  Journal j;
  std::atomic<bool> stop{false};
  std::vector<std::thread> workers;
  for (std::uint32_t n = 1; n <= 4; ++n) {
    workers.emplace_back([&j, &stop, n] {
      std::int64_t t = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        Op op = j.begin(Kind::kReplAppend, n, t, "grp", n * 100);
        j.progress(op, t + 1);
        j.end(op, t + 2);
        ++t;
      }
    });
  }
  for (int i = 0; i < 500; ++i) {
    for (const auto& op : j.open_ops()) {
      // Any op the reader surfaces must be internally consistent:
      // the fields a concurrent begin() wrote, never a mix of two
      // occupants of the slot.
      ASSERT_GE(op.node, 1u);
      ASSERT_LE(op.node, 4u);
      ASSERT_EQ(op.peer, op.node * 100) << "torn open-op slot";
      ASSERT_EQ(op.group, "grp");
    }
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : workers) t.join();
  EXPECT_TRUE(j.open_ops().empty());
}

// --- The one journal ------------------------------------------------------

TEST(Journal, WritersCollidingOnOneSlotDropRatherThanTear) {
  // A one-slot ring: every concurrent pair of writers collides on the
  // same slot, so the CAS claim is what keeps payloads whole. Losers
  // drop their record; whatever survives is one writer's whole record.
  Journal j(1, 1);
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (std::uint32_t node = 1; node <= 4; ++node) {
    writers.emplace_back([&j, &stop, node] {
      std::uint64_t a = node;
      while (!stop.load(std::memory_order_relaxed)) {
        j.instant(Kind::kEpochBump, node, std::int64_t(a), a, a * 3 + node,
                  a * 5);
        ++a;
      }
    });
  }
  while (j.total() < 1000) std::this_thread::yield();
  for (int i = 0; i < 2000; ++i) {
    for (const auto& r : j.records()) {
      ASSERT_EQ(r.b, r.a * 3 + r.node) << "torn journal slot";
      ASSERT_EQ(r.trace_id, r.a * 5) << "torn journal slot";
      ASSERT_EQ(r.t_us, std::int64_t(r.a)) << "torn journal slot";
    }
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : writers) t.join();
  EXPECT_LE(j.records().size(), 1u);
}

TEST(Journal, TracingWidensTheWindow) {
  Journal j(4, 16);
  for (int i = 0; i < 10; ++i) j.instant(Kind::kMemberDead, 1, i);
  EXPECT_EQ(j.capacity(), 4u);
  EXPECT_EQ(j.records().size(), 4u);
  j.set_tracing(true);
  EXPECT_EQ(j.capacity(), 16u);
  for (int i = 10; i < 26; ++i) j.instant(Kind::kIngest, 1, i);
  const auto recs = j.records();
  ASSERT_EQ(recs.size(), 16u);
  EXPECT_EQ(recs.front().t_us, 10);
  EXPECT_EQ(recs.back().t_us, 25);
  // The trace stays readable after tracing is turned off: the window
  // never narrows again.
  j.set_tracing(false);
  EXPECT_EQ(j.capacity(), 16u);
  j.instant(Kind::kMemberDead, 1, 26);
  const auto after = j.records();
  ASSERT_EQ(after.size(), 16u);
  EXPECT_EQ(after.front().t_us, 11);
  EXPECT_EQ(after.back().t_us, 26);
}

TEST(Journal, OpenOpOutlivesRingWrapAndEndCarriesTheSpan) {
  Journal j(4);
  Op op = j.begin(Kind::kRecoveryPull, 2, 100, "0*", 0, /*subject=*/5);
  for (int i = 0; i < 20; ++i) j.instant(Kind::kGroupActivated, 2, 200 + i);
  // The begin record is long overwritten; the index still has the op.
  ASSERT_EQ(j.open_ops().size(), 1u);
  EXPECT_EQ(j.open_ops()[0].start_us, 100);
  j.end(op, 700, 1);
  EXPECT_TRUE(j.open_ops().empty());
  const auto spans = j.spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].kind, Kind::kRecoveryPull);
  EXPECT_EQ(spans[0].start_us(), 100);
  EXPECT_EQ(spans[0].dur_us, 600);
  EXPECT_EQ(spans[0].a, 5u);
  EXPECT_EQ(spans[0].b, 1u);
  EXPECT_NE(j.chrome_json().find("\"name\":\"failover\""), std::string::npos);
  EXPECT_NE(j.flight_json().find("\"kind\":\"replica_promoted\""),
            std::string::npos);
}

TEST(Journal, OpBegunOnAFullIndexStillRecordsItsSpan) {
  Journal j;
  std::vector<Op> hold;
  for (std::size_t i = 0; i < Journal::kOpSlots; ++i) {
    hold.push_back(j.begin(Kind::kSnapshotOut, 1, 0, "g", 2));
  }
  Op late = j.begin(Kind::kSnapshotIn, 1, 40, "h", 3, 0, 0, /*trace=*/77);
  EXPECT_EQ(late.token, 0u);
  j.end(late, 90, 6);
  const auto spans = j.spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].start_us(), 40);
  EXPECT_EQ(spans[0].dur_us, 50);
  EXPECT_EQ(spans[0].trace_id, 77u);
}

TEST(Journal, WalFsyncIsOneRecordInBothViews) {
  storage::MemBackend backend;
  ClashConfig cfg;
  cfg.key_width = 8;
  cfg.durability_mode = ClashConfig::DurabilityMode::kWal;
  cfg.fsync_policy = ClashConfig::FsyncPolicy::kPerAppend;
  storage::NodeStore store(backend, storage::NodeStore::Config::from(cfg));
  Hub hub;
  store.set_obs(&hub, 3);
  const KeyGroup g = testing::group("01*", 8);
  const auto put = [](std::uint64_t id) {
    return repl::LogOp::put_query(QueryInfo{QueryId{id}, Key(0x40, 8)});
  };
  // The first append also opens the WAL's first segment (a rollover).
  store.append_op(g, repl::LogHead{1, 1}, put(1), SimTime{400});
  hub.journal.clear();

  store.append_op(g, repl::LogHead{1, 2}, put(2), SimTime{500});

  EXPECT_EQ(hub.journal.total(), 1u);
  std::size_t fsyncs = 0;
  for (const auto& r : hub.journal.records()) {
    fsyncs += r.kind == Kind::kWalFsync;
  }
  EXPECT_EQ(fsyncs, 1u);
  EXPECT_EQ(count(hub.journal.flight_json(), "\"kind\":\"wal_fsync\""), 1u);
  EXPECT_EQ(count(hub.journal.chrome_json(), "\"name\":\"wal_fsync\""), 1u);
}

TEST(Journal, CompletedSnapshotTransferIsOneSpanAndClosesItsOp) {
  Journal& j = Hub::global().journal;
  j.clear();
  testing::MockServerEnv env;  // obs() -> Hub::global()
  ClashConfig cfg;
  cfg.key_width = 8;
  cfg.initial_depth = 0;
  cfg.capacity = 1e9;
  cfg.replication_factor = 2;
  ClashServer server(ServerId{9}, cfg, env,
                     dht::KeyHasher(32, dht::KeyHasher::Algo::kMix64, 0));

  const KeyGroup group = testing::group("0110*", 8);
  const repl::LogHead head{1, 5};
  SnapshotOffer offer;
  offer.group = group;
  offer.owner = ServerId{3};
  offer.head = head;
  offer.root = true;
  offer.total_chunks = 2;
  offer.trace_id = 0xABC;
  env.t = SimTime{1'000};
  server.deliver(ServerId{3}, Message(offer));
  for (std::uint32_t i = 0; i < 2; ++i) {
    SnapshotChunk chunk;
    chunk.group = group;
    chunk.head = head;
    chunk.index = i;
    chunk.total = 2;
    chunk.streams.push_back(
        StreamInfo{ClientId{i + 1}, Key(0x60 + i, 8), 1.0});
    env.t = SimTime{2'000 + 1'000 * std::int64_t(i)};
    server.deliver(ServerId{3}, Message(chunk));
  }

  std::vector<Record> transfer_spans;
  for (const auto& s : j.spans()) {
    if (s.node == 9 && s.kind == Kind::kSnapshotIn) transfer_spans.push_back(s);
  }
  ASSERT_EQ(transfer_spans.size(), 1u);
  EXPECT_EQ(transfer_spans[0].start_us(), 1'000);
  EXPECT_EQ(transfer_spans[0].dur_us, 2'000);
  EXPECT_EQ(transfer_spans[0].b, 2u);
  EXPECT_EQ(transfer_spans[0].trace_id, 0xABCu);
  for (const auto& op : j.open_ops()) {
    EXPECT_NE(op.kind, Kind::kSnapshotIn) << "installed transfer still open";
  }
  EXPECT_EQ(count(j.flight_json(), "\"kind\":\"snapshot_installed\""), 1u);
}

TEST(Journal, DroppedReplicaAbortsItsPendingTransfer) {
  Journal& j = Hub::global().journal;
  testing::MockServerEnv env;  // obs() -> Hub::global()
  ClashConfig cfg;
  cfg.key_width = 8;
  cfg.initial_depth = 0;
  cfg.capacity = 1e9;
  cfg.replication_factor = 2;
  ClashServer server(ServerId{9}, cfg, env,
                     dht::KeyHasher(32, dht::KeyHasher::Algo::kMix64, 0));
  const KeyGroup group = testing::group("0110*", 8);
  SnapshotOffer offer;
  offer.group = group;
  offer.owner = ServerId{3};
  offer.head = repl::LogHead{1, 5};
  offer.root = true;
  offer.total_chunks = 3;
  server.deliver(ServerId{3}, Message(offer));
  ASSERT_EQ(j.open_ops().size(), 1u);

  DropReplica drop;
  drop.group = group;
  server.deliver(ServerId{3}, Message(drop));
  EXPECT_TRUE(j.open_ops().empty()) << "dropped record left its op open";
  EXPECT_EQ(count(j.flight_json(), "\"kind\":\"snapshot_aborted\""), 1u);
}

}  // namespace
}  // namespace clash::obs
