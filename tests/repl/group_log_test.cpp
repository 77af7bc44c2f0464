// GroupLog unit coverage: head ordering, append/suffix/compact/reset,
// and op application to group state.
#include <gtest/gtest.h>

#include "repl/log.hpp"

namespace clash::repl {
namespace {

TEST(LogHead, LexicographicOrder) {
  EXPECT_LT((LogHead{1, 5}), (LogHead{1, 6}));
  EXPECT_LT((LogHead{1, 99}), (LogHead{2, 0}));
  EXPECT_EQ((LogHead{3, 4}), (LogHead{3, 4}));
  EXPECT_LE((LogHead{3, 4}), (LogHead{3, 4}));
  EXPECT_FALSE((LogHead{2, 0}) < (LogHead{1, 99}));
  EXPECT_EQ((LogHead{2, 7}).to_string(), "(2,7)");
}

TEST(GroupLog, AppendAdvancesHeadMonotonically) {
  GroupLog log(3, 10);
  EXPECT_EQ(log.head(), (LogHead{3, 10}));
  EXPECT_EQ(log.append(LogOp::del_stream(ClientId{1})), (LogHead{3, 11}));
  EXPECT_EQ(log.append(LogOp::del_stream(ClientId{2})), (LogHead{3, 12}));
  EXPECT_EQ(log.size(), 2u);
  EXPECT_EQ(log.floor_seq(), 10u);
}

TEST(GroupLog, SuffixFromReturnsExactlyTheMissingOps) {
  GroupLog log(1, 0);
  for (std::uint64_t i = 1; i <= 5; ++i) {
    log.append(LogOp::del_stream(ClientId{i}));
  }
  std::vector<LogOp> out;
  ASSERT_TRUE(log.suffix_from(2, out));
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].source, ClientId{3});
  EXPECT_EQ(out[2].source, ClientId{5});

  out.clear();
  ASSERT_TRUE(log.suffix_from(5, out));  // fully caught up
  EXPECT_TRUE(out.empty());
  ASSERT_TRUE(log.suffix_from(99, out));  // ahead of us: nothing to give
  EXPECT_TRUE(out.empty());
}

TEST(GroupLog, CompactionMovesTheFloor) {
  GroupLog log(1, 0);
  for (std::uint64_t i = 1; i <= 4; ++i) {
    log.append(LogOp::del_stream(ClientId{i}));
  }
  log.compact();
  EXPECT_EQ(log.size(), 0u);
  EXPECT_EQ(log.floor_seq(), 4u);
  EXPECT_EQ(log.head(), (LogHead{1, 4}));

  std::vector<LogOp> out;
  EXPECT_FALSE(log.suffix_from(2, out));  // predates the floor: snapshot
  EXPECT_TRUE(log.suffix_from(4, out));
  log.append(LogOp::del_stream(ClientId{5}));
  out.clear();
  ASSERT_TRUE(log.suffix_from(4, out));
  EXPECT_EQ(out.size(), 1u);
}

TEST(GroupLog, ResetReanchorsAtSnapshotBoundary) {
  GroupLog log(1, 0);
  log.append(LogOp::del_stream(ClientId{1}));
  log.reset(4, 100);
  EXPECT_EQ(log.epoch(), 4u);
  EXPECT_EQ(log.head(), (LogHead{4, 100}));
  EXPECT_EQ(log.size(), 0u);
  EXPECT_EQ(log.append(LogOp::del_stream(ClientId{2})), (LogHead{4, 101}));
}

TEST(GroupLog, ApplyReplaysOpsOntoGroupState) {
  GroupState st;
  GroupLog::apply(LogOp::put_stream({ClientId{1}, Key(0x12, 8), 2.0}), st);
  GroupLog::apply(LogOp::put_stream({ClientId{2}, Key(0x13, 8), 3.0}), st);
  EXPECT_EQ(st.streams.size(), 2u);
  EXPECT_DOUBLE_EQ(st.stream_rate, 5.0);

  // Upsert replaces the previous rate.
  GroupLog::apply(LogOp::put_stream({ClientId{1}, Key(0x12, 8), 4.0}), st);
  EXPECT_EQ(st.streams.size(), 2u);
  EXPECT_DOUBLE_EQ(st.stream_rate, 7.0);

  GroupLog::apply(LogOp::del_stream(ClientId{2}), st);
  EXPECT_EQ(st.streams.size(), 1u);
  EXPECT_DOUBLE_EQ(st.stream_rate, 4.0);
  GroupLog::apply(LogOp::del_stream(ClientId{99}), st);  // unknown: no-op
  EXPECT_DOUBLE_EQ(st.stream_rate, 4.0);

  GroupLog::apply(LogOp::put_query(QueryInfo{QueryId{7}, Key(0x12, 8)}), st);
  EXPECT_EQ(st.queries.size(), 1u);
  GroupLog::apply(LogOp::del_query(QueryId{7}), st);
  EXPECT_TRUE(st.queries.empty());

  // App deltas do not touch the object state.
  GroupLog::apply(LogOp::app_delta_op({1, 2, 3}), st);
  EXPECT_EQ(st.streams.size(), 1u);
}

}  // namespace
}  // namespace clash::repl
