// Golden bytes: the exact encoding of one representative value of every
// wire message, the framed envelope, both WAL record kinds, a snapshot
// file and a census record. Round-trip tests alone would still pass if
// encode and decode changed the layout together; these pin the layout
// itself, so any byte that moves is a deliberate protocol or on-disk
// format change (bump kProtocolVersion / the snapshot version and
// re-pin). Each pinned image is also decoded and re-encoded, which pins
// the decode side to the same layout.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "storage/snapshot.hpp"
#include "storage/wal.hpp"
#include "wire/codec.hpp"

namespace clash::wire {
namespace {

std::string hex(std::span<const std::uint8_t> bytes) {
  std::string out;
  char buf[3];
  for (const auto b : bytes) {
    std::snprintf(buf, sizeof(buf), "%02x", b);
    out += buf;
  }
  return out;
}

std::vector<std::uint8_t> unhex(const std::string& s) {
  std::vector<std::uint8_t> out;
  for (std::size_t i = 0; i + 1 < s.size(); i += 2) {
    out.push_back(std::uint8_t(std::stoul(s.substr(i, 2), nullptr, 16)));
  }
  return out;
}

std::vector<std::uint8_t> encode(const Message& msg) {
  Writer w;
  encode_message(w, msg);
  return w.take();
}

const KeyGroup& group() {
  static const KeyGroup g = KeyGroup::parse("0110*", 24).value();
  return g;
}

NodeCensusRecord census_record() {
  NodeCensusRecord rec;
  rec.node = ServerId{4};
  rec.incarnation = 9;
  rec.seq = 3;
  rec.load = 77.5;
  rec.active_groups = 2;
  rec.queries = 5;
  rec.totals.bytes_served = 512;
  rec.top_groups.push_back({group(), GroupCost{1, 2, 3, 4, 5}});
  rec.checksum = census_record_crc(rec);
  return rec;
}

// The same values as the fuzz corpus (codec_fuzz_test.cpp), one per
// MsgType in enum order.
std::vector<Message> representative_messages() {
  const KeyGroup g = group();
  const repl::LogHead head{7, 123};
  std::vector<Message> all;

  AcceptObject obj;
  obj.key = Key(0xABCDEF, 24);
  obj.depth = 9;
  obj.kind = ObjectKind::kQuery;
  obj.query_id = QueryId{424242};
  obj.stream_rate = 2.5;
  obj.source = ClientId{99};
  obj.trace_id = 0xFEEDFACE12345678ULL;
  all.emplace_back(obj);

  all.emplace_back(AcceptObjectOk{5});
  all.emplace_back(IncorrectDepth{4});

  AcceptKeyGroup akg;
  akg.group = g;
  akg.parent = ServerId{7};
  akg.root = true;
  akg.epoch = 17;
  akg.streams.push_back({ClientId{1}, Key(0x600000, 24), 1.5});
  akg.queries.push_back({QueryId{10}, Key(0x620000, 24)});
  all.emplace_back(akg);

  all.emplace_back(AcceptKeyGroupAck{g});
  all.emplace_back(LoadReport{g, 123.5, true});
  all.emplace_back(ReclaimKeyGroup{g});

  ReclaimAck rack;
  rack.group = g;
  rack.streams.push_back({ClientId{3}, Key(0x680000, 24), 0.5});
  all.emplace_back(rack);

  all.emplace_back(ReclaimRefused{g});
  all.emplace_back(DropReplica{g});

  Gossip gossip;
  gossip.kind = GossipKind::kPing;
  gossip.sequence = 41;
  gossip.target = ServerId{6};
  gossip.updates.push_back({ServerId{2}, MemberState::kSuspect, 3});
  gossip.updates.push_back({ServerId{4}, MemberState::kDead, 9});
  gossip.census.push_back(census_record());
  gossip.checksum = content_crc(gossip);
  all.emplace_back(gossip);

  ReplAppend app;
  app.group = g;
  app.owner = ServerId{3};
  app.epoch = 5;
  app.base_seq = 41;
  app.trace_id = 0xABCDEF99ULL;
  app.entries.push_back(
      repl::LogOp::put_stream({ClientId{9}, Key(0x601234, 24), 2.5}));
  app.entries.push_back(
      repl::LogOp::put_query(QueryInfo{QueryId{44}, Key(0x60AAAA, 24)}));
  app.entries.push_back(repl::LogOp::app_delta_op({1, 2, 3, 4}));
  app.checksum = content_crc(app);
  all.emplace_back(app);

  all.emplace_back(ReplAck{{GroupHead{g, head},
                            GroupHead{KeyGroup::parse("10*", 24).value(),
                                      repl::LogHead{3, 9}}},
                           true});

  SnapshotOffer offer;
  offer.group = g;
  offer.owner = ServerId{2};
  offer.head = head;
  offer.root = true;
  offer.parent = ServerId{6};
  offer.total_chunks = 3;
  offer.trace_id = 0x1111222233334444ULL;
  all.emplace_back(offer);

  SnapshotChunk chunk;
  chunk.group = g;
  chunk.head = head;
  chunk.index = 1;
  chunk.total = 3;
  chunk.trace_id = 0x1111222233334444ULL;
  chunk.streams.push_back({ClientId{5}, Key(0x601234, 24), 4.5});
  chunk.queries.push_back({QueryId{77}, Key(0x609999, 24)});
  chunk.app_state = {9, 8, 7};
  chunk.app_deltas = {{1}, {2, 3}};
  chunk.checksum = content_crc(chunk);
  all.emplace_back(chunk);

  AntiEntropyProbe probe;
  probe.owner = ServerId{2};
  probe.heads.push_back({g, head});
  all.emplace_back(probe);

  AntiEntropyDiff diff;
  diff.behind.push_back({g, repl::LogHead{}});
  all.emplace_back(diff);

  return all;
}

// Pinned payloads, in representative_messages() order.
const std::vector<std::string>& golden_payloads() {
  static const std::vector<std::string> golden = {
      // AcceptObject
      "0118efcdab000000000009013279060000000000000000000000044063000000"
      "000000000078563412cefaedfe",
      // AcceptObjectOk
      "0205",
      // IncorrectDepth
      "0304",
      // AcceptKeyGroup
      "0418000060000000000004070000000000000001110000000000000001000000"
      "0100000000000000180000600000000000000000000000f83f010000000a0000"
      "000000000018000062000000000000000000",
      // AcceptKeyGroupAck
      "0518000060000000000004",
      // LoadReport
      "06180000600000000000040000000000e05e4001",
      // ReclaimKeyGroup
      "0718000060000000000004",
      // ReclaimAck
      "0818000060000000000004010000000300000000000000180000680000000000"
      "000000000000e03f0000000000000000",
      // ReclaimRefused
      "0918000060000000000004",
      // DropReplica
      "0b18000060000000000004",
      // Gossip
      "0c6046efcd002900000000000000060000000000000002000000020000000000"
      "0000010300000000000000040000000000000002090000000000000001000000"
      "0400000000000000090000000000000003000000000000000000000000605340"
      "0200000000000000050000000000000000000000000000000000000000000000"
      "0000000000000000000200000000000000000000000000000000000000000000"
      "0100000018000060000000000004010000000000000002000000000000000300"
      "000000000000040000000000000005000000000000003dbd1a9d",
      // ReplAppend
      "0d06d68f1e180000600000000000040300000000000000050000000000000029"
      "0000000000000099efcdab000000000300000000090000000000000018341260"
      "00000000000000000000000440022c0000000000000018aaaa60000000000004"
      "0400000001020304",
      // ReplAck
      "0e020000001800006000000000000407000000000000007b0000000000000018"
      "0000800000000000020300000000000000090000000000000001",
      // SnapshotOffer
      "0f18000060000000000004020000000000000007000000000000007b00000000"
      "000000010600000000000000030000004444333322221111",
      // SnapshotChunk
      "100129b9fb1800006000000000000407000000000000007b0000000000000001"
      "0000000300000044443333222211110100000005000000000000001834126000"
      "000000000000000000001240010000004d000000000000001899996000000000"
      "0003000000090807020000000100000001020000000203",
      // AntiEntropyProbe
      "110200000000000000010000001800006000000000000407000000000000007b"
      "00000000000000",
      // AntiEntropyDiff
      "12010000001800006000000000000400000000000000000000000000000000",
  };
  return golden;
}

TEST(GoldenBytes, EveryMessagePayloadIsPinned) {
  const auto all = representative_messages();
  const auto& golden = golden_payloads();
  ASSERT_EQ(all.size(), golden.size());
  for (std::size_t i = 0; i < all.size(); ++i) {
    SCOPED_TRACE("message #" + std::to_string(i) + " (variant index " +
                 std::to_string(all[i].index()) + ")");
    const auto bytes = encode(all[i]);
    EXPECT_EQ(hex(bytes), golden[i]);
    const auto decoded = decode_message(unhex(golden[i]));
    ASSERT_TRUE(decoded.ok()) << decoded.error().message;
    EXPECT_EQ(hex(encode(decoded.value())), golden[i]);
  }
}

TEST(GoldenBytes, FramedEnvelopeIsPinned) {
  const Envelope env{FrameKind::kRequest, 0x0102030405060708ULL,
                     ServerId{0x1122}};
  auto w = begin_frame(env);
  encode_message(w, Message(IncorrectDepth{4}));
  const auto frame = finish_frame(std::move(w));
  const std::string want =
      "140000000101080706050403020122110000000000000304";
  EXPECT_EQ(hex(frame), want);

  // The legacy copy path lays out the same bytes minus the length slot.
  const std::vector<std::uint8_t> payload = encode(IncorrectDepth{4});
  EXPECT_EQ(hex(encode_frame(env, payload)), want.substr(8));

  const auto decoded = decode_frame(std::span(frame).subspan(4));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().envelope.kind, FrameKind::kRequest);
  EXPECT_EQ(decoded.value().envelope.request_id, env.request_id);
  EXPECT_EQ(decoded.value().envelope.sender, env.sender);
  EXPECT_EQ(hex(decoded.value().payload), hex(payload));
}

TEST(GoldenBytes, CensusRecordAndItsCrcArePinned) {
  const auto rec = census_record();
  EXPECT_EQ(rec.checksum, 2635775293u);
  Writer w;
  encode_census_record(w, rec);
  const std::string want =
      "0400000000000000090000000000000003000000000000000000000000605340"
      "0200000000000000050000000000000000000000000000000000000000000000"
      "0000000000000000000200000000000000000000000000000000000000000000"
      "0100000018000060000000000004010000000000000002000000000000000300"
      "000000000000040000000000000005000000000000003dbd1a9d";
  EXPECT_EQ(hex(w.data()), want);

  const auto bytes = unhex(want);
  Reader r(bytes);
  const auto back = decode_census_record(r);
  ASSERT_TRUE(r.exhausted());
  EXPECT_EQ(back.checksum, rec.checksum);
  EXPECT_EQ(census_record_crc(back), rec.checksum);
  EXPECT_EQ(encoded_census_size({rec}), 4 + bytes.size());
}

TEST(GoldenBytes, WalRecordsArePinned) {
  using storage::RecordKind;
  using storage::WalRecord;
  const WalRecord op{RecordKind::kOp, group(), repl::LogHead{5, 42},
                     repl::LogOp::put_stream(
                         {ClientId{9}, Key(0x601234, 24), 2.5})};
  WalRecord drop;
  drop.kind = RecordKind::kDrop;
  drop.group = group();
  drop.head = repl::LogHead{6, ~std::uint64_t{0}};

  const std::string want_op =
      "350000000296f20d011800006000000000000405000000000000002a00000000"
      "0000000009000000000000001834126000000000000000000000000440";
  const std::string want_drop =
      "1b0000000349c95b02180000600000000000040600000000000000ffffffffff"
      "ffffff";
  EXPECT_EQ(hex(storage::encode_wal_record(op)), want_op);
  EXPECT_EQ(hex(storage::encode_wal_record(drop)), want_drop);

  auto image = unhex(want_op);
  const auto drop_bytes = unhex(want_drop);
  image.insert(image.end(), drop_bytes.begin(), drop_bytes.end());
  std::vector<WalRecord> back;
  const auto scan = storage::scan_wal_segment(
      image, [&](const WalRecord& r) { back.push_back(r); });
  EXPECT_EQ(scan.end, storage::ScanEnd::kClean);
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(hex(storage::encode_wal_record(back[0])), want_op);
  EXPECT_EQ(hex(storage::encode_wal_record(back[1])), want_drop);
}

TEST(GoldenBytes, SnapshotFileIsPinned) {
  repl::GroupImage img;
  img.group = group();
  img.head = repl::LogHead{7, 123};
  img.root = true;
  img.parent = ServerId{6};
  img.state.streams[ClientId{5}] = {ClientId{5}, Key(0x601234, 24), 4.5};
  img.state.streams[ClientId{8}] = {ClientId{8}, Key(0x605678, 24), 1.0};
  img.state.stream_rate = 5.5;
  img.state.queries[QueryId{77}] = {QueryId{77}, Key(0x609999, 24)};
  img.app_state = {9, 8, 7};
  img.app_deltas = {{1}, {2, 3}};

  const std::string want =
      "504e5343011800006000000000000407000000000000007b0000000000000001"
      "0600000000000000020000000005000000000000001834126000000000000000"
      "000000001240000800000000000000187856600000000000000000000000f03f"
      "01000000024d0000000000000018999960000000000003000000090807020000"
      "000100000001020000000203a69ebebf";
  EXPECT_EQ(hex(storage::encode_snapshot(img)), want);

  repl::GroupImage back;
  ASSERT_TRUE(storage::decode_snapshot(unhex(want), back));
  EXPECT_EQ(back.state.streams.size(), 2u);
  EXPECT_DOUBLE_EQ(back.state.stream_rate, 5.5);
  EXPECT_EQ(hex(storage::encode_snapshot(back)), want);
}

}  // namespace
}  // namespace clash::wire
