// The field-list adapters themselves: the count guards' per-element
// bounds never exceed a real encoding, and decode-only checks never
// run on the encode side.
#include "wire/fields.hpp"

#include <gtest/gtest.h>

namespace clash::wire {
namespace {

template <typename T>
std::size_t encoded_size(const T& v) {
  Writer w;
  encode(w, v);
  return w.size();
}

// A bound above the smallest encoding would refuse valid vectors (a
// ReplAppend guard once demanded 9 bytes per op while an app-delta op
// encodes in 5).
TEST(WireFields, CountGuardsNeverExceedTheSmallestElement) {
  EXPECT_LE(kMinWireBytes<Blob>, encoded_size(Blob{}));
  EXPECT_LE(kMinWireBytes<StreamInfo>, encoded_size(StreamInfo{}));
  EXPECT_LE(kMinWireBytes<QueryInfo>, encoded_size(QueryInfo{}));
  EXPECT_LE(kMinWireBytes<MemberUpdate>, encoded_size(MemberUpdate{}));
  EXPECT_LE(kMinWireBytes<GroupHead>, encoded_size(GroupHead{}));
  EXPECT_LE(kMinWireBytes<CensusGroupCost>,
            encoded_size(CensusGroupCost{}));
  EXPECT_LE(kMinWireBytes<NodeCensusRecord>,
            encoded_size(NodeCensusRecord{}));
  for (const auto kind :
       {repl::OpKind::kPutStream, repl::OpKind::kDelStream,
        repl::OpKind::kPutQuery, repl::OpKind::kDelQuery,
        repl::OpKind::kAppDelta}) {
    repl::LogOp op;
    op.kind = kind;
    EXPECT_LE(kMinWireBytes<repl::LogOp>, encoded_size(op))
        << "op kind " << int(kind);
  }
}

TEST(WireFields, ChecksRunOnlyWhenDecoding) {
  int evaluated = 0;
  Writer w;
  Encoder enc(w);
  enc.check([&] { return ++evaluated > 0; });
  EXPECT_EQ(evaluated, 0);

  w.u8(1);
  Reader r(w.data());
  Decoder dec(r);
  dec.check([&] { return ++evaluated > 0; });
  dec.check([] { return false; });
  EXPECT_EQ(evaluated, 1);
  EXPECT_FALSE(r.ok());
  // A failed decode never evaluates a later check against garbage.
  dec.check([&] { return ++evaluated > 0; });
  EXPECT_EQ(evaluated, 1);
}

TEST(WireFields, EnumOutsideItsRangeFailsTheDecode) {
  for (const std::uint8_t raw : {0, 3, 255}) {
    Writer w;
    w.u8(raw);
    Reader r(w.data());
    Decoder dec(r);
    enum class Two : std::uint8_t { kOne = 1, kTwo = 2 } v = Two::kTwo;
    dec.enum8(v, Two::kOne, Two::kTwo);
    EXPECT_FALSE(r.ok()) << int(raw);
    EXPECT_EQ(v, Two::kTwo) << "left unassigned";
  }
}

}  // namespace
}  // namespace clash::wire
