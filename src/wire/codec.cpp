#include "wire/codec.hpp"

#include <array>
#include <iterator>
#include <utility>

#include "common/crc32.hpp"
#include "wire/fields.hpp"

namespace clash::wire {

// --- Message field lists -------------------------------------------------
// The payload after the type byte. Gossip, ReplAppend and SnapshotChunk
// lead with their content checksum (see crc_of_encoded).

template <typename IO>
void fields(IO& io, Ref<IO, AcceptObject> m) {
  fields(io, m.key);
  io.u8(m.depth);
  io.enum8(m.kind, ObjectKind::kData, ObjectKind::kQuery);
  io.u64(m.query_id.value);
  io.f64(m.stream_rate);
  io.u64(m.source.value);
  io.boolean(m.probe_only);
  io.u64(m.trace_id);
  io.check([&] { return m.depth <= m.key.width(); });
}

template <typename IO>
void fields(IO& io, Ref<IO, AcceptObjectOk> m) {
  io.u8(m.depth);
}

template <typename IO>
void fields(IO& io, Ref<IO, IncorrectDepth> m) {
  io.u8(m.dmin);
}

template <typename IO>
void fields(IO& io, Ref<IO, AcceptKeyGroup> m) {
  fields(io, m.group);
  io.u64(m.parent.value);
  io.boolean(m.root);
  io.u64(m.epoch);
  io.vec(m.streams);
  io.vec(m.queries);
  io.blob(m.app_state);
}

template <typename IO>
void fields(IO& io, Ref<IO, AcceptKeyGroupAck> m) {
  fields(io, m.group);
}

template <typename IO>
void fields(IO& io, Ref<IO, LoadReport> m) {
  fields(io, m.group);
  io.f64(m.load);
  io.boolean(m.is_leaf);
}

template <typename IO>
void fields(IO& io, Ref<IO, ReclaimKeyGroup> m) {
  fields(io, m.group);
}

template <typename IO>
void fields(IO& io, Ref<IO, ReclaimAck> m) {
  fields(io, m.group);
  io.vec(m.streams);
  io.vec(m.queries);
  io.blob(m.app_state);
}

template <typename IO>
void fields(IO& io, Ref<IO, ReclaimRefused> m) {
  fields(io, m.group);
}

template <typename IO>
void fields(IO& io, Ref<IO, DropReplica> m) {
  fields(io, m.group);
}

template <typename IO>
void fields(IO& io, Ref<IO, Gossip> m) {
  io.u32(m.checksum);
  io.enum8(m.kind, GossipKind::kPing, GossipKind::kAck);
  io.u64(m.sequence);
  io.u64(m.target.value);
  io.vec(m.updates);
  io.vec(m.census);
}

template <typename IO>
void fields(IO& io, Ref<IO, ReplAppend> m) {
  io.u32(m.checksum);
  fields(io, m.group);
  io.u64(m.owner.value);
  io.u64(m.epoch);
  io.u64(m.base_seq);
  io.u64(m.trace_id);
  io.vec(m.entries);
}

template <typename IO>
void fields(IO& io, Ref<IO, ReplAck> m) {
  io.vec(m.heads);
  io.boolean(m.ok);
}

template <typename IO>
void fields(IO& io, Ref<IO, SnapshotOffer> m) {
  fields(io, m.group);
  io.u64(m.owner.value);
  fields(io, m.head);
  io.boolean(m.root);
  io.u64(m.parent.value);
  io.u32(m.total_chunks);
  io.u64(m.trace_id);
  io.check([&] { return m.total_chunks != 0; });
}

template <typename IO>
void fields(IO& io, Ref<IO, SnapshotChunk> m) {
  io.u32(m.checksum);
  fields(io, m.group);
  fields(io, m.head);
  io.u32(m.index);
  io.u32(m.total);
  io.u64(m.trace_id);
  io.vec(m.streams);
  io.vec(m.queries);
  io.blob(m.app_state);
  io.vec(m.app_deltas);
}

template <typename IO>
void fields(IO& io, Ref<IO, AntiEntropyProbe> m) {
  io.u64(m.owner.value);
  io.vec(m.heads);
}

template <typename IO>
void fields(IO& io, Ref<IO, AntiEntropyDiff> m) {
  io.vec(m.behind);
}

/// A frame after its length prefix: [version][kind][request id][sender],
/// then the payload.
template <typename IO>
void fields(IO& io, Ref<IO, Envelope> env) {
  auto version = kProtocolVersion;
  io.u8(version);
  io.check([&] { return version == kProtocolVersion; });
  io.enum8(env.kind, FrameKind::kOneway, FrameKind::kResponse);
  io.u64(env.request_id);
  io.u64(env.sender.value);
}

namespace {

// --- The type table ------------------------------------------------------

/// The wire type of each Message alternative, in variant order. Both
/// encode_message and decode_message dispatch through it.
constexpr MsgType kWireTypes[] = {
    MsgType::kAcceptObject,     MsgType::kAcceptObjectOk,
    MsgType::kIncorrectDepth,   MsgType::kAcceptKeyGroup,
    MsgType::kAcceptKeyGroupAck, MsgType::kLoadReport,
    MsgType::kReclaimKeyGroup,  MsgType::kReclaimAck,
    MsgType::kReclaimRefused,   MsgType::kDropReplica,
    MsgType::kGossip,           MsgType::kReplAppend,
    MsgType::kReplAck,          MsgType::kSnapshotOffer,
    MsgType::kSnapshotChunk,    MsgType::kAntiEntropyProbe,
    MsgType::kAntiEntropyDiff,
};
constexpr std::size_t kAlternatives = std::variant_size_v<Message>;
static_assert(std::size(kWireTypes) == kAlternatives,
              "every Message alternative needs exactly one MsgType");

constexpr std::size_t kUnknownType = kAlternatives;

/// Type byte -> variant index (kUnknownType for unused bytes).
constexpr auto kAlternativeOf = [] {
  std::array<std::size_t, 256> index{};
  index.fill(kUnknownType);
  for (std::size_t i = 0; i < kAlternatives; ++i) {
    index[std::size_t(kWireTypes[i])] = i;
  }
  return index;
}();
static_assert(
    [] {
      for (std::size_t i = 0; i < kAlternatives; ++i) {
        if (kAlternativeOf[std::size_t(kWireTypes[i])] != i) return false;
      }
      return true;
    }(),
    "MsgType values must be distinct");

template <typename T, std::size_t I = 0>
constexpr std::size_t alternative_index() {
  if constexpr (std::is_same_v<std::variant_alternative_t<I, Message>, T>) {
    return I;
  } else {
    return alternative_index<T, I + 1>();
  }
}

/// [type u8][fields...]
template <typename T>
void encode_payload(Writer& w, const T& m) {
  w.u8(std::uint8_t(kWireTypes[alternative_index<T>()]));
  encode(w, m);
}

template <std::size_t I>
void decode_alternative(Decoder& io, Message& out) {
  fields(io, out.emplace<I>());
}

using DecodeFn = void (*)(Decoder&, Message&);
constexpr auto kDecoders = []<std::size_t... I>(std::index_sequence<I...>) {
  return std::array<DecodeFn, kAlternatives>{&decode_alternative<I>...};
}(std::make_index_sequence<kAlternatives>{});

}  // namespace

// --- Field helpers -------------------------------------------------------

void encode_key(Writer& w, const Key& k) { encode(w, k); }
Key decode_key(Reader& r) { return decode<Key>(r); }
void encode_group(Writer& w, const KeyGroup& g) { encode(w, g); }
KeyGroup decode_group(Reader& r) { return decode<KeyGroup>(r); }
void encode_log_op(Writer& w, const repl::LogOp& op) { encode(w, op); }
repl::LogOp decode_log_op(Reader& r) { return decode<repl::LogOp>(r); }
void encode_census_record(Writer& w, const NodeCensusRecord& rec) {
  encode(w, rec);
}
NodeCensusRecord decode_census_record(Reader& r) {
  return decode<NodeCensusRecord>(r);
}

std::uint32_t census_record_crc(const NodeCensusRecord& rec) {
  Writer w;
  Encoder io(w);
  census_content(io, rec);
  Crc32 crc;
  crc.update(std::span<const std::uint8_t>(w.data().data(), w.size()));
  return crc.value();
}

std::size_t encoded_census_size(
    const std::vector<NodeCensusRecord>& census) {
  Writer w;
  Encoder(w).vec(census);
  return w.size();
}

// --- Messages ------------------------------------------------------------

void encode_message(Writer& w, const Message& msg) {
  std::visit([&](const auto& m) { encode_payload(w, m); }, msg);
}

std::size_t encoded_payload_size(const Message& msg) {
  Writer w;
  encode_message(w, msg);
  return w.size();
}

namespace {

// Checksummed payloads lay out as [type u8][checksum u32][content...];
// the CRC covers the type byte and the content, skipping its own slot,
// so it is independent of whatever checksum value the struct holds.
constexpr std::size_t kChecksumSlot = 1;
constexpr std::size_t kContentOffset = kChecksumSlot + 4;

template <typename T>
std::uint32_t crc_of_encoded(const T& m) {
  Writer w;
  encode_payload(w, m);
  const auto& bytes = w.data();
  Crc32 crc;
  crc.update(std::span<const std::uint8_t>(bytes.data(), kChecksumSlot));
  crc.update(std::span<const std::uint8_t>(bytes.data() + kContentOffset,
                                           bytes.size() - kContentOffset));
  return crc.value();
}

}  // namespace

std::uint32_t content_crc(const Gossip& m) { return crc_of_encoded(m); }
std::uint32_t content_crc(const ReplAppend& m) { return crc_of_encoded(m); }
std::uint32_t content_crc(const SnapshotChunk& m) { return crc_of_encoded(m); }

bool corruptible(const Message& msg) {
  return std::holds_alternative<Gossip>(msg) ||
         std::holds_alternative<ReplAppend>(msg) ||
         std::holds_alternative<SnapshotChunk>(msg);
}

std::optional<Message> corrupt_message(const Message& msg, Rng& rng) {
  if (!corruptible(msg)) return msg;  // fault scoped to fenced payloads
  Writer w;
  encode_message(w, msg);
  auto bytes = w.take();
  if (bytes.empty()) return std::nullopt;
  // Flip 1-3 bytes anywhere past the type byte (checksum slot
  // included: a damaged fence is a fence mismatch too).
  const unsigned flips = 1 + unsigned(rng.below(3));
  for (unsigned i = 0; i < flips; ++i) {
    const auto pos =
        kChecksumSlot + std::size_t(rng.below(bytes.size() - kChecksumSlot));
    bytes[pos] ^= std::uint8_t(1 + rng.below(255));
  }
  auto decoded = decode_message(bytes);
  if (!decoded.ok()) return std::nullopt;  // codec fence caught it
  return std::move(decoded.value());
}

Expected<Message> decode_message(std::span<const std::uint8_t> payload) {
  Reader r(payload);
  const auto type = r.u8();
  if (!r.ok()) return Error::protocol("empty message payload");
  const auto alternative = kAlternativeOf[type];
  if (alternative == kUnknownType) {
    return Error::protocol("unknown message type " + std::to_string(type));
  }
  Message out;
  Decoder io(r);
  kDecoders[alternative](io, out);
  if (!r.exhausted()) {
    return Error::protocol("malformed, truncated or oversized payload of "
                           "message type " +
                           std::to_string(type));
  }
  return out;
}

void encode_reply(Writer& w, const AcceptObjectReply& reply) {
  std::visit([&](const auto& m) { encode_message(w, Message(m)); }, reply);
}

Expected<AcceptObjectReply> decode_reply(
    std::span<const std::uint8_t> payload) {
  auto msg = decode_message(payload);
  if (!msg.ok()) return msg.error();
  if (const auto* ok = std::get_if<AcceptObjectOk>(&msg.value())) {
    return AcceptObjectReply(*ok);
  }
  if (const auto* bad = std::get_if<IncorrectDepth>(&msg.value())) {
    return AcceptObjectReply(*bad);
  }
  return Error::protocol("reply frame does not carry a reply message");
}

Writer begin_frame(const Envelope& env) {
  Writer w;
  w.reserve(128);
  w.u32(0);  // length slot, patched by finish_frame
  encode(w, env);
  return w;
}

std::vector<std::uint8_t> finish_frame(Writer&& w) {
  w.patch_u32(0, std::uint32_t(w.size() - 4));
  return w.take();
}

std::vector<std::uint8_t> encode_frame(
    const Envelope& env, std::span<const std::uint8_t> payload) {
  Writer w;
  encode(w, env);
  w.bytes(payload);
  return w.take();
}

Expected<DecodedFrame> decode_frame(std::span<const std::uint8_t> frame) {
  Reader r(frame);
  DecodedFrame out;
  out.envelope = decode<Envelope>(r);
  if (!r.ok()) {
    if (!frame.empty() && frame[0] != kProtocolVersion) {
      return Error::protocol("unsupported protocol version " +
                             std::to_string(frame[0]));
    }
    return Error::protocol("malformed frame header");
  }
  out.payload.assign(frame.end() - std::ptrdiff_t(r.remaining()),
                     frame.end());
  return out;
}

}  // namespace clash::wire
