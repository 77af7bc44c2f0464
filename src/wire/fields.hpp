// One field list per wire and disk record. Each record type has a
// template `fields(io, m)` that names its fields once, in wire order;
// an Encoder (over a Writer) runs the list to append the bytes and a
// Decoder (over a Reader) runs the same list to read them back. The
// decoder's validation lives in the lists too, as `io.check(...)`
// predicates and range-checked enums that the encoder compiles away:
// an encode without its matching decode cannot be written.
//
// The adapters are plain templates (no virtual calls, no per-field
// allocation): encode_message runs them on every TCP frame.
#pragma once

#include <cmath>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "clash/messages.hpp"
#include "wire/buffer.hpp"

namespace clash::wire {

/// The record parameter of a field list: read-only when encoding,
/// written when decoding.
template <typename IO, typename T>
using Ref = std::conditional_t<IO::kDecoding, T&, const T&>;

/// An opaque length-prefixed byte string ([u32 len][bytes]).
using Blob = std::vector<std::uint8_t>;

/// Smallest encoding of one element of `T`: the count guard's
/// per-element bound, so an adversarial count claiming more elements
/// than bytes remain is rejected before any allocation. It may
/// undercut the real minimum (the guard is then only looser); it must
/// never exceed it, or a valid vector would be refused. Declared next
/// to each element type's field list.
template <typename T>
inline constexpr std::size_t kMinWireBytes = 0;

class Encoder {
 public:
  static constexpr bool kDecoding = false;

  explicit Encoder(Writer& w) : w_(w) {}

  template <typename T>
  void u8(const T& v) {
    w_.u8(std::uint8_t(v));
  }
  void u32(std::uint32_t v) { w_.u32(v); }
  void u64(std::uint64_t v) { w_.u64(v); }
  void f64(double v) { w_.f64(v); }
  void boolean(bool v) { w_.boolean(v); }
  /// An enum carried as one byte, valid in [first, last].
  template <typename E>
  void enum8(E v, E /*first*/, E /*last*/) {
    w_.u8(std::uint8_t(v));
  }
  void blob(const Blob& b) {
    w_.u32(std::uint32_t(b.size()));
    w_.bytes(b);
  }
  /// [u32 count][count x element].
  template <typename T>
  void vec(const std::vector<T>& v) {
    w_.u32(std::uint32_t(v.size()));
    for (const auto& item : v) fields(*this, item);
  }
  /// A decode-only validity predicate: never evaluated here.
  template <typename Pred>
  void check(Pred&& /*valid*/) {}
  [[nodiscard]] bool ok() const { return true; }

 private:
  Writer& w_;
};

class Decoder {
 public:
  static constexpr bool kDecoding = true;

  explicit Decoder(Reader& r) : r_(r) {}

  template <typename T>
  void u8(T& v) {
    v = T(r_.u8());
  }
  void u32(std::uint32_t& v) { v = r_.u32(); }
  void u64(std::uint64_t& v) { v = r_.u64(); }
  void f64(double& v) { v = r_.f64(); }
  void boolean(bool& v) { v = r_.boolean(); }
  template <typename E>
  void enum8(E& v, E first, E last) {
    const auto raw = r_.u8();
    if (raw < std::uint8_t(first) || raw > std::uint8_t(last)) {
      r_.fail();
      return;
    }
    v = E(raw);
  }
  void blob(Blob& b) {
    const auto bytes = r_.bytes(r_.u32());
    b.assign(bytes.begin(), bytes.end());
  }
  template <typename T>
  void vec(std::vector<T>& v) {
    static_assert(kMinWireBytes<T> > 0,
                  "declare kMinWireBytes<T> next to T's field list");
    const auto count = r_.u32();
    v.clear();
    if (std::size_t(count) * kMinWireBytes<T> > r_.remaining()) {
      r_.fail();
      return;
    }
    v.reserve(count);
    for (std::uint32_t i = 0; i < count && r_.ok(); ++i) {
      fields(*this, v.emplace_back());
    }
  }
  /// Fail the decode unless `valid()` holds (checked only while every
  /// read so far succeeded, so it never sees a half-read value).
  template <typename Pred>
  void check(Pred&& valid) {
    if (r_.ok() && !valid()) r_.fail();
  }
  [[nodiscard]] bool ok() const { return r_.ok(); }

 private:
  Reader& r_;
};

// --- Sub-records ---------------------------------------------------------

template <typename IO>
void fields(IO& io, Ref<IO, Blob> b) {
  io.blob(b);
}
template <>
inline constexpr std::size_t kMinWireBytes<Blob> = 4;  // the length

template <typename IO>
void fields(IO& io, Ref<IO, Key> k) {
  auto width = std::uint8_t(k.width());
  auto value = k.value();
  io.u8(width);
  io.u64(value);
  if constexpr (IO::kDecoding) {
    io.check([&] {
      return width != 0 && width <= Key::kMaxWidth &&
             (width == 64 || value < (std::uint64_t{1} << width));
    });
    k = io.ok() ? Key(value, width) : Key(0, 1);
  }
}

/// A group travels as its virtual key and depth, and must be canonical
/// (depth within the key width, suffix bits below the depth zero).
template <typename IO>
void fields(IO& io, Ref<IO, KeyGroup> g) {
  Key vkey = g.virtual_key();
  auto depth = std::uint8_t(g.depth());
  fields(io, vkey);
  io.u8(depth);
  if constexpr (IO::kDecoding) {
    io.check([&] {
      return depth <= vkey.width() && shape(vkey, depth) == vkey;
    });
    g = io.ok() ? KeyGroup::of(vkey, depth) : KeyGroup::root(vkey.width());
  }
}

template <typename IO>
void fields(IO& io, Ref<IO, repl::LogHead> h) {
  io.u64(h.epoch);
  io.u64(h.seq);
}

template <typename IO>
void fields(IO& io, Ref<IO, StreamInfo> s) {
  io.u64(s.source.value);
  fields(io, s.key);
  io.f64(s.rate);
}
template <>
inline constexpr std::size_t kMinWireBytes<StreamInfo> = 17;

template <typename IO>
void fields(IO& io, Ref<IO, QueryInfo> q) {
  io.u64(q.id.value);
  fields(io, q.key);
}
template <>
inline constexpr std::size_t kMinWireBytes<QueryInfo> = 17;

/// Only the fields `kind` names are on the wire.
template <typename IO>
void fields(IO& io, Ref<IO, repl::LogOp> op) {
  io.enum8(op.kind, repl::OpKind::kPutStream, repl::OpKind::kAppDelta);
  switch (op.kind) {
    case repl::OpKind::kPutStream:
      fields(io, op.stream);
      break;
    case repl::OpKind::kDelStream:
      io.u64(op.source.value);
      break;
    case repl::OpKind::kPutQuery:
      fields(io, op.query);
      break;
    case repl::OpKind::kDelQuery:
      io.u64(op.query_id.value);
      break;
    case repl::OpKind::kAppDelta:
      io.blob(op.app_delta);
      break;
  }
}
// The kind byte plus an empty app delta's length.
template <>
inline constexpr std::size_t kMinWireBytes<repl::LogOp> = 5;

template <typename IO>
void fields(IO& io, Ref<IO, MemberUpdate> u) {
  io.u64(u.subject.value);
  io.enum8(u.state, MemberState::kAlive, MemberState::kDead);
  io.u64(u.incarnation);
}
template <>
inline constexpr std::size_t kMinWireBytes<MemberUpdate> = 17;

template <typename IO>
void fields(IO& io, Ref<IO, GroupHead> gh) {
  fields(io, gh.group);
  fields(io, gh.head);
}
template <>
inline constexpr std::size_t kMinWireBytes<GroupHead> = 26;

template <typename IO>
void fields(IO& io, Ref<IO, GroupCost> c) {
  io.u64(c.puts);
  io.u64(c.matches);
  io.u64(c.bytes_served);
  io.u64(c.repl_bytes);
  io.u64(c.storage_bytes);
}

template <typename IO>
void fields(IO& io, Ref<IO, CensusGroupCost> gc) {
  fields(io, gc.group);
  fields(io, gc.cost);
}
template <>
inline constexpr std::size_t kMinWireBytes<CensusGroupCost> = 50;

/// Everything in a census record but its trailing checksum: the exact
/// bytes census_record_crc runs over.
template <typename IO>
void census_content(IO& io, Ref<IO, NodeCensusRecord> rec) {
  io.u64(rec.node.value);
  io.u64(rec.incarnation);
  io.u64(rec.seq);
  io.f64(rec.load);
  io.check([&] { return std::isfinite(rec.load) && rec.load >= 0; });
  io.u32(rec.active_groups);
  io.u32(rec.replica_records);
  io.u64(rec.queries);
  io.u64(rec.streams);
  fields(io, rec.totals);
  io.vec(rec.top_groups);
}

template <typename IO>
void fields(IO& io, Ref<IO, NodeCensusRecord> rec) {
  census_content(io, rec);
  io.u32(rec.checksum);  // trailing so the CRC bytes are a prefix
}
// The fixed fields, an empty top-K and the checksum.
template <>
inline constexpr std::size_t kMinWireBytes<NodeCensusRecord> = 104;

// --- Entry points --------------------------------------------------------

template <typename T>
void encode(Writer& w, const T& v) {
  Encoder io(w);
  fields(io, v);
}

/// Decode one `T` from `r` (latching r's error state on malformed
/// input; the caller checks r.ok() / r.exhausted()).
template <typename T>
T decode(Reader& r) {
  T v{};
  Decoder io(r);
  fields(io, v);
  return v;
}

}  // namespace clash::wire
