#include "storage/snapshot.hpp"

#include <cstdio>

#include "common/crc32.hpp"
#include "repl/log.hpp"
#include "wire/fields.hpp"

namespace clash::storage {

namespace {

constexpr std::uint32_t kMagic = 0x43534E50;  // "CSNP"
constexpr std::uint8_t kVersion = 1;

/// One object section: [u32 count][count x put LogOp]. Encoding turns
/// each entry of `state.*objects` into its put op; decoding replays
/// every op through GroupLog::apply, as recovery replays any log suffix.
template <typename IO, typename Map, typename PutOp>
void object_ops(IO& io, wire::Ref<IO, GroupState> state,
                Map GroupState::*objects, PutOp put) {
  const Map& map = state.*objects;
  auto count = std::uint32_t(map.size());
  io.u32(count);
  auto it = map.begin();
  for (std::uint32_t i = 0; i < count && io.ok(); ++i) {
    repl::LogOp op;
    if constexpr (!IO::kDecoding) op = put((it++)->second);
    fields(io, op);
    if constexpr (IO::kDecoding) repl::GroupLog::apply(op, state);
  }
}

}  // namespace
}  // namespace clash::storage

namespace clash::wire {

/// The file minus its trailing CRC32 (beside the other field lists, so
/// wire::encode / wire::decode find it).
template <typename IO>
void fields(IO& io, Ref<IO, repl::GroupImage> img) {
  using storage::kMagic;
  using storage::kVersion;
  auto magic = kMagic;
  auto version = kVersion;
  io.u32(magic);
  io.u8(version);
  io.check([&] { return magic == kMagic && version == kVersion; });
  fields(io, img.group);
  fields(io, img.head);
  io.boolean(img.root);
  io.u64(img.parent.value);
  storage::object_ops(io, img.state, &GroupState::streams,
                      repl::LogOp::put_stream);
  storage::object_ops(io, img.state, &GroupState::queries,
                      repl::LogOp::put_query);
  io.blob(img.app_state);
  io.vec(img.app_deltas);
}

}  // namespace clash::wire

namespace clash::storage {

std::vector<std::uint8_t> encode_snapshot(const repl::GroupImage& img) {
  wire::Writer w;
  wire::encode(w, img);
  w.u32(crc32(w.data()));
  return w.take();
}

bool decode_snapshot(std::span<const std::uint8_t> data,
                     repl::GroupImage& out) {
  if (data.size() < 4) return false;
  const auto body = data.first(data.size() - 4);
  if (crc32(body) != wire::load_u32_le(data.data() + body.size())) {
    return false;
  }
  wire::Reader r(body);
  out = wire::decode<repl::GroupImage>(r);
  return r.exhausted();
}

std::string snapshot_path(const std::string& dir, const KeyGroup& group) {
  char name[64];
  std::snprintf(name, sizeof(name), "%u-%llx.snap", group.depth(),
                (unsigned long long)group.virtual_key().value());
  return dir + "/" + name;
}

}  // namespace clash::storage
