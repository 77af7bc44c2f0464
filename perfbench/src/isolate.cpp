#include "isolate.hpp"

#include <filesystem>

#include "bench.hpp"
#include "storage/backend.hpp"
#include "storage/store.hpp"
#include "wire/codec.hpp"

namespace perfbench {
namespace {

constexpr int kBatches = 7;

/// Median over batches of ns per item; `body(i)` handles item i and
/// returns a value folded into a sink the optimiser cannot drop.
template <typename Body>
double per_item_ns(std::size_t n, Body&& body) {
  if (n == 0) return 0;
  // Enough passes that one batch takes a few milliseconds.
  const std::size_t passes = std::max<std::size_t>(1, 200'000 / n);
  std::vector<double> per;
  std::uint64_t sink = 0;
  for (int b = 0; b < kBatches; ++b) {
    const auto t0 = now_ns();
    for (std::size_t p = 0; p < passes; ++p) {
      for (std::size_t i = 0; i < n; ++i) sink += body(i);
    }
    per.push_back(double(now_ns() - t0) / double(passes * n));
  }
  volatile std::uint64_t keep = sink;
  (void)keep;
  return median(std::move(per));
}

}  // namespace

double time_hash_ns(const clash::dht::KeyHasher& hasher,
                    const std::vector<clash::Key>& keys) {
  return per_item_ns(keys.size(), [&](std::size_t i) {
    return hasher.hash_key(keys[i]).value;
  });
}

TableTimes time_table_ns(const clash::ServerTable& table,
                         const std::vector<clash::Key>& keys) {
  TableTimes t;
  t.lpm_ns = per_item_ns(keys.size(), [&](std::size_t i) {
    return std::uint64_t(table.longest_prefix_match(keys[i]));
  });
  t.entry_for_ns = per_item_ns(keys.size(), [&](std::size_t i) {
    return std::uint64_t(table.active_entry_for(keys[i]) != nullptr);
  });
  return t;
}

CodecTimes time_codec_ns(const std::vector<clash::AcceptObject>& objs) {
  namespace wire = clash::wire;
  std::vector<std::vector<std::uint8_t>> requests;
  std::vector<std::vector<std::uint8_t>> replies;
  const auto encode_pair = [&](std::size_t i, bool keep) {
    auto w = wire::begin_frame(
        wire::Envelope{wire::FrameKind::kRequest, i + 1, clash::ServerId{}});
    wire::encode_message(w, clash::Message(objs[i]));
    auto req = wire::finish_frame(std::move(w));
    auto r = wire::begin_frame(
        wire::Envelope{wire::FrameKind::kResponse, i + 1, clash::ServerId{0}});
    wire::encode_reply(r, clash::AcceptObjectOk{objs[i].depth});
    auto rep = wire::finish_frame(std::move(r));
    const std::uint64_t n = req.size() + rep.size();
    if (keep) {
      requests.push_back(std::move(req));
      replies.push_back(std::move(rep));
    }
    return n;
  };
  for (std::size_t i = 0; i < objs.size(); ++i) (void)encode_pair(i, true);

  CodecTimes t;
  t.encode_ns = per_item_ns(
      objs.size(), [&](std::size_t i) { return encode_pair(i, false); });
  t.decode_ns = per_item_ns(objs.size(), [&](std::size_t i) {
    // Frames carry the u32 length prefix; decode_frame takes the rest.
    const auto req = wire::decode_frame(
        std::span<const std::uint8_t>(requests[i]).subspan(4));
    const auto msg = wire::decode_message(req.value().payload);
    const auto rep = wire::decode_frame(
        std::span<const std::uint8_t>(replies[i]).subspan(4));
    const auto reply = wire::decode_reply(rep.value().payload);
    return std::uint64_t(msg.ok()) + std::uint64_t(reply.ok());
  });
  return t;
}

double time_wal_append_ns(const std::string& dir,
                          const clash::ClashConfig& cfg,
                          const std::vector<clash::AcceptObject>& objs) {
  if (objs.empty()) return 0;
  std::vector<double> per;
  {
    clash::storage::FileBackend backend(dir);
    clash::storage::NodeStore store(
        backend, clash::storage::NodeStore::Config::from(cfg));
    const auto start = now_ns();
    std::uint64_t seq = 0;
    for (int b = 0; b < kBatches; ++b) {
      const auto t0 = now_ns();
      for (const auto& obj : objs) {
        const auto group = clash::KeyGroup::of(obj.key, cfg.initial_depth);
        const auto op =
            obj.kind == clash::ObjectKind::kQuery
                ? clash::repl::LogOp::put_query(
                      clash::QueryInfo{obj.query_id, obj.key})
                : clash::repl::LogOp::put_stream(
                      clash::StreamInfo{obj.source, obj.key, obj.stream_rate});
        // Wall-clock "now" so the interval fsync policy fires as live.
        (void)store.append_op(group, clash::repl::LogHead{1, ++seq}, op,
                              clash::SimTime((now_ns() - start) / 1000));
      }
      per.push_back(double(now_ns() - t0) / double(objs.size()));
    }
  }
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  return median(std::move(per));
}

}  // namespace perfbench
