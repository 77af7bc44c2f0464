// TimingEnv: a ClientEnv decorator that times the two calls a
// ClashClient makes into the layers below it — the DHT lookup (SHA-1
// or mix64 hash already done by the client; ring lookup here) and the
// ACCEPT_OBJECT round trip — and records one span per call, parented
// to the operation span the workload opens. Wraps BlockingClient on
// TCP and the simulator's in-process ClientEnv alike.
#pragma once

#include <cstdint>
#include <vector>

#include "bench.hpp"
#include "clash/client.hpp"

namespace perfbench {

class TimingEnv final : public clash::ClientEnv {
 public:
  TimingEnv(clash::ClientEnv& inner, SpanLog& spans)
      : inner_(inner), spans_(spans) {}

  /// Operation the next calls belong to (span parent + request id).
  void begin_op(std::uint64_t op, std::uint64_t parent_span) {
    op_ = op;
    parent_ = parent_span;
  }

  clash::dht::LookupResult dht_lookup(clash::dht::HashKey h) override {
    const auto t0 = now_ns();
    const auto r = inner_.dht_lookup(h);
    const auto t1 = now_ns();
    lookup_ns_ += t1 - t0;
    ++lookups_;
    spans_.record("dht_lookup", t0, t1, op_, parent_);
    return r;
  }

  clash::AcceptObjectReply rpc_accept_object(
      clash::ServerId to, const clash::AcceptObject& msg) override {
    const auto t0 = now_ns();
    auto r = inner_.rpc_accept_object(to, msg);
    const auto t1 = now_ns();
    rpc_ns_ += t1 - t0;
    rtt_us_.push_back(double(t1 - t0) / 1e3);
    spans_.record("rpc_accept_object", t0, t1, op_, parent_);
    return r;
  }

  [[nodiscard]] std::int64_t lookup_ns() const { return lookup_ns_; }
  [[nodiscard]] std::int64_t rpc_ns() const { return rpc_ns_; }
  [[nodiscard]] std::uint64_t lookups() const { return lookups_; }
  [[nodiscard]] const std::vector<double>& rtt_us() const { return rtt_us_; }

 private:
  clash::ClientEnv& inner_;
  SpanLog& spans_;
  std::uint64_t op_ = 0;
  std::uint64_t parent_ = 0;
  std::int64_t lookup_ns_ = 0;
  std::int64_t rpc_ns_ = 0;
  std::uint64_t lookups_ = 0;
  std::vector<double> rtt_us_;
};

}  // namespace perfbench
