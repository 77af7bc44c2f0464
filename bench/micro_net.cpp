// Transport + sim-dispatch microbenchmarks behind BENCH_net.json.
//
// net_throughput: frames/sec through the full Connection send/receive
// path over loopback TCP (both endpoints on one epoll loop, frames
// sent in per-tick batches the way SWIM gossip and replication bursts
// are), at 64 B / 1 KiB / 64 KiB payloads. Also reports the small-
// frame coalescing ratio (frames per flush syscall).
// net_latency: single-frame ping-pong round-trip time.
// sim_dispatch: sim::EventQueue dispatch rate with closure captures
// big enough to defeat std::function's small-buffer optimisation (the
// shape real sim events have).
// repl_append_batching: wire encode+decode cost of one ReplAppend op
// per frame vs one frame per group per tick (the per-tick batching the
// replication engine now does) — the transport coalesces writes either
// way, so the saving is pure codec + envelope overhead.
// metrics_overhead: the observability self-gate — 64 B frames/sec with
// the full metrics registry attached (loop tick histogram + transport
// counters) must stay within 5% of the uninstrumented path, or the
// bench exits nonzero. Each round runs both sides twice in ABBA order
// (so drift in ambient load hits both alike) and yields one on/off
// ratio; the median over the rounds decides. The frame count is fixed
// (not --quick scaled) so CI and local runs gate the same work.
// --inject-slowdown=F makes every instrumented run burn an extra F of
// its own send-loop time (0.10 = a 10% slower instrumented path): the
// gate's self-test, which must then fail.
//
// Usage: micro_net [--quick] [--inject-slowdown=F] [--json=PATH]
#include <sys/epoll.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "clash/messages.hpp"
#include "common/argparse.hpp"
#include "net/connection.hpp"
#include "net/event_loop.hpp"
#include "net/socket.hpp"
#include "obs/hub.hpp"
#include "sim/event_queue.hpp"
#include "wire/codec.hpp"

using namespace clash;
using namespace clash::net;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

struct ThroughputResult {
  std::size_t frame_bytes = 0;
  std::uint64_t frames = 0;
  double seconds = 0;
  std::uint64_t flush_syscalls = 0;  // writev/write calls on the sender
  [[nodiscard]] double frames_per_sec() const { return frames / seconds; }
  [[nodiscard]] double mb_per_sec() const {
    return double(frames) * double(frame_bytes) / seconds / 1e6;
  }
  [[nodiscard]] double coalesce_ratio() const {
    return flush_syscalls > 0 ? double(frames) / double(flush_syscalls) : 0;
  }
};

/// Pump `total` frames of `frame_bytes` through a loopback TCP pair on
/// one loop, `batch` frames queued per loop tick. When `hub` is set the
/// run is fully instrumented — tick histogram on the loop, clash_net_*
/// counters on both connections — exactly as a ClashNode wires them.
/// `slowdown` > 0 busy-waits on the loop thread before each batch for
/// that fraction of the time since the previous one, stretching the run
/// by about (1 + slowdown).
ThroughputResult run_throughput(std::size_t frame_bytes, std::uint64_t total,
                                std::size_t batch, obs::Hub* hub = nullptr,
                                double slowdown = 0) {
  EventLoop loop;
  CLASH_ASSERT_ON_LOOP(loop);  // loop idle until run(): we hold affinity
  if (hub != nullptr) {
    // Journal armed exactly as a ClashNode arms it: tick-budget fence
    // on the loop, fault/drop events on both connections. The overhead
    // gate below therefore prices the journal too.
    loop.set_obs(hub->registry.histogram("clash_loop_tick_usec").raw(),
                 &hub->journal, 0,
                 hub->registry.counter("clash_stall_tick_overruns_total"),
                 /*budget_us=*/1'000'000);
  }
  auto listener = listen_tcp(Endpoint{"127.0.0.1", 0}).value();
  const auto port = bound_port(listener).value();

  std::uint64_t received = 0;
  std::shared_ptr<Connection> server;
  loop.add_fd(listener.get(), EPOLLIN, [&](std::uint32_t) {
    auto fd = accept_tcp(listener);
    if (!fd.ok()) return;
    server = Connection::adopt(
        loop, std::move(fd).value(),
        [&](std::span<const std::uint8_t>) {
          if (++received == total) loop.stop();
        },
        [] {});
    if (hub != nullptr) server->set_obs(hub, /*epoch_us=*/0);
  });

  auto client_fd = connect_tcp(Endpoint{"127.0.0.1", port}).value();
  auto client = Connection::adopt(loop, std::move(client_fd),
                                  [](std::span<const std::uint8_t>) {}, [] {});
  if (hub != nullptr) client->set_obs(hub, /*epoch_us=*/0);

  const std::vector<std::uint8_t> payload(frame_bytes, 0xAB);
  std::uint64_t sent = 0;
  // Re-arming sender task: queue one batch, yield to epoll, repeat.
  // Everything it references outlives loop.run(), which drains all
  // posted copies before returning.
  auto last_batch = Clock::now();
  std::function<void()> send_batch = [&] {
    if (slowdown > 0) {
      const auto now = Clock::now();
      const auto until =
          now + std::chrono::duration_cast<Clock::duration>(
                    (now - last_batch) * slowdown);
      while (Clock::now() < until) {
      }
      last_batch = Clock::now();
    }
    for (std::size_t i = 0; i < batch && sent < total; ++i, ++sent) {
      client->send_frame(payload);
    }
    if (sent < total) (void)loop.post(send_batch);
  };

  const auto t0 = Clock::now();
  (void)loop.post(send_batch);
  loop.run();
  ThroughputResult r;
  r.frame_bytes = frame_bytes;
  r.frames = total;
  r.seconds = seconds_since(t0);
  r.flush_syscalls = client->stats().flush_syscalls;
  return r;
}

/// Single-frame ping-pong: client sends, server echoes, client sends
/// the next on receipt. Returns average round-trip in microseconds.
double run_latency(std::uint64_t round_trips) {
  EventLoop loop;
  CLASH_ASSERT_ON_LOOP(loop);  // loop idle until run(): we hold affinity
  auto listener = listen_tcp(Endpoint{"127.0.0.1", 0}).value();
  const auto port = bound_port(listener).value();

  std::shared_ptr<Connection> server;
  loop.add_fd(listener.get(), EPOLLIN, [&](std::uint32_t) {
    auto fd = accept_tcp(listener);
    if (!fd.ok()) return;
    server = Connection::adopt(
        loop, std::move(fd).value(),
        [&](std::span<const std::uint8_t> frame) { server->send_frame(frame); },
        [] {});
  });

  const std::vector<std::uint8_t> ping(64, 0x1);
  std::uint64_t completed = 0;
  std::shared_ptr<Connection> client;
  auto client_fd = connect_tcp(Endpoint{"127.0.0.1", port}).value();
  client = Connection::adopt(
      loop, std::move(client_fd),
      [&](std::span<const std::uint8_t>) {
        if (++completed == round_trips) {
          loop.stop();
          return;
        }
        client->send_frame(ping);
      },
      [] {});

  const auto t0 = Clock::now();
  (void)loop.post([&] { client->send_frame(ping); });
  loop.run();
  return seconds_since(t0) * 1e6 / double(round_trips);
}

/// EventQueue dispatch rate. Each event's closure captures 64 bytes so
/// a copying dispatch pays an allocation per event, as real sim events
/// (which capture ids, keys, shared state) do.
double run_sim_dispatch(std::uint64_t events) {
  sim::EventQueue q;
  q.reserve(std::size_t(events));
  std::uint64_t sum = 0;
  std::array<std::uint64_t, 8> fat{};
  for (std::uint64_t i = 0; i < events; ++i) {
    fat[0] = i;
    q.at(SimTime(std::int64_t(i)), [&sum, fat] { sum += fat[0]; });
  }
  const auto t0 = Clock::now();
  q.run_until(SimTime(std::int64_t(events)));
  const double secs = seconds_since(t0);
  if (sum == 0) std::fprintf(stderr, "unexpected zero checksum\n");
  return double(events) / secs;
}

/// Encode + decode `total_ops` ReplAppend log ops, `per_frame` ops per
/// frame, through the full wire path (envelope + codec both ways).
/// Returns ops/sec.
double run_append_codec(std::uint64_t total_ops, std::size_t per_frame) {
  const KeyGroup group = KeyGroup::root(24);
  std::uint64_t checksum = 0;
  const auto t0 = Clock::now();
  std::uint64_t done = 0;
  std::uint64_t seq = 0;
  while (done < total_ops) {
    const std::size_t n =
        std::size_t(std::min<std::uint64_t>(per_frame, total_ops - done));
    ReplAppend msg;
    msg.group = group;
    msg.owner = ServerId{1};
    msg.epoch = 1;
    msg.base_seq = seq;
    msg.entries.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      msg.entries.push_back(repl::LogOp::put_stream(
          StreamInfo{ClientId{seq + i}, Key(0x123456, 24), 2.5}));
    }
    seq += n;
    auto w = wire::begin_frame(
        wire::Envelope{wire::FrameKind::kOneway, 0, ServerId{1}});
    wire::encode_message(w, Message(std::move(msg)));
    const auto frame = wire::finish_frame(std::move(w));
    const auto decoded = wire::decode_frame(
        std::span<const std::uint8_t>(frame).subspan(4));
    const auto out = wire::decode_message(decoded.value().payload);
    checksum += std::get<ReplAppend>(out.value()).entries.size();
    done += n;
  }
  const double secs = seconds_since(t0);
  if (checksum != total_ops) std::fprintf(stderr, "checksum mismatch\n");
  return double(total_ops) / secs;
}

}  // namespace

int main(int argc, char** argv) {
  const ArgParser args(argc, argv);
  const bool quick = args.get_bool("quick", false);

  const std::uint64_t small_frames = quick ? 20'000 : 400'000;
  const std::uint64_t mid_frames = quick ? 10'000 : 200'000;
  const std::uint64_t big_frames = quick ? 1'000 : 20'000;
  const std::uint64_t rtts = quick ? 2'000 : 20'000;
  const std::uint64_t sim_events = quick ? 100'000 : 1'000'000;

  const auto t64 = run_throughput(64, small_frames, 64);
  const auto t1k = run_throughput(1024, mid_frames, 32);
  const auto t64k = run_throughput(64 * 1024, big_frames, 8);
  const double rtt_us = run_latency(rtts);
  const double dispatch = run_sim_dispatch(sim_events);
  const std::uint64_t append_ops = quick ? 200'000 : 2'000'000;
  const std::size_t append_batch = 16;
  const double unbatched_ops = run_append_codec(append_ops, 1);
  const double batched_ops = run_append_codec(append_ops, append_batch);
  std::printf("# repl_append codec: %.0f ops/s unbatched, %.0f ops/s at "
              "batch %zu (%.2fx)\n",
              unbatched_ops, batched_ops, append_batch,
              batched_ops / unbatched_ops);

  // --- Observability overhead self-gate --------------------------------
  // Each round pairs uninstrumented and instrumented runs back-to-back
  // and yields one on/off ratio; the gate is the median over all
  // rounds. A max over rounds (or best-vs-best) lets a single noisy
  // round pass the gate, so noise biases it upward; the median moves
  // only when most rounds move.
  const std::uint64_t gate_frames = 300'000;
  constexpr int kGateRounds = 15;
  const double slowdown = args.get_double("inject-slowdown", 0.0);
  obs::Hub hub;
  const auto run_off = [&] {
    return run_throughput(64, gate_frames, 64).frames_per_sec();
  };
  const auto run_on = [&] {
    return run_throughput(64, gate_frames, 64, &hub, slowdown)
        .frames_per_sec();
  };
  std::vector<double> offs, ons, ratios;
  for (int round = 0; round < kGateRounds; ++round) {
    // ABBA within the round cancels linear drift; each side keeps its
    // faster run, since interference only ever adds time.
    double off = 0, on = 0;
    if (round % 2 == 0) {
      off = run_off();
      on = std::max(run_on(), run_on());
      off = std::max(off, run_off());
    } else {
      on = run_on();
      off = std::max(run_off(), run_off());
      on = std::max(on, run_on());
    }
    offs.push_back(off);
    ons.push_back(on);
    ratios.push_back(on / off);
  }
  // The instrumented runs must actually have recorded — a gate that
  // silently measured two uninstrumented paths would always pass.
  const std::uint64_t gate_sent =
      hub.registry.counter_value("clash_net_frames_sent_total");
  const auto gate_ticks =
      hub.registry.histogram_snapshot("clash_loop_tick_usec");
  if (gate_sent < gate_frames * std::uint64_t(kGateRounds) ||
      gate_ticks.count == 0) {
    std::fprintf(stderr,
                 "metrics gate broken: instrumented runs recorded "
                 "%llu frames, %llu ticks\n",
                 (unsigned long long)gate_sent,
                 (unsigned long long)gate_ticks.count);
    return 1;
  }
  const double overhead_ratio = median(ratios);
  const double off_median = median(offs);
  const double on_median = median(ons);
  const auto [ratio_min, ratio_max] =
      std::minmax_element(ratios.begin(), ratios.end());
  const bool gate_ok = overhead_ratio >= 0.95;
  std::printf("# metrics overhead: %.0f frames/s off, %.0f on (median of "
              "%d paired rounds, ratio %.3f, range %.3f-%.3f%s) -> %s\n",
              off_median, on_median, kGateRounds, overhead_ratio,
              *ratio_min, *ratio_max,
              slowdown > 0 ? ", slowdown injected" : "",
              gate_ok ? "PASS" : "FAIL");

  std::string out = "{\n  \"bench\": \"micro_net\",\n";
  out += "  \"quick\": " + std::string(quick ? "true" : "false") + ",\n";
  out += "  \"net_throughput\": [\n";
  const ThroughputResult* results[] = {&t64, &t1k, &t64k};
  for (std::size_t i = 0; i < 3; ++i) {
    const auto& r = *results[i];
    char line[256];
    std::snprintf(line, sizeof(line),
                  "    {\"frame_bytes\": %zu, \"frames\": %llu, "
                  "\"frames_per_sec\": %.0f, \"mb_per_sec\": %.1f, "
                  "\"coalesce_ratio\": %.2f}%s\n",
                  r.frame_bytes, (unsigned long long)r.frames,
                  r.frames_per_sec(), r.mb_per_sec(), r.coalesce_ratio(),
                  i + 1 < 3 ? "," : "");
    out += line;
  }
  out += "  ],\n";
  char batching[256];
  std::snprintf(batching, sizeof(batching),
                "  \"repl_append_codec\": {\"ops\": %llu, \"batch\": %zu, "
                "\"unbatched_ops_per_sec\": %.0f, "
                "\"batched_ops_per_sec\": %.0f, \"speedup\": %.2f},\n",
                (unsigned long long)append_ops, append_batch, unbatched_ops,
                batched_ops, batched_ops / unbatched_ops);
  out += batching;
  char gate_json[384];
  std::snprintf(gate_json, sizeof(gate_json),
                "  \"metrics_overhead\": {\"frames\": %llu, "
                "\"rounds\": %d, \"inject_slowdown\": %.3f, "
                "\"off_frames_per_sec\": %.0f, \"on_frames_per_sec\": %.0f, "
                "\"ratio_median\": %.4f, \"ratio_min\": %.4f, "
                "\"ratio_max\": %.4f, \"pass\": %s},\n",
                (unsigned long long)gate_frames, kGateRounds, slowdown,
                off_median, on_median, overhead_ratio, *ratio_min,
                *ratio_max, gate_ok ? "true" : "false");
  out += gate_json;
  char tail[160];
  std::snprintf(tail, sizeof(tail),
                "  \"net_latency_rtt_us\": %.2f,\n"
                "  \"sim_dispatch_events_per_sec\": %.0f\n}\n",
                rtt_us, dispatch);
  out += tail;

  std::fputs(out.c_str(), stdout);
  if (!write_json_artifact(args, out)) return 1;
  return gate_ok ? 0 : 1;
}
