// Non-blocking peer connects: the async connect API at the socket
// level, and the ClashNode pending-connect state — a peer whose TCP
// handshake never completes (SYN-dropped via a full accept backlog)
// must not stall the event loop, which keeps servicing other peers.
#include <gtest/gtest.h>
#include <sys/epoll.h>
#include <sys/select.h>
#include <sys/socket.h>

#include <chrono>
#include <map>
#include <thread>
#include <vector>

#include "net/connection.hpp"
#include "net/event_loop.hpp"
#include "net/node.hpp"
#include "tests/net/probed_ports.hpp"
#include "net/socket.hpp"

namespace clash::net {
namespace {

using namespace std::chrono_literals;

TEST(AsyncConnect, CompletesAgainstLiveListener) {
  auto listener = listen_tcp(Endpoint{"127.0.0.1", 0}).value();
  const auto port = bound_port(listener).value();

  auto res = connect_tcp_async(Endpoint{"127.0.0.1", port});
  ASSERT_TRUE(res.ok());
  if (res.value().in_progress) {
    EventLoop loop;
    int err = -1;
    CLASH_ASSERT_ON_LOOP(loop);  // loop idle until run()
    loop.add_fd(res.value().fd.get(), EPOLLOUT, [&](std::uint32_t) {
      err = connect_result(res.value().fd);
      loop.stop();
    });
    loop.call_after(2s, [&] { loop.stop(); });
    loop.run();
    EXPECT_EQ(err, 0);
  }
}

TEST(AsyncConnect, ReportsRefusedConnection) {
  // Grab a port that is then closed again: connecting must surface a
  // non-zero connect_result via EPOLLOUT/EPOLLERR, not hang.
  std::uint16_t dead_port = 0;
  {
    auto listener = listen_tcp(Endpoint{"127.0.0.1", 0}).value();
    dead_port = bound_port(listener).value();
  }
  auto res = connect_tcp_async(Endpoint{"127.0.0.1", dead_port});
  ASSERT_TRUE(res.ok());
  if (!res.value().in_progress) {
    // Refusal can complete synchronously; either way it must not block.
    return;
  }
  EventLoop loop;
  int err = 0;
  CLASH_ASSERT_ON_LOOP(loop);  // loop idle until run()
  loop.add_fd(res.value().fd.get(), EPOLLOUT, [&](std::uint32_t) {
    err = connect_result(res.value().fd);
    loop.stop();
  });
  loop.call_after(2s, [&] { loop.stop(); });
  loop.run();
  EXPECT_NE(err, 0);
}

/// A listening socket whose backlog is pre-filled, so further SYNs are
/// dropped and a connect stays in SYN_SENT indefinitely — the closest
/// loopback approximation of a blackholed peer.
struct BlackholeEndpoint {
  Fd trap;
  std::vector<Fd> fillers;
  Endpoint endpoint;
  bool ready = false;

  BlackholeEndpoint() {
    auto listener = listen_tcp(Endpoint{"127.0.0.1", 0}, /*backlog=*/0);
    if (!listener.ok()) return;
    trap = std::move(listener).value();
    endpoint = Endpoint{"127.0.0.1", bound_port(trap).value()};
    // Fill the backlog: keep opening connections until one stays in
    // SYN_SENT, i.e. the kernel started dropping SYNs for this socket.
    for (int i = 0; i < 16 && !ready; ++i) {
      auto res = connect_tcp_async(endpoint);
      if (!res.ok()) break;
      if (res.value().in_progress) {
        std::this_thread::sleep_for(100ms);
        ready = !probe_writable(res.value().fd);
      }
      fillers.push_back(std::move(res.value().fd));
    }
  }

  static bool probe_writable(const Fd& fd) {
    fd_set wfds;
    FD_ZERO(&wfds);
    FD_SET(fd.get(), &wfds);
    timeval tv{0, 0};
    return ::select(fd.get() + 1, nullptr, &wfds, nullptr, &tv) > 0;
  }
};

TEST(PendingConnect, BlackholedPeerNeverStallsTheLoop) {
  BlackholeEndpoint blackhole;
  if (!blackhole.ready) {
    GTEST_SKIP() << "could not build a SYN-dropping endpoint";
  }

  // Two real nodes plus a phantom member behind the blackhole. SWIM
  // probes the phantom every period; with the old blocking connect the
  // loop would stall for the OS connect timeout on every probe.
  ClashConfig clash;
  clash.key_width = 16;
  clash.capacity = 10000;

  std::map<ServerId, Endpoint> members;
  std::vector<NodeConfig> configs(2);
  for (std::size_t i = 0; i < 2; ++i) {
    configs[i].id = ServerId{i};
    configs[i].clash = clash;
    configs[i].protocol_period = std::chrono::milliseconds(20);
    configs[i].connect_timeout = std::chrono::milliseconds(150);
    configs[i].load_check_interval = std::chrono::milliseconds(50);
  }
  const ServerId phantom{9};
  members[phantom] = blackhole.endpoint;
  const auto nodes = testing::start_on_probed_ports(configs, members);
  ClashNode& a = *nodes[0];
  ClashNode& b = *nodes[1];

  // While connects to the phantom are pending/aborting, the loop must
  // stay responsive: every introspection round-trip finishes fast.
  const auto deadline = std::chrono::steady_clock::now() + 1500ms;
  std::chrono::microseconds worst{0};
  while (std::chrono::steady_clock::now() < deadline) {
    const auto t0 = std::chrono::steady_clock::now();
    (void)a.ring_server_count();
    (void)b.ring_server_count();
    const auto rtt = std::chrono::duration_cast<std::chrono::microseconds>(
        std::chrono::steady_clock::now() - t0);
    worst = std::max(worst, rtt);
    std::this_thread::sleep_for(10ms);
  }
  // Generous bound: far below one SYN retransmit (1 s), far above any
  // healthy loop round-trip.
  EXPECT_LT(worst, 500ms) << "event loop stalled on a blackholed connect";

  // And the two live nodes kept talking: both declare the phantom dead
  // and keep each other alive.
  for (int i = 0; i < 250; ++i) {
    if (a.member_state(phantom) == MemberState::kDead &&
        b.member_state(phantom) == MemberState::kDead) {
      break;
    }
    std::this_thread::sleep_for(20ms);
  }
  EXPECT_EQ(a.member_state(phantom), MemberState::kDead);
  EXPECT_EQ(b.member_state(phantom), MemberState::kDead);
  EXPECT_EQ(a.member_state(ServerId{1}), MemberState::kAlive);
  EXPECT_EQ(b.member_state(ServerId{0}), MemberState::kAlive);
  EXPECT_EQ(a.ring_server_count(), 2u);
  EXPECT_EQ(b.ring_server_count(), 2u);

  a.stop();
  b.stop();
}

}  // namespace
}  // namespace clash::net
