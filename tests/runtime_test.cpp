/// Real-time runtime tests: the same protocol stack over real UDP loopback
/// sockets, driven by the wall-clock runner. These tests take real time
/// (a few hundred ms each) and are inherently timing-dependent, so they
/// assert only coarse outcomes (delivery happened, order agreed).
#include <gtest/gtest.h>

#include <set>

#include <memory>

#include "core/stack.hpp"
#include "obs/telemetry.hpp"
#include "runtime/realtime_runner.hpp"
#include "runtime/stats_socket.hpp"
#include "runtime/udp_transport.hpp"
#include "tests/test_util.hpp"

namespace gcs::rt {
namespace {

using test::bytes_of;

struct RtWorld {
  sim::Engine engine;
  RealTimeRunner runner{engine};
  std::vector<std::unique_ptr<sim::Context>> owner_ctxs;  // transports' contexts
  std::vector<std::unique_ptr<GcsStack>> stacks;
  std::vector<test::DeliveryLog> logs;

  RtWorld(int n, std::uint16_t base_port, StackConfig sc = {}) {
    logs.resize(static_cast<std::size_t>(n));
    sc.fd.heartbeat_interval = msec(5);
    sc.consensus_suspect_timeout = msec(100);
    sc.monitoring.exclusion_timeout = sec(10);
    for (ProcessId p = 0; p < n; ++p) {
      // The transport needs a context for identity + liveness before the
      // stack exists; give it a lightweight one that shares the engine.
      owner_ctxs.push_back(std::make_unique<sim::Context>(
          p, engine, Rng(static_cast<std::uint64_t>(p) + 1), Logger(),
          std::make_shared<Metrics>()));
      UdpTransport::Config ucfg;
      ucfg.base_port = base_port;
      auto transport = std::make_unique<UdpTransport>(*owner_ctxs.back(), n, ucfg);
      runner.add_pollable([t = transport.get()] { return t->poll(); });
      stacks.push_back(std::make_unique<GcsStack>(engine, std::move(transport), p,
                                                  static_cast<std::uint64_t>(p) + 1, sc));
      auto& log = logs[static_cast<std::size_t>(p)];
      stacks.back()->on_adeliver(
          [&log](const MsgId& id, const Bytes& b) { log.record(id, b); });
    }
  }

  void found_all() {
    std::vector<ProcessId> all;
    for (std::size_t p = 0; p < stacks.size(); ++p) all.push_back(static_cast<ProcessId>(p));
    for (auto& s : stacks) s->init_view(all);
  }
};

TEST(RealTime, UdpTransportDelivers) {
  sim::Engine engine;
  sim::Context c0(0, engine, Rng(1), Logger(), std::make_shared<Metrics>());
  sim::Context c1(1, engine, Rng(2), Logger(), std::make_shared<Metrics>());
  UdpTransport::Config cfg;
  cfg.base_port = 39100;
  UdpTransport t0(c0, 2, cfg), t1(c1, 2, cfg);
  std::vector<std::pair<ProcessId, std::string>> received;
  t1.subscribe(Tag::kApp, [&](ProcessId from, BytesView b) {
    received.emplace_back(from, test::str_of(b));
  });
  t0.u_send(1, Tag::kApp, bytes_of("over the wire"));
  RealTimeRunner runner(engine);
  runner.add_pollable([&] { return t1.poll(); });
  ASSERT_TRUE(runner.run_until(std::chrono::milliseconds(500),
                               [&] { return !received.empty(); }));
  EXPECT_EQ(received[0].first, 0);
  EXPECT_EQ(received[0].second, "over the wire");
}

TEST(RealTime, FullStackAtomicBroadcastOverUdp) {
  RtWorld w(3, 39110);
  w.found_all();
  for (int i = 0; i < 5; ++i) {
    w.stacks[static_cast<std::size_t>(i % 3)]->abcast(bytes_of("rt" + std::to_string(i)));
  }
  ASSERT_TRUE(w.runner.run_until(std::chrono::seconds(10), [&] {
    return w.logs[0].size() >= 5 && w.logs[1].size() >= 5 && w.logs[2].size() >= 5;
  }));
  // Total order over real sockets.
  EXPECT_EQ(w.logs[0].order, w.logs[1].order);
  EXPECT_EQ(w.logs[1].order, w.logs[2].order);
}

TEST(RealTime, DeepClosedLoopDoesNotCollapse) {
  // 32 outstanding 1 KiB abcasts per member over loopback UDP. Kernel
  // drops under this load once fed a consensus storm (stale DECIDE and
  // ANNOUNCE echoes resurrecting forgotten instances) and whole-window
  // retransmissions; every message must now be delivered everywhere.
  StackConfig sc;
  sc.consensus_algorithm = StackConfig::ConsensusAlgo::kPaxos;
  sc.abcast.pipeline_depth = 16;
  sc.abcast.max_batch = 16;
  sc.abcast.adaptive = true;
  constexpr int kN = 3;
  constexpr int kWindow = 32;
  constexpr int kTotal = 3000;
  RtWorld w(kN, 39150, sc);
  w.found_all();
  const Bytes payload(1024, 0x42);
  int submitted = 0;
  std::vector<int> outstanding(kN, 0);
  const auto submit = [&](ProcessId p) {
    if (submitted >= kTotal) return;
    ++submitted;
    ++outstanding[static_cast<std::size_t>(p)];
    w.stacks[static_cast<std::size_t>(p)]->abcast(payload);
  };
  // Closed loop: a member's own delivery frees its slot for the next one.
  for (ProcessId p = 0; p < kN; ++p) {
    w.stacks[static_cast<std::size_t>(p)]->on_adeliver([&, p](const MsgId& id, const Bytes&) {
      if (id.sender != p) return;
      --outstanding[static_cast<std::size_t>(p)];
      submit(p);
    });
  }
  for (ProcessId p = 0; p < kN; ++p) {
    for (int i = 0; i < kWindow; ++i) submit(p);
  }
  const bool done = w.runner.run_until(std::chrono::seconds(20), [&] {
    for (const auto& log : w.logs) {
      if (log.size() < static_cast<std::size_t>(kTotal)) return false;
    }
    return true;
  });
  ASSERT_TRUE(done) << "delivered " << w.logs[0].size() << "/" << w.logs[1].size() << "/"
                    << w.logs[2].size() << " of " << kTotal;
  EXPECT_EQ(w.logs[0].order, w.logs[1].order);
  EXPECT_EQ(w.logs[1].order, w.logs[2].order);
}

TEST(RealTime, StabilityGcOverUdpDeliversEachMessageOnce) {
  // Stability gossip every 100 ms moves rbcast's dedup floor and prunes
  // retained frames while a closed loop of 1 per member runs over loopback
  // UDP: no member may deliver any message twice.
  StackConfig sc;
  sc.consensus_algorithm = StackConfig::ConsensusAlgo::kPaxos;
  sc.abcast.pipeline_depth = 16;
  sc.abcast.max_batch = 16;
  sc.abcast.adaptive = true;
  sc.stability_interval = msec(100);
  constexpr int kN = 3;
  constexpr int kTotal = 3000;
  RtWorld w(kN, 39160, sc);
  w.found_all();
  const Bytes payload(1024, 0x17);
  int submitted = 0;
  const auto submit = [&](ProcessId p) {
    if (submitted >= kTotal) return;
    ++submitted;
    w.stacks[static_cast<std::size_t>(p)]->abcast(payload);
  };
  for (ProcessId p = 0; p < kN; ++p) {
    w.stacks[static_cast<std::size_t>(p)]->on_adeliver([&, p](const MsgId& id, const Bytes&) {
      if (id.sender == p) submit(p);
    });
  }
  for (ProcessId p = 0; p < kN; ++p) submit(p);
  const bool done = w.runner.run_until(std::chrono::seconds(30), [&] {
    for (const auto& log : w.logs) {
      if (log.size() < static_cast<std::size_t>(kTotal)) return false;
    }
    return true;
  });
  ASSERT_TRUE(done) << "delivered " << w.logs[0].size() << "/" << w.logs[1].size() << "/"
                    << w.logs[2].size() << " of " << kTotal;
  w.runner.run_for(std::chrono::milliseconds(300));  // room for a late duplicate
  for (const auto& log : w.logs) {
    EXPECT_EQ(log.size(), static_cast<std::size_t>(kTotal));
    EXPECT_EQ(std::set<MsgId>(log.order.begin(), log.order.end()).size(), log.size());
  }
  EXPECT_EQ(w.logs[0].order, w.logs[1].order);
  EXPECT_EQ(w.logs[1].order, w.logs[2].order);
  EXPECT_GT(w.stacks[0]->metrics().counter("rbcast.stability_pruned"), 0);
}

TEST(RealTime, GenericBroadcastFastPathOverUdp) {
  RtWorld w(4, 39120);
  std::vector<int> gcount(4, 0);
  for (ProcessId p = 0; p < 4; ++p) {
    w.stacks[static_cast<std::size_t>(p)]->on_gdeliver(
        [&gcount, p](const MsgId&, MsgClass, const Bytes&) {
          ++gcount[static_cast<std::size_t>(p)];
        });
  }
  w.found_all();
  for (int i = 0; i < 4; ++i) {
    w.stacks[static_cast<std::size_t>(i)]->rbcast(bytes_of("fast" + std::to_string(i)));
  }
  ASSERT_TRUE(w.runner.run_until(std::chrono::seconds(10), [&] {
    for (int c : gcount) {
      if (c < 4) return false;
    }
    return true;
  }));
  // Thrifty even over real UDP: no consensus ran.
  EXPECT_EQ(w.stacks[0]->consensus().instances_decided(), 0);
}

// ---------------------------------------------------------------------------
// The socket edge's two shortcuts: the local queue and the batch window.

TEST(UdpTransport, SelfDatagramsArriveInOrderWithoutTheSocket) {
  sim::Engine engine;
  auto m0 = std::make_shared<Metrics>();
  sim::Context c0(0, engine, Rng(1), Logger(), m0);
  UdpTransport::Config cfg;
  cfg.base_port = 39170;
  cfg.recv_buffer = 16;
  UdpTransport t0(c0, 1, cfg);
  std::vector<std::pair<ProcessId, std::string>> received;
  t0.subscribe(Tag::kApp, [&](ProcessId from, BytesView b) {
    received.emplace_back(from, test::str_of(b));
  });
  t0.u_send(0, Tag::kApp, bytes_of("one"));
  t0.u_send(0, Tag::kApp, bytes_of("two"));
  t0.u_send(0, Tag::kApp, bytes_of("three"));
  EXPECT_TRUE(received.empty());  // queued until the next poll
  // One poll dispatches all three: no wait for the kernel, no runner.
  EXPECT_EQ(t0.poll(), 3);
  const std::vector<std::pair<ProcessId, std::string>> expected{
      {0, "one"}, {0, "two"}, {0, "three"}};
  EXPECT_EQ(received, expected);
  EXPECT_EQ(m0->counter("udp.tx_datagrams"), 3);
  EXPECT_EQ(m0->counter("udp.rx_datagrams"), 3);
  EXPECT_EQ(m0->counter("udp.rx_bytes"), m0->counter("udp.tx_bytes"));
  // Larger than the receive buffer: sent, then dropped as truncated.
  t0.u_send(0, Tag::kApp, Bytes(32, 0x61));
  EXPECT_EQ(t0.poll(), 0);
  EXPECT_EQ(received.size(), 3u);
  EXPECT_EQ(m0->counter("udp.tx_datagrams"), 4);
  EXPECT_EQ(m0->counter("udp.rx_truncated_drops"), 1);
  EXPECT_EQ(m0->counter("udp.rx_datagrams"), 3);
}

TEST(UdpTransport, UpcallSendsArriveAfterThePollInSendOrder) {
  sim::Engine engine;
  auto m0 = std::make_shared<Metrics>();
  auto m1 = std::make_shared<Metrics>();
  sim::Context c0(0, engine, Rng(1), Logger(), m0);
  sim::Context c1(1, engine, Rng(2), Logger(), m1);
  UdpTransport::Config cfg;
  cfg.base_port = 39172;
  UdpTransport t0(c0, 2, cfg), t1(c1, 2, cfg);
  constexpr int kSends = 5;
  int upcalls = 0;
  std::vector<std::string> at_peer;
  t1.subscribe(Tag::kApp, [&](ProcessId from, BytesView b) {
    EXPECT_EQ(from, 0);
    at_peer.push_back(test::str_of(b));
  });
  t0.subscribe(Tag::kApp, [&](ProcessId, BytesView) {
    ++upcalls;
    for (int i = 0; i < kSends; ++i) t0.u_send(1, Tag::kApp, bytes_of("m" + std::to_string(i)));
    // Still inside t0's poll: the batch has not left yet.
    EXPECT_EQ(m0->counter("udp.tx_datagrams"), 0);
    EXPECT_EQ(t1.poll(), 0);
  });
  t1.u_send(0, Tag::kApp, bytes_of("go"));  // outside a poll: leaves at once
  EXPECT_EQ(m1->counter("udp.tx_datagrams"), 1);
  RealTimeRunner runner(engine);
  runner.add_pollable([&] { return t0.poll(); });
  ASSERT_TRUE(runner.run_until(std::chrono::milliseconds(500), [&] { return upcalls > 0; }));
  EXPECT_EQ(m0->counter("udp.tx_datagrams"), kSends);  // flushed when the poll ended
  EXPECT_EQ(m0->counter("udp.tx_backoffs"), 0);
  RealTimeRunner peer(engine);
  peer.add_pollable([&] { return t1.poll(); });
  ASSERT_TRUE(peer.run_until(std::chrono::milliseconds(500),
                             [&] { return at_peer.size() >= static_cast<std::size_t>(kSends); }));
  EXPECT_EQ(at_peer, (std::vector<std::string>{"m0", "m1", "m2", "m3", "m4"}));
}

// ---------------------------------------------------------------------------
// UDP socket-edge accounting: the error paths UDP lets a transport silently
// swallow must each land in its own counter.

TEST(UdpErrorPaths, SuccessfulTrafficCounted) {
  sim::Engine engine;
  auto m0 = std::make_shared<Metrics>();
  auto m1 = std::make_shared<Metrics>();
  sim::Context c0(0, engine, Rng(1), Logger(), m0);
  sim::Context c1(1, engine, Rng(2), Logger(), m1);
  UdpTransport::Config cfg;
  cfg.base_port = 39130;
  UdpTransport t0(c0, 2, cfg), t1(c1, 2, cfg);
  int got = 0;
  t1.subscribe(Tag::kApp, [&](ProcessId, BytesView) { ++got; });
  t0.u_send(1, Tag::kApp, bytes_of("count me"));
  RealTimeRunner runner(engine);
  runner.add_pollable([&] { return t1.poll(); });
  ASSERT_TRUE(runner.run_until(std::chrono::milliseconds(500), [&] { return got > 0; }));
  EXPECT_EQ(m0->counter("udp.tx_datagrams"), 1);
  EXPECT_EQ(m0->counter("udp.tx_bytes"), 9);  // tag byte + 8 payload bytes
  EXPECT_EQ(m1->counter("udp.rx_datagrams"), 1);
  EXPECT_EQ(m1->counter("udp.rx_bytes"), 9);
  EXPECT_EQ(m1->counter("udp.rx_truncated_drops"), 0);
}

TEST(UdpErrorPaths, OversizedSendDroppedAndCounted) {
  sim::Engine engine;
  auto m0 = std::make_shared<Metrics>();
  sim::Context c0(0, engine, Rng(1), Logger(), m0);
  UdpTransport::Config cfg;
  cfg.base_port = 39134;
  cfg.max_datagram = 64;
  UdpTransport t0(c0, 1, cfg);
  t0.u_send(0, Tag::kApp, Bytes(63, 0x41));  // 63 + tag byte == limit: sent
  t0.u_send(0, Tag::kApp, Bytes(64, 0x42));  // one past: dropped
  EXPECT_EQ(m0->counter("udp.tx_datagrams"), 1);
  EXPECT_EQ(m0->counter("udp.tx_oversized_drops"), 1);
}

TEST(UdpErrorPaths, TruncatedDatagramDroppedAndCounted) {
  sim::Engine engine;
  auto m0 = std::make_shared<Metrics>();
  auto m1 = std::make_shared<Metrics>();
  sim::Context c0(0, engine, Rng(1), Logger(), m0);
  sim::Context c1(1, engine, Rng(2), Logger(), m1);
  UdpTransport::Config small;
  small.base_port = 39136;
  small.recv_buffer = 16;  // anything longer arrives cut short
  UdpTransport t1(c1, 2, small);
  UdpTransport::Config cfg;
  cfg.base_port = 39136;
  UdpTransport t0(c0, 2, cfg);
  int got = 0;
  t1.subscribe(Tag::kApp, [&](ProcessId, BytesView) { ++got; });
  t0.u_send(1, Tag::kApp, Bytes(100, 0x55));  // > t1's receive buffer
  t0.u_send(1, Tag::kApp, bytes_of("fits"));
  RealTimeRunner runner(engine);
  runner.add_pollable([&] { return t1.poll(); });
  ASSERT_TRUE(runner.run_until(std::chrono::milliseconds(500), [&] { return got > 0; }));
  EXPECT_EQ(got, 1);  // only the small datagram was dispatched
  EXPECT_EQ(m1->counter("udp.rx_truncated_drops"), 1);
  EXPECT_EQ(m1->counter("udp.rx_datagrams"), 1);
}

TEST(UdpErrorPaths, UnknownTagCounted) {
  sim::Engine engine;
  auto m0 = std::make_shared<Metrics>();
  auto m1 = std::make_shared<Metrics>();
  sim::Context c0(0, engine, Rng(1), Logger(), m0);
  sim::Context c1(1, engine, Rng(2), Logger(), m1);
  UdpTransport::Config cfg;
  cfg.base_port = 39138;
  UdpTransport t0(c0, 2, cfg), t1(c1, 2, cfg);
  // No subscriber for kApp on t1.
  t0.u_send(1, Tag::kApp, bytes_of("to nowhere"));
  RealTimeRunner runner(engine);
  runner.add_pollable([&] { return t1.poll(); });
  runner.run_until(std::chrono::milliseconds(500),
                   [&] { return m1->counter("udp.rx_unknown_tag") > 0; });
  EXPECT_EQ(m1->counter("udp.rx_unknown_tag"), 1);
  EXPECT_EQ(m1->counter("udp.rx_datagrams"), 1);  // received, then dropped
}

TEST(UdpErrorPaths, UnknownPeerCounted) {
  sim::Engine engine;
  auto m1 = std::make_shared<Metrics>();
  sim::Context c1(1, engine, Rng(2), Logger(), m1);
  UdpTransport::Config cfg;
  cfg.base_port = 39142;
  UdpTransport t1(c1, 2, cfg);
  int got = 0;
  t1.subscribe(Tag::kApp, [&](ProcessId, BytesView) { ++got; });
  // A datagram from an ephemeral source port — outside base_port..+n-1, so
  // no universe member maps to it.
  StatsSender rogue("127.0.0.1", static_cast<std::uint16_t>(39142 + 1));
  Bytes payload;
  payload.push_back(static_cast<std::uint8_t>(Tag::kApp));
  for (char c : std::string("intruder")) payload.push_back(static_cast<std::uint8_t>(c));
  ASSERT_TRUE(rogue.send(BytesView(payload.data(), payload.size())));
  RealTimeRunner runner(engine);
  runner.add_pollable([&] { return t1.poll(); });
  runner.run_until(std::chrono::milliseconds(500),
                   [&] { return m1->counter("udp.rx_unknown_peer") > 0; });
  EXPECT_EQ(m1->counter("udp.rx_unknown_peer"), 1);
  EXPECT_EQ(got, 0);
}

TEST(UdpErrorPaths, KilledTransportGoesSilent) {
  sim::Engine engine;
  auto m0 = std::make_shared<Metrics>();
  auto m1 = std::make_shared<Metrics>();
  sim::Context c0(0, engine, Rng(1), Logger(), m0);
  sim::Context c1(1, engine, Rng(2), Logger(), m1);
  UdpTransport::Config cfg;
  cfg.base_port = 39144;
  UdpTransport t0(c0, 2, cfg), t1(c1, 2, cfg);
  int got = 0;
  t1.subscribe(Tag::kApp, [&](ProcessId, BytesView) { ++got; });
  t1.kill();
  t0.u_send(1, Tag::kApp, bytes_of("into the void"));
  RealTimeRunner runner(engine);
  runner.add_pollable([&] { return t1.poll(); });
  runner.run_for(std::chrono::milliseconds(100));
  EXPECT_EQ(got, 0);
  EXPECT_EQ(m1->counter("udp.rx_datagrams"), 0);
  t1.u_send(0, Tag::kApp, bytes_of("also dropped"));
  EXPECT_EQ(m1->counter("udp.tx_datagrams"), 0);
}

TEST(UdpErrorPaths, KilledInsideAnUpcallSendsNothing) {
  sim::Engine engine;
  auto m0 = std::make_shared<Metrics>();
  auto m1 = std::make_shared<Metrics>();
  sim::Context c0(0, engine, Rng(1), Logger(), m0);
  sim::Context c1(1, engine, Rng(2), Logger(), m1);
  UdpTransport::Config cfg;
  cfg.base_port = 39174;
  UdpTransport t0(c0, 2, cfg), t1(c1, 2, cfg);
  int at_t0 = 0;
  int at_t1 = 0;
  t1.subscribe(Tag::kApp, [&](ProcessId, BytesView) { ++at_t1; });
  t0.subscribe(Tag::kApp, [&](ProcessId, BytesView) {
    ++at_t0;
    t0.u_send(1, Tag::kApp, bytes_of("batched"));
    t0.u_send(0, Tag::kApp, bytes_of("to self"));
    t0.kill();  // crashes with a batch and a local datagram queued
  });
  t1.u_send(0, Tag::kApp, bytes_of("go"));
  RealTimeRunner runner(engine);
  runner.add_pollable([&] { return t0.poll() + t1.poll(); });
  ASSERT_TRUE(runner.run_until(std::chrono::milliseconds(500), [&] { return at_t0 > 0; }));
  runner.run_for(std::chrono::milliseconds(100));
  EXPECT_EQ(at_t0, 1);  // the self-datagram was never dispatched
  EXPECT_EQ(at_t1, 0);  // the batch never left
  EXPECT_EQ(m1->counter("udp.rx_datagrams"), 0);
  EXPECT_EQ(t0.poll(), 0);
}

// ---------------------------------------------------------------------------
// runner loop health + wall-clock telemetry publishing

TEST(RealTime, RunnerLoopHealthCounters) {
  sim::Engine engine;
  RealTimeRunner runner(engine);
  runner.run_for(std::chrono::milliseconds(50));
  EXPECT_GT(runner.iterations(), 0u);
  // An empty loop is all idle sleeps.
  EXPECT_GT(runner.idle_sleeps(), 0u);
  EXPECT_LE(runner.idle_sleeps(), runner.iterations());

  obs::Telemetry telemetry;
  telemetry.register_process(0, std::make_shared<Metrics>());
  runner.attach_telemetry(telemetry, 0);
  const obs::Snapshot s = telemetry.snapshot(0, 0);
  EXPECT_DOUBLE_EQ(s.gauge("rt.loop_iterations"),
                   static_cast<double>(runner.iterations()));
  EXPECT_DOUBLE_EQ(s.gauge("rt.idle_sleeps"),
                   static_cast<double>(runner.idle_sleeps()));
  EXPECT_GE(s.gauge("rt.max_timer_lag_us", -1), 0.0);
}

TEST(RealTime, WallClockCadencePublishesFrames) {
  sim::Engine engine;
  RealTimeRunner runner(engine);
  obs::Telemetry telemetry;
  auto metrics = std::make_shared<Metrics>();
  metrics->inc("x", 1);
  telemetry.register_process(0, metrics);
  std::vector<obs::Snapshot> frames;
  telemetry.add_sink([&](const obs::Snapshot& s, BytesView) { frames.push_back(s); });
  runner.publish_telemetry(telemetry, std::chrono::milliseconds(20));
  runner.run_for(std::chrono::milliseconds(150));
  // ~7 cadences in 150ms; scheduling jitter tolerated, but frames flowed.
  EXPECT_GE(frames.size(), 3u);
  for (std::size_t i = 1; i < frames.size(); ++i) {
    EXPECT_EQ(frames[i].seq, frames[i - 1].seq + 1);
    EXPECT_GE(frames[i].ts, frames[i - 1].ts);
  }
}

TEST(RealTime, StatsSocketRoundTrip) {
  StatsReceiver rx("127.0.0.1", 39146);
  StatsSender tx("127.0.0.1", 39146);
  obs::Snapshot s;
  s.proc = 3;
  s.seq = 9;
  s.counters.push_back({"a.b", 42});
  const Bytes frame = obs::encode_snapshot(s);
  ASSERT_TRUE(tx.send(BytesView(frame.data(), frame.size())));
  Bytes got;
  ASSERT_TRUE(rx.recv(got, 1000));
  EXPECT_EQ(got, frame);
  const auto back = obs::decode_snapshot(BytesView(got.data(), got.size()));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->proc, 3);
  EXPECT_EQ(back->counter("a.b"), 42);
  EXPECT_EQ(tx.sent(), 1u);
  EXPECT_EQ(rx.received(), 1u);
}

}  // namespace
}  // namespace gcs::rt
