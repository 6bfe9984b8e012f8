#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "channel/reliable_channel.hpp"
#include "sim/context.hpp"
#include "sim/network.hpp"
#include "transport/sim_transport.hpp"
#include "util/codec.hpp"
#include "tests/test_util.hpp"

namespace gcs {
namespace {

using test::bytes_of;
using test::str_of;

/// Minimal two-(or more-)process harness at the channel layer.
struct ChannelWorld {
  sim::Engine engine;
  sim::Network network;
  struct Proc {
    std::unique_ptr<sim::Context> ctx;
    std::unique_ptr<SimTransport> transport;
    std::unique_ptr<ReliableChannel> channel;
    std::vector<std::pair<ProcessId, std::string>> received;
  };
  std::vector<Proc> procs;

  ChannelWorld(int n, sim::LinkModel link, ReliableChannel::Config cfg = {},
               std::uint64_t seed = 1)
      : network(engine, n, link, seed) {
    procs.resize(static_cast<std::size_t>(n));
    for (ProcessId p = 0; p < n; ++p) {
      auto& proc = procs[static_cast<std::size_t>(p)];
      proc.ctx = std::make_unique<sim::Context>(p, engine, Rng(seed + static_cast<std::uint64_t>(p)),
                                                Logger(), std::make_shared<Metrics>());
      proc.transport = std::make_unique<SimTransport>(*proc.ctx, network);
      proc.channel = std::make_unique<ReliableChannel>(*proc.ctx, *proc.transport, cfg);
      proc.channel->subscribe(Tag::kApp, [&proc](ProcessId from, BytesView b) {
        proc.received.emplace_back(from, str_of(b));
      });
    }
  }
};

TEST(ReliableChannel, BasicDelivery) {
  ChannelWorld w(2, sim::LinkModel{usec(200), 0, 0.0});
  w.procs[0].channel->send(1, Tag::kApp, bytes_of("hi"));
  w.engine.run_until(msec(10));
  ASSERT_EQ(w.procs[1].received.size(), 1u);
  EXPECT_EQ(w.procs[1].received[0], std::make_pair(ProcessId{0}, std::string("hi")));
}

TEST(ReliableChannel, SelfDelivery) {
  ChannelWorld w(1, sim::LinkModel{});
  w.procs[0].channel->send(0, Tag::kApp, bytes_of("loop"));
  w.engine.run_until(msec(1));
  ASSERT_EQ(w.procs[0].received.size(), 1u);
  EXPECT_EQ(w.procs[0].received[0].second, "loop");
}

TEST(ReliableChannel, FifoOrderUnderJitter) {
  // Heavy jitter reorders datagrams; the channel must deliver in order.
  ChannelWorld w(2, sim::LinkModel{usec(100), usec(2000), 0.0});
  for (int i = 0; i < 50; ++i) {
    w.procs[0].channel->send(1, Tag::kApp, bytes_of(std::to_string(i)));
  }
  w.engine.run_until(msec(100));
  ASSERT_EQ(w.procs[1].received.size(), 50u);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(w.procs[1].received[static_cast<std::size_t>(i)].second, std::to_string(i));
  }
}

TEST(ReliableChannel, SurvivesHeavyLoss) {
  ChannelWorld w(2, sim::LinkModel{usec(200), usec(100), 0.4},
                 ReliableChannel::Config{msec(5)});
  for (int i = 0; i < 30; ++i) {
    w.procs[0].channel->send(1, Tag::kApp, bytes_of(std::to_string(i)));
  }
  const bool done = test::run_until(w.engine, sec(10),
                                    [&] { return w.procs[1].received.size() == 30; });
  ASSERT_TRUE(done);
  for (int i = 0; i < 30; ++i) {
    EXPECT_EQ(w.procs[1].received[static_cast<std::size_t>(i)].second, std::to_string(i));
  }
  EXPECT_GT(w.procs[0].ctx->metrics().counter("channel.retransmits"), 0);
}

TEST(ReliableChannel, NoDuplicatesUnderRetransmission) {
  // Perfect link + aggressive rto: retransmissions happen but must not
  // surface as duplicates.
  ChannelWorld w(2, sim::LinkModel{msec(8), 0, 0.0}, ReliableChannel::Config{msec(2)});
  w.procs[0].channel->send(1, Tag::kApp, bytes_of("once"));
  w.engine.run_until(msec(100));
  EXPECT_EQ(w.procs[1].received.size(), 1u);
}

TEST(ReliableChannel, BidirectionalTraffic) {
  ChannelWorld w(2, sim::LinkModel{usec(300), usec(200), 0.1});
  for (int i = 0; i < 20; ++i) {
    w.procs[0].channel->send(1, Tag::kApp, bytes_of("a" + std::to_string(i)));
    w.procs[1].channel->send(0, Tag::kApp, bytes_of("b" + std::to_string(i)));
  }
  const bool done = test::run_until(w.engine, sec(5), [&] {
    return w.procs[0].received.size() == 20 && w.procs[1].received.size() == 20;
  });
  EXPECT_TRUE(done);
}

TEST(ReliableChannel, TagMultiplexing) {
  ChannelWorld w(2, sim::LinkModel{});
  std::vector<std::string> fd_msgs;
  w.procs[1].channel->subscribe(Tag::kConsensus, [&](ProcessId, BytesView b) {
    fd_msgs.push_back(str_of(b));
  });
  w.procs[0].channel->send(1, Tag::kApp, bytes_of("app"));
  w.procs[0].channel->send(1, Tag::kConsensus, bytes_of("cons"));
  w.engine.run_until(msec(10));
  ASSERT_EQ(w.procs[1].received.size(), 1u);
  EXPECT_EQ(w.procs[1].received[0].second, "app");
  ASSERT_EQ(fd_msgs.size(), 1u);
  EXPECT_EQ(fd_msgs[0], "cons");
}

TEST(ReliableChannel, OutputBufferAgeGrowsForDeadPeer) {
  ChannelWorld w(2, sim::LinkModel{usec(200), 0, 0.0});
  w.network.crash(1);
  w.procs[0].channel->send(1, Tag::kApp, bytes_of("never"));
  w.engine.run_until(sec(1));
  EXPECT_EQ(w.procs[0].channel->unacked_count(1), 1u);
  EXPECT_GE(w.procs[0].channel->oldest_unacked_age(1), sec(1) - msec(1));
}

TEST(ReliableChannel, OutputBufferDrainsForLivePeer) {
  ChannelWorld w(2, sim::LinkModel{usec(200), 0, 0.0});
  w.procs[0].channel->send(1, Tag::kApp, bytes_of("x"));
  w.engine.run_until(msec(50));
  EXPECT_EQ(w.procs[0].channel->unacked_count(1), 0u);
  EXPECT_EQ(w.procs[0].channel->oldest_unacked_age(1), 0);
}

TEST(ReliableChannel, ForgetReleasesBuffer) {
  ChannelWorld w(2, sim::LinkModel{usec(200), 0, 0.0});
  w.network.crash(1);
  w.procs[0].channel->send(1, Tag::kApp, bytes_of("never"));
  w.engine.run_until(msec(100));
  w.procs[0].channel->forget(1);
  EXPECT_EQ(w.procs[0].channel->unacked_count(1), 0u);
  EXPECT_EQ(w.procs[0].channel->oldest_unacked_age(1), 0);
  // Retransmission timer must eventually quiesce for the forgotten peer.
  const auto before = w.procs[0].ctx->metrics().counter("channel.retransmits");
  w.engine.run_until(msec(300));
  const auto after = w.procs[0].ctx->metrics().counter("channel.retransmits");
  EXPECT_EQ(before, after);
}

TEST(ReliableChannel, ManyPeers) {
  const int n = 8;
  ChannelWorld w(n, sim::LinkModel{usec(300), usec(300), 0.2},
                 ReliableChannel::Config{msec(5)});
  for (ProcessId from = 0; from < n; ++from) {
    for (ProcessId to = 0; to < n; ++to) {
      if (from == to) continue;
      w.procs[static_cast<std::size_t>(from)].channel->send(to, Tag::kApp, bytes_of("m"));
    }
  }
  const bool done = test::run_until(w.engine, sec(10), [&] {
    for (auto& p : w.procs) {
      if (p.received.size() != static_cast<std::size_t>(n - 1)) return false;
    }
    return true;
  });
  EXPECT_TRUE(done);
}

TEST(ReliableChannel, TwoWayTrafficPiggybacksAcks) {
  // Steady traffic both ways: every ack rides a data frame going back, so
  // standalone acks are limited to the tail of the run.
  ChannelWorld w(2, sim::LinkModel{usec(200), usec(100), 0.0});
  for (int i = 0; i < 1000; ++i) {
    w.procs[0].channel->send(1, Tag::kApp, bytes_of("a"));
    w.procs[1].channel->send(0, Tag::kApp, bytes_of("b"));
    w.engine.run_until(w.engine.now() + usec(100));
  }
  ASSERT_TRUE(test::run_until(w.engine, sec(1), [&] {
    return w.procs[0].channel->unacked_count(1) == 0 &&
           w.procs[1].channel->unacked_count(0) == 0;
  }));
  for (auto& p : w.procs) {
    ASSERT_EQ(p.received.size(), 1000u);
    EXPECT_LE(p.channel->acks_sent() * 20, p.channel->datagrams_sent())
        << "standalone acks above 5% of data frames";
    EXPECT_EQ(p.ctx->metrics().counter("channel.retransmits"), 0);
  }
}

TEST(ReliableChannel, OneWayTrafficAcksOncePerHold) {
  // Nothing flows back to carry the acks, so the receiver sends standalone
  // ones, but at most one per hold (rto/8), not one per data frame.
  const ReliableChannel::Config cfg;
  const Duration hold = cfg.rto / 8;
  ChannelWorld w(2, sim::LinkModel{usec(200), usec(100), 0.0}, cfg);
  const Duration span = msec(200);
  while (w.engine.now() < span) {
    w.procs[0].channel->send(1, Tag::kApp, bytes_of("x"));
    w.engine.run_until(w.engine.now() + usec(100));
  }
  ASSERT_TRUE(test::run_until(w.engine, sec(1),
                              [&] { return w.procs[0].channel->unacked_count(1) == 0; }));
  const std::int64_t frames = w.procs[0].channel->datagrams_sent();
  const std::int64_t acks = w.procs[1].channel->acks_sent();
  EXPECT_EQ(static_cast<std::int64_t>(w.procs[1].received.size()), frames);
  EXPECT_GE(acks, 1);
  EXPECT_LE(acks, span / hold + 2);
  EXPECT_EQ(w.procs[0].ctx->metrics().counter("channel.retransmits"), 0);
}

TEST(ReliableChannel, LostPiggybackedAckIsResentOnDuplicate) {
  // Everything from 1 to 0 is lost until the link heals at 10 ms. By then 1
  // has received all 50 messages and carried its cumulative ack on a data
  // frame of its own, so it owes nothing. The sender's retransmission at
  // one rto (20 ms) reaches 1 as a duplicate, which must make 1 ack again
  // at once; waiting for 1's own retransmission (25 ms) is too late.
  ChannelWorld w(2, sim::LinkModel{usec(200), 0, 0.0});
  w.network.set_link(1, 0, sim::LinkModel{usec(200), 0, 1.0});
  for (int i = 0; i < 50; ++i) {
    w.procs[0].channel->send(1, Tag::kApp, bytes_of(std::to_string(i)));
    w.engine.run_until(w.engine.now() + usec(100));
  }
  w.engine.run_until(msec(5) + usec(150));
  ASSERT_EQ(w.procs[1].received.size(), 50u);
  const std::int64_t acks = w.procs[1].channel->acks_sent();
  w.procs[1].channel->send(0, Tag::kApp, bytes_of("reply"));  // carries the ack; lost
  w.engine.run_until(msec(10));
  EXPECT_EQ(w.procs[1].channel->acks_sent(), acks);
  EXPECT_EQ(w.procs[0].channel->unacked_count(1), 50u);
  w.network.set_link(1, 0, sim::LinkModel{usec(200), 0, 0.0});
  ASSERT_TRUE(test::run_until(w.engine, msec(12),
                              [&] { return w.procs[0].channel->unacked_count(1) == 0; }));
  EXPECT_EQ(w.procs[1].channel->acks_sent(), acks + 1);
  EXPECT_EQ(w.procs[1].received.size(), 50u);
}

/// Forwards to a SimTransport and records the largest datagram sent.
struct RecordingTransport final : Transport {
  SimTransport& inner;
  std::size_t largest = 0;
  std::int64_t datagrams = 0;

  explicit RecordingTransport(SimTransport& t) : inner(t) {}
  ProcessId self() const override { return inner.self(); }
  int universe_size() const override { return inner.universe_size(); }
  void u_send(ProcessId to, Tag tag, const Bytes& payload) override {
    largest = std::max(largest, payload.size() + 1);  // plus the tag byte
    ++datagrams;
    inner.u_send(to, tag, payload);
  }
  void subscribe(Tag tag, Handler handler) override { inner.subscribe(tag, std::move(handler)); }
};

TEST(ReliableChannel, RetransmitBatchesFitTheDatagramLimit) {
  // 1,000 x 1 KiB unacked to a silent peer: the retransmission after one
  // rto packs ~1 MB, which must split into datagrams the transport can
  // carry instead of one frame UDP would drop.
  sim::Engine engine;
  sim::Network network(engine, 2, sim::LinkModel{usec(200), 0, 0.0}, 1);
  sim::Context ctx(0, engine, Rng(1), Logger(), std::make_shared<Metrics>());
  SimTransport sim_transport(ctx, network);
  RecordingTransport transport(sim_transport);
  ReliableChannel channel(ctx, transport);
  network.crash(1);
  const Bytes kib(1024, 0x5a);
  for (int i = 0; i < 1000; ++i) channel.send(1, Tag::kApp, kib);
  EXPECT_EQ(transport.datagrams, 1000);
  transport.largest = 0;
  transport.datagrams = 0;
  engine.run_until(ReliableChannel::Config{}.rto + msec(1));
  EXPECT_EQ(ctx.metrics().counter("channel.retransmits"), 1000);
  EXPECT_GT(transport.datagrams, 1000 * 1024 / static_cast<std::int64_t>(kMaxUdpDatagram));
  EXPECT_LE(transport.largest, transport.max_datagram());
  EXPECT_EQ(channel.unacked_count(1), 1000u);
}


TEST(ReliableChannel, RetransmissionBacksOffTowardSilentPeer) {
  // One frame to a dead peer for 2 s: the period doubles per expiry up to
  // kMaxBackoff rtos, so the expiries land at rto * (2^i - 1) until the
  // cap, then every cap period — not at every one of the ~100 ticks.
  const ReliableChannel::Config cfg;
  ChannelWorld w(2, sim::LinkModel{usec(200), 0, 0.0}, cfg);
  w.network.crash(1);
  w.procs[0].channel->send(1, Tag::kApp, bytes_of("never"));
  const Duration span = sec(2);
  w.engine.run_until(span);
  int doubling_rounds = 0;  // ceil(log2(cap))
  for (int b = 1; b < 64; b *= 2) ++doubling_rounds;
  const Duration capped_from = cfg.rto * 63;  // last doubling expiry
  const std::int64_t capped_tail = (span - capped_from + cfg.rto * 64 - 1) / (cfg.rto * 64);
  const std::int64_t retransmits = w.procs[0].ctx->metrics().counter("channel.retransmits");
  EXPECT_GE(retransmits, doubling_rounds);
  EXPECT_LE(retransmits, doubling_rounds + capped_tail);
  // Backoff never rewrites first_sent: the age still feeds output-triggered
  // suspicion with its original meaning.
  EXPECT_EQ(w.procs[0].channel->oldest_unacked_age(1), span);
}

TEST(ReliableChannel, SuspectedPeerGetsOneProbePerPeriod) {
  // 100 frames to a suspected peer: each expiry resends only the oldest.
  // Nothing is dropped: exclusion (forget), not suspicion, voids them.
  const ReliableChannel::Config cfg;
  ChannelWorld w(2, sim::LinkModel{usec(200), 0, 0.0}, cfg);
  w.network.crash(1);
  w.procs[0].channel->suspect(1);
  for (int i = 0; i < 100; ++i) w.procs[0].channel->send(1, Tag::kApp, bytes_of("x"));
  w.engine.run_until(sec(2));
  const std::int64_t retransmits = w.procs[0].ctx->metrics().counter("channel.retransmits");
  EXPECT_GE(retransmits, 6);
  EXPECT_LE(retransmits, 7);
  EXPECT_EQ(w.procs[0].channel->unacked_count(1), 100u);
  EXPECT_EQ(w.procs[0].channel->oldest_unacked_age(1), sec(2));
}

TEST(ReliableChannel, RestoreResendsWithinOneTick) {
  // A link down long enough to back off to the cap heals; the FD's restore
  // must repair the channel at once, not after the next capped period.
  const ReliableChannel::Config cfg;
  ChannelWorld w(2, sim::LinkModel{usec(200), 0, 0.0}, cfg);
  w.network.set_link(0, 1, sim::LinkModel{usec(200), 0, 1.0});
  w.procs[0].channel->suspect(1);
  for (int i = 0; i < 10; ++i) w.procs[0].channel->send(1, Tag::kApp, bytes_of("x"));
  w.engine.run_until(sec(2));
  ASSERT_EQ(w.procs[1].received.size(), 0u);
  w.network.set_link(0, 1, sim::LinkModel{usec(200), 0, 0.0});
  const std::int64_t before = w.procs[0].ctx->metrics().counter("channel.retransmits");
  w.procs[0].channel->restore(1);
  EXPECT_EQ(w.procs[0].ctx->metrics().counter("channel.retransmits"), before + 10);
  w.engine.run_until(w.engine.now() + cfg.rto);
  EXPECT_EQ(w.procs[1].received.size(), 10u);
  EXPECT_EQ(w.procs[0].channel->unacked_count(1), 0u);
}

/// Forwards to a SimTransport but drops the datagrams whose send index
/// (0-based) is listed.
struct DroppingTransport final : Transport {
  SimTransport& inner;
  std::vector<std::int64_t> drop;
  std::int64_t sent = 0;

  DroppingTransport(SimTransport& t, std::vector<std::int64_t> d)
      : inner(t), drop(std::move(d)) {}
  ProcessId self() const override { return inner.self(); }
  int universe_size() const override { return inner.universe_size(); }
  void u_send(ProcessId to, Tag tag, const Bytes& payload) override {
    if (std::find(drop.begin(), drop.end(), sent++) == drop.end()) inner.u_send(to, tag, payload);
  }
  void subscribe(Tag tag, Handler handler) override { inner.subscribe(tag, std::move(handler)); }
};

TEST(ReliableChannel, SackResendsOnlyTheLostFrame) {
  // 1,000 frames in flight, the first one lost: the receiver holds 999
  // above its ack and reports them in a SACK, so exactly one frame goes
  // again — not the whole window.
  sim::Engine engine;
  sim::Network network(engine, 2, sim::LinkModel{usec(200), 0, 0.0}, 1);
  sim::Context ctx0(0, engine, Rng(1), Logger(), std::make_shared<Metrics>());
  sim::Context ctx1(1, engine, Rng(2), Logger(), std::make_shared<Metrics>());
  SimTransport t0(ctx0, network);
  SimTransport t1(ctx1, network);
  DroppingTransport lossy(t0, {0});
  ReliableChannel sender(ctx0, lossy);
  ReliableChannel receiver(ctx1, t1);
  std::vector<std::string> got;
  receiver.subscribe(Tag::kApp, [&got](ProcessId, BytesView b) { got.push_back(str_of(b)); });
  for (int i = 0; i < 1000; ++i) sender.send(1, Tag::kApp, bytes_of(std::to_string(i)));
  ASSERT_TRUE(test::run_until(engine, sec(1), [&] { return sender.unacked_count(1) == 0; }));
  EXPECT_EQ(ctx0.metrics().counter("channel.retransmits"), 1);
  EXPECT_GE(receiver.sacks_sent(), 1);
  ASSERT_EQ(got.size(), 1000u);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(got[static_cast<std::size_t>(i)], std::to_string(i));
}

TEST(ReliableChannel, JitterReorderingSendsNoSack) {
  // Reordering shorter than the ack hold is not loss: no SACK bytes, no
  // retransmissions, and the frames still arrive in order.
  ChannelWorld w(2, sim::LinkModel{usec(100), usec(2000), 0.0});
  for (int i = 0; i < 1000; ++i) {
    w.procs[0].channel->send(1, Tag::kApp, bytes_of(std::to_string(i)));
    w.engine.run_until(w.engine.now() + usec(20));
  }
  ASSERT_TRUE(test::run_until(w.engine, sec(1),
                              [&] { return w.procs[0].channel->unacked_count(1) == 0; }));
  ASSERT_EQ(w.procs[1].received.size(), 1000u);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(w.procs[1].received[static_cast<std::size_t>(i)].second, std::to_string(i));
  }
  EXPECT_EQ(w.procs[1].channel->sacks_sent(), 0);
  EXPECT_EQ(w.procs[0].ctx->metrics().counter("channel.retransmits"), 0);
}

TEST(ReliableChannel, ForgottenPeerSkipsVoidedSeqs) {
  // 0 excludes 1 (forget) with frames unacked. When 1 is back, 0's new
  // frames carry a floor past the voided seqs, so 1 delivers them instead
  // of waiting on seq 0 forever.
  ChannelWorld w(2, sim::LinkModel{usec(200), 0, 0.0});
  w.network.set_link(0, 1, sim::LinkModel{usec(200), 0, 1.0});
  for (int i = 0; i < 5; ++i) w.procs[0].channel->send(1, Tag::kApp, bytes_of("void"));
  w.engine.run_until(msec(50));
  w.procs[0].channel->forget(1);
  w.network.set_link(0, 1, sim::LinkModel{usec(200), 0, 0.0});
  w.procs[0].channel->send(1, Tag::kApp, bytes_of("after"));
  ASSERT_TRUE(test::run_until(w.engine, sec(1),
                              [&] { return w.procs[0].channel->unacked_count(1) == 0; }));
  ASSERT_EQ(w.procs[1].received.size(), 1u);
  EXPECT_EQ(w.procs[1].received[0].second, "after");
}

/// A transport driven by hand: the test plays the peer, handing crafted
/// channel frames to the receiver.
struct HandTransport final : Transport {
  Handler handler;
  ProcessId self() const override { return 1; }
  int universe_size() const override { return 2; }
  void u_send(ProcessId, Tag, const Bytes&) override {}
  void subscribe(Tag tag, Handler h) override {
    if (tag == Tag::kChannel) handler = std::move(h);
  }
};

/// A kData frame from the hand-played peer: kind | ack | [floor] | seq |
/// upper | body (see reliable_channel.cpp).
Bytes data_frame(std::uint64_t seq, const std::string& body, std::uint64_t floor = 0) {
  Encoder enc;
  enc.put_byte(floor > 0 ? 0x20 : 0x00);
  enc.put_u64(0);
  if (floor > 0) enc.put_u64(floor);
  enc.put_u64(seq);
  enc.put_byte(static_cast<std::uint8_t>(Tag::kApp));
  enc.put_bytes(bytes_of(body));
  return enc.take();
}

struct HandWorld {
  sim::Engine engine;
  sim::Context ctx{1, engine, Rng(1), Logger(), std::make_shared<Metrics>()};
  HandTransport transport;
  ReliableChannel channel;
  std::vector<std::string> got;

  explicit HandWorld(ReliableChannel::Config cfg = {}) : channel(ctx, transport, cfg) {
    channel.subscribe(Tag::kApp, [this](ProcessId, BytesView b) { got.push_back(str_of(b)); });
  }
  /// Hand \p frame over as a datagram, from one receive buffer that is
  /// overwritten once the call returns (as UdpTransport reuses its own).
  void arrive(const Bytes& frame) {
    rx = frame;
    transport.handler(0, BytesView(rx));
    std::fill(rx.begin(), rx.end(), std::uint8_t{'x'});
  }
  Bytes rx;
};

TEST(ReliableChannel, HeldFramesAreCopiedAndDeliverInOrder) {
  // Held frames must outlive the receive buffer: each is a pooled copy,
  // and the copies are delivered FIFO once the gap fills.
  HandWorld w;
  w.arrive(data_frame(2, "two"));
  w.arrive(data_frame(1, "one"));
  EXPECT_TRUE(w.got.empty());
  EXPECT_EQ(w.channel.holdback_count(0), 2u);
  EXPECT_EQ(w.ctx.pool().size(), 2u);
  w.arrive(data_frame(0, "zero"));
  EXPECT_EQ(w.got, (std::vector<std::string>{"zero", "one", "two"}));
  EXPECT_EQ(w.channel.holdback_count(0), 0u);
  // The freed copies are reused, not reallocated.
  const std::size_t created = w.ctx.pool().size();
  w.arrive(data_frame(4, "four"));
  w.arrive(data_frame(5, "five"));
  w.arrive(data_frame(3, "three"));
  EXPECT_EQ(w.ctx.pool().size(), created);
  EXPECT_EQ(w.got.back(), "five");
  EXPECT_EQ(w.got.size(), 6u);
}

TEST(ReliableChannel, FloorJumpLandsOnAHeldSlot) {
  // Seq 5 is held; then a frame whose floor is 5 voids seqs 0..4. The
  // held frame now sits exactly at the new next_expected and is delivered
  // at once, and the seqs after it still wait for their own gaps.
  HandWorld w;
  w.arrive(data_frame(5, "five"));
  w.arrive(data_frame(7, "seven", /*floor=*/5));
  EXPECT_EQ(w.got, (std::vector<std::string>{"five"}));
  w.arrive(data_frame(6, "six"));
  EXPECT_EQ(w.got, (std::vector<std::string>{"five", "six", "seven"}));
  EXPECT_EQ(w.channel.holdback_count(0), 0u);
}

TEST(ReliableChannel, FrameBeyondTheHoldbackBoundIsResent) {
  // The receiver's holdback spans send_window = 4 seqs. The sender (no
  // window) loses seq 0 and sends 1..7: 1..3 are held, 4..7 lie beyond the
  // bound and are dropped unacked, so the sender resends them and every
  // frame is delivered once, in order.
  sim::Engine engine;
  sim::Network network(engine, 2, sim::LinkModel{usec(200), 0, 0.0}, 1);
  sim::Context ctx0(0, engine, Rng(1), Logger(), std::make_shared<Metrics>());
  sim::Context ctx1(1, engine, Rng(2), Logger(), std::make_shared<Metrics>());
  SimTransport t0(ctx0, network);
  SimTransport t1(ctx1, network);
  DroppingTransport lossy(t0, {0});
  ReliableChannel sender(ctx0, lossy);
  ReliableChannel::Config bounded;
  bounded.send_window = 4;
  ReliableChannel receiver(ctx1, t1, bounded);
  std::vector<std::string> got;
  receiver.subscribe(Tag::kApp, [&got](ProcessId, BytesView b) { got.push_back(str_of(b)); });
  for (int i = 0; i < 8; ++i) sender.send(1, Tag::kApp, bytes_of(std::to_string(i)));
  engine.run_until(msec(1));
  EXPECT_TRUE(got.empty());
  EXPECT_EQ(receiver.holdback_count(0), 3u);
  EXPECT_EQ(receiver.holdback_dropped(), 4);
  ASSERT_TRUE(test::run_until(engine, sec(1), [&] { return sender.unacked_count(1) == 0; }));
  ASSERT_EQ(got.size(), 8u);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(got[static_cast<std::size_t>(i)], std::to_string(i));
}

}  // namespace
}  // namespace gcs
