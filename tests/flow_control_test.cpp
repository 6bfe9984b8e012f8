/// Flow control in the reliable channel (the role Totem's middle layer
/// plays, paper Fig 4): a bounded send window with local queueing.
#include <gtest/gtest.h>

#include <memory>

#include "channel/reliable_channel.hpp"
#include "sim/context.hpp"
#include "sim/network.hpp"
#include "transport/sim_transport.hpp"
#include "tests/test_util.hpp"

namespace gcs {
namespace {

using test::bytes_of;
using test::str_of;

struct FlowWorld {
  sim::Engine engine;
  sim::Network network;
  sim::Context c0{0, engine, Rng(1), Logger(), std::make_shared<Metrics>()};
  sim::Context c1{1, engine, Rng(2), Logger(), std::make_shared<Metrics>()};
  SimTransport t0{c0, network};
  SimTransport t1{c1, network};
  ReliableChannel ch0;
  ReliableChannel ch1;
  std::vector<std::string> received;

  explicit FlowWorld(ReliableChannel::Config cfg, sim::LinkModel link = {})
      : network(engine, 2, link, 1), ch0(c0, t0, cfg), ch1(c1, t1, cfg) {
    ch1.subscribe(Tag::kApp, [this](ProcessId, BytesView b) {
      received.push_back(str_of(b));
    });
  }
};

TEST(FlowControl, WindowLimitsInFlightMessages) {
  ReliableChannel::Config cfg;
  cfg.send_window = 4;
  FlowWorld w(cfg, sim::LinkModel{msec(5), 0, 0.0});
  for (int i = 0; i < 20; ++i) w.ch0.send(1, Tag::kApp, bytes_of(std::to_string(i)));
  // Before anything is acked, only the window's worth is on the wire.
  EXPECT_EQ(w.ch0.queued_by_flow_control(1), 16u);
  EXPECT_EQ(w.ch0.unacked_count(1), 20u);
  // Everything drains eventually, in order.
  ASSERT_TRUE(test::run_until(w.engine, sec(10), [&] { return w.received.size() == 20; }));
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(w.received[static_cast<std::size_t>(i)], std::to_string(i));
  }
  EXPECT_EQ(w.ch0.queued_by_flow_control(1), 0u);
}

TEST(FlowControl, AcksOpenTheWindowProgressively) {
  ReliableChannel::Config cfg;
  cfg.send_window = 2;
  FlowWorld w(cfg, sim::LinkModel{msec(2), 0, 0.0});
  for (int i = 0; i < 6; ++i) w.ch0.send(1, Tag::kApp, bytes_of(std::to_string(i)));
  EXPECT_EQ(w.ch0.queued_by_flow_control(1), 4u);
  // One round trip acks the first two, releasing the next two.
  w.engine.run_until(msec(5));
  EXPECT_EQ(w.ch0.queued_by_flow_control(1), 2u);
  ASSERT_TRUE(test::run_until(w.engine, sec(5), [&] { return w.received.size() == 6; }));
}

TEST(FlowControl, DisabledWindowSendsImmediately) {
  ReliableChannel::Config cfg;  // send_window = 0: off
  FlowWorld w(cfg, sim::LinkModel{msec(5), 0, 0.0});
  for (int i = 0; i < 50; ++i) w.ch0.send(1, Tag::kApp, bytes_of("x"));
  EXPECT_EQ(w.ch0.queued_by_flow_control(1), 0u);
}

TEST(FlowControl, SurvivesLossWithinWindow) {
  ReliableChannel::Config cfg;
  cfg.send_window = 3;
  cfg.rto = msec(5);
  FlowWorld w(cfg, sim::LinkModel{usec(500), usec(300), 0.3});
  for (int i = 0; i < 25; ++i) w.ch0.send(1, Tag::kApp, bytes_of(std::to_string(i)));
  ASSERT_TRUE(test::run_until(w.engine, sec(30), [&] { return w.received.size() == 25; }));
  for (int i = 0; i < 25; ++i) {
    EXPECT_EQ(w.received[static_cast<std::size_t>(i)], std::to_string(i));
  }
}

TEST(FlowControl, OutputTriggeredAgeIgnoresQueuedMessages) {
  // Only transmitted-but-unacked messages count for output-triggered
  // suspicion; locally queued ones are our own doing, not the peer's.
  ReliableChannel::Config cfg;
  cfg.send_window = 1;
  FlowWorld w(cfg, sim::LinkModel{msec(2), 0, 0.0});
  w.network.crash(1);
  w.ch0.send(1, Tag::kApp, bytes_of("a"));  // transmitted, never acked
  w.ch0.send(1, Tag::kApp, bytes_of("b"));  // queued by flow control
  w.engine.run_until(msec(500));
  EXPECT_GE(w.ch0.oldest_unacked_age(1), msec(499));
  EXPECT_EQ(w.ch0.queued_by_flow_control(1), 1u);
  // forget() clears both in-flight and queued.
  w.ch0.forget(1);
  EXPECT_EQ(w.ch0.oldest_unacked_age(1), 0);
  EXPECT_EQ(w.ch0.queued_by_flow_control(1), 0u);
}

TEST(FlowControl, FullStackRunsWithWindowedChannels) {
  // The whole architecture works with small windows (higher latency under
  // bursts, same correctness).
  World::Config cfg;
  cfg.n = 4;
  cfg.seed = 8;
  cfg.stack.channel.send_window = 8;
  World w(cfg);
  std::vector<test::DeliveryLog> logs(4);
  for (ProcessId p = 0; p < 4; ++p) {
    w.stack(p).on_adeliver([&logs, p](const MsgId& id, const Bytes& b) {
      logs[static_cast<std::size_t>(p)].record(id, b);
    });
  }
  w.found_group_all();
  for (int i = 0; i < 20; ++i) {
    w.stack(static_cast<ProcessId>(i % 4)).abcast(bytes_of(std::to_string(i)));
  }
  ASSERT_TRUE(test::run_until(w.engine(), sec(60), [&] {
    for (auto& log : logs) {
      if (log.size() < 20) return false;
    }
    return true;
  }));
  for (ProcessId p = 1; p < 4; ++p) {
    EXPECT_EQ(logs[static_cast<std::size_t>(p)].order, logs[0].order);
  }
}

TEST(FlowControl, SendCostIsIndependentOfQueueDepth) {
  // Complexity bound for the first-unsent cursor: with 10k unacked messages
  // queued to a silent peer, each further send costs at most two transmit
  // scan steps (the cursor lookup plus the entry it sends), with and
  // without a send window, and again after forget(). Walking the whole
  // queue per send cost ~10k steps each here.
  for (const std::size_t window : {std::size_t{0}, std::size_t{64}}) {
    ReliableChannel::Config cfg;
    cfg.send_window = window;
    FlowWorld w(cfg, sim::LinkModel{msec(1), 0, 1.0});  // every datagram lost: no acks
    auto send = [&](int count) {
      for (int i = 0; i < count; ++i) w.ch0.send(1, Tag::kApp, bytes_of("x"));
    };
    const std::string label = "window " + std::to_string(window);
    send(10000);
    ASSERT_EQ(w.ch0.unacked_count(1), 10000u) << label;
    EXPECT_EQ(w.ch0.queued_by_flow_control(1), window == 0 ? 0u : 10000u - window) << label;
    const int kMore = 100;
    std::uint64_t before = w.ch0.pump_steps();
    send(kMore);
    EXPECT_LE(w.ch0.pump_steps() - before, 2u * kMore) << label;

    w.ch0.forget(1);
    EXPECT_EQ(w.ch0.queued_by_flow_control(1), 0u) << label;
    before = w.ch0.pump_steps();
    send(kMore);
    EXPECT_LE(w.ch0.pump_steps() - before, 2u * kMore) << label << ", after forget";
    EXPECT_EQ(w.ch0.unacked_count(1), static_cast<std::size_t>(kMore)) << label;
    EXPECT_EQ(w.ch0.queued_by_flow_control(1), window == 0 ? 0u : kMore - window) << label;
  }
}

}  // namespace
}  // namespace gcs
