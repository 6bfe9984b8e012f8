/// Uniform agreement over O(n) dissemination (DESIGN.md §12).
///
/// Both substrates send each payload once, from its origin, and nobody
/// relays in the fault-free case. Uniformity rests on these mechanisms,
/// and each test below fails without the one it names:
///   - atomic broadcast's consensus admission gate: a member votes only for
///     batches whose payloads it holds, so a decision implies a majority of
///     holders;
///   - generic broadcast's holder count: a resolution delivers an id only
///     if f+1 reports list it (the fast path needs a quorum of holders'
///     ACKs, its own included);
///   - retention: a holder keeps an origin's frames until the origin's
///     channel acks say every member has them (W_o);
///   - relay on suspicion: a holder hands retained frames on when it
///     suspects their origin.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "broadcast/reliable_broadcast.hpp"
#include "core/stack.hpp"
#include "obs/telemetry.hpp"
#include "tests/test_util.hpp"
#include "transport/sim_transport.hpp"

namespace gcs {
namespace {

using test::bytes_of;
using test::str_of;

constexpr sim::LinkModel kLan{usec(300), usec(100), 0.0};
constexpr sim::LinkModel kCut{usec(300), 0, 1.0};

World::Config stack_config(int n, StackConfig::ConsensusAlgo algo) {
  World::Config c;
  c.n = n;
  c.link = kLan;
  c.seed = 7;
  c.stack.consensus_algorithm = algo;
  // No exclusions within these runs: only suspicion may trigger relays.
  c.stack.monitoring.exclusion_timeout = sec(60);
  return c;
}

/// Per-process adelivery log of payload strings.
struct Log {
  std::vector<std::vector<std::string>> delivered;
  explicit Log(World& w) : delivered(static_cast<std::size_t>(w.size())) {
    for (ProcessId p = 0; p < w.size(); ++p) {
      w.stack(p).on_adeliver([this, p](const MsgId&, const Bytes& b) {
        delivered[static_cast<std::size_t>(p)].push_back(str_of(b));
      });
    }
  }
  int count(ProcessId p, const std::string& s) const {
    const auto& d = delivered[static_cast<std::size_t>(p)];
    return static_cast<int>(std::count(d.begin(), d.end(), s));
  }
};

std::int64_t deferred_votes(World& w) {
  std::int64_t n = 0;
  for (ProcessId p = 0; p < w.size(); ++p) {
    n += w.stack(p).metrics().counter("consensus.deferred_votes");
  }
  return n;
}

/// Origin p4 reaches only \p receiver, then crashes. The receiver is a
/// correct holder, so every correct member must deliver the message (and
/// the group must stay live); the others' votes wait until the receiver's
/// relay, triggered by suspecting p4, brings them the payload.
void partial_send_then_crash(StackConfig::ConsensusAlgo algo, ProcessId receiver) {
  World w(stack_config(5, algo));
  Log log(w);
  w.found_group_all();
  w.run_for(msec(50));
  const ProcessId origin = 4;
  for (ProcessId q = 0; q < 4; ++q) {
    if (q != receiver) w.network().set_link(origin, q, kCut);
  }
  // The crash follows at once: the frame to the receiver is already in
  // flight, and the origin never votes.
  w.stack(origin).abcast(bytes_of("partial"));
  w.crash(origin);
  ASSERT_TRUE(test::run_until(w, sec(3), [&] {
    for (ProcessId p = 0; p < 4; ++p) {
      if (log.count(p, "partial") != 1) return false;
    }
    return true;
  })) << "a correct member holds the payload, so everyone must deliver it";
  EXPECT_GT(deferred_votes(w), 0) << "the non-holders' votes waited for the payload";
  EXPECT_GT(w.stack(receiver).metrics().counter("rbcast.relayed"), 0);
  // Still live, and one total order.
  w.stack(0).abcast(bytes_of("after"));
  ASSERT_TRUE(test::run_until(w, sec(2), [&] {
    for (ProcessId p = 0; p < 4; ++p) {
      if (log.count(p, "after") != 1) return false;
    }
    return true;
  }));
  for (ProcessId p = 1; p < 4; ++p) {
    EXPECT_EQ(log.delivered[static_cast<std::size_t>(p)], log.delivered[0]);
  }
}

TEST(Uniformity, PartialSendToPaxosLeader) {
  partial_send_then_crash(StackConfig::ConsensusAlgo::kPaxos, 0);
}
TEST(Uniformity, PartialSendToPaxosFollower) {
  partial_send_then_crash(StackConfig::ConsensusAlgo::kPaxos, 2);
}
TEST(Uniformity, PartialSendToCtCoordinator) {
  partial_send_then_crash(StackConfig::ConsensusAlgo::kChandraToueg, 0);
}
TEST(Uniformity, PartialSendToCtFollower) {
  partial_send_then_crash(StackConfig::ConsensusAlgo::kChandraToueg, 2);
}

/// n=3, origin p1 reaches p0 only and crashes: p0 and p2 are the only
/// voters left, and p2 lacks the payload. p2 must hold its vote (no
/// decision) until p0's relay delivers the payload, then vote.
void acceptor_defers_until_payload(StackConfig::ConsensusAlgo algo) {
  World w(stack_config(3, algo));
  Log log(w);
  w.found_group_all();
  w.run_for(msec(50));
  w.network().set_link(1, 2, kCut);
  w.stack(1).abcast(bytes_of("m"));
  w.crash(1);
  w.run_for(msec(20));  // far more than a decree needs, far less than a suspicion
  EXPECT_EQ(w.stack(2).consensus().deferred_votes(), 1u);
  EXPECT_EQ(log.count(0, "m"), 0) << "no majority holds the payload yet";
  EXPECT_EQ(log.count(2, "m"), 0);
  ASSERT_TRUE(test::run_until(
      w, sec(2), [&] { return log.count(0, "m") == 1 && log.count(2, "m") == 1; }));
  EXPECT_EQ(w.stack(2).consensus().deferred_votes(), 0u);
}

TEST(Uniformity, PaxosAcceptorDefersVoteUntilPayloadArrives) {
  acceptor_defers_until_payload(StackConfig::ConsensusAlgo::kPaxos);
}
TEST(Uniformity, CtAcceptorDefersAckUntilPayloadArrives) {
  acceptor_defers_until_payload(StackConfig::ConsensusAlgo::kChandraToueg);
}

/// The origin reaches only \p holder, and the holder crashes too before it
/// suspects the origin: no correct member holds the payload. The batch
/// naming it can never pass the gate, so a vote held back for a suspicion
/// timeout gives up on it, and ordering goes on without the message — at
/// every correct member alike. The holder must propose the batch at once:
/// under Chandra–Toueg any member does, under Paxos only the leader
/// (DESIGN.md §15).
void origin_and_sole_holder_crash(const World::Config& config, ProcessId holder) {
  World w(config);
  Log log(w);
  w.found_group_all();
  w.run_for(msec(50));
  std::vector<ProcessId> correct;
  for (ProcessId q = 0; q < 4; ++q) {
    if (q == holder) continue;
    correct.push_back(q);
    w.network().set_link(4, q, kCut);
  }
  w.stack(4).abcast(bytes_of("lost"));
  w.crash(4);
  w.run_for(msec(5));  // the holder proposes it; the others' votes wait
  EXPECT_GT(deferred_votes(w), 0);
  w.crash(holder);
  w.stack(correct[0]).abcast(bytes_of("after"));
  ASSERT_TRUE(test::run_until(w, sec(3), [&] {
    return std::all_of(correct.begin(), correct.end(),
                       [&](ProcessId q) { return log.count(q, "after") == 1; });
  })) << "a batch no correct member can admit must not block its instance";
  for (ProcessId q : correct) {
    EXPECT_EQ(log.delivered[static_cast<std::size_t>(q)],
              log.delivered[static_cast<std::size_t>(correct[0])]);
  }
  EXPECT_EQ(log.count(correct[0], "lost"), 0);
}

TEST(Uniformity, PaxosGivesUpOnUnobtainablePayload) {
  origin_and_sole_holder_crash(stack_config(5, StackConfig::ConsensusAlgo::kPaxos), 0);
}
TEST(Uniformity, CtGivesUpOnUnobtainablePayload) {
  origin_and_sole_holder_crash(stack_config(5, StackConfig::ConsensusAlgo::kChandraToueg), 2);
}

/// Fault-free, the substrate costs n-1 copies per message: no relays, and
/// the direct copy always beats the ACCEPT, so no vote ever waits.
TEST(Uniformity, FaultFreeAbcastSendsEachPayloadOnce) {
  World w(stack_config(5, StackConfig::ConsensusAlgo::kPaxos));
  Log log(w);
  w.found_group_all();
  w.run_for(msec(20));
  std::int64_t before = 0;
  for (ProcessId p = 0; p < 5; ++p) before += w.stack(p).metrics().counter("rbcast.wire_msgs");
  for (int i = 0; i < 40; ++i) {
    w.stack(static_cast<ProcessId>(i % 5)).abcast(bytes_of("m" + std::to_string(i)));
    w.run_for(usec(500));
  }
  ASSERT_TRUE(test::run_until(w, sec(1), [&] { return log.delivered[4].size() == 40; }));
  std::int64_t frames = 0, relayed = 0;
  for (ProcessId p = 0; p < 5; ++p) {
    frames += w.stack(p).metrics().counter("rbcast.wire_msgs");
    relayed += w.stack(p).metrics().counter("rbcast.relayed");
  }
  EXPECT_EQ(frames - before, 40 * 4);
  EXPECT_EQ(relayed, 0);
  EXPECT_EQ(deferred_votes(w), 0);
}

/// Bare rbcast processes, for the retention window.
struct RbWorld {
  sim::Engine engine;
  sim::Network network;
  struct Proc {
    std::unique_ptr<sim::Context> ctx;
    std::unique_ptr<SimTransport> transport;
    std::unique_ptr<ReliableChannel> channel;
    std::unique_ptr<ReliableBroadcast> rbcast;
    std::vector<MsgId> delivered;
  };
  std::vector<Proc> procs;

  explicit RbWorld(int n, std::uint64_t seed = 1)
      : network(engine, n, kLan, seed) {
    std::vector<ProcessId> all;
    for (ProcessId p = 0; p < n; ++p) all.push_back(p);
    procs.resize(static_cast<std::size_t>(n));
    for (ProcessId p = 0; p < n; ++p) {
      auto& proc = procs[static_cast<std::size_t>(p)];
      proc.ctx = std::make_unique<sim::Context>(
          p, engine, Rng(seed + static_cast<std::uint64_t>(p)), Logger(),
          std::make_shared<Metrics>());
      proc.transport = std::make_unique<SimTransport>(*proc.ctx, network);
      proc.channel = std::make_unique<ReliableChannel>(*proc.ctx, *proc.transport);
      proc.rbcast = std::make_unique<ReliableBroadcast>(*proc.ctx, *proc.channel, Tag::kRbcast);
      proc.rbcast->set_group(all);
      proc.rbcast->on_deliver(
          [&proc](const MsgId& id, BytesView) { proc.delivered.push_back(id); });
    }
  }

  ReliableBroadcast& rb(ProcessId p) { return *procs[static_cast<std::size_t>(p)].rbcast; }

  void crash(ProcessId p) {
    procs[static_cast<std::size_t>(p)].ctx->kill();
    network.crash(p);
  }
};

/// Receivers retain an origin's frames until W_o passes them: while one
/// member has not acked, everything stays; once every member has (and the
/// stability floor or a later frame says so), nothing is retained.
TEST(Uniformity, RetentionEndsOnceEveryMemberAcked) {
  RbWorld w(4);
  w.network.set_link(0, 3, kCut);
  for (int i = 0; i < 10; ++i) {
    w.rb(0).broadcast(bytes_of("x"));
    w.engine.run_until(w.engine.now() + msec(5));
  }
  // p3 acked nothing: W_0 is stuck at 0 and p1/p2 keep every frame.
  EXPECT_EQ(w.rb(1).retained_size(), 10u);
  EXPECT_EQ(w.rb(2).retained_size(), 10u);
  ASSERT_TRUE(w.rb(1).retained(MsgId{0, 3}).has_value());
  EXPECT_EQ(str_of(*w.rb(1).retained(MsgId{0, 3})), "x");
  // Heal: the channel delivers to p3, its acks move W_0, and the next
  // frame carries it. Only that newest frame is still unacked.
  w.network.set_link(0, 3, kLan);
  w.engine.run_until(w.engine.now() + msec(100));
  w.rb(0).broadcast(bytes_of("y"));
  w.engine.run_until(w.engine.now() + msec(5));
  for (ProcessId p = 1; p < 4; ++p) EXPECT_EQ(w.rb(p).retained_size(), 1u) << "p" << p;
  // Stability gossip moves the floor past the newest frame too.
  for (ProcessId p = 0; p < 4; ++p) w.rb(p).enable_stability(msec(5));
  w.engine.run_until(w.engine.now() + msec(50));
  for (ProcessId p = 1; p < 4; ++p) EXPECT_EQ(w.rb(p).retained_size(), 0u) << "p" << p;
}

/// A member far behind (partitioned while more than
/// kPayloadRetainInstances instances decide) still gets a decided payload
/// whose origin crashed: the payload left every store by tail GC, but the
/// holders retained it and relayed it when they suspected the origin.
TEST(Uniformity, LaggingMemberGetsPayloadOfCrashedOrigin) {
  World w(stack_config(5, StackConfig::ConsensusAlgo::kPaxos));
  Log log(w);
  w.found_group_all();
  w.run_for(msec(50));
  w.network().partition({{0, 1, 2, 4}, {3}});
  w.stack(4).abcast(bytes_of("orphan"));
  w.crash(4);
  for (int i = 0; i < 150; ++i) {
    w.stack(static_cast<ProcessId>(i % 3)).abcast(bytes_of("n" + std::to_string(i)));
    w.run_for(msec(2));
  }
  ASSERT_TRUE(test::run_until(w, sec(1), [&] { return log.delivered[0].size() == 151; }));
  EXPECT_EQ(log.count(0, "orphan"), 1);
  EXPECT_GT(w.stack(0).atomic_broadcast().next_instance(), 100u);
  EXPECT_LT(w.stack(0).atomic_broadcast().store_size(), 150u) << "tail GC ran";
  w.network().heal();
  ASSERT_TRUE(test::run_until(w, sec(5), [&] { return log.delivered[3].size() == 151; }))
      << "p3 delivered " << log.delivered[3].size();
  EXPECT_EQ(log.delivered[3], log.delivered[0]);
}

/// The origin's datagrams to p2/p3 are lost, p1 gets and delivers its
/// copy, and the origin crashes before any retransmission succeeds. p1
/// retained the frame and relays it once it suspects the origin, so the
/// survivors have it.
TEST(Uniformity, SuspicionRelayPreservesUniformAgreement) {
  RbWorld w(4);
  w.network.set_link(0, 2, kCut);
  w.network.set_link(0, 3, kCut);
  w.rb(0).broadcast(bytes_of("safe"));
  w.engine.run_until(msec(2));
  EXPECT_EQ(w.procs[1].delivered.size(), 1u);
  w.crash(0);
  w.engine.run_until(sec(1));
  EXPECT_EQ(w.procs[2].delivered.size(), 0u) << "nobody relays without a suspicion";
  w.rb(1).suspect(0);
  w.engine.run_until(sec(2));
  EXPECT_EQ(w.procs[2].delivered.size(), 1u);
  EXPECT_EQ(w.procs[3].delivered.size(), 1u);
}

// -- generic broadcast -------------------------------------------------------

/// Per-process gdelivery log of payload strings.
struct GbLog {
  std::vector<std::vector<std::string>> delivered;
  explicit GbLog(World& w) : delivered(static_cast<std::size_t>(w.size())) {
    for (ProcessId p = 0; p < w.size(); ++p) {
      w.stack(p).on_gdeliver([this, p](const MsgId&, MsgClass, const Bytes& b) {
        delivered[static_cast<std::size_t>(p)].push_back(str_of(b));
      });
    }
  }
  int count(ProcessId p, const std::string& s) const {
    const auto& d = delivered[static_cast<std::size_t>(p)];
    return static_cast<int>(std::count(d.begin(), d.end(), s));
  }
  bool all_have(ProcessId below, const std::string& s) const {
    for (ProcessId p = 0; p < below; ++p) {
      if (count(p, s) != 1) return false;
    }
    return true;
  }
};

std::int64_t sum_counter(World& w, const char* name) {
  std::int64_t n = 0;
  for (ProcessId p = 0; p < w.size(); ++p) n += w.stack(p).metrics().counter(name);
  return n;
}

/// n=7 (f=2): origin p6 reaches only p5 with an rbcast-class message, then
/// crashes. A conflicting pair makes the group resolve its round at once;
/// p4 hears of it last, so p5's report is among the five that resolve it.
/// That one report lists the message, fewer than f+1, so the round
/// resolves without it (nobody pulls a payload only p5 holds).
void gb_held_by_one(World& w, GbLog& log) {
  constexpr sim::LinkModel kSlow{msec(10), 0, 0.0};
  w.found_group_all();
  w.run_for(msec(50));
  for (ProcessId q = 0; q < 5; ++q) w.network().set_link(6, q, kCut);
  for (ProcessId q = 0; q < 6; ++q) {
    if (q != 4) w.network().set_link(q, 4, kSlow);
  }
  w.stack(6).gbcast(kRbcastClass, bytes_of("held"));
  w.crash(6);
  w.run_for(msec(1));
  w.stack(0).gbcast(kAbcastClass, bytes_of("c0"));
  w.stack(1).gbcast(kAbcastClass, bytes_of("c1"));
  ASSERT_TRUE(test::run_until(w, msec(30), [&] {
    return log.all_have(6, "c0") && log.all_have(6, "c1");
  })) << "the conflicting pair resolves well before anyone suspects p6";
  EXPECT_GT(w.stack(5).metrics().counter("gbcast.resolutions_triggered"), 0);
  for (ProcessId p = 0; p < 6; ++p) EXPECT_EQ(log.count(p, "held"), 0) << "p" << p;
  EXPECT_EQ(sum_counter(w, "gbcast.pull_requests"), 0);
  for (ProcessId q = 0; q < 6; ++q) {
    if (q != 4) w.network().set_link(q, 4, kLan);
  }
}

/// The deferred message's holder is correct: once p5 suspects p6 it relays
/// the payload, and every correct member delivers it.
TEST(Uniformity, GbPayloadHeldByFewIsDeferredThenRelayed) {
  World w(stack_config(7, StackConfig::ConsensusAlgo::kPaxos));
  GbLog log(w);
  gb_held_by_one(w, log);
  ASSERT_TRUE(test::run_until(w, sec(2), [&] { return log.all_have(6, "held"); }));
  EXPECT_GT(w.stack(5).metrics().counter("rbcast.relayed"), 0);
  for (ProcessId p = 1; p < 6; ++p) {
    EXPECT_EQ(log.delivered[static_cast<std::size_t>(p)].size(), log.delivered[0].size());
  }
}

/// The sole holder crashes too, before it suspects p6: nobody correct has
/// the payload, so nobody delivers it, and generic broadcast goes on. Had
/// the resolution counted p5's report alone, the others would have waited
/// on a pull nobody can serve.
TEST(Uniformity, GbPayloadWhoseHoldersAllCrashIsDeliveredNowhere) {
  World w(stack_config(7, StackConfig::ConsensusAlgo::kPaxos));
  GbLog log(w);
  gb_held_by_one(w, log);
  w.crash(5);
  w.stack(0).gbcast(kAbcastClass, bytes_of("after"));
  ASSERT_TRUE(test::run_until(w, sec(2), [&] { return log.all_have(5, "after"); }));
  w.run_for(sec(1));
  for (ProcessId p = 0; p < 5; ++p) EXPECT_EQ(log.count(p, "held"), 0) << "p" << p;
}

/// Fault-free, generic broadcast's substrate costs n-1 copies per message
/// and nothing is relayed. Every member counts its own ACK without a
/// datagram: each sends n-1 ACKs per message, and at n=3 (fast quorum 3)
/// the fast path needs that local ACK.
TEST(Uniformity, FaultFreeGbcastSendsEachPayloadOnce) {
  for (const int n : {3, 7}) {
    World w(stack_config(n, StackConfig::ConsensusAlgo::kPaxos));
    GbLog log(w);
    w.found_group_all();
    w.run_for(msec(20));
    const std::int64_t frames_before = sum_counter(w, "gbdata.wire_msgs");
    const std::int64_t acks_before = sum_counter(w, "gbcast.wire_msgs");
    constexpr int kMsgs = 40;
    for (int i = 0; i < kMsgs; ++i) {
      w.stack(static_cast<ProcessId>(i % n)).gbcast(kRbcastClass, bytes_of("m" + std::to_string(i)));
      w.run_for(usec(500));
    }
    ASSERT_TRUE(test::run_until(w, sec(1), [&] {
      for (ProcessId p = 0; p < n; ++p) {
        if (log.delivered[static_cast<std::size_t>(p)].size() != kMsgs) return false;
      }
      return true;
    })) << "n=" << n;
    EXPECT_EQ(sum_counter(w, "gbdata.wire_msgs") - frames_before, kMsgs * (n - 1)) << "n=" << n;
    EXPECT_EQ(sum_counter(w, "gbcast.wire_msgs") - acks_before, kMsgs * n * (n - 1))
        << "n=" << n;
    EXPECT_EQ(sum_counter(w, "rbcast.relayed"), 0) << "n=" << n;
    EXPECT_EQ(sum_counter(w, "gbcast.fast_delivered"), kMsgs * n) << "n=" << n;
  }
}

/// Generic broadcast's receivers retain an origin's frames while one member
/// has not acked them, and stop once W_o passes them.
TEST(Uniformity, GbRetentionEndsOnceEveryMemberAcked) {
  World w(stack_config(4, StackConfig::ConsensusAlgo::kPaxos));
  GbLog log(w);
  w.found_group_all();
  w.run_for(msec(20));
  w.network().set_link(0, 3, kCut);
  for (int i = 0; i < 10; ++i) {
    w.stack(0).gbcast(kRbcastClass, bytes_of("x" + std::to_string(i)));
    w.run_for(msec(2));
  }
  // The fast quorum of 3 holds without p3, which has none of the payloads.
  EXPECT_EQ(log.delivered[1].size(), 10u);
  EXPECT_TRUE(log.delivered[3].empty());
  for (ProcessId p = 1; p < 3; ++p) {
    EXPECT_EQ(w.stack(p).gbcast_substrate().retained_size(), 10u) << "p" << p;
  }
  w.network().set_link(0, 3, kLan);
  ASSERT_TRUE(test::run_until(w, sec(1), [&] { return log.delivered[3].size() == 10; }));
  w.run_for(msec(50));
  w.stack(0).gbcast(kRbcastClass, bytes_of("y"));
  ASSERT_TRUE(test::run_until(w, sec(1), [&] { return log.all_have(4, "y"); }));
  for (ProcessId p = 1; p < 4; ++p) {
    EXPECT_LE(w.stack(p).gbcast_substrate().retained_size(), 1u) << "p" << p;
  }
}

/// probe.rbcast.retained, the watchdog's bounded-state gauge, counts the
/// frames both substrates retain.
TEST(Uniformity, RetainedGaugeCountsBothSubstrates) {
  World w(stack_config(4, StackConfig::ConsensusAlgo::kPaxos));
  obs::Telemetry telemetry;
  w.stack(1).attach_telemetry(telemetry);
  w.found_group_all();
  w.run_for(msec(20));
  w.network().set_link(0, 3, kCut);
  for (int i = 0; i < 3; ++i) {
    w.stack(0).abcast(bytes_of("a" + std::to_string(i)));
    w.stack(0).gbcast(kRbcastClass, bytes_of("g" + std::to_string(i)));
    w.run_for(msec(2));
  }
  const std::size_t ab = w.stack(1).abcast_substrate().retained_size();
  const std::size_t gb = w.stack(1).gbcast_substrate().retained_size();
  EXPECT_EQ(ab, 3u);
  EXPECT_EQ(gb, 3u);
  EXPECT_DOUBLE_EQ(telemetry.snapshot(1, w.engine().now()).gauge("probe.rbcast.retained"),
                   static_cast<double>(ab + gb));
}

}  // namespace
}  // namespace gcs
