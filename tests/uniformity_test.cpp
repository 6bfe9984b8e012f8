/// Uniform agreement over O(n) dissemination (DESIGN.md §12).
///
/// Atomic broadcast's substrate sends each payload once, from its origin,
/// and nobody relays in the fault-free case. Uniformity rests on three
/// mechanisms, and each test below fails without the one it names:
///   - the consensus admission gate: a member votes only for batches whose
///     payloads it holds, so a decision implies a majority of holders;
///   - retention: a holder keeps an origin's frames until the origin's
///     channel acks say every member has them (W_o);
///   - relay on suspicion: a holder hands retained frames on when it
///     suspects their origin.
/// The eager substrate generic broadcast still uses (relay before
/// deliver) is checked at the end.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "broadcast/reliable_broadcast.hpp"
#include "core/stack.hpp"
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

/// The origin reaches only p2, and p2 crashes too before it suspects the
/// origin: no correct member holds the payload. The batch naming it can
/// never pass the gate, so a vote held back for a suspicion timeout gives
/// up on it, and ordering goes on without the message — at every correct
/// member alike.
void origin_and_sole_holder_crash(const World::Config& config) {
  World w(config);
  Log log(w);
  w.found_group_all();
  w.run_for(msec(50));
  for (ProcessId q = 0; q < 4; ++q) {
    if (q != 2) w.network().set_link(4, q, kCut);
  }
  w.stack(4).abcast(bytes_of("lost"));
  w.crash(4);
  w.run_for(msec(5));  // p2 proposes it; the others' votes wait
  EXPECT_GT(deferred_votes(w), 0);
  w.crash(2);
  w.stack(0).abcast(bytes_of("after"));
  ASSERT_TRUE(test::run_until(w, sec(3), [&] {
    return log.count(0, "after") == 1 && log.count(1, "after") == 1 &&
           log.count(3, "after") == 1;
  })) << "a batch no correct member can admit must not block its instance";
  EXPECT_EQ(log.delivered[1], log.delivered[0]);
  EXPECT_EQ(log.delivered[3], log.delivered[0]);
  EXPECT_EQ(log.count(0, "lost"), 0);
}

TEST(Uniformity, PaxosGivesUpOnUnobtainablePayload) {
  origin_and_sole_holder_crash(stack_config(5, StackConfig::ConsensusAlgo::kPaxos));
}
TEST(Uniformity, PerInstancePaxosGivesUpOnUnobtainablePayload) {
  World::Config config = stack_config(5, StackConfig::ConsensusAlgo::kPaxos);
  config.stack.paxos.leader_stable = false;
  origin_and_sole_holder_crash(config);
}
TEST(Uniformity, CtGivesUpOnUnobtainablePayload) {
  origin_and_sole_holder_crash(stack_config(5, StackConfig::ConsensusAlgo::kChandraToueg));
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

/// Bare quorum-mode rbcast processes, for the retention window.
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

  RbWorld(int n, ReliableBroadcast::Dissemination mode, std::uint64_t seed = 1)
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
      proc.rbcast =
          std::make_unique<ReliableBroadcast>(*proc.ctx, *proc.channel, Tag::kRbcast, mode);
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
  RbWorld w(4, ReliableBroadcast::Dissemination::kQuorum);
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

/// Eager mode: the origin's datagrams to p2/p3 are lost, p1 gets and
/// delivers its copy, the sender crashes before any retransmission
/// succeeds. p1 relayed on first receipt, so the survivors have it.
TEST(Uniformity, DefaultEagerRelayPreservesUniformAgreement) {
  RbWorld w(4, ReliableBroadcast::Dissemination::kEager);
  w.network.set_link(0, 2, kCut);
  w.network.set_link(0, 3, kCut);
  w.rb(0).broadcast(bytes_of("safe"));
  w.engine.run_until(msec(2));
  EXPECT_EQ(w.procs[1].delivered.size(), 1u);
  w.crash(0);
  w.engine.run_until(sec(2));
  EXPECT_EQ(w.procs[2].delivered.size(), 1u);
  EXPECT_EQ(w.procs[3].delivered.size(), 1u);
}

}  // namespace
}  // namespace gcs
