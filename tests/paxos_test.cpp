#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "consensus/paxos.hpp"
#include "core/stack.hpp"
#include "tests/test_util.hpp"
#include "util/codec.hpp"

namespace gcs {
namespace {

using test::bytes_of;
using test::consistent_prefix;
using test::str_of;

struct PaxosWorld {
  sim::Engine engine;
  sim::Network network;
  struct Proc {
    std::unique_ptr<sim::Context> ctx;
    std::unique_ptr<SimTransport> transport;
    std::unique_ptr<ReliableChannel> channel;
    std::unique_ptr<FailureDetector> fd;
    FailureDetector::ClassId fd_class = 0;
    std::unique_ptr<PaxosConsensus> paxos;
    test::ConsensusTap tap;
    std::map<std::uint64_t, std::string> decisions;
  };
  std::vector<Proc> procs;
  std::vector<ProcessId> all;

  explicit PaxosWorld(int n, sim::LinkModel link = {}, Duration suspect_timeout = msec(60),
                      std::uint64_t seed = 1)
      : network(engine, n, link, seed) {
    procs.resize(static_cast<std::size_t>(n));
    for (ProcessId p = 0; p < n; ++p) {
      all.push_back(p);
      auto& proc = procs[static_cast<std::size_t>(p)];
      proc.ctx = std::make_unique<sim::Context>(
          p, engine, Rng(seed * 91 + static_cast<std::uint64_t>(p)), Logger(),
          std::make_shared<Metrics>());
      proc.transport = std::make_unique<SimTransport>(*proc.ctx, network);
      proc.channel = std::make_unique<ReliableChannel>(*proc.ctx, *proc.transport);
      proc.fd = std::make_unique<FailureDetector>(*proc.ctx, *proc.transport);
      proc.fd_class = proc.fd->add_class(suspect_timeout);
      proc.paxos = std::make_unique<PaxosConsensus>(*proc.ctx, *proc.channel, *proc.fd,
                                                    proc.fd_class);
      proc.tap.attach(*proc.channel);
      proc.paxos->on_decide([&proc](std::uint64_t k, const Bytes& v) {
        ASSERT_EQ(proc.decisions.count(k), 0u) << "double decide";
        proc.decisions[k] = str_of(v);
      });
      proc.fd->start();
    }
  }

  void crash(ProcessId p) {
    procs[static_cast<std::size_t>(p)].ctx->kill();
    network.crash(p);
  }

  /// Drop everything \p from sends to \p to, or stop.
  void cut(ProcessId from, ProcessId to, bool on = true) {
    network.set_link(from, to, on ? sim::LinkModel{usec(200), usec(100), 1.0} : sim::LinkModel{});
  }

  Proc& proc(ProcessId p) { return procs[static_cast<std::size_t>(p)]; }

  bool all_alive_decided(std::uint64_t k) {
    for (ProcessId p = 0; p < static_cast<ProcessId>(procs.size()); ++p) {
      if (!network.alive(p)) continue;
      if (!procs[static_cast<std::size_t>(p)].decisions.count(k)) return false;
    }
    return true;
  }

  std::string agreed_value(std::uint64_t k) {
    std::string value;
    for (auto& proc : procs) {
      auto it = proc.decisions.find(k);
      if (it == proc.decisions.end()) continue;
      if (value.empty()) value = it->second;
      else EXPECT_EQ(value, it->second) << "paxos agreement violated at " << k;
    }
    return value;
  }
};

TEST(Paxos, FailureFreeDecides) {
  PaxosWorld w(3);
  for (ProcessId p = 0; p < 3; ++p) {
    w.procs[static_cast<std::size_t>(p)].paxos->propose(
        0, bytes_of("v" + std::to_string(p)), w.all);
  }
  ASSERT_TRUE(test::run_until(w.engine, sec(5), [&] { return w.all_alive_decided(0); }));
  const std::string v = w.agreed_value(0);
  EXPECT_TRUE(v == "v0" || v == "v1" || v == "v2") << v;
}

// The leader's DECIDE is the only one, and a member that is not the leader
// ANNOUNCEs its proposal to the leader alone.
TEST(Paxos, FaultFreeInstanceSendsOneDecideAndAnnouncesOnlyToTheLeader) {
  PaxosWorld w(5);
  constexpr int kInstances = 10;
  for (std::uint64_t k = 0; k < kInstances; ++k) {
    for (ProcessId p = 0; p < 5; ++p) {
      w.proc(p).paxos->propose(k, bytes_of("v" + std::to_string(p)), w.all);
    }
    ASSERT_TRUE(test::run_until(w.engine, sec(5), [&] { return w.all_alive_decided(k); }));
  }
  test::run_until(w.engine, msec(100), [] { return false; });  // stragglers land
  std::int64_t announces = 0;
  for (ProcessId p = 0; p < 5; ++p) {
    EXPECT_EQ(w.proc(p).tap.received[5], kInstances) << "DECIDEs received by p" << p;
    announces += w.proc(p).tap.received[6];
    if (p != 0) EXPECT_EQ(w.proc(p).tap.received[6], 0) << "p" << p << " is not the leader";
  }
  EXPECT_LE(announces, 4 * kInstances);
}

// The leader decides with every member but p4, which never hears from it,
// and crashes. p4 never proposed and never accepted, so it has nothing to
// take over for: only the members' relay on suspicion of the leader
// reaches it.
TEST(Paxos, DecisionReachesAMemberCutOffFromTheCrashedLeader) {
  PaxosWorld w(5);
  w.cut(0, 4);
  w.cut(4, 0);
  for (ProcessId p = 0; p < 4; ++p) {
    w.proc(p).paxos->propose(0, bytes_of("v" + std::to_string(p)), w.all);
  }
  ASSERT_TRUE(test::run_until(w.engine, sec(1), [&] {
    for (ProcessId p = 0; p < 4; ++p) {
      if (!w.proc(p).decisions.count(0)) return false;
    }
    return true;
  }));
  EXPECT_FALSE(w.proc(4).decisions.count(0));
  w.crash(0);
  w.cut(0, 4, false);
  w.cut(4, 0, false);
  ASSERT_TRUE(test::run_until(w.engine, sec(5), [&] { return w.all_alive_decided(0); }));
  w.agreed_value(0);
}

// Only the leader proposes instance 1: nobody receives an ANNOUNCE. Its
// ACCEPT reaches everyone, the ACCEPTEDs never reach it, and it crashes.
// The acceptors hold an undecided decree and nothing else; they take over
// for it and decide the leader's value.
TEST(Paxos, AcceptedDecreeOfALoneLeaderSurvivesItsCrash) {
  PaxosWorld w(5);
  // Every member knows the epoch and watches the leader.
  for (ProcessId p = 0; p < 5; ++p) {
    w.proc(p).paxos->propose(0, bytes_of("v" + std::to_string(p)), w.all);
  }
  ASSERT_TRUE(test::run_until(w.engine, sec(5), [&] { return w.all_alive_decided(0); }));
  std::vector<std::int64_t> announces;
  std::vector<std::int64_t> accepts;
  for (ProcessId p = 0; p < 5; ++p) {
    announces.push_back(w.proc(p).tap.received[6]);
    accepts.push_back(w.proc(p).tap.received[2]);
  }
  for (ProcessId p = 1; p < 5; ++p) w.cut(p, 0);
  w.proc(0).paxos->propose(1, bytes_of("batch"), w.all);
  ASSERT_TRUE(test::run_until(w.engine, sec(1), [&] {
    for (ProcessId p = 1; p < 5; ++p) {
      if (w.proc(p).tap.received[2] == accepts[static_cast<std::size_t>(p)]) return false;
    }
    return true;
  }));
  EXPECT_FALSE(w.proc(0).decisions.count(1));
  w.crash(0);
  ASSERT_TRUE(test::run_until(w.engine, sec(5), [&] { return w.all_alive_decided(1); }));
  EXPECT_EQ(w.agreed_value(1), "batch");
  for (ProcessId p = 0; p < 5; ++p) {
    EXPECT_EQ(w.proc(p).tap.received[6], announces[static_cast<std::size_t>(p)]) << "p" << p;
  }
}

TEST(Paxos, SingleProposerDecides) {
  PaxosWorld w(3);
  w.procs[1].paxos->propose(0, bytes_of("lone"), w.all);
  ASSERT_TRUE(test::run_until(w.engine, sec(5), [&] { return w.all_alive_decided(0); }));
  EXPECT_EQ(w.agreed_value(0), "lone");
}

// The proposer query (DESIGN.md §15): nobody without a view; before the
// first epoch, ballot 0's owner in the view; then the epoch owner, with the
// suspicion timeout as the hold, until it leaves the view or a member
// suspects it.
TEST(Paxos, ProposerIsTheStableLeaderUntilSuspected) {
  PaxosWorld w(3);
  EXPECT_EQ(w.proc(1).paxos->proposer().leader, kNoProcess);
  for (ProcessId p = 0; p < 3; ++p) {
    w.proc(p).paxos->set_view_members(w.all);
    EXPECT_EQ(w.proc(p).paxos->proposer().leader, 0) << "p" << p;
  }
  w.proc(0).paxos->propose(0, bytes_of("v0"), w.all);
  w.proc(1).paxos->propose(1, bytes_of("v1"), w.all);
  ASSERT_TRUE(test::run_until(w.engine, sec(1), [&] { return w.all_alive_decided(1); }));
  EXPECT_EQ(w.proc(0).paxos->proposer().leader, 0);
  EXPECT_EQ(w.proc(1).paxos->proposer().leader, 0);
  EXPECT_EQ(w.proc(1).paxos->proposer().hold, msec(60));
  // p0 leaves: p1 still runs the epoch of {0, 1, 2} but names nobody, and
  // p2, which never proposed, names ballot 0's owner of {1, 2}.
  w.proc(1).paxos->set_view_members({1, 2});
  w.proc(2).paxos->set_view_members({1, 2});
  EXPECT_EQ(w.proc(1).paxos->proposer().leader, kNoProcess);
  EXPECT_EQ(w.proc(2).paxos->proposer().leader, 1);
  w.proc(1).paxos->set_view_members(w.all);
  EXPECT_EQ(w.proc(1).paxos->proposer().leader, 0);
  w.crash(0);
  ASSERT_TRUE(test::run_until(w.engine, sec(1), [&] {
    return w.proc(1).fd->suspects(w.proc(1).fd_class, 0);
  }));
  EXPECT_EQ(w.proc(1).paxos->proposer().leader, kNoProcess);
}

TEST(Paxos, BallotZeroOwnerCrashTriggersTakeover) {
  PaxosWorld w(5);
  for (ProcessId p = 0; p < 5; ++p) {
    w.procs[static_cast<std::size_t>(p)].paxos->propose(
        0, bytes_of("v" + std::to_string(p)), w.all);
  }
  w.engine.run_until(usec(200));
  w.crash(0);  // ballot-0 owner
  ASSERT_TRUE(test::run_until(w.engine, sec(10), [&] { return w.all_alive_decided(0); }));
  w.agreed_value(0);
}

TEST(Paxos, SafeUnderFalseSuspicionOfLeader) {
  PaxosWorld w(3);
  for (ProcessId p = 0; p < 3; ++p) {
    w.procs[static_cast<std::size_t>(p)].paxos->propose(
        0, bytes_of("v" + std::to_string(p)), w.all);
  }
  // Two processes wrongly suspect the ballot-0 owner: dueling ballots must
  // still agree on ONE value.
  w.procs[1].fd->monitor(w.procs[1].fd_class, 0);
  w.procs[1].fd->inject_suspicion(w.procs[1].fd_class, 0);
  w.procs[2].fd->monitor(w.procs[2].fd_class, 0);
  w.procs[2].fd->inject_suspicion(w.procs[2].fd_class, 0);
  ASSERT_TRUE(test::run_until(w.engine, sec(10), [&] { return w.all_alive_decided(0); }));
  w.agreed_value(0);
}

TEST(Paxos, ManyInstances) {
  PaxosWorld w(3);
  const int kInstances = 15;
  for (std::uint64_t k = 0; k < kInstances; ++k) {
    for (ProcessId p = 0; p < 3; ++p) {
      w.procs[static_cast<std::size_t>(p)].paxos->propose(
          k, bytes_of("k" + std::to_string(k)), w.all);
    }
  }
  ASSERT_TRUE(test::run_until(w.engine, sec(30), [&] {
    for (std::uint64_t k = 0; k < kInstances; ++k) {
      if (!w.all_alive_decided(k)) return false;
    }
    return true;
  }));
  for (std::uint64_t k = 0; k < kInstances; ++k) {
    EXPECT_EQ(w.agreed_value(k), "k" + std::to_string(k));
  }
}

// A partially accepted decree (reached a minority before the owner died)
// must be recovered by the next epoch's ranged prepare: the new leader
// re-proposes the highest-ballot accepted value, not its own.
TEST(Paxos, RangedPrepareRecoversPartialDecrees) {
  // Long natural suspicion timeout: the takeover below is driven by ONE
  // injected suspicion, so exactly one candidate prepares and the recovery
  // path is deterministic.
  PaxosWorld w(5, {}, sec(30));
  // Isolate the ballot-0 owner with p1 only: its ACCEPT(b=0) reaches p1 but
  // never a majority.
  w.network.partition({{0, 1}, {2, 3, 4}});
  for (ProcessId p = 0; p < 5; ++p) {
    w.procs[static_cast<std::size_t>(p)].paxos->propose(
        0, bytes_of("v" + std::to_string(p)), w.all);
  }
  // Owner dies holding a minority accept; the partition heals.
  w.engine.run_until(msec(5));
  EXPECT_FALSE(w.procs[1].decisions.count(0));
  w.crash(0);
  w.network.heal();
  w.procs[1].fd->monitor(w.procs[1].fd_class, 0);
  w.procs[1].fd->inject_suspicion(w.procs[1].fd_class, 0);
  ASSERT_TRUE(test::run_until(w.engine, sec(10), [&] { return w.all_alive_decided(0); }));
  // p1 sat in the new epoch's promise majority, so its accepted value won.
  EXPECT_EQ(w.agreed_value(0), "v0");
  // Somebody ran a ranged prepare to get there.
  std::int64_t epochs = 0;
  for (ProcessId p = 1; p < 5; ++p) {
    epochs += w.procs[static_cast<std::size_t>(p)].ctx->metrics().counter("paxos.prepares_sent");
  }
  EXPECT_GE(epochs, 1);
}

// Dueling takeover candidates: simultaneous false suspicion of the leader
// at every follower must converge to one epoch with bounded ballot churn —
// the seeded backoff keeps candidates from livelocking.
TEST(Paxos, DuelingTakeoversConvergeWithBoundedChurn) {
  PaxosWorld w(5);
  for (ProcessId p = 0; p < 5; ++p) {
    w.procs[static_cast<std::size_t>(p)].paxos->propose(
        0, bytes_of("v" + std::to_string(p)), w.all);
  }
  for (ProcessId p = 1; p < 5; ++p) {
    auto& proc = w.procs[static_cast<std::size_t>(p)];
    proc.fd->monitor(proc.fd_class, 0);
    proc.fd->inject_suspicion(proc.fd_class, 0);
  }
  ASSERT_TRUE(test::run_until(w.engine, sec(10), [&] { return w.all_alive_decided(0); }));
  w.agreed_value(0);
  // Keep deciding afterwards: the surviving epoch is functional.
  for (ProcessId p = 0; p < 5; ++p) {
    w.procs[static_cast<std::size_t>(p)].paxos->propose(1, bytes_of("after"), w.all);
  }
  ASSERT_TRUE(test::run_until(w.engine, sec(10), [&] { return w.all_alive_decided(1); }));
  EXPECT_EQ(w.agreed_value(1), "after");
  std::int64_t epochs = 0;
  for (ProcessId p = 0; p < 5; ++p) {
    epochs += w.procs[static_cast<std::size_t>(p)].ctx->metrics().counter("paxos.prepares_sent");
  }
  // Four candidates, bounded churn: well under one epoch per candidate per
  // backoff doubling.
  EXPECT_LE(epochs, 12);
}

TEST(Paxos, LossyNetworkTerminates) {
  PaxosWorld w(5, sim::LinkModel{usec(300), usec(300), 0.2}, msec(60), 43);
  for (ProcessId p = 0; p < 5; ++p) {
    w.procs[static_cast<std::size_t>(p)].paxos->propose(
        0, bytes_of("v" + std::to_string(p)), w.all);
  }
  ASSERT_TRUE(test::run_until(w.engine, sec(30), [&] { return w.all_alive_decided(0); }));
  w.agreed_value(0);
}

class PaxosProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PaxosProperty, AgreementValidityTermination) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed);
  const int n = 3 + static_cast<int>(rng.next_below(4));  // 3..6
  const int crashes =
      static_cast<int>(rng.next_below(static_cast<std::uint64_t>((n - 1) / 2 + 1)));
  sim::LinkModel link{usec(100 + rng.next_range(0, 400)), usec(rng.next_range(0, 400)),
                      rng.next_double() * 0.15};
  PaxosWorld w(n, link, msec(60), seed);
  for (ProcessId p = 0; p < n; ++p) {
    w.procs[static_cast<std::size_t>(p)].paxos->propose(
        0, bytes_of("v" + std::to_string(p)), w.all);
  }
  std::set<ProcessId> crashed;
  for (int i = 0; i < crashes; ++i) {
    ProcessId victim;
    do {
      victim = static_cast<ProcessId>(rng.next_below(static_cast<std::uint64_t>(n)));
    } while (crashed.count(victim));
    crashed.insert(victim);
    w.engine.schedule_at(rng.next_range(0, msec(2)), [&w, victim] { w.crash(victim); });
  }
  ASSERT_TRUE(test::run_until(w.engine, sec(60), [&] { return w.all_alive_decided(0); }))
      << "n=" << n << " crashes=" << crashes << " seed=" << seed;
  const std::string v = w.agreed_value(0);
  ASSERT_FALSE(v.empty());
  EXPECT_EQ(v[0], 'v');
}

INSTANTIATE_TEST_SUITE_P(Seeds, PaxosProperty, ::testing::Range<std::uint64_t>(1, 21));

/// The whole architecture on top of Paxos instead of Chandra–Toueg.
TEST(PaxosStack, FullStackTotalOrderAndMembership) {
  World::Config cfg;
  cfg.n = 4;
  cfg.seed = 17;
  cfg.stack.consensus_algorithm = StackConfig::ConsensusAlgo::kPaxos;
  cfg.stack.monitoring.exclusion_timeout = msec(700);
  World w(cfg);
  std::vector<test::DeliveryLog> logs(4);
  for (ProcessId p = 0; p < 4; ++p) {
    w.stack(p).on_adeliver([&logs, p](const MsgId& id, const Bytes& b) {
      logs[static_cast<std::size_t>(p)].record(id, b);
    });
  }
  w.found_group({0, 1, 2});
  for (int i = 0; i < 10; ++i) {
    w.stack(static_cast<ProcessId>(i % 3)).abcast(bytes_of(std::to_string(i)));
  }
  ASSERT_TRUE(test::run_until(w.engine(), sec(30), [&] {
    return logs[0].size() >= 10 && logs[1].size() >= 10 && logs[2].size() >= 10;
  }));
  // Membership on Paxos: join works identically.
  w.stack(3).join(0);
  ASSERT_TRUE(test::run_until(w.engine(), sec(10),
                              [&] { return w.stack(3).membership().is_member(); }));
  // Crash + exclusion on Paxos.
  w.crash(2);
  ASSERT_TRUE(test::run_until(w.engine(), sec(10),
                              [&] { return !w.stack(0).view().contains(2); }));
  w.stack(3).abcast(bytes_of("post"));
  ASSERT_TRUE(test::run_until(w.engine(), sec(10), [&] { return logs[0].size() >= 11; }));
  EXPECT_TRUE(consistent_prefix(logs[0].order, logs[1].order));
  EXPECT_GT(w.stack(0).metrics().counter("consensus.decided"), 0);
}

TEST(PaxosStack, GenericBroadcastFastPathUnaffectedByAlgorithm) {
  World::Config cfg;
  cfg.n = 4;
  cfg.seed = 23;
  cfg.stack.consensus_algorithm = StackConfig::ConsensusAlgo::kPaxos;
  World w(cfg);
  std::size_t delivered = 0;
  w.stack(0).on_gdeliver([&](const MsgId&, MsgClass, const Bytes&) { ++delivered; });
  w.found_group_all();
  for (int i = 0; i < 8; ++i) {
    w.stack(static_cast<ProcessId>(i % 4)).rbcast(bytes_of(std::to_string(i)));
  }
  ASSERT_TRUE(test::run_until(w.engine(), sec(10), [&] { return delivered >= 8; }));
  // Thrifty regardless of the consensus below: nothing decided.
  EXPECT_EQ(w.stack(0).consensus().instances_decided(), 0);
}

TEST(Paxos, StaleMessagesBelowTheWatermarkAreDropped) {
  // Instances 0..4 decide and p0 forgets them. A late message of any
  // instance kind for one of them must not resurrect the instance:
  // no state, no reply, no second decision.
  PaxosWorld w(3);
  for (std::uint64_t k = 0; k < 5; ++k) {
    for (ProcessId p = 0; p < 3; ++p) {
      w.procs[static_cast<std::size_t>(p)].paxos->propose(k, bytes_of("v"), w.all);
    }
  }
  ASSERT_TRUE(test::run_until(w.engine, sec(10), [&] { return w.all_alive_decided(4); }));
  w.engine.run_until(w.engine.now() + msec(200));  // let the DECIDE echoes settle
  auto& p0 = w.procs[0];
  p0.paxos->forget_below(5);
  const std::int64_t decided = p0.paxos->instances_decided();
  const std::int64_t sent = p0.ctx->metrics().counter("consensus.wire_msgs");
  // Wire kinds: 0 and 1 (retired, ignored), ACCEPT, ACCEPTED, NACK
  // (paxos.cpp), DECIDE and ANNOUNCE (the shell's).
  for (std::uint8_t kind = 0; kind <= 6; ++kind) {
    SCOPED_TRACE("kind " + std::to_string(kind));
    Encoder enc;
    enc.put_byte(kind);
    enc.put_u64(2);
    if (kind == 5) {
      enc.put_bytes(bytes_of("stale"));
    } else if (kind == 6) {
      enc.put_vector(w.all, [](Encoder& e, ProcessId p) { e.put_i32(p); });
      enc.put_bytes(bytes_of("stale"));
    } else {
      enc.put_i64(7);  // ballot
      if (kind == 1) enc.put_i64(-1);
      if (kind == 1 || kind == 2) enc.put_bytes(bytes_of("stale"));
    }
    w.procs[1].channel->send(0, Tag::kConsensus, enc.take());
    w.engine.run_until(w.engine.now() + msec(100));
    EXPECT_EQ(p0.paxos->open_instances(), 0);
    EXPECT_EQ(p0.paxos->instances_decided(), decided);
    EXPECT_FALSE(p0.paxos->decided(2));
    EXPECT_EQ(p0.ctx->metrics().counter("consensus.wire_msgs"), sent);
  }
}

}  // namespace
}  // namespace gcs
