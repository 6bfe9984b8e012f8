#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "consensus/consensus.hpp"
#include "tests/test_util.hpp"
#include "util/codec.hpp"

namespace gcs {
namespace {

using test::bytes_of;
using test::str_of;

struct ConsensusWorld {
  sim::Engine engine;
  sim::Network network;
  struct Proc {
    std::unique_ptr<sim::Context> ctx;
    std::unique_ptr<SimTransport> transport;
    std::unique_ptr<ReliableChannel> channel;
    std::unique_ptr<FailureDetector> fd;
    FailureDetector::ClassId fd_class = 0;
    std::unique_ptr<Consensus> consensus;
    test::ConsensusTap tap;
    std::map<std::uint64_t, std::string> decisions;
  };
  std::vector<Proc> procs;
  std::vector<ProcessId> all;

  explicit ConsensusWorld(int n, sim::LinkModel link = {}, Duration suspect_timeout = msec(60),
                          std::uint64_t seed = 1)
      : network(engine, n, link, seed) {
    procs.resize(static_cast<std::size_t>(n));
    for (ProcessId p = 0; p < n; ++p) {
      all.push_back(p);
      auto& proc = procs[static_cast<std::size_t>(p)];
      proc.ctx = std::make_unique<sim::Context>(
          p, engine, Rng(seed * 77 + static_cast<std::uint64_t>(p)), Logger(),
          std::make_shared<Metrics>());
      proc.transport = std::make_unique<SimTransport>(*proc.ctx, network);
      proc.channel = std::make_unique<ReliableChannel>(*proc.ctx, *proc.transport);
      proc.fd = std::make_unique<FailureDetector>(*proc.ctx, *proc.transport);
      proc.fd_class = proc.fd->add_class(suspect_timeout);
      proc.consensus = std::make_unique<Consensus>(*proc.ctx, *proc.channel, *proc.fd,
                                                   proc.fd_class);
      proc.tap.attach(*proc.channel);
      proc.consensus->on_decide([&proc](std::uint64_t k, const Bytes& v) {
        // Exactly-once delivery is part of the contract.
        ASSERT_EQ(proc.decisions.count(k), 0u);
        proc.decisions[k] = str_of(v);
      });
      proc.fd->start();
    }
  }

  void crash(ProcessId p) {
    procs[static_cast<std::size_t>(p)].ctx->kill();
    network.crash(p);
  }

  /// Drop everything sent between \p a and \p b (both ways), or stop.
  void cut(ProcessId a, ProcessId b, bool on = true) {
    const sim::LinkModel link = on ? sim::LinkModel{usec(200), usec(100), 1.0} : sim::LinkModel{};
    network.set_link(a, b, link);
    network.set_link(b, a, link);
  }

  Proc& proc(ProcessId p) { return procs[static_cast<std::size_t>(p)]; }

  bool all_alive_decided(std::uint64_t k) {
    for (ProcessId p = 0; p < static_cast<ProcessId>(procs.size()); ++p) {
      if (!network.alive(p)) continue;
      if (!procs[static_cast<std::size_t>(p)].decisions.count(k)) return false;
    }
    return true;
  }

  /// Agreement: all deciders of k decided the same value; returns it.
  std::string agreed_value(std::uint64_t k) {
    std::string value;
    for (auto& proc : procs) {
      auto it = proc.decisions.find(k);
      if (it == proc.decisions.end()) continue;
      if (value.empty()) {
        value = it->second;
      } else {
        EXPECT_EQ(value, it->second) << "agreement violated for instance " << k;
      }
    }
    return value;
  }
};

TEST(Consensus, FailureFreeDecides) {
  ConsensusWorld w(3);
  for (ProcessId p = 0; p < 3; ++p) {
    w.procs[static_cast<std::size_t>(p)].consensus->propose(
        0, bytes_of("v" + std::to_string(p)), w.all);
  }
  ASSERT_TRUE(test::run_until(w.engine, sec(5), [&] { return w.all_alive_decided(0); }));
  const std::string v = w.agreed_value(0);
  // Validity: the decision is one of the proposals.
  EXPECT_TRUE(v == "v0" || v == "v1" || v == "v2") << v;
}

// A member that ACKs waits for the DECIDE rather than starting the next
// round, and the coordinator's DECIDE is the only one: a fault-free
// instance costs one round per started member and one DECIDE per member.
TEST(Consensus, FaultFreeInstanceRunsOneRoundAndOneDecide) {
  ConsensusWorld w(5);
  constexpr int kInstances = 10;
  for (std::uint64_t k = 0; k < kInstances; ++k) {
    for (ProcessId p = 0; p < 5; ++p) {
      w.proc(p).consensus->propose(k, bytes_of("v" + std::to_string(p)), w.all);
    }
    ASSERT_TRUE(test::run_until(w.engine, sec(5), [&] { return w.all_alive_decided(k); }));
  }
  test::run_until(w.engine, msec(100), [] { return false; });  // stragglers land
  std::int64_t rounds = 0;
  for (ProcessId p = 0; p < 5; ++p) {
    rounds += w.proc(p).ctx->metrics().counter("consensus.rounds");
    EXPECT_EQ(w.proc(p).tap.received[5], kInstances) << "DECIDEs received by p" << p;
  }
  EXPECT_EQ(rounds, 5 * kInstances);  // every member started every instance
}

// The decider reaches every member but p4, decides and crashes. p4 asks
// the next coordinator in vain (it holds the decision and p4 is a member
// it does not answer), so only the members' relay on suspicion of the
// decider reaches it.
TEST(Consensus, DecisionReachesAMemberCutOffFromTheCrashedDecider) {
  ConsensusWorld w(5);
  w.cut(0, 4);
  for (ProcessId p = 0; p < 5; ++p) {
    w.proc(p).consensus->propose(0, bytes_of("v" + std::to_string(p)), w.all);
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
  ASSERT_TRUE(test::run_until(w.engine, sec(5), [&] { return w.all_alive_decided(0); }));
  w.agreed_value(0);
}

// As above, but the members that decided forget the instance, as atomic
// broadcast does once it has delivered it, before they come to suspect
// the decider. p4 never acknowledged the decider's DECIDE, so the decider
// never confirmed it and they keep the decision for the relay.
TEST(Consensus, ForgottenDecisionIsKeptUntilTheDeciderConfirmsIt) {
  ConsensusWorld w(5);
  w.cut(0, 4);
  for (ProcessId p = 0; p < 5; ++p) {
    w.proc(p).consensus->propose(0, bytes_of("v" + std::to_string(p)), w.all);
  }
  ASSERT_TRUE(test::run_until(w.engine, sec(1), [&] {
    for (ProcessId p = 0; p < 4; ++p) {
      if (!w.proc(p).decisions.count(0)) return false;
    }
    return true;
  }));
  for (ProcessId p = 1; p < 4; ++p) w.proc(p).consensus->forget_below(1);
  w.crash(0);
  w.cut(0, 4, false);
  ASSERT_TRUE(test::run_until(w.engine, sec(5), [&] { return w.all_alive_decided(0); }));
  w.agreed_value(0);
}

// Every member ACKs round 0 and then its coordinator crashes before any
// ACK reaches it. The ACKers wait for a DECIDE that never comes until they
// suspect the coordinator; then they move to round 1 and decide the value
// they locked.
TEST(Consensus, AnAckerMovesOnWhenTheCoordinatorCrashes) {
  ConsensusWorld w(5);
  for (ProcessId p = 0; p < 5; ++p) {
    w.proc(p).consensus->propose(0, bytes_of("v" + std::to_string(p)), w.all);
  }
  // PROPOSE lands everywhere within the link's jitter, before the first
  // ACK can travel back to p0.
  ASSERT_TRUE(test::run_until(w.engine, sec(1), [&] {
    for (ProcessId p = 1; p < 5; ++p) {
      if (w.proc(p).tap.received[1] == 0) return false;
    }
    return true;
  }));
  EXPECT_FALSE(w.proc(0).decisions.count(0));
  w.crash(0);
  ASSERT_TRUE(test::run_until(w.engine, sec(5), [&] { return w.all_alive_decided(0); }));
  w.agreed_value(0);
  for (ProcessId p = 1; p < 5; ++p) {
    EXPECT_EQ(w.proc(p).ctx->metrics().counter("consensus.rounds"), 2) << "p" << p;
  }
}

TEST(Consensus, SingleProposerStillDecides) {
  // Other processes participate passively (ACK proposals) even before they
  // propose; a lone proposer coordinating round 0 decides.
  ConsensusWorld w(3);
  w.procs[0].consensus->propose(0, bytes_of("only"), w.all);
  ASSERT_TRUE(test::run_until(w.engine, sec(5), [&] { return w.all_alive_decided(0); }));
  EXPECT_EQ(w.agreed_value(0), "only");
}

TEST(Consensus, ToleratesMinorityCrashBeforePropose) {
  ConsensusWorld w(5);
  w.crash(4);
  for (ProcessId p = 0; p < 4; ++p) {
    w.procs[static_cast<std::size_t>(p)].consensus->propose(
        0, bytes_of("v" + std::to_string(p)), w.all);
  }
  ASSERT_TRUE(test::run_until(w.engine, sec(10), [&] { return w.all_alive_decided(0); }));
  w.agreed_value(0);
}

TEST(Consensus, ToleratesCoordinatorCrash) {
  // Process 0 coordinates round 0 of instance 0; crash it mid-run.
  ConsensusWorld w(5);
  for (ProcessId p = 0; p < 5; ++p) {
    w.procs[static_cast<std::size_t>(p)].consensus->propose(
        0, bytes_of("v" + std::to_string(p)), w.all);
  }
  // Let the coordinator receive some estimates, then kill it.
  w.engine.run_until(usec(300));
  w.crash(0);
  ASSERT_TRUE(test::run_until(w.engine, sec(10), [&] { return w.all_alive_decided(0); }));
  w.agreed_value(0);
}

TEST(Consensus, SafeUnderFalseSuspicions) {
  // Inject false suspicions of the round-0 coordinator at two processes:
  // rounds churn but agreement and termination hold (the ◇S point).
  ConsensusWorld w(3);
  for (ProcessId p = 0; p < 3; ++p) {
    w.procs[static_cast<std::size_t>(p)].consensus->propose(
        0, bytes_of("v" + std::to_string(p)), w.all);
  }
  w.procs[1].fd->monitor(w.procs[1].fd_class, 0);
  w.procs[1].fd->inject_suspicion(w.procs[1].fd_class, 0);
  w.procs[2].fd->monitor(w.procs[2].fd_class, 0);
  w.procs[2].fd->inject_suspicion(w.procs[2].fd_class, 0);
  ASSERT_TRUE(test::run_until(w.engine, sec(10), [&] { return w.all_alive_decided(0); }));
  w.agreed_value(0);
}

TEST(Consensus, ManySequentialInstances) {
  ConsensusWorld w(3);
  const int kInstances = 20;
  for (std::uint64_t k = 0; k < kInstances; ++k) {
    for (ProcessId p = 0; p < 3; ++p) {
      w.procs[static_cast<std::size_t>(p)].consensus->propose(
          k, bytes_of("k" + std::to_string(k) + "p" + std::to_string(p)), w.all);
    }
  }
  ASSERT_TRUE(test::run_until(w.engine, sec(30), [&] {
    for (std::uint64_t k = 0; k < kInstances; ++k) {
      if (!w.all_alive_decided(k)) return false;
    }
    return true;
  }));
  for (std::uint64_t k = 0; k < kInstances; ++k) {
    const std::string v = w.agreed_value(k);
    EXPECT_EQ(v.substr(0, v.find('p')), "k" + std::to_string(k));
  }
}

TEST(Consensus, DecidedInstanceRepropose) {
  ConsensusWorld w(3);
  for (ProcessId p = 0; p < 3; ++p) {
    w.procs[static_cast<std::size_t>(p)].consensus->propose(0, bytes_of("x"), w.all);
  }
  ASSERT_TRUE(test::run_until(w.engine, sec(5), [&] { return w.all_alive_decided(0); }));
  // Proposing again for a decided instance must not re-deliver (the decide
  // callback asserts exactly-once)... it re-delivers to the caller only via
  // the callback; our harness forbids duplicates, so expect death in debug.
  // Here we simply check it does not corrupt state for a following instance.
  for (ProcessId p = 0; p < 3; ++p) {
    w.procs[static_cast<std::size_t>(p)].consensus->propose(1, bytes_of("y"), w.all);
  }
  ASSERT_TRUE(test::run_until(w.engine, sec(5), [&] { return w.all_alive_decided(1); }));
  EXPECT_EQ(w.agreed_value(1), "y");
}

TEST(Consensus, LatePropoerLearnsDecision) {
  ConsensusWorld w(3);
  // Only 0 and 1 propose; 2 stays quiet (it still ACKs passively).
  w.procs[0].consensus->propose(0, bytes_of("early"), w.all);
  w.procs[1].consensus->propose(0, bytes_of("early2"), w.all);
  ASSERT_TRUE(test::run_until(w.engine, sec(5), [&] { return w.all_alive_decided(0); }));
  // 2 received the DECIDE without having proposed.
  EXPECT_TRUE(w.procs[2].decisions.count(0));
}

TEST(Consensus, LossyNetworkStillTerminates) {
  ConsensusWorld w(5, sim::LinkModel{usec(300), usec(300), 0.2}, msec(60), 99);
  for (ProcessId p = 0; p < 5; ++p) {
    w.procs[static_cast<std::size_t>(p)].consensus->propose(
        0, bytes_of("v" + std::to_string(p)), w.all);
  }
  ASSERT_TRUE(test::run_until(w.engine, sec(30), [&] { return w.all_alive_decided(0); }));
  w.agreed_value(0);
}

/// Property sweep: agreement + validity + termination over random seeds,
/// crash schedules and link parameters.
class ConsensusProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ConsensusProperty, AgreementValidityTermination) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed);
  const int n = 3 + static_cast<int>(rng.next_below(4));  // 3..6
  const int max_crashes = (n - 1) / 2;
  const int crashes = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(max_crashes + 1)));
  sim::LinkModel link{usec(100 + rng.next_range(0, 400)), usec(rng.next_range(0, 400)),
                      rng.next_double() * 0.15};
  ConsensusWorld w(n, link, msec(60), seed);
  for (ProcessId p = 0; p < n; ++p) {
    w.procs[static_cast<std::size_t>(p)].consensus->propose(
        0, bytes_of("v" + std::to_string(p)), w.all);
  }
  // Crash a random minority at random times early in the run.
  std::set<ProcessId> crashed;
  for (int i = 0; i < crashes; ++i) {
    ProcessId victim;
    do {
      victim = static_cast<ProcessId>(rng.next_below(static_cast<std::uint64_t>(n)));
    } while (crashed.count(victim));
    crashed.insert(victim);
    const Duration when = rng.next_range(0, msec(2));
    w.engine.schedule_at(when, [&w, victim] { w.crash(victim); });
  }
  ASSERT_TRUE(test::run_until(w.engine, sec(60), [&] { return w.all_alive_decided(0); }))
      << "n=" << n << " crashes=" << crashes << " seed=" << seed;
  const std::string v = w.agreed_value(0);
  ASSERT_FALSE(v.empty());
  EXPECT_EQ(v[0], 'v');  // validity: some process's proposal
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConsensusProperty, ::testing::Range<std::uint64_t>(1, 26));

TEST(Consensus, StaleMessagesBelowTheWatermarkAreDropped) {
  // As for Paxos: once p0 forgot instances 0..4, a late ESTIMATE, PROPOSE,
  // ACK, NACK, DECIDE or ANNOUNCE for one of them is dropped.
  ConsensusWorld w(3);
  for (std::uint64_t k = 0; k < 5; ++k) {
    for (ProcessId p = 0; p < 3; ++p) {
      w.procs[static_cast<std::size_t>(p)].consensus->propose(k, bytes_of("v"), w.all);
    }
  }
  ASSERT_TRUE(test::run_until(w.engine, sec(10), [&] { return w.all_alive_decided(4); }));
  w.engine.run_until(w.engine.now() + msec(200));
  auto& p0 = w.procs[0];
  p0.consensus->forget_below(5);
  const std::int64_t decided = p0.consensus->instances_decided();
  const std::int64_t sent = p0.ctx->metrics().counter("consensus.wire_msgs");
  // Wire kinds: ESTIMATE, PROPOSE, ACK, NACK (consensus.cpp), 4 (unused),
  // DECIDE and ANNOUNCE (the shell's).
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
      enc.put_i64(3);  // round
      if (kind == 0) enc.put_i64(1);  // estimate timestamp
      if (kind <= 1) enc.put_bytes(bytes_of("stale"));
    }
    w.procs[1].channel->send(0, Tag::kConsensus, enc.take());
    w.engine.run_until(w.engine.now() + msec(100));
    EXPECT_EQ(p0.consensus->open_instances(), 0);
    EXPECT_EQ(p0.consensus->instances_decided(), decided);
    EXPECT_FALSE(p0.consensus->decided(2));
    EXPECT_EQ(p0.ctx->metrics().counter("consensus.wire_msgs"), sent);
  }
}

}  // namespace
}  // namespace gcs
