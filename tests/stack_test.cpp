/// Integration tests: the whole Fig 9 stack end to end, including the
/// paper's headline behaviours (§3.1, §4.3, §4.4).
#include <gtest/gtest.h>

#include "consensus/consensus.hpp"
#include "consensus/paxos.hpp"
#include "core/stack.hpp"
#include "tests/test_util.hpp"

namespace gcs {
namespace {

using test::bytes_of;
using test::consistent_prefix;

World::Config cfg(int n, std::uint64_t seed = 1, StackConfig sc = {}) {
  World::Config c;
  c.n = n;
  c.seed = seed;
  c.stack = std::move(sc);
  return c;
}

TEST(Stack, EndToEndMixedWorkload) {
  // On assertion failure the recorder dumps the recent protocol history.
  test::FlightRecorder fr;
  StackConfig sc;
  fr.install(sc);
  World w(cfg(4, 1, sc));
  test::ScenarioOracle oracle(w, msec(20), 1);
  std::vector<test::DeliveryLog> alogs(4);
  std::vector<test::DeliveryLog> glogs(4);
  for (ProcessId p = 0; p < 4; ++p) {
    w.stack(p).on_adeliver([&alogs, p](const MsgId& id, const Bytes& b) {
      alogs[static_cast<std::size_t>(p)].record(id, b);
    });
    w.stack(p).on_gdeliver([&glogs, p](const MsgId& id, MsgClass, const Bytes& b) {
      glogs[static_cast<std::size_t>(p)].record(id, b);
    });
  }
  w.found_group_all();
  for (int i = 0; i < 10; ++i) {
    w.stack(static_cast<ProcessId>(i % 4)).abcast(bytes_of("a" + std::to_string(i)));
    w.stack(static_cast<ProcessId>((i + 1) % 4)).rbcast(bytes_of("r" + std::to_string(i)));
  }
  ASSERT_TRUE(test::run_until(w.engine(), sec(30), [&] {
    for (int p = 0; p < 4; ++p) {
      if (alogs[static_cast<std::size_t>(p)].size() < 10) return false;
      if (glogs[static_cast<std::size_t>(p)].size() < 10) return false;
    }
    return true;
  }));
  for (int p = 1; p < 4; ++p) {
    EXPECT_TRUE(consistent_prefix(alogs[0].order, alogs[static_cast<std::size_t>(p)].order));
  }
  w.run_for(sec(1));  // settle before the oracle's finalize-time checks
}

TEST(Stack, AbcastKeepsRunningThroughFalseSuspicions) {
  // The headline §3.1.1 property: atomic broadcast above ◇S consensus does
  // not block or reconfigure when the FD is wrong. Inject a burst of false
  // suspicions of every process while traffic flows.
  StackConfig sc;
  sc.consensus_suspect_timeout = msec(40);
  sc.monitoring.exclusion_timeout = sec(60);
  World w(cfg(4, 3, sc));
  test::ScenarioOracle oracle(w, msec(20), 3);
  std::vector<test::DeliveryLog> alogs(4);
  for (ProcessId p = 0; p < 4; ++p) {
    w.stack(p).on_adeliver([&alogs, p](const MsgId& id, const Bytes& b) {
      alogs[static_cast<std::size_t>(p)].record(id, b);
    });
  }
  w.found_group_all();
  int sent = 0;
  for (int burst = 0; burst < 5; ++burst) {
    for (ProcessId p = 0; p < 4; ++p) {
      w.stack(p).abcast(bytes_of(std::to_string(sent++)));
      // Everyone wrongly suspects the round-robin coordinator candidates.
      w.stack(p).fd().inject_suspicion(w.stack(p).consensus_fd_class(),
                                       static_cast<ProcessId>((p + 1) % 4));
    }
    w.run_for(msec(50));
  }
  ASSERT_TRUE(test::run_until(w.engine(), sec(60), [&] {
    for (int p = 0; p < 4; ++p) {
      if (alogs[static_cast<std::size_t>(p)].size() < static_cast<std::size_t>(sent)) return false;
    }
    return true;
  }));
  // Nobody got excluded: suspicions stayed at the consensus level.
  EXPECT_EQ(w.stack(0).view().members.size(), 4u);
  for (int p = 1; p < 4; ++p) {
    EXPECT_EQ(alogs[static_cast<std::size_t>(p)].order, alogs[0].order);
  }
}

TEST(Stack, CrashRecoveryEndToEnd) {
  // Crash a member mid-traffic: abcast continues (majority), monitoring
  // eventually excludes the corpse, and the group keeps delivering.
  StackConfig sc;
  sc.monitoring.exclusion_timeout = msec(600);
  World w(cfg(5, 9, sc));
  test::ScenarioOracle oracle(w, msec(20), 9);
  oracle.set_metrics(&w.stack(0).metrics());
  std::vector<test::DeliveryLog> alogs(5);
  for (ProcessId p = 0; p < 5; ++p) {
    w.stack(p).on_adeliver([&alogs, p](const MsgId& id, const Bytes& b) {
      alogs[static_cast<std::size_t>(p)].record(id, b);
    });
  }
  w.found_group_all();
  for (int i = 0; i < 5; ++i) w.stack(0).abcast(bytes_of("pre" + std::to_string(i)));
  w.run_for(msec(50));
  w.crash(4);
  for (int i = 0; i < 5; ++i) w.stack(1).abcast(bytes_of("mid" + std::to_string(i)));
  ASSERT_TRUE(test::run_until(w.engine(), sec(20),
                              [&] { return !w.stack(0).view().contains(4); }));
  for (int i = 0; i < 5; ++i) w.stack(2).abcast(bytes_of("post" + std::to_string(i)));
  ASSERT_TRUE(test::run_until(w.engine(), sec(30), [&] {
    for (ProcessId p = 0; p < 4; ++p) {
      if (alogs[static_cast<std::size_t>(p)].size() < 15) return false;
    }
    return true;
  }));
  for (ProcessId p = 1; p < 4; ++p) {
    EXPECT_EQ(alogs[static_cast<std::size_t>(p)].order, alogs[0].order);
  }
}

// A crashed member never acknowledges the DECIDEs sent to it, and those of
// instances begun before its exclusion still go to it afterwards. Once it
// is out of the view, each decider's confirmed watermark must move again,
// so the other members stop keeping forgotten decisions for relay.
template <typename Algo>
void excluded_member_stops_holding_decisions(StackConfig::ConsensusAlgo algo) {
  StackConfig sc;
  sc.consensus_algorithm = algo;
  sc.abcast.pipeline_depth = 8;
  sc.monitoring.exclusion_timeout = msec(300);
  World w(cfg(5, 3, sc));
  w.found_group_all();
  const auto shell = [&w](ProcessId p) -> Algo& {
    return dynamic_cast<Algo&>(w.stack(p).consensus());
  };
  // One abcast per millisecond from the survivors.
  int sent = 0;
  const auto stream = [&](Duration d) {
    for (Duration t = 0; t < d; t += msec(1)) {
      w.stack(static_cast<ProcessId>(sent % 4)).abcast(bytes_of(std::to_string(sent)));
      ++sent;
      w.run_for(msec(1));
    }
  };
  stream(msec(50));
  w.crash(4);
  while (w.stack(0).view().contains(4) || w.stack(1).view().contains(4) ||
         w.stack(2).view().contains(4) || w.stack(3).view().contains(4)) {
    ASSERT_LT(sent, 10'000);
    stream(msec(10));
  }
  // Past the exclusion, then quiet so every acknowledgement comes in, then
  // a few more DECIDEs to carry the watermarks.
  stream(msec(200));
  w.run_for(msec(200));
  stream(msec(20));
  w.run_for(msec(200));
  for (ProcessId p = 0; p < 4; ++p) {
    EXPECT_EQ(shell(p).unconfirmed_decide_sends(), 0u) << "p" << p;
    EXPECT_EQ(shell(p).kept_for_relay(), 0u) << "p" << p;
  }
}

TEST(Stack, ExcludedMemberStopsHoldingDecisionsChandraToueg) {
  excluded_member_stops_holding_decisions<Consensus>(StackConfig::ConsensusAlgo::kChandraToueg);
}

TEST(Stack, ExcludedMemberStopsHoldingDecisionsPaxos) {
  excluded_member_stops_holding_decisions<PaxosConsensus>(StackConfig::ConsensusAlgo::kPaxos);
}

// The Paxos leader leaves. Once the view without it is installed, nobody
// leaves its messages to the departed leader: the first proposal adopts the
// new member set, whose ballot-0 owner leads, and a message sent right
// after the view change is delivered well within the hold (60 ms).
TEST(Stack, PaxosLeaderLeavingStallsNoProposal) {
  StackConfig sc;
  sc.consensus_algorithm = StackConfig::ConsensusAlgo::kPaxos;
  World w(cfg(4, 5, sc));
  w.found_group_all();
  // The followers' messages reach p0 only after the hold, so each follower
  // proposes them itself and so runs the epoch of {0, 1, 2, 3}.
  for (ProcessId q = 1; q < 4; ++q) {
    w.network().set_link(q, 0, sim::LinkModel{msec(80), 0, 0.0});
    w.stack(q).abcast(bytes_of("held"));
  }
  w.run_for(msec(200));
  for (ProcessId q = 1; q < 4; ++q) w.network().set_link(q, 0, sim::LinkModel{});
  w.run_for(msec(200));
  ASSERT_EQ(w.stack(1).consensus().proposer().leader, 0);
  w.stack(0).leave();
  const auto left = [&w] {
    for (ProcessId p = 1; p < 4; ++p) {
      if (w.stack(p).view().contains(0)) return false;
    }
    return true;
  };
  ASSERT_TRUE(test::run_until(w.engine(), sec(5), left));
  std::vector<int> delivered(4, 0);
  for (ProcessId p = 1; p < 4; ++p) {
    w.stack(p).on_adeliver([&delivered, p](const MsgId&, const Bytes& m) {
      if (m == bytes_of("after")) ++delivered[static_cast<std::size_t>(p)];
    });
  }
  const TimePoint sent_at = w.engine().now();
  w.stack(2).abcast(bytes_of("after"));
  ASSERT_TRUE(test::run_until(w.engine(), sec(1), [&] {
    return delivered[1] == 1 && delivered[2] == 1 && delivered[3] == 1;
  }));
  EXPECT_LT(w.engine().now() - sent_at, msec(20));
}

// Paxos followers leave their proposals to the leader, so they learn every
// decision passively and start no instance of their own. The leader p0
// decides "a" but its DECIDE reaches p1 and p2 only, and it crashes. p2
// suspects it at once and takes the lead for "b"; p3 then names p2 and,
// as p2 has decided "a"'s instance, gets nothing from announcing its own
// proposal there. Only a relay of the decision brings "a" to p3: a
// member that suspects the decider relays to the view when it knows no
// member set of the instance.
TEST(Stack, PassivePaxosFollowersRelayTheDecisionOfACrashedLeader) {
  StackConfig sc;
  sc.consensus_algorithm = StackConfig::ConsensusAlgo::kPaxos;
  World w(cfg(4, 3, sc));
  std::vector<std::vector<std::string>> log(4);
  for (ProcessId p = 0; p < 4; ++p) {
    w.stack(p).on_adeliver([&log, p](const MsgId&, const Bytes& m) {
      log[static_cast<std::size_t>(p)].emplace_back(m.begin(), m.end());
    });
  }
  w.found_group_all();
  w.run_for(msec(50));
  w.network().set_link(0, 3, sim::LinkModel{usec(200), usec(100), 1.0});
  w.stack(1).abcast(bytes_of("a"));
  ASSERT_TRUE(test::run_until(w.engine(), sec(1), [&] {
    return log[1].size() == 1 && log[2].size() == 1;
  }));
  w.crash(0);
  w.stack(2).fd().inject_suspicion(w.stack(2).consensus_fd_class(), 0);
  w.stack(2).abcast(bytes_of("b"));
  // Well before p0's exclusion (2 s), whose view change would also end
  // the wait.
  const std::vector<std::string> both{"a", "b"};
  ASSERT_TRUE(test::run_until(w.engine(), msec(500), [&] {
    return log[1] == both && log[2] == both && log[3] == both;
  })) << "p3 delivered " << log[3].size();
}

TEST(Stack, SendersNeverBlockDuringViewChange) {
  // §4.4: with membership above abcast, a join does NOT block senders.
  // Fire traffic continuously across a join and verify that messages sent
  // during the view change are accepted and delivered.
  World w(cfg(4, 5));
  test::ScenarioOracle oracle(w, msec(20), 5);
  std::vector<test::DeliveryLog> alogs(4);
  for (ProcessId p = 0; p < 4; ++p) {
    w.stack(p).on_adeliver([&alogs, p](const MsgId& id, const Bytes& b) {
      alogs[static_cast<std::size_t>(p)].record(id, b);
    });
  }
  w.found_group({0, 1, 2});
  int sent = 0;
  // Interleave: send, start join, keep sending during the change.
  for (int i = 0; i < 3; ++i) w.stack(0).abcast(bytes_of(std::to_string(sent++)));
  w.stack(3).join(1);
  for (int i = 0; i < 10; ++i) {
    w.stack(static_cast<ProcessId>(i % 3)).abcast(bytes_of(std::to_string(sent++)));
    w.run_for(msec(2));
  }
  ASSERT_TRUE(test::run_until(w.engine(), sec(30), [&] {
    return alogs[0].size() >= static_cast<std::size_t>(sent) &&
           w.stack(3).membership().is_member();
  }));
  EXPECT_EQ(alogs[0].size(), static_cast<std::size_t>(sent));
  EXPECT_TRUE(consistent_prefix(alogs[0].order, alogs[1].order));
  w.run_for(sec(1));  // settle before the oracle's finalize-time checks
}

TEST(Stack, GenericBroadcastAndMembershipCompose) {
  // gbcast traffic across a membership change stays safe.
  test::FlightRecorder fr;
  StackConfig sc;
  fr.install(sc);
  World w(cfg(5, 13, sc));
  test::ScenarioOracle oracle(w, msec(20), 13);
  std::vector<test::DeliveryLog> glogs(5);
  for (ProcessId p = 0; p < 5; ++p) {
    w.stack(p).on_gdeliver([&glogs, p](const MsgId& id, MsgClass, const Bytes& b) {
      glogs[static_cast<std::size_t>(p)].record(id, b);
    });
  }
  w.found_group({0, 1, 2, 3});
  for (int i = 0; i < 5; ++i) {
    w.stack(static_cast<ProcessId>(i % 4)).rbcast(bytes_of("pre" + std::to_string(i)));
  }
  w.run_for(msec(50));
  w.stack(4).join(0);
  ASSERT_TRUE(test::run_until(w.engine(), sec(20),
                              [&] { return w.stack(4).membership().is_member(); }));
  for (int i = 0; i < 5; ++i) {
    w.stack(static_cast<ProcessId>(i % 5)).gbcast((i % 2) ? kAbcastClass : kRbcastClass,
                                                  bytes_of("post" + std::to_string(i)));
  }
  ASSERT_TRUE(test::run_until(w.engine(), sec(30), [&] {
    for (ProcessId p = 0; p < 4; ++p) {
      if (glogs[static_cast<std::size_t>(p)].size() < 10) return false;
    }
    return glogs[4].size() >= 5;
  }));
  // Old members delivered everything exactly once.
  for (ProcessId p = 0; p < 4; ++p) {
    std::set<MsgId> uniq(glogs[static_cast<std::size_t>(p)].order.begin(),
                         glogs[static_cast<std::size_t>(p)].order.end());
    EXPECT_EQ(uniq.size(), glogs[static_cast<std::size_t>(p)].order.size());
  }
}

TEST(Stack, DeterministicAcrossRuns) {
  auto run_once = [](std::uint64_t seed) {
    World w(cfg(4, seed));
    std::vector<MsgId> order;
    w.stack(0).on_adeliver([&order](const MsgId& id, const Bytes&) { order.push_back(id); });
    w.found_group_all();
    for (int i = 0; i < 8; ++i) {
      w.stack(static_cast<ProcessId>(i % 4)).abcast(bytes_of(std::to_string(i)));
    }
    test::run_until(w.engine(), sec(10), [&] { return order.size() >= 8; });
    return order;
  };
  EXPECT_EQ(run_once(42), run_once(42));
}

TEST(Stack, MetricsAreExposed) {
  World w(cfg(3));
  w.found_group_all();
  w.stack(0).abcast(bytes_of("x"));
  w.run_for(sec(1));
  EXPECT_GT(w.stack(0).metrics().counter("abcast.broadcasts"), 0);
  EXPECT_GT(w.stack(0).metrics().counter("consensus.decided"), 0);
  EXPECT_GT(w.network().metrics().counter("net.delivered"), 0);
}

}  // namespace
}  // namespace gcs
