#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "core/stack.hpp"
#include "tests/test_util.hpp"

namespace gcs {
namespace {

using test::bytes_of;
using test::str_of;

struct GbLog {
  std::vector<MsgId> order;
  std::map<MsgId, MsgClass> classes;
  std::map<MsgId, std::string> payloads;

  void record(const MsgId& id, MsgClass cls, const Bytes& b) {
    order.push_back(id);
    classes[id] = cls;
    payloads[id] = str_of(b);
  }
  /// Position of id in the delivery order, or npos.
  std::size_t position(const MsgId& id) const {
    for (std::size_t i = 0; i < order.size(); ++i) {
      if (order[i] == id) return i;
    }
    return static_cast<std::size_t>(-1);
  }
};

struct GbWorld {
  World world;
  std::vector<GbLog> logs;
  // Declared after `world`: the oracle finalizes before the world tears down.
  std::unique_ptr<test::ScenarioOracle> oracle;

  explicit GbWorld(int n, ConflictRelation rel = ConflictRelation::rbcast_abcast(),
                   std::uint64_t seed = 1, sim::LinkModel link = {}, StackConfig stack = {})
      : world(make_config(n, std::move(rel), seed, link, std::move(stack))),
        logs(static_cast<std::size_t>(n)) {
    oracle = std::make_unique<test::ScenarioOracle>(world, msec(20), seed);
    for (ProcessId p = 0; p < n; ++p) {
      auto& log = logs[static_cast<std::size_t>(p)];
      world.stack(p).on_gdeliver(
          [&log](const MsgId& id, MsgClass cls, const Bytes& b) { log.record(id, cls, b); });
    }
    world.found_group_all();
  }

  static World::Config make_config(int n, ConflictRelation rel, std::uint64_t seed,
                                   sim::LinkModel link, StackConfig stack) {
    World::Config cfg;
    cfg.n = n;
    cfg.seed = seed;
    cfg.link = link;
    cfg.stack = std::move(stack);
    cfg.stack.conflict = std::move(rel);
    return cfg;
  }

  bool all_alive_delivered(std::size_t count) {
    for (ProcessId p = 0; p < static_cast<ProcessId>(logs.size()); ++p) {
      if (!world.network().alive(p)) continue;
      if (logs[static_cast<std::size_t>(p)].order.size() < count) return false;
    }
    return true;
  }

  /// Check the generic-broadcast order property: conflicting pairs are
  /// delivered in the same relative order at every pair of processes.
  void expect_conflict_order(const ConflictRelation& rel) {
    for (std::size_t a = 0; a < logs.size(); ++a) {
      for (std::size_t b = a + 1; b < logs.size(); ++b) {
        const auto& la = logs[a];
        const auto& lb = logs[b];
        for (std::size_t i = 0; i < la.order.size(); ++i) {
          for (std::size_t j = i + 1; j < la.order.size(); ++j) {
            const MsgId x = la.order[i];
            const MsgId y = la.order[j];
            if (!rel.conflicts(la.classes.at(x), la.classes.at(y))) continue;
            const std::size_t px = lb.position(x);
            const std::size_t py = lb.position(y);
            if (px == static_cast<std::size_t>(-1) || py == static_cast<std::size_t>(-1)) continue;
            EXPECT_LT(px, py) << "conflicting pair " << to_string(x) << "," << to_string(y)
                              << " ordered differently at p" << a << " and p" << b;
          }
        }
      }
    }
  }
};

TEST(GenericBroadcast, NonConflictingFastPathAvoidsConsensus) {
  GbWorld w(4);
  for (int i = 0; i < 10; ++i) {
    w.world.stack(static_cast<ProcessId>(i % 4)).rbcast(bytes_of("m" + std::to_string(i)));
  }
  ASSERT_TRUE(test::run_until(w.world, sec(5), [&] { return w.all_alive_delivered(10); }));
  for (ProcessId p = 0; p < 4; ++p) {
    auto& gb = w.world.stack(p).generic_broadcast();
    EXPECT_EQ(gb.fast_deliveries(), 10u);
    EXPECT_EQ(gb.resolved_deliveries(), 0u);
    EXPECT_EQ(gb.rounds_resolved(), 0u);
    // Thrifty: no consensus ran at all.
    EXPECT_EQ(w.world.stack(p).consensus().instances_decided(), 0);
  }
}

TEST(GenericBroadcast, ConflictingMessagesTriggerResolutionAndAgree) {
  GbWorld w(4);
  // Two conflicting (class 1) messages from different senders, racing.
  const MsgId m1 = w.world.stack(0).gbcast(kAbcastClass, bytes_of("a"));
  const MsgId m2 = w.world.stack(1).gbcast(kAbcastClass, bytes_of("b"));
  ASSERT_TRUE(test::run_until(w.world, sec(10), [&] { return w.all_alive_delivered(2); }));
  w.expect_conflict_order(ConflictRelation::rbcast_abcast());
  // All processes delivered both, in the same order.
  const auto& ref = w.logs[0].order;
  for (ProcessId p = 1; p < 4; ++p) {
    EXPECT_EQ(w.logs[static_cast<std::size_t>(p)].order, ref);
  }
  EXPECT_TRUE((ref[0] == m1 && ref[1] == m2) || (ref[0] == m2 && ref[1] == m1));
  EXPECT_GT(w.world.stack(0).generic_broadcast().rounds_resolved(), 0u);
}

TEST(GenericBroadcast, MixedTrafficOrdersConflictsOnly) {
  GbWorld w(4, ConflictRelation::rbcast_abcast(), 7);
  for (int i = 0; i < 20; ++i) {
    const MsgClass cls = (i % 5 == 0) ? kAbcastClass : kRbcastClass;
    w.world.stack(static_cast<ProcessId>(i % 4)).gbcast(cls, bytes_of(std::to_string(i)));
  }
  ASSERT_TRUE(test::run_until(w.world, sec(20), [&] { return w.all_alive_delivered(20); }));
  w.expect_conflict_order(ConflictRelation::rbcast_abcast());
}

TEST(GenericBroadcast, AllConflictBehavesLikeAtomicBroadcast) {
  GbWorld w(4, ConflictRelation::all_conflict());
  for (int i = 0; i < 8; ++i) {
    w.world.stack(static_cast<ProcessId>(i % 4)).gbcast(0, bytes_of(std::to_string(i)));
  }
  ASSERT_TRUE(test::run_until(w.world, sec(20), [&] { return w.all_alive_delivered(8); }));
  // Total order across ALL messages.
  for (ProcessId p = 1; p < 4; ++p) {
    EXPECT_EQ(w.logs[static_cast<std::size_t>(p)].order, w.logs[0].order);
  }
}

TEST(GenericBroadcast, NoneConflictNeverResolves) {
  GbWorld w(4, ConflictRelation::none_conflict());
  for (int i = 0; i < 12; ++i) {
    w.world.stack(static_cast<ProcessId>(i % 4)).gbcast(static_cast<MsgClass>(i % 2),
                                                        bytes_of(std::to_string(i)));
  }
  ASSERT_TRUE(test::run_until(w.world, sec(5), [&] { return w.all_alive_delivered(12); }));
  for (ProcessId p = 0; p < 4; ++p) {
    EXPECT_EQ(w.world.stack(p).generic_broadcast().rounds_resolved(), 0u);
  }
}

TEST(GenericBroadcast, UpdatePrimaryChangeTable) {
  // The §3.2.3 conflict table: updates commute, primary-change orders all.
  const auto rel = ConflictRelation::update_primary_change();
  EXPECT_FALSE(rel.conflicts(kRbcastClass, kRbcastClass));
  EXPECT_TRUE(rel.conflicts(kRbcastClass, kAbcastClass));
  EXPECT_TRUE(rel.conflicts(kAbcastClass, kRbcastClass));
  EXPECT_TRUE(rel.conflicts(kAbcastClass, kAbcastClass));
}

TEST(GenericBroadcast, DeliveryIsUniformAcrossProcesses) {
  GbWorld w(4, ConflictRelation::rbcast_abcast(), 11,
            sim::LinkModel{usec(200), usec(400), 0.1});
  for (int i = 0; i < 15; ++i) {
    const MsgClass cls = (i % 3 == 0) ? kAbcastClass : kRbcastClass;
    w.world.stack(static_cast<ProcessId>(i % 4)).gbcast(cls, bytes_of(std::to_string(i)));
  }
  ASSERT_TRUE(test::run_until(w.world, sec(30), [&] { return w.all_alive_delivered(15); }));
  // Same message set everywhere.
  std::set<MsgId> ref(w.logs[0].order.begin(), w.logs[0].order.end());
  for (ProcessId p = 1; p < 4; ++p) {
    std::set<MsgId> got(w.logs[static_cast<std::size_t>(p)].order.begin(),
                        w.logs[static_cast<std::size_t>(p)].order.end());
    EXPECT_EQ(got, ref);
  }
  w.expect_conflict_order(ConflictRelation::rbcast_abcast());
}

TEST(GenericBroadcast, SurvivesOneCrashWithTimeoutResolution) {
  GbWorld w(4);
  // Crash one process; fast quorum is 3 of 4, so the fast path still works;
  // when it doesn't (acks lost to the crash), the deadline path resolves.
  w.world.crash(3);
  for (int i = 0; i < 6; ++i) {
    w.world.stack(static_cast<ProcessId>(i % 3)).rbcast(bytes_of(std::to_string(i)));
  }
  ASSERT_TRUE(test::run_until(w.world, sec(30), [&] { return w.all_alive_delivered(6); }));
}

TEST(GenericBroadcast, ConflictAfterFastDeliveryOrdersCorrectly) {
  GbWorld w(4);
  // m1 fast-delivers first; then m2 (conflicting class) arrives. Everyone
  // must order m1 before m2.
  const MsgId m1 = w.world.stack(0).rbcast(bytes_of("update"));
  ASSERT_TRUE(test::run_until(w.world, sec(5), [&] { return w.all_alive_delivered(1); }));
  const MsgId m2 = w.world.stack(1).gbcast(kAbcastClass, bytes_of("primary-change"));
  ASSERT_TRUE(test::run_until(w.world, sec(10), [&] { return w.all_alive_delivered(2); }));
  for (ProcessId p = 0; p < 4; ++p) {
    const auto& log = w.logs[static_cast<std::size_t>(p)];
    EXPECT_LT(log.position(m1), log.position(m2)) << "at p" << p;
  }
}

TEST(GenericBroadcast, SettledMessageStaysInItsRoundsReports) {
  // p0..p2 fast-deliver m and, holding all four acks, settle it; p3 holds m
  // but two of the acks it needs are still in flight. A conflicting message
  // then ends the round, and the three other reports alone resolve it at p3.
  // They must still list m as acked: otherwise p3 delivers m a round later
  // than everyone else (the oracle's gb.fast_path_stability). p1 and p2
  // reach p3 last of all: the acks, and the conflicting message and the
  // reports that only their origins send to p3, whose payloads p3 pulls
  // from p0 in the meantime.
  GbWorld w(4);
  sim::Network& net = w.world.network();
  const sim::LinkModel slower{msec(30), 0, 0.0};
  const sim::LinkModel slowest{msec(300), 0, 0.0};
  net.set_link(1, 3, slowest);
  net.set_link(2, 3, slowest);
  const MsgId m = w.world.stack(0).rbcast(bytes_of("m"));
  w.world.run_for(msec(5));
  for (ProcessId p = 0; p < 3; ++p) {
    ASSERT_EQ(w.logs[static_cast<std::size_t>(p)].position(m), 0u) << "at p" << p;
  }
  ASSERT_TRUE(w.logs[3].order.empty());
  net.set_link(0, 3, slower);
  const MsgId m2 = w.world.stack(1).gbcast(kAbcastClass, bytes_of("conflict"));
  ASSERT_TRUE(test::run_until(w.world, sec(10), [&] { return w.all_alive_delivered(2); }));
  for (ProcessId p = 0; p < 4; ++p) {
    const auto& log = w.logs[static_cast<std::size_t>(p)];
    EXPECT_LT(log.position(m), log.position(m2)) << "at p" << p;
  }
  EXPECT_EQ(w.world.stack(3).generic_broadcast().fast_deliveries(), 0u);
  for (ProcessId p = 0; p < 3; ++p) net.set_link(p, 3, sim::LinkModel{});
  w.world.run_for(sec(1));  // settle before the oracle's finalize-time checks
}

/// p4's message m reaches p2 late and never reaches p0 directly; p4 hears
/// of the conflicting pair c0/c1 late, so the first four reports are
/// p0..p3's, and only p1's and p3's list m (enough holders: f+1 = 2). p2
/// resolves the round before m arrives (10 ms) and stalls on a pull. Its
/// first pull goes to p0, which cannot serve it.
MsgId stall_p2_on_a_pull(GbWorld& w) {
  sim::Network& net = w.world.network();
  net.set_link(4, 2, sim::LinkModel{msec(10), 0, 0.0});
  net.set_link(4, 0, sim::LinkModel{usec(200), 0, 1.0});
  net.set_link(0, 4, sim::LinkModel{msec(20), 0, 0.0});
  net.set_link(1, 4, sim::LinkModel{msec(20), 0, 0.0});
  const MsgId m = w.world.stack(4).rbcast(bytes_of("m"));
  w.world.run_for(msec(1));  // p1 and p3 hold and ACK m
  w.world.stack(0).gbcast(kAbcastClass, bytes_of("c0"));
  w.world.stack(1).gbcast(kAbcastClass, bytes_of("c1"));
  return m;
}

void heal_and_settle(GbWorld& w) {
  sim::Network& net = w.world.network();
  for (ProcessId p = 0; p < 5; ++p) {
    for (ProcessId q = 0; q < 5; ++q) net.set_link(p, q, sim::LinkModel{});
  }
  w.world.run_for(sec(1));  // settle before the oracle's finalize-time checks
}

TEST(GenericBroadcast, PayloadArrivingDuringAPullStallFinalizesTheRound) {
  // m arrives by reliable broadcast during the stall, which must end it
  // (the later push from p1 finds m already stored).
  GbWorld w(5);
  const MsgId m = stall_p2_on_a_pull(w);
  ASSERT_TRUE(test::run_until(w.world, sec(1), [&] { return w.all_alive_delivered(3); }));
  EXPECT_GT(w.world.stack(2).metrics().counter("gbcast.pull_requests"), 0)
      << "p2 resolved the round before m arrived";
  EXPECT_EQ(w.world.stack(2).generic_broadcast().fast_deliveries(), 0u);
  for (ProcessId p = 0; p < 5; ++p) {
    EXPECT_NE(w.logs[static_cast<std::size_t>(p)].position(m), static_cast<std::size_t>(-1));
  }
  heal_and_settle(w);
}

TEST(GenericBroadcast, NextRoundsReportsWaitForAStalledMember) {
  // While p2 is stalled, the others finish the round and resolve the next
  // one over a second conflicting pair. p2 adelivers those reports before
  // it has left the stalled round; it must keep them for the next round,
  // or it never collects enough reports there.
  GbWorld w(5);
  stall_p2_on_a_pull(w);
  ASSERT_TRUE(test::run_until(w.world, msec(5), [&] {
    return w.world.stack(0).generic_broadcast().current_round() == 1;
  }));
  ASSERT_EQ(w.world.stack(2).generic_broadcast().current_round(), 0u);
  w.world.stack(0).gbcast(kAbcastClass, bytes_of("c2"));
  w.world.stack(1).gbcast(kAbcastClass, bytes_of("c3"));
  ASSERT_TRUE(test::run_until(w.world, sec(1), [&] { return w.all_alive_delivered(5); }));
  EXPECT_GE(w.world.stack(2).generic_broadcast().rounds_resolved(), 2u);
  heal_and_settle(w);
}

TEST(GenericBroadcast, ViewChangeDuringAStallLeavesLaterRoundsAsResolved) {
  // p2 is stalled in round 0 on m: p4's copy never reaches it, its first
  // pull goes to p0 before p0 holds m, and the next one waits 5 s. The
  // others resolve round 1 over c2/c3 under n = 5 from the reports of p0,
  // p1, p4, p3 (in that order): c2 ACKed by p0 and p3, c3 by p1 and p4, so
  // neither reaches tau = 3 and the sequence is c2, c3. Then p3's removal
  // is adelivered (n = 4). p2 must resolve round 1 as the others did;
  // tallied under n = 4 (report_need 3, tau 2) the first three reports
  // would put c3 first. p2 enters round 1 holding c3 but not c2 (p0's link
  // to it is down): it must not ACK c3 there, or p1's, p4's and its own
  // ACK make a fast quorum of the new group and c3 goes out before c2.
  StackConfig stack;
  stack.gb.pull_retry = sec(5);
  GbWorld w(5, ConflictRelation::rbcast_abcast(), 1, {}, stack);
  sim::Network& net = w.world.network();
  const sim::LinkModel lost{usec(200), 0, 1.0};
  net.set_link(4, 2, lost);
  net.set_link(4, 0, lost);
  net.set_link(0, 4, sim::LinkModel{msec(20), 0, 0.0});
  net.set_link(1, 4, sim::LinkModel{msec(20), 0, 0.0});
  net.set_link(1, 0, sim::LinkModel{msec(3), 0, 0.0});
  net.set_link(3, 0, sim::LinkModel{msec(3), 0, 0.0});
  w.world.stack(4).rbcast(bytes_of("m"));
  w.world.run_for(msec(1));  // p1 and p3 hold and ACK m
  w.world.stack(0).gbcast(kAbcastClass, bytes_of("c0"));
  w.world.stack(1).gbcast(kAbcastClass, bytes_of("c1"));
  ASSERT_TRUE(test::run_until(w.world, msec(50), [&] {
    return w.world.stack(0).generic_broadcast().current_round() == 1;
  }));
  for (const auto& [from, to] : {std::pair{1, 0}, {3, 0}, {0, 4}, {1, 4}}) {
    net.set_link(from, to, sim::LinkModel{});
  }
  w.world.run_for(msec(35));  // drain the slow links' backlog
  net.set_link(0, 4, sim::LinkModel{msec(5), 0, 0.0});  // p4 sees c3 first
  net.set_link(1, 3, sim::LinkModel{msec(5), 0, 0.0});  // p3 sees c2 first
  for (ProcessId q : {0, 1, 2, 4}) net.set_link(3, q, sim::LinkModel{msec(20), 0, 0.0});
  net.set_link(0, 2, lost);
  w.world.stack(0).gbcast(kAbcastClass, bytes_of("c2"));
  w.world.stack(1).gbcast(kAbcastClass, bytes_of("c3"));
  ASSERT_TRUE(test::run_until(w.world, msec(200), [&] {
    return w.world.stack(0).generic_broadcast().current_round() == 2;
  }));
  w.world.stack(0).membership().remove(3);
  ASSERT_TRUE(test::run_until(w.world, msec(200), [&] {
    return w.world.stack(2).generic_broadcast().group().size() == 4;
  }));
  ASSERT_EQ(w.world.stack(2).generic_broadcast().current_round(), 0u) << "p2 is not stalled";
  for (ProcessId p = 0; p < 5; ++p) {
    for (ProcessId q = 0; q < 5; ++q) {
      if (p != 0 || q != 2) net.set_link(p, q, sim::LinkModel{});
    }
  }
  ASSERT_TRUE(test::run_until(w.world, msec(200), [&] {
    return w.world.stack(2).generic_broadcast().current_round() == 1;
  }));
  w.world.run_for(msec(5));  // p4's ACK of c3 arrives; c2 only by a pull
  net.set_link(0, 2, sim::LinkModel{});
  ASSERT_TRUE(test::run_until(w.world, sec(1), [&] { return w.all_alive_delivered(5); }));
  EXPECT_EQ(w.logs[0].payloads[w.logs[0].order[3]], "c2");
  for (ProcessId p = 1; p < 5; ++p) {
    EXPECT_EQ(w.logs[static_cast<std::size_t>(p)].order, w.logs[0].order) << "at p" << p;
  }
  EXPECT_EQ(w.world.stack(2).generic_broadcast().fast_deliveries(), 0u);
  w.expect_conflict_order(ConflictRelation::rbcast_abcast());
  w.world.run_for(sec(1));  // settle before the oracle's finalize-time checks
}

TEST(GenericBroadcast, ConflictFreeRoundsCloseToBoundTheStore) {
  // Settled messages stay in the store until their round ends, so a round
  // no conflict ends is closed by a resolution after a bounded number of
  // settlements (256) instead of growing the store without limit.
  GbWorld w(4);
  const int total = 1000;
  std::size_t store_max = 0;
  for (int i = 0; i < total; ++i) {
    w.world.stack(static_cast<ProcessId>(i % 4)).rbcast(bytes_of(std::to_string(i)));
    w.world.run_for(usec(50));
    store_max = std::max(store_max, w.world.stack(0).generic_broadcast().store_size());
  }
  ASSERT_TRUE(test::run_until(w.world, sec(10), [&] {
    return w.all_alive_delivered(static_cast<std::size_t>(total));
  }));
  auto& gb = w.world.stack(0).generic_broadcast();
  EXPECT_GE(gb.rounds_resolved(), 3u);
  EXPECT_LE(store_max, 256u + 64u);
  EXPECT_GT(gb.fast_deliveries(), static_cast<std::uint64_t>(total) * 9 / 10);
}

TEST(GenericBroadcast, ThriftyConsensusCountScalesWithConflicts) {
  // More conflicting messages => more ordering work; zero conflicts => none.
  auto consensus_count = [](double conflict_fraction) {
    GbWorld w(4, ConflictRelation::rbcast_abcast(), 23);
    const int total = 20;
    const int conflicting = static_cast<int>(total * conflict_fraction);
    for (int i = 0; i < total; ++i) {
      const MsgClass cls = (i < conflicting) ? kAbcastClass : kRbcastClass;
      w.world.stack(static_cast<ProcessId>(i % 4)).gbcast(cls, bytes_of(std::to_string(i)));
    }
    test::run_until(w.world, sec(60), [&] { return w.all_alive_delivered(20); });
    return w.world.stack(0).consensus().instances_decided();
  };
  const auto none = consensus_count(0.0);
  const auto all = consensus_count(1.0);
  EXPECT_EQ(none, 0);
  EXPECT_GT(all, 0);
}

/// Property sweep over seeds: agreement on conflicting pairs under jitter,
/// loss and random class mixes.
class GbcastProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GbcastProperty, ConflictOrderHolds) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed);
  sim::LinkModel link{usec(100 + rng.next_range(0, 300)), usec(rng.next_range(0, 500)),
                      rng.next_double() * 0.1};
  GbWorld w(4, ConflictRelation::rbcast_abcast(), seed, link);
  const int total = 12;
  for (int i = 0; i < total; ++i) {
    const MsgClass cls = rng.chance(0.3) ? kAbcastClass : kRbcastClass;
    w.world.stack(static_cast<ProcessId>(rng.next_below(4))).gbcast(
        cls, bytes_of(std::to_string(i)));
  }
  ASSERT_TRUE(test::run_until(w.world, sec(60), [&] {
    return w.all_alive_delivered(static_cast<std::size_t>(total));
  })) << "seed=" << seed;
  w.expect_conflict_order(ConflictRelation::rbcast_abcast());
}

INSTANTIATE_TEST_SUITE_P(Seeds, GbcastProperty, ::testing::Range<std::uint64_t>(1, 21));

}  // namespace
}  // namespace gcs
