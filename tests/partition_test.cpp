/// Primary-partition behaviour (the paper's membership model, §1.1):
/// during a partition only the majority side makes progress; the minority
/// blocks rather than diverging, and catches up after the heal.
#include <gtest/gtest.h>

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

TEST(Partition, MajoritySideKeepsDeciding) {
  StackConfig sc;
  sc.monitoring.exclusion_timeout = sec(60);  // keep membership static here
  World w(cfg(5, 3, sc));
  test::ScenarioOracle oracle(w, msec(20), 3);
  oracle.skip_finalize();  // ends partitioned: minority is behind by design
  std::vector<test::DeliveryLog> logs(5);
  for (ProcessId p = 0; p < 5; ++p) {
    w.stack(p).on_adeliver([&logs, p](const MsgId& id, const Bytes& b) {
      logs[static_cast<std::size_t>(p)].record(id, b);
    });
  }
  w.found_group_all();
  w.run_for(msec(50));
  w.network().partition({{0, 1, 2}, {3, 4}});
  // Majority side (3 of 5) can still order messages.
  for (int i = 0; i < 5; ++i) w.stack(0).abcast(bytes_of("maj" + std::to_string(i)));
  ASSERT_TRUE(test::run_until(w.engine(), sec(30), [&] {
    return logs[0].size() >= 5 && logs[1].size() >= 5 && logs[2].size() >= 5;
  }));
  // Minority saw nothing new.
  EXPECT_EQ(logs[3].size(), 0u);
  EXPECT_EQ(logs[4].size(), 0u);
}

TEST(Partition, MinoritySideBlocksInsteadOfDiverging) {
  StackConfig sc;
  sc.monitoring.exclusion_timeout = sec(60);
  World w(cfg(5, 5, sc));
  test::ScenarioOracle oracle(w, msec(20), 5);
  oracle.skip_finalize();  // ends partitioned: minority is behind by design
  std::vector<test::DeliveryLog> logs(5);
  for (ProcessId p = 0; p < 5; ++p) {
    w.stack(p).on_adeliver([&logs, p](const MsgId& id, const Bytes& b) {
      logs[static_cast<std::size_t>(p)].record(id, b);
    });
  }
  w.found_group_all();
  w.run_for(msec(50));
  w.network().partition({{0, 1, 2}, {3, 4}});
  // The minority tries to broadcast: nothing may be delivered anywhere in
  // the minority (no majority => no consensus decision).
  w.stack(3).abcast(bytes_of("doomed"));
  w.run_for(sec(3));
  EXPECT_EQ(logs[3].size(), 0u);
  EXPECT_EQ(logs[4].size(), 0u);
  // ...and, critically, NOT in some diverged form on the majority side
  // either: the message never reached them.
  EXPECT_EQ(logs[0].size(), 0u);
}

TEST(Partition, HealLetsEveryoneCatchUpConsistently) {
  StackConfig sc;
  sc.monitoring.exclusion_timeout = sec(60);
  World w(cfg(5, 7, sc));
  test::ScenarioOracle oracle(w, msec(20), 7);
  std::vector<test::DeliveryLog> logs(5);
  for (ProcessId p = 0; p < 5; ++p) {
    w.stack(p).on_adeliver([&logs, p](const MsgId& id, const Bytes& b) {
      logs[static_cast<std::size_t>(p)].record(id, b);
    });
  }
  w.found_group_all();
  w.run_for(msec(50));
  w.network().partition({{0, 1, 2}, {3, 4}});
  for (int i = 0; i < 5; ++i) w.stack(1).abcast(bytes_of("during" + std::to_string(i)));
  w.stack(4).abcast(bytes_of("from minority"));
  ASSERT_TRUE(test::run_until(w.engine(), sec(30), [&] { return logs[0].size() >= 5; }));
  w.network().heal();
  // After the heal everyone delivers everything (6 messages) in one order.
  ASSERT_TRUE(test::run_until(w.engine(), sec(60), [&] {
    for (auto& log : logs) {
      if (log.size() < 6) return false;
    }
    return true;
  }));
  for (ProcessId p = 1; p < 5; ++p) {
    EXPECT_TRUE(consistent_prefix(logs[0].order, logs[static_cast<std::size_t>(p)].order));
  }
}

TEST(Partition, PrimaryPartitionExcludesMinorityAndMovesOn) {
  // With monitoring enabled, the majority eventually removes the
  // unreachable minority and keeps running in the smaller view — the
  // primary-partition model's whole point.
  StackConfig sc;
  sc.monitoring.exclusion_timeout = msec(500);
  World w(cfg(5, 9, sc));
  test::ScenarioOracle oracle(w, msec(20), 9);
  w.found_group_all();
  w.run_for(msec(50));
  w.network().partition({{0, 1, 2}, {3, 4}});
  ASSERT_TRUE(test::run_until(w.engine(), sec(30), [&] {
    return w.stack(0).view().members == std::vector<ProcessId>{0, 1, 2};
  }));
  // The shrunken view has majority 2: it still works.
  test::DeliveryLog log;
  w.stack(1).on_adeliver([&log](const MsgId& id, const Bytes& b) { log.record(id, b); });
  w.stack(2).abcast(bytes_of("post-exclusion"));
  ASSERT_TRUE(test::run_until(w.engine(), sec(10), [&] { return log.size() >= 1; }));
  // The minority members know nothing of their exclusion yet (they're cut
  // off), but they have NOT formed a rival view: still the old 5-member one.
  EXPECT_EQ(w.stack(3).view().members.size(), 5u);
  w.run_for(sec(1));  // settle the majority before the oracle finalizes
}

TEST(Partition, ExcludedMinorityRejoinsAfterHeal) {
  StackConfig sc;
  sc.monitoring.exclusion_timeout = msec(400);
  World w(cfg(4, 11, sc));
  test::ScenarioOracle oracle(w, msec(20), 11);
  w.found_group_all();
  w.run_for(msec(50));
  w.network().partition({{0, 1, 2}, {3}});
  ASSERT_TRUE(test::run_until(w.engine(), sec(30), [&] {
    return w.stack(0).view().members == std::vector<ProcessId>{0, 1, 2};
  }));
  w.network().heal();
  w.run_for(msec(200));
  // p3 rejoins explicitly (the application decides when; here: right away).
  w.stack(3).membership().join(0);
  ASSERT_TRUE(test::run_until(w.engine(), sec(30), [&] {
    return w.stack(3).membership().is_member() && w.stack(0).view().contains(3);
  }));
  EXPECT_EQ(w.stack(0).view().members.size(), 4u);
  w.run_for(sec(1));  // settle before the oracle's finalize-time checks
}

TEST(Partition, RejoinedMemberReceivesNewTraffic) {
  // p3 is excluded while alive, so every member's channel voided frames it
  // never received. After the heal and its rejoin, it must still deliver
  // the group's new traffic: the channel skips it past the voided seqs.
  StackConfig sc;
  sc.monitoring.exclusion_timeout = msec(400);
  World w(cfg(4, 11, sc));
  test::ScenarioOracle oracle(w, msec(20), 11);
  w.found_group_all();
  w.run_for(msec(50));
  w.network().partition({{0, 1, 2}, {3}});
  ASSERT_TRUE(test::run_until(w.engine(), sec(30), [&] {
    return w.stack(0).view().members == std::vector<ProcessId>{0, 1, 2};
  }));
  w.network().heal();
  w.run_for(msec(200));
  w.stack(3).membership().join(0);
  ASSERT_TRUE(test::run_until(w.engine(), sec(30), [&] {
    return w.stack(3).membership().is_member() && w.stack(0).view().contains(3) &&
           w.stack(3).view().members.size() == 4;
  }));
  test::DeliveryLog log;
  w.stack(3).on_adeliver([&log](const MsgId& id, const Bytes& b) { log.record(id, b); });
  for (int i = 0; i < 10; ++i) {
    w.stack(static_cast<ProcessId>(i % 3)).abcast(bytes_of("new" + std::to_string(i)));
  }
  EXPECT_TRUE(test::run_until(w.engine(), sec(10), [&] { return log.size() >= 10; }))
      << "p3 delivered " << log.size() << " of 10";
  w.run_for(sec(1));  // settle before the oracle's finalize-time checks
}

}  // namespace
}  // namespace gcs
