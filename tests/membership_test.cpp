#include <gtest/gtest.h>

#include "core/stack.hpp"
#include "tests/test_util.hpp"

namespace gcs {
namespace {

using test::bytes_of;
using test::str_of;

struct MemberWorld {
  World world;
  std::vector<std::vector<View>> views;  // per process, installed views
  std::vector<test::DeliveryLog> alogs;  // per process, adeliveries

  explicit MemberWorld(int n, std::uint64_t seed = 1, StackConfig stack = {})
      : world(make_config(n, seed, std::move(stack))),
        views(static_cast<std::size_t>(n)), alogs(static_cast<std::size_t>(n)) {
    for (ProcessId p = 0; p < n; ++p) {
      auto& vlog = views[static_cast<std::size_t>(p)];
      world.stack(p).on_view([&vlog](const View& v) { vlog.push_back(v); });
      auto& alog = alogs[static_cast<std::size_t>(p)];
      world.stack(p).on_adeliver(
          [&alog](const MsgId& id, const Bytes& b) { alog.record(id, b); });
    }
  }

  static World::Config make_config(int n, std::uint64_t seed, StackConfig stack) {
    World::Config cfg;
    cfg.n = n;
    cfg.seed = seed;
    cfg.stack = std::move(stack);
    return cfg;
  }
};

TEST(Membership, InitialViewInstalledEverywhere) {
  MemberWorld w(3);
  w.world.found_group_all();
  for (ProcessId p = 0; p < 3; ++p) {
    ASSERT_EQ(w.views[static_cast<std::size_t>(p)].size(), 1u);
    EXPECT_EQ(w.views[static_cast<std::size_t>(p)][0].id, 0u);
    EXPECT_EQ(w.views[static_cast<std::size_t>(p)][0].members, (std::vector<ProcessId>{0, 1, 2}));
    EXPECT_TRUE(w.world.stack(p).membership().is_member());
    EXPECT_EQ(w.world.stack(p).view().primary(), 0);
  }
}

TEST(Membership, JoinInstallsNewViewAndTransfersState) {
  MemberWorld w(4);
  w.world.found_group({0, 1, 2});
  // Some traffic before the join.
  for (int i = 0; i < 5; ++i) w.world.stack(0).abcast(bytes_of("pre" + std::to_string(i)));
  ASSERT_TRUE(test::run_until(w.world, sec(10), [&] { return w.alogs[0].size() >= 5; }));
  // Process 3 joins via contact 1.
  w.world.stack(3).join(1);
  // Wait for every member to install the view, not just the joiner and p0.
  ASSERT_TRUE(test::run_until(w.world, sec(10), [&] {
    if (!w.world.stack(3).membership().is_member()) return false;
    for (ProcessId p = 0; p < 4; ++p) {
      if (!w.world.stack(p).view().contains(3)) return false;
    }
    return true;
  }));
  for (ProcessId p = 0; p < 4; ++p) {
    EXPECT_EQ(w.world.stack(p).view().members, (std::vector<ProcessId>{0, 1, 2, 3}));
  }
  // Joiner must not have re-delivered pre-join messages.
  EXPECT_EQ(w.alogs[3].size(), 0u);
  // Post-join traffic reaches everyone including the joiner.
  w.world.stack(3).abcast(bytes_of("from joiner"));
  ASSERT_TRUE(test::run_until(w.world, sec(10), [&] {
    return w.alogs[3].size() >= 1 && w.alogs[0].size() >= 6;
  }));
  EXPECT_EQ(w.alogs[3].payloads.back(), "from joiner");
}

TEST(Membership, ViewSequenceIsIdenticalEverywhere) {
  MemberWorld w(5);
  w.world.found_group({0, 1, 2});
  w.world.stack(3).join(0);
  ASSERT_TRUE(test::run_until(w.world, sec(10),
                              [&] { return w.world.stack(3).membership().is_member(); }));
  w.world.stack(4).join(2);
  ASSERT_TRUE(test::run_until(w.world, sec(10), [&] {
    if (!w.world.stack(4).membership().is_member()) return false;
    for (ProcessId p = 0; p < 3; ++p) {
      if (w.views[static_cast<std::size_t>(p)].size() < 3) return false;
    }
    return true;
  }));
  // Old members observed the same sequence of member lists.
  const auto& ref = w.views[0];
  ASSERT_GE(ref.size(), 3u);
  for (ProcessId p = 1; p < 3; ++p) {
    const auto& got = w.views[static_cast<std::size_t>(p)];
    ASSERT_EQ(got.size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i) {
      EXPECT_EQ(got[i].id, ref[i].id);
      EXPECT_EQ(got[i].members, ref[i].members);
    }
  }
}

TEST(Membership, RemoveCrashedProcess) {
  MemberWorld w(3);
  w.world.found_group_all();
  w.world.run_for(msec(100));
  w.world.crash(2);
  // Monitoring (long class, default 2 s) eventually excludes it.
  ASSERT_TRUE(test::run_until(w.world, sec(10), [&] {
    return !w.world.stack(0).view().contains(2) && !w.world.stack(1).view().contains(2);
  }));
  EXPECT_EQ(w.world.stack(0).view().members, (std::vector<ProcessId>{0, 1}));
  // The group still makes progress with 2 of 2.
  w.world.stack(1).abcast(bytes_of("post-exclusion"));
  ASSERT_TRUE(test::run_until(w.world, sec(10), [&] { return w.alogs[0].size() >= 1; }));
}

TEST(Membership, VoluntaryLeave) {
  MemberWorld w(3);
  w.world.found_group_all();
  w.world.run_for(msec(50));
  bool excluded_fired = false;
  w.world.stack(2).membership().on_excluded([&] { excluded_fired = true; });
  w.world.stack(2).membership().leave();
  ASSERT_TRUE(test::run_until(w.world, sec(10), [&] {
    return !w.world.stack(0).view().contains(2) && excluded_fired;
  }));
  EXPECT_TRUE(excluded_fired);
  EXPECT_FALSE(w.world.stack(2).membership().is_member());
}

TEST(Membership, WronglyExcludedProcessLearnsOfExclusion) {
  // A false suspicion at the monitoring level: process 2 is alive but gets
  // removed; it must adeliver its own removal and fire on_excluded — the
  // paper's "perfect failure detector emulation" is NOT applied (no forced
  // crash): the process simply knows it is out and may rejoin.
  MemberWorld w(3);
  w.world.found_group_all();
  w.world.run_for(msec(50));
  bool excluded_fired = false;
  w.world.stack(2).membership().on_excluded([&] { excluded_fired = true; });
  w.world.stack(0).membership().remove(2);
  ASSERT_TRUE(test::run_until(w.world, sec(10), [&] { return excluded_fired; }));
  EXPECT_FALSE(w.world.stack(2).membership().is_member());
  // ...and it can rejoin, with state transfer.
  w.world.stack(2).membership().join(0);
  ASSERT_TRUE(test::run_until(w.world, sec(10),
                              [&] { return w.world.stack(2).membership().is_member(); }));
  EXPECT_TRUE(w.world.stack(0).view().contains(2));
}

TEST(Membership, JoinerSeesConsistentOrderWithOldMembers) {
  MemberWorld w(4);
  w.world.found_group({0, 1, 2});
  w.world.stack(3).join(0);
  ASSERT_TRUE(test::run_until(w.world, sec(10),
                              [&] { return w.world.stack(3).membership().is_member(); }));
  for (int i = 0; i < 10; ++i) {
    w.world.stack(static_cast<ProcessId>(i % 4)).abcast(bytes_of(std::to_string(i)));
  }
  ASSERT_TRUE(test::run_until(w.world, sec(20), [&] {
    for (ProcessId p = 0; p < 4; ++p) {
      if (w.alogs[static_cast<std::size_t>(p)].size() < 10) return false;
    }
    return true;
  }));
  // All four logs share the total order (joiner's log is a suffix-aligned
  // sequence of the same 10 messages).
  for (ProcessId p = 1; p < 4; ++p) {
    EXPECT_EQ(w.alogs[static_cast<std::size_t>(p)].order, w.alogs[0].order);
  }
}

TEST(Membership, StateTransferCarriesApplicationSnapshot) {
  MemberWorld w(4);
  std::string app_state_0 = "counter=41";
  w.world.stack(0).membership().set_snapshot_provider(
      [&app_state_0] { return bytes_of(app_state_0); });
  std::string installed;
  w.world.stack(3).membership().set_snapshot_installer(
      [&installed](const Bytes& b) { installed = str_of(b); });
  w.world.found_group({0, 1, 2});
  w.world.run_for(msec(50));
  w.world.stack(3).join(0);
  ASSERT_TRUE(test::run_until(w.world, sec(10),
                              [&] { return w.world.stack(3).membership().is_member(); }));
  // One of the members' snapshots arrived; members 1/2 have no provider, so
  // acceptable values are the explicit snapshot or empty (installer still
  // runs). The first STATE message wins; senders all send.
  EXPECT_TRUE(installed == "counter=41" || installed.empty());
}

TEST(Membership, PrimaryIsHeadOfViewList) {
  MemberWorld w(3);
  w.world.found_group_all();
  w.world.run_for(msec(50));
  EXPECT_EQ(w.world.stack(0).view().primary(), 0);
  // Remove the head: the next member becomes primary.
  w.world.stack(1).membership().remove(0);
  ASSERT_TRUE(test::run_until(w.world, sec(10), [&] {
    return !w.world.stack(1).view().contains(0) && !w.world.stack(2).view().contains(0);
  }));
  EXPECT_EQ(w.world.stack(1).view().primary(), 1);
  EXPECT_EQ(w.world.stack(2).view().primary(), 1);
}

TEST(Membership, ConcurrentRemovesConverge) {
  MemberWorld w(5);
  w.world.found_group_all();
  w.world.run_for(msec(50));
  // Two members propose different removals at the same time.
  w.world.stack(0).membership().remove(3);
  w.world.stack(1).membership().remove(4);
  ASSERT_TRUE(test::run_until(w.world, sec(10), [&] {
    return w.world.stack(0).view().members == std::vector<ProcessId>{0, 1, 2} &&
           w.world.stack(1).view().members == std::vector<ProcessId>{0, 1, 2} &&
           w.world.stack(2).view().members == std::vector<ProcessId>{0, 1, 2};
  }));
  // Identical view history at the survivors.
  EXPECT_EQ(w.views[0].back().id, w.views[1].back().id);
}

TEST(Membership, DuplicateJoinRequestsYieldOneViewChange) {
  MemberWorld w(4);
  w.world.found_group({0, 1, 2});
  w.world.run_for(msec(50));
  const auto views_before = w.world.stack(0).membership().views_installed();
  // The joiner spams the same contact; the sponsor dedupes.
  w.world.stack(3).membership().join(0);
  w.world.stack(3).membership().join(0);
  ASSERT_TRUE(test::run_until(w.world, sec(10),
                              [&] { return w.world.stack(3).membership().is_member(); }));
  w.world.run_for(msec(500));
  EXPECT_EQ(w.world.stack(0).membership().views_installed(), views_before + 1);
}

}  // namespace
}  // namespace gcs
