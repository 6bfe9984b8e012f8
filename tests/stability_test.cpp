/// Stability tracking and garbage collection (the Ensemble `stable`
/// component of paper Fig 5): watermark gossip, floor advancement, dedup
/// pruning, bounded memory on long runs, and floor freezing while a
/// crashed member is still in the group.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <set>

#include "core/stack.hpp"
#include "tests/test_util.hpp"

namespace gcs {
namespace {

using test::bytes_of;

World::Config cfg(int n, Duration stability, std::uint64_t seed = 1,
                  Duration exclusion = sec(60)) {
  World::Config c;
  c.n = n;
  c.seed = seed;
  c.stack.stability_interval = stability;
  c.stack.monitoring.exclusion_timeout = exclusion;
  return c;
}

TEST(Stability, FloorAdvancesInSteadyState) {
  World w(cfg(3, msec(20)));
  w.found_group_all();
  std::size_t delivered = 0;
  w.stack(0).on_adeliver([&](const MsgId&, const Bytes&) { ++delivered; });
  for (int i = 0; i < 10; ++i) w.stack(1).abcast(bytes_of(std::to_string(i)));
  ASSERT_TRUE(test::run_until(w.engine(), sec(10), [&] { return delivered >= 10; }));
  // A few gossip rounds later the floor covers all 10 messages of p1.
  ASSERT_TRUE(test::run_until(w.engine(), sec(5), [&] {
    return w.stack(0).atomic_broadcast().next_instance() > 0 &&
           w.stack(0).metrics().counter("rbcast.stability_pruned") > 0;
  }));
  w.run_for(msec(200));
  EXPECT_GE(w.stack(0).metrics().counter("rbcast.stability_gossip"), 3);
}

TEST(Stability, DedupMemoryStaysBoundedOnLongRuns) {
  World w(cfg(3, msec(10)));
  w.found_group_all();
  std::size_t delivered = 0;
  w.stack(0).on_adeliver([&](const MsgId&, const Bytes&) { ++delivered; });
  // Long steady run: 500 messages over 5 virtual seconds; sample the dedup
  // set as we go — it must stay small even though 500 ids passed through.
  std::size_t max_dedup = 0;
  for (int i = 0; i < 500; ++i) {
    w.stack(static_cast<ProcessId>(i % 3)).abcast(bytes_of(std::to_string(i)));
    w.run_for(msec(10));
    max_dedup = std::max(max_dedup, w.stack(0).abcast_substrate().dedup_size());
  }
  ASSERT_TRUE(test::run_until(w.engine(), sec(30), [&] { return delivered >= 500; }));
  w.run_for(msec(300));
  EXPECT_GT(w.stack(0).metrics().counter("rbcast.stability_pruned"), 50);
  EXPECT_LT(max_dedup, 100u) << "dedup set grew without bound";
  EXPECT_LT(w.stack(0).abcast_substrate().dedup_size(), 50u);
}

TEST(Stability, AbcastDedupGcIsPerSenderPrefix) {
  // Regression guard for the adelivered-dedup GC: the index is per sender,
  // so each stability event erases exactly the newly stable prefix. The
  // work counter must therefore be bounded by (one probe per event) +
  // (each dedup entry erased once) — the full-set scan this replaced cost
  // events × set-size, i.e. tens of thousands of steps in this workload.
  World w(cfg(3, msec(10), 17));
  w.found_group_all();
  std::size_t delivered = 0;
  w.stack(0).on_adeliver([&](const MsgId&, const Bytes&) { ++delivered; });
  const int kMsgs = 300;
  for (int i = 0; i < kMsgs; ++i) {
    w.stack(static_cast<ProcessId>(i % 3)).abcast(bytes_of(std::to_string(i)));
    w.run_for(msec(5));
  }
  ASSERT_TRUE(test::run_until(w.engine(), sec(30),
                              [&] { return delivered >= static_cast<std::size_t>(kMsgs); }));
  w.run_for(msec(500));
  const auto events = w.stack(0).metrics().counter("rbcast.stability_pruned");
  const auto steps = w.stack(0).atomic_broadcast().stability_gc_steps();
  ASSERT_GT(events, 0);
  EXPECT_GT(steps, 0u);
  EXPECT_LE(steps, static_cast<std::uint64_t>(events) + kMsgs + 64)
      << "dedup GC did more work than event-probes + one-erase-per-entry";
}

TEST(Stability, NoRedeliveryAfterPruning) {
  // Total order and exactly-once must survive pruning: run traffic with
  // aggressive gossip and verify the usual invariants.
  World w(cfg(4, msec(5), 7));
  std::vector<test::DeliveryLog> logs(4);
  for (ProcessId p = 0; p < 4; ++p) {
    w.stack(p).on_adeliver([&logs, p](const MsgId& id, const Bytes& b) {
      logs[static_cast<std::size_t>(p)].record(id, b);
    });
  }
  w.found_group_all();
  for (int i = 0; i < 60; ++i) {
    w.stack(static_cast<ProcessId>(i % 4)).abcast(bytes_of(std::to_string(i)));
    w.run_for(msec(3));
  }
  ASSERT_TRUE(test::run_until(w.engine(), sec(30), [&] {
    for (auto& log : logs) {
      if (log.size() < 60) return false;
    }
    return true;
  }));
  w.run_for(sec(1));
  for (ProcessId p = 0; p < 4; ++p) {
    auto& log = logs[static_cast<std::size_t>(p)];
    EXPECT_EQ(log.size(), 60u) << "duplicate after pruning at p" << p;
    std::set<MsgId> uniq(log.order.begin(), log.order.end());
    EXPECT_EQ(uniq.size(), 60u);
    EXPECT_EQ(log.order, logs[0].order);
  }
}

TEST(Stability, PipelinedDecisionAfterStabilityDoesNotRedeliver) {
  // Regression: with pipelined ordering a message can ride in two open
  // instances (two proposers, or a re-proposal after its first instance
  // decided another batch). It becomes stable once every member has
  // received it, which can happen before the later decision carrying it
  // arrives. Dedup GC driven by stability forgot the id in between and
  // delivered it a second time; GC by local delivery must not.
  for (std::uint64_t seed : {31, 32, 33}) {
    World::Config c = cfg(5, msec(1), seed);
    c.link = sim::LinkModel{usec(200), usec(400), 0.0};
    c.stack.consensus_algorithm = StackConfig::ConsensusAlgo::kPaxos;
    c.stack.abcast.pipeline_depth = 16;
    c.stack.abcast.max_batch = 4;
    World w(c);
    std::vector<test::DeliveryLog> logs(5);
    for (ProcessId p = 0; p < 5; ++p) {
      w.stack(p).on_adeliver([&logs, p](const MsgId& id, const Bytes& b) {
        logs[static_cast<std::size_t>(p)].record(id, b);
      });
    }
    w.found_group_all();
    const int kMsgs = 150;
    for (int i = 0; i < kMsgs; ++i) {
      w.stack(static_cast<ProcessId>(i % 5)).abcast(bytes_of(std::to_string(i)));
      if (i % 20 == 19) w.run_for(msec(2));
    }
    ASSERT_TRUE(test::run_until(w.engine(), sec(60), [&] {
      for (auto& log : logs) {
        if (log.size() < static_cast<std::size_t>(kMsgs)) return false;
      }
      return true;
    })) << "seed " << seed;
    w.run_for(msec(200));
    ASSERT_GT(w.stack(0).metrics().counter("rbcast.stability_pruned"), 0) << "seed " << seed;
    for (ProcessId p = 0; p < 5; ++p) {
      const auto& log = logs[static_cast<std::size_t>(p)];
      const std::set<MsgId> uniq(log.order.begin(), log.order.end());
      EXPECT_EQ(uniq.size(), log.size()) << "seed " << seed << ": p" << p << " redelivered";
      EXPECT_EQ(log.size(), static_cast<std::size_t>(kMsgs)) << "seed " << seed;
      EXPECT_TRUE(test::consistent_prefix(log.order, logs[0].order)) << "seed " << seed;
    }
  }
}

TEST(Stability, CrashedMemberFreezesFloorUntilExcluded) {
  // A silent member cannot acknowledge stability, so the floor freezes —
  // and resumes once the membership excludes the corpse: the §3.3.2
  // motivation for output-triggered exclusions, seen from the GC side.
  World w(cfg(4, msec(10), 11, /*exclusion=*/msec(800)));
  w.found_group_all();
  std::size_t delivered = 0;
  w.stack(0).on_adeliver([&](const MsgId&, const Bytes&) { ++delivered; });
  for (int i = 0; i < 5; ++i) w.stack(0).abcast(bytes_of("pre" + std::to_string(i)));
  ASSERT_TRUE(test::run_until(w.engine(), sec(5), [&] { return delivered >= 5; }));
  w.run_for(msec(100));  // floors advance for the pre-crash traffic
  const auto pruned_before = w.stack(0).metrics().counter("rbcast.stability_pruned");
  w.crash(3);
  w.run_for(msec(100));  // drain in-flight gossip from p3
  for (int i = 0; i < 5; ++i) w.stack(1).abcast(bytes_of("post" + std::to_string(i)));
  ASSERT_TRUE(test::run_until(w.engine(), sec(10), [&] { return delivered >= 10; }));
  const auto pruned_frozen = w.stack(0).metrics().counter("rbcast.stability_pruned");
  // p3's last gossip may still have covered some early post-crash traffic;
  // after that the floor freezes. Wait for the exclusion, then more
  // traffic must prune again.
  ASSERT_TRUE(test::run_until(w.engine(), sec(10),
                              [&] { return !w.stack(0).view().contains(3); }));
  for (int i = 0; i < 5; ++i) w.stack(2).abcast(bytes_of("fin" + std::to_string(i)));
  ASSERT_TRUE(test::run_until(w.engine(), sec(10), [&] { return delivered >= 15; }));
  w.run_for(msec(500));
  const auto pruned_after = w.stack(0).metrics().counter("rbcast.stability_pruned");
  EXPECT_GT(pruned_before, 0);
  EXPECT_GT(pruned_after, pruned_frozen) << "floor did not resume after exclusion";
}

TEST(Stability, WorksAcrossJoins) {
  World w(cfg(4, msec(10), 13));
  w.found_group({0, 1, 2});
  std::size_t delivered = 0;
  w.stack(0).on_adeliver([&](const MsgId&, const Bytes&) { ++delivered; });
  for (int i = 0; i < 10; ++i) {
    w.stack(static_cast<ProcessId>(i % 3)).abcast(bytes_of(std::to_string(i)));
    w.run_for(msec(5));
  }
  ASSERT_TRUE(test::run_until(w.engine(), sec(10), [&] { return delivered >= 10; }));
  w.stack(3).join(0);
  ASSERT_TRUE(test::run_until(w.engine(), sec(10),
                              [&] { return w.stack(3).membership().is_member(); }));
  // Joiner participates in stability; traffic keeps pruning.
  const auto before = w.stack(0).metrics().counter("rbcast.stability_pruned");
  for (int i = 0; i < 10; ++i) {
    w.stack(static_cast<ProcessId>(i % 4)).abcast(bytes_of("j" + std::to_string(i)));
    w.run_for(msec(5));
  }
  w.run_for(msec(500));
  EXPECT_GT(w.stack(0).metrics().counter("rbcast.stability_pruned"), before);
}

/// Loss-storm regression: 2% link loss with frequent stability gossip.
/// Without per-peer backoff and SACK, every lost frame made the sender
/// resend its whole rto-old window, and the retransmits fed on each other.
/// The parent figures are that channel's retransmits and virtual
/// completion time for the same runs.
struct StormCase {
  Duration stability;
  std::uint64_t seed;
  std::int64_t parent_retransmits;
  Duration parent_completion;
};

class LossStorm : public ::testing::TestWithParam<StormCase> {};

TEST_P(LossStorm, RetransmitsStayProportionalToLoss) {
  const StormCase c = GetParam();
  constexpr int kN = 5;
  constexpr int kMsgs = 150;
  World::Config config;
  config.n = kN;
  config.seed = c.seed;
  config.link = sim::LinkModel{usec(200), usec(400), 0.02};
  config.stack.consensus_algorithm = StackConfig::ConsensusAlgo::kPaxos;
  config.stack.abcast.pipeline_depth = 16;
  config.stack.abcast.max_batch = 4;
  config.stack.stability_interval = c.stability;
  World w(config);
  std::vector<int> delivered(kN, 0);
  for (ProcessId p = 0; p < kN; ++p) {
    w.stack(p).on_adeliver([&delivered, p](const MsgId&, const Bytes&) {
      ++delivered[static_cast<std::size_t>(p)];
    });
  }
  w.found_group_all();
  w.run_for(msec(20));
  const TimePoint start = w.engine().now();
  int sent = 0;
  std::function<void()> tick = [&] {
    if (sent >= kMsgs) return;
    w.stack(static_cast<ProcessId>(sent % kN)).abcast(bytes_of("m" + std::to_string(sent)));
    ++sent;
    w.engine().schedule_after(msec(1), tick);
  };
  w.engine().schedule_after(0, tick);
  ASSERT_TRUE(test::run_until(w.engine(), sec(60), [&] {
    return std::all_of(delivered.begin(), delivered.end(), [](int d) { return d >= kMsgs; });
  }));
  const Duration completion = w.engine().now() - start;
  std::int64_t retransmits = 0;
  for (ProcessId p = 0; p < kN; ++p) {
    retransmits += w.stack(p).metrics().counter("channel.retransmits");
  }
  EXPECT_LE(retransmits * 5, c.parent_retransmits);
  EXPECT_LE(completion, c.parent_completion);
}

INSTANTIATE_TEST_SUITE_P(
    Stability, LossStorm,
    ::testing::Values(StormCase{msec(1), 31, 7460, 222501}, StormCase{msec(1), 32, 8136, 242316},
                      StormCase{msec(1), 33, 21882, 301263},
                      StormCase{msec(10), 31, 2728, 211312},
                      StormCase{msec(10), 32, 2310, 191384},
                      StormCase{msec(10), 33, 2061229, 350572}));

}  // namespace
}  // namespace gcs
