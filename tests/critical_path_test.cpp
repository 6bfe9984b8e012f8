/// \file critical_path_test.cpp
/// Latency critical-path attribution: golden hand-built span trees with
/// exact expected phase splits, the honesty rule (segments spanning missing
/// anchors go to residual, never a neighbouring phase), truncation
/// flagging, and — on a real n=5 abcast run — the ≥95% coverage bound plus
/// byte-identical reports for identical seeds.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/critical_path.hpp"
#include "obs/trace.hpp"
#include "tests/test_util.hpp"

namespace gcs {
namespace {

using obs::kNumPathPhases;
using obs::PathBreakdown;
using obs::PathPhase;
using obs::Phase;
using obs::Record;

constexpr ProcessId kObserver = 1;
constexpr std::uint64_t kInstance = 7;
const MsgId kMsg{0, 1};
const MsgId kInstanceKey{obs::kConsensusKey, kInstance};

Duration phase_of(const PathBreakdown& b, PathPhase p) {
  return b.phase[static_cast<std::size_t>(p)];
}

/// The full abcast anchor chain for kMsg as observed by kObserver:
///   submit 1000 -> pending 1400 -> proposed 1600 -> PROPOSE 1900
///   -> DECIDE 2500 -> adelivery 3000, with a pull stall [2600, 2800].
std::vector<Record> golden_abcast_trace() {
  const obs::Names& n = obs::Names::get();
  return {
      {1000, kMsg, 0, 0, n.abcast_submit, Phase::kInstant},
      {1400, kMsg, 0, kObserver, n.abcast_pending, Phase::kBegin},
      {1600, kMsg, static_cast<std::int64_t>(kInstance), kObserver, n.abcast_batch_wait,
       Phase::kEnd},
      {1900, kInstanceKey, 0, 0, n.consensus_propose, Phase::kInstant},
      {2500, kInstanceKey, 0, kObserver, n.consensus_decide, Phase::kInstant},
      {2600, kInstanceKey, 1, kObserver, n.abcast_pull_wait, Phase::kBegin},
      {2800, kInstanceKey, 0, kObserver, n.abcast_pull_wait, Phase::kEnd},
      {3000, kMsg, static_cast<std::int64_t>(kInstance), kObserver, n.abcast_ordered,
       Phase::kInstant},
  };
}

TEST(CriticalPath, GoldenAbcastChainAttributesExactly) {
  const auto stats = obs::analyze_critical_path(golden_abcast_trace());
  ASSERT_EQ(stats.paths.size(), 1u);
  EXPECT_EQ(stats.unmatched, 0u);

  const PathBreakdown& b = stats.paths[0];
  EXPECT_EQ(b.kind, PathBreakdown::Kind::kAbcast);
  EXPECT_EQ(b.proc, kObserver);
  EXPECT_EQ(b.submit_ts, 1000);
  EXPECT_EQ(b.deliver_ts, 3000);
  EXPECT_EQ(b.total, 2000);

  EXPECT_EQ(phase_of(b, PathPhase::kFlood), 400);        // 1000 -> 1400
  EXPECT_EQ(phase_of(b, PathPhase::kBatchWait), 200);    // 1400 -> 1600
  EXPECT_EQ(phase_of(b, PathPhase::kProposeWait), 300);  // 1600 -> 1900
  EXPECT_EQ(phase_of(b, PathPhase::kAcceptWait), 600);   // 1900 -> 2500
  // Tail 2500 -> 3000: pull stall overlaps [2600, 2800], rest is reorder.
  EXPECT_EQ(phase_of(b, PathPhase::kPullWait), 200);
  EXPECT_EQ(phase_of(b, PathPhase::kReorderWait), 300);
  EXPECT_EQ(b.residual, 0);
  EXPECT_EQ(b.dominant, static_cast<int>(PathPhase::kAcceptWait));
  EXPECT_DOUBLE_EQ(stats.coverage(), 1.0);

  // Exhaustiveness invariant: attributed + residual == end-to-end.
  Duration attributed = 0;
  for (std::size_t i = 0; i < kNumPathPhases; ++i) attributed += b.phase[i];
  EXPECT_EQ(attributed + b.residual, b.total);
}

TEST(CriticalPath, MissingAnchorGoesToResidualNotNeighbour) {
  // Drop the PROPOSE anchor: 1600 -> 2500 now spans a missing anchor and
  // must be residual — not folded into propose_wait or accept_wait.
  auto records = golden_abcast_trace();
  const obs::NameId propose = obs::Names::get().consensus_propose;
  std::erase_if(records, [&](const Record& r) { return r.name == propose; });

  const auto stats = obs::analyze_critical_path(records);
  ASSERT_EQ(stats.paths.size(), 1u);
  const PathBreakdown& b = stats.paths[0];
  EXPECT_EQ(phase_of(b, PathPhase::kFlood), 400);
  EXPECT_EQ(phase_of(b, PathPhase::kBatchWait), 200);
  EXPECT_EQ(phase_of(b, PathPhase::kProposeWait), 0);
  EXPECT_EQ(phase_of(b, PathPhase::kAcceptWait), 0);
  EXPECT_EQ(b.residual, 900);  // 1600 -> 2500, unexplained
  EXPECT_EQ(phase_of(b, PathPhase::kPullWait), 200);
  EXPECT_EQ(phase_of(b, PathPhase::kReorderWait), 300);
  EXPECT_EQ(b.dominant, -1);  // residual exceeds every attributed phase
  EXPECT_DOUBLE_EQ(stats.coverage(), 1100.0 / 2000.0);
}

TEST(CriticalPath, DeliveryWithoutSubmitIsUnmatchedNotGuessed) {
  auto records = golden_abcast_trace();
  const obs::NameId submit = obs::Names::get().abcast_submit;
  std::erase_if(records, [&](const Record& r) { return r.name == submit; });

  const auto stats = obs::analyze_critical_path(records);
  EXPECT_TRUE(stats.paths.empty());
  EXPECT_EQ(stats.unmatched, 1u);
}

TEST(CriticalPath, GoldenGbFastAndSlowChains) {
  const obs::Names& n = obs::Names::get();
  const MsgId fast{2, 10};
  const MsgId slow{3, 11};
  const std::uint64_t round = 5;
  const MsgId round_key{obs::kGbRoundKey, round};
  const std::vector<Record> records = {
      // Fast path: submit 100 -> seen 250 -> fast delivery 400.
      {100, fast, 0, 2, n.gb_submit, Phase::kInstant},
      {250, fast, 0, 2, n.gb_fast_pending, Phase::kBegin},
      {400, fast, static_cast<std::int64_t>(round), 2, n.gb_deliver_fast, Phase::kInstant},
      // Slow path: submit 100 -> seen 250 -> resolution 300 -> delivery 700,
      // with a pull stall [350, 450] inside the resolution tail.
      {100, slow, 0, 2, n.gb_submit, Phase::kInstant},
      {250, slow, 0, 2, n.gb_fast_pending, Phase::kBegin},
      {300, round_key, 0, 2, n.gb_resolve, Phase::kBegin},
      {350, round_key, 1, 2, n.gb_pull_wait, Phase::kBegin},
      {450, round_key, 0, 2, n.gb_pull_wait, Phase::kEnd},
      {700, slow, static_cast<std::int64_t>(round), 2, n.gb_deliver_slow, Phase::kInstant},
  };

  const auto stats = obs::analyze_critical_path(records);
  ASSERT_EQ(stats.paths.size(), 2u);

  const PathBreakdown& f = stats.paths[0];
  EXPECT_EQ(f.kind, PathBreakdown::Kind::kGbFast);
  EXPECT_EQ(f.total, 300);
  EXPECT_EQ(phase_of(f, PathPhase::kFlood), 150);
  EXPECT_EQ(phase_of(f, PathPhase::kGbAckWait), 150);
  EXPECT_EQ(f.residual, 0);

  const PathBreakdown& s = stats.paths[1];
  EXPECT_EQ(s.kind, PathBreakdown::Kind::kGbSlow);
  EXPECT_EQ(s.total, 600);
  EXPECT_EQ(phase_of(s, PathPhase::kFlood), 150);
  EXPECT_EQ(phase_of(s, PathPhase::kGbConflictWait), 50);  // 250 -> 300
  EXPECT_EQ(phase_of(s, PathPhase::kPullWait), 100);       // [350, 450]
  EXPECT_EQ(phase_of(s, PathPhase::kGbResolve), 300);      // rest of the tail
  EXPECT_EQ(s.residual, 0);
  EXPECT_DOUBLE_EQ(stats.coverage(), 1.0);
}

/// Pipelined chain at kObserver: two messages decided out of order.
/// msgA rides instance 7, msgB rides instance 8; instance 8's decision
/// lands while 7 is still open, so it parks behind an abcast.gap_wait span
/// until 7 decides (2900) and delivers (3000).
std::vector<Record> golden_pipelined_trace() {
  const obs::Names& n = obs::Names::get();
  const MsgId msg_a{0, 1};
  const MsgId msg_b{0, 2};
  const MsgId key7{obs::kConsensusKey, 7};
  const MsgId key8{obs::kConsensusKey, 8};
  return {
      {1000, msg_a, 0, 0, n.abcast_submit, Phase::kInstant},
      {1000, msg_b, 0, 0, n.abcast_submit, Phase::kInstant},
      {1200, msg_a, 0, kObserver, n.abcast_pending, Phase::kBegin},
      {1200, msg_b, 0, kObserver, n.abcast_pending, Phase::kBegin},
      {1500, msg_a, 7, kObserver, n.abcast_batch_wait, Phase::kEnd},
      {1500, msg_b, 8, kObserver, n.abcast_batch_wait, Phase::kEnd},
      {1700, key7, 0, 0, n.consensus_propose, Phase::kInstant},
      {1700, key8, 0, 0, n.consensus_propose, Phase::kInstant},
      {2300, key8, 0, kObserver, n.consensus_decide, Phase::kInstant},
      {2300, key8, 1, kObserver, n.abcast_gap_wait, Phase::kBegin},
      {2900, key7, 0, kObserver, n.consensus_decide, Phase::kInstant},
      {3000, msg_a, 7, kObserver, n.abcast_ordered, Phase::kInstant},
      {3050, key8, 0, kObserver, n.abcast_gap_wait, Phase::kEnd},
      {3100, msg_b, 8, kObserver, n.abcast_ordered, Phase::kInstant},
  };
}

TEST(CriticalPath, GoldenPipelinedGapAttributesExactly) {
  const auto stats = obs::analyze_critical_path(golden_pipelined_trace());
  ASSERT_EQ(stats.paths.size(), 2u);
  EXPECT_EQ(stats.unmatched, 0u);
  EXPECT_DOUBLE_EQ(stats.coverage(), 1.0);

  const PathBreakdown& a = stats.paths[0];  // instance 7, delivered first
  EXPECT_EQ(a.total, 2000);
  EXPECT_EQ(phase_of(a, PathPhase::kFlood), 200);
  EXPECT_EQ(phase_of(a, PathPhase::kBatchWait), 300);
  EXPECT_EQ(phase_of(a, PathPhase::kProposeWait), 200);
  EXPECT_EQ(phase_of(a, PathPhase::kAcceptWait), 1200);  // 1700 -> 2900
  EXPECT_EQ(phase_of(a, PathPhase::kReorderWait), 100);  // 2900 -> 3000
  EXPECT_EQ(a.residual, 0);
  EXPECT_EQ(a.dominant, static_cast<int>(PathPhase::kAcceptWait));

  // msgB decided early (600us accept) and spent the bulk of its tail parked
  // behind the gap: in-order buffering is reorder_wait, and it dominates.
  const PathBreakdown& b = stats.paths[1];
  EXPECT_EQ(b.total, 2100);
  EXPECT_EQ(phase_of(b, PathPhase::kFlood), 200);
  EXPECT_EQ(phase_of(b, PathPhase::kBatchWait), 300);
  EXPECT_EQ(phase_of(b, PathPhase::kProposeWait), 200);
  EXPECT_EQ(phase_of(b, PathPhase::kAcceptWait), 600);   // 1700 -> 2300
  EXPECT_EQ(phase_of(b, PathPhase::kPullWait), 0);
  EXPECT_EQ(phase_of(b, PathPhase::kReorderWait), 800);  // 2300 -> 3100
  EXPECT_EQ(b.residual, 0);
  EXPECT_EQ(b.dominant, static_cast<int>(PathPhase::kReorderWait));
}

TEST(CriticalPath, GapOpenStandsInForAgedOutDecide) {
  // Under deep pipelining the decide instant for a parked instance can be
  // overwritten in the ring before delivery. The gap span's opening is the
  // same moment, so attribution must not change when the decide is gone.
  auto records = golden_pipelined_trace();
  const obs::NameId decide = obs::Names::get().consensus_decide;
  const MsgId key8{obs::kConsensusKey, 8};
  std::erase_if(records,
                [&](const Record& r) { return r.name == decide && r.msg == key8; });

  const auto stats = obs::analyze_critical_path(records);
  ASSERT_EQ(stats.paths.size(), 2u);
  const PathBreakdown& b = stats.paths[1];
  EXPECT_EQ(b.total, 2100);
  EXPECT_EQ(phase_of(b, PathPhase::kAcceptWait), 600);   // propose -> gap open
  EXPECT_EQ(phase_of(b, PathPhase::kReorderWait), 800);  // gap open -> delivery
  EXPECT_EQ(b.residual, 0);
  EXPECT_DOUBLE_EQ(stats.coverage(), 1.0);
}

TEST(CriticalPath, FollowerAnchorsAtTheProposerOfItsInstance) {
  // A Paxos follower left kMsg to the leader (proc 2): it never proposed
  // it, closed its batch residence unproposed at delivery (arg -1) and
  // never started instance 7. Flood and batch_wait are the leader's:
  //   submit 1000 -> leader pending 1300 -> leader proposes 1500
  //   -> ACCEPT 1900 -> follower decides 2500 -> adelivery 3000.
  const obs::Names& n = obs::Names::get();
  constexpr ProcessId kLeader = 2;
  const std::vector<Record> records = {
      {1000, kMsg, 0, 0, n.abcast_submit, Phase::kInstant},
      {1300, kMsg, 0, kLeader, n.abcast_pending, Phase::kBegin},
      {1400, kMsg, 0, kObserver, n.abcast_pending, Phase::kBegin},
      {1500, kInstanceKey, 0, kLeader, n.consensus_instance, Phase::kBegin},
      {1500, kMsg, static_cast<std::int64_t>(kInstance), kLeader, n.abcast_batch_wait,
       Phase::kEnd},
      {1900, kInstanceKey, 0, kLeader, n.consensus_propose, Phase::kInstant},
      {2500, kInstanceKey, 0, kObserver, n.consensus_decide, Phase::kInstant},
      {3000, kMsg, -1, kObserver, n.abcast_batch_wait, Phase::kEnd},
      {3000, kMsg, static_cast<std::int64_t>(kInstance), kObserver, n.abcast_ordered,
       Phase::kInstant},
  };
  const auto stats = obs::analyze_critical_path(records);
  ASSERT_EQ(stats.paths.size(), 1u);
  const PathBreakdown& b = stats.paths[0];
  EXPECT_EQ(b.proc, kObserver);
  EXPECT_EQ(phase_of(b, PathPhase::kFlood), 300);        // 1000 -> 1300
  EXPECT_EQ(phase_of(b, PathPhase::kBatchWait), 200);    // 1300 -> 1500
  EXPECT_EQ(phase_of(b, PathPhase::kProposeWait), 400);  // 1500 -> 1900
  EXPECT_EQ(phase_of(b, PathPhase::kAcceptWait), 600);   // 1900 -> 2500
  EXPECT_EQ(phase_of(b, PathPhase::kReorderWait), 500);  // 2500 -> 3000
  EXPECT_EQ(b.residual, 0);
  EXPECT_DOUBLE_EQ(stats.coverage(), 1.0);
}

TEST(CriticalPath, TruncatedRingIsFlagged) {
  obs::Recorder recorder(4);  // far smaller than the trace
  for (const Record& r : golden_abcast_trace()) recorder.append(r);
  ASSERT_GT(recorder.dropped(), 0u);

  const auto stats = obs::analyze_critical_path(recorder);
  EXPECT_TRUE(stats.truncated);
  EXPECT_EQ(stats.dropped, recorder.dropped());
  // The submit record was overwritten, so the delivery is unmatched.
  EXPECT_EQ(stats.unmatched, 1u);
}

/// Drive a real abcast group and analyze its trace.
obs::CriticalPathStats run_real_abcast(int n, std::uint64_t seed, std::string* report) {
  const int kMessages = 40;
  World::Config config;
  config.n = n;
  config.seed = seed;
  auto recorder = std::make_shared<obs::Recorder>(std::size_t{1} << 18);
  config.stack.recorder = recorder;
  World world(config);
  int delivered = 0;
  for (ProcessId p = 0; p < n; ++p) {
    world.stack(p).on_adeliver([&delivered](const MsgId&, const Bytes&) { ++delivered; });
  }
  world.found_group_all();
  world.run_for(msec(20));
  int sent = 0;
  std::function<void()> tick = [&] {
    if (sent >= kMessages) return;
    world.stack(static_cast<ProcessId>(sent % n)).abcast(test::bytes_of("m" + std::to_string(sent)));
    ++sent;
    world.engine().schedule_after(msec(1), tick);
  };
  world.engine().schedule_after(0, tick);
  test::run_until(world, sec(120), [&] { return delivered >= kMessages * n; });
  world.run_for(sec(1));

  obs::LatencyScenario sc;
  sc.name = "abcast_n" + std::to_string(n);
  sc.stats = obs::analyze_critical_path(*recorder);
  if (report) *report = obs::render_latency_scenarios({sc});
  return sc.stats;
}

TEST(CriticalPath, RealAbcastRunMeetsCoverageBound) {
  const auto stats = run_real_abcast(5, 21, nullptr);
  ASSERT_FALSE(stats.paths.empty());
  EXPECT_FALSE(stats.truncated);
  EXPECT_EQ(stats.unmatched, 0u);
  // The acceptance bound: at least 95% of the end-to-end latency explained.
  EXPECT_GE(stats.coverage(), 0.95) << "residual share " << stats.residual_share();
  for (const PathBreakdown& b : stats.paths) {
    Duration attributed = 0;
    for (std::size_t i = 0; i < kNumPathPhases; ++i) attributed += b.phase[i];
    ASSERT_EQ(attributed + b.residual, b.total)
        << "attribution not exhaustive for " << to_string(b.msg);
    ASSERT_GE(b.residual, 0);
  }
}

TEST(CriticalPath, PipelinedRealRunMeetsCoverageBound) {
  // Same bound as the depth=1 run, but on leader-stable multi-Paxos with a
  // deep proposer window: out-of-order decisions and gap parking must not
  // open attribution holes.
  const int n = 5;
  const int kMessages = 60;
  World::Config config;
  config.n = n;
  config.seed = 77;
  config.stack.consensus_algorithm = StackConfig::ConsensusAlgo::kPaxos;
  config.stack.abcast.pipeline_depth = 4;
  config.stack.abcast.max_batch = 4;
  auto recorder = std::make_shared<obs::Recorder>(std::size_t{1} << 18);
  config.stack.recorder = recorder;
  World world(config);
  int delivered = 0;
  for (ProcessId p = 0; p < n; ++p) {
    world.stack(p).on_adeliver([&delivered](const MsgId&, const Bytes&) { ++delivered; });
  }
  world.found_group_all();
  world.run_for(msec(20));
  // Bursts from every process keep several instances in flight at once.
  int sent = 0;
  std::function<void()> tick = [&] {
    if (sent >= kMessages) return;
    for (ProcessId p = 0; p < n && sent < kMessages; ++p) {
      world.stack(p).abcast(test::bytes_of("pm" + std::to_string(sent)));
      ++sent;
    }
    world.engine().schedule_after(msec(1), tick);
  };
  world.engine().schedule_after(0, tick);
  test::run_until(world, sec(120), [&] { return delivered >= kMessages * n; });
  world.run_for(sec(1));

  std::uint32_t max_open = 0;
  for (ProcessId p = 0; p < n; ++p) {
    max_open = std::max(max_open, world.stack(p).atomic_broadcast().max_open_proposals());
  }
  EXPECT_GT(max_open, 1u) << "pipelining never engaged; test is vacuous";

  const auto stats = obs::analyze_critical_path(*recorder);
  ASSERT_FALSE(stats.paths.empty());
  EXPECT_FALSE(stats.truncated);
  EXPECT_EQ(stats.unmatched, 0u);
  EXPECT_GE(stats.coverage(), 0.95) << "residual share " << stats.residual_share();
  for (const PathBreakdown& b : stats.paths) {
    Duration attributed = 0;
    for (std::size_t i = 0; i < kNumPathPhases; ++i) attributed += b.phase[i];
    ASSERT_EQ(attributed + b.residual, b.total)
        << "attribution not exhaustive for " << to_string(b.msg);
  }
}

TEST(CriticalPath, SameSeedProducesByteIdenticalReport) {
  std::string first, second;
  run_real_abcast(3, 33, &first);
  run_real_abcast(3, 33, &second);
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

}  // namespace
}  // namespace gcs
