/// Zero-copy wire path (DESIGN.md §12): id-only proposals and reports, with
/// payloads resolved from the local store or the pull/push fallback. These
/// tests pin the behaviours the wire benchmarks rely on: a process that
/// decides an instance without having rdelivered the payloads (a late
/// joiner) pulls them over the channel and delivers byte-identically,
/// every member delivers the same order and payloads, and id-only
/// resolution keeps generic broadcast's conflict ordering intact.
#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/stack.hpp"
#include "tests/test_util.hpp"

namespace gcs {
namespace {

using test::bytes_of;

World::Config cfg(int n, std::uint64_t seed) {
  World::Config c;
  c.n = n;
  c.seed = seed;
  return c;
}

TEST(PayloadResolution, LateJoinerPullsMissingPayloadsAndDeliversByteIdentically) {
  // The joiner's state snapshot carries adelivered ids but no payload
  // bytes, and the burst below was flooded to {0,1,2} before the join view
  // installed — so the joiner decides those instances without ever having
  // rdelivered the messages. The only way it can deliver them is the
  // Tag::kAbcast pull/push fallback.
  World w(cfg(4, 23));
  std::vector<test::DeliveryLog> logs(4);
  for (ProcessId p = 0; p < 4; ++p) {
    w.stack(p).on_adeliver([&logs, p](const MsgId& id, const Bytes& b) {
      logs[static_cast<std::size_t>(p)].record(id, b);
    });
  }
  w.found_group({0, 1, 2});
  for (int i = 0; i < 10; ++i) {
    w.stack(static_cast<ProcessId>(i % 3)).abcast(bytes_of("pre" + std::to_string(i)));
    w.run_for(msec(5));
  }
  ASSERT_TRUE(test::run_until(w, sec(10), [&] { return logs[0].size() >= 10; }));

  // Join while a steady trickle keeps consensus instances in flight. A
  // message a member submits after the join op is proposed but before its
  // own view installs is flooded to the OLD group only, yet ordered in an
  // instance after the joiner's snapshot — exactly the decide-without-
  // rdeliver case the pull fallback exists for.
  w.stack(3).join(0);
  const int kBurst = 60;
  for (int i = 0; i < kBurst; ++i) {
    w.stack(static_cast<ProcessId>(i % 3)).abcast(bytes_of("burst" + std::to_string(i)));
    w.run_for(msec(1));
  }
  ASSERT_TRUE(test::run_until(w, sec(20), [&] {
    return w.stack(3).membership().is_member() && logs[0].size() >= 10 + kBurst &&
           logs[3].size() >= 5;
  }));
  w.run_for(sec(1));

  EXPECT_GT(w.stack(3).metrics().counter("abcast.pull_requests"), 0)
      << "joiner never exercised the payload-pull fallback";
  // Byte-identical delivery: the joiner's whole log must equal the
  // corresponding window of a founding member's log, ids and payloads.
  const auto& member = logs[0];
  const auto& joiner = logs[3];
  ASSERT_GT(joiner.size(), 0u);
  const auto anchor = std::find(member.order.begin(), member.order.end(), joiner.order[0]);
  ASSERT_NE(anchor, member.order.end()) << "joiner delivered an id no member delivered";
  const std::size_t base =
      static_cast<std::size_t>(std::distance(member.order.begin(), anchor));
  ASSERT_LE(base + joiner.size(), member.size());
  for (std::size_t i = 0; i < joiner.size(); ++i) {
    EXPECT_EQ(joiner.order[i], member.order[base + i]) << "order diverges at " << i;
    EXPECT_EQ(joiner.payloads[i], member.payloads[base + i])
        << "payload bytes diverge at " << i;
  }
}

TEST(PayloadResolution, EveryMemberDeliversTheSameOrderAndPayloads) {
  // Payloads larger than the proposals that order them: every process
  // delivers the same total order with the same payload bytes.
  const int kN = 5;
  const int kMsgs = 40;
  const std::string filler(512, 'x');
  World w(cfg(kN, 29));
  std::vector<test::DeliveryLog> logs(kN);
  for (ProcessId p = 0; p < kN; ++p) {
    w.stack(p).on_adeliver([&logs, p](const MsgId& id, const Bytes& b) {
      logs[static_cast<std::size_t>(p)].record(id, b);
    });
  }
  w.found_group_all();
  for (int i = 0; i < kMsgs; ++i) {
    w.stack(static_cast<ProcessId>(i % kN))
        .abcast(bytes_of("m" + std::to_string(i) + ":" + filler));
    if (i % 4 == 3) w.run_for(msec(10));
  }
  ASSERT_TRUE(test::run_until(w, sec(30), [&] {
    for (const auto& log : logs) {
      if (log.size() < static_cast<std::size_t>(kMsgs)) return false;
    }
    return true;
  }));
  w.run_for(msec(200));
  for (int p = 1; p < kN; ++p) {
    EXPECT_EQ(logs[static_cast<std::size_t>(p)].order, logs[0].order);
    EXPECT_EQ(logs[static_cast<std::size_t>(p)].payloads, logs[0].payloads);
  }
}

TEST(PayloadResolution, GbResolutionOrdersConflictsConsistently) {
  // Conflicting gbcasts forced through the resolution path, whose reports
  // carry ids only: every process gdelivers the conflicting class in the same
  // order, with the payload bytes intact.
  const int kN = 3;
  World w(cfg(kN, 31));
  std::vector<test::DeliveryLog> logs(kN);
  for (ProcessId p = 0; p < kN; ++p) {
    w.stack(p).on_gdeliver([&logs, p](const MsgId& id, MsgClass, const Bytes& b) {
      logs[static_cast<std::size_t>(p)].record(id, b);
    });
  }
  w.found_group_all();
  const int kRounds = 15;
  for (int i = 0; i < kRounds; ++i) {
    // Concurrent conflicting submissions from every sender: the fast path
    // cannot commit all of them, so rounds resolve via abcast reports.
    for (ProcessId p = 0; p < kN; ++p) {
      w.stack(p).gbcast(kAbcastClass, bytes_of("c" + std::to_string(i) + "p" + std::to_string(p)));
    }
    w.run_for(msec(30));
  }
  const std::size_t total = static_cast<std::size_t>(kRounds * kN);
  ASSERT_TRUE(test::run_until(w, sec(30), [&] {
    for (const auto& log : logs) {
      if (log.size() < total) return false;
    }
    return true;
  }));
  w.run_for(msec(300));
  std::uint64_t resolved = 0;
  for (ProcessId p = 0; p < kN; ++p) {
    resolved += w.stack(p).generic_broadcast().resolved_deliveries();
  }
  EXPECT_GT(resolved, 0u) << "workload never exercised resolution reports";
  for (ProcessId p = 0; p < kN; ++p) {
    auto& log = logs[static_cast<std::size_t>(p)];
    EXPECT_EQ(log.size(), total) << "duplicate or lost gdelivery at p" << p;
    EXPECT_EQ(log.order, logs[0].order) << "conflict order diverges at p" << p;
    EXPECT_EQ(log.payloads, logs[0].payloads);
  }
}

}  // namespace
}  // namespace gcs
