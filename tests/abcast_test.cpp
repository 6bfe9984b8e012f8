#include <gtest/gtest.h>

#include <memory>

#include "broadcast/atomic_broadcast.hpp"
#include "tests/test_util.hpp"

namespace gcs {
namespace {

using test::bytes_of;
using test::consistent_prefix;

struct AbcastWorld {
  sim::Engine engine;
  sim::Network network;
  struct Proc {
    std::unique_ptr<sim::Context> ctx;
    std::unique_ptr<SimTransport> transport;
    std::unique_ptr<ReliableChannel> channel;
    std::unique_ptr<FailureDetector> fd;
    FailureDetector::ClassId fd_class = 0;
    std::unique_ptr<Consensus> consensus;
    std::unique_ptr<ReliableBroadcast> rbcast;
    std::unique_ptr<AtomicBroadcast> abcast;
    test::DeliveryLog log;
  };
  std::vector<Proc> procs;
  std::vector<ProcessId> all;

  explicit AbcastWorld(int n, sim::LinkModel link = {}, std::uint64_t seed = 1)
      : network(engine, n, link, seed) {
    procs.resize(static_cast<std::size_t>(n));
    for (ProcessId p = 0; p < n; ++p) {
      all.push_back(p);
      auto& proc = procs[static_cast<std::size_t>(p)];
      proc.ctx = std::make_unique<sim::Context>(
          p, engine, Rng(seed * 31 + static_cast<std::uint64_t>(p)), Logger(),
          std::make_shared<Metrics>());
      proc.transport = std::make_unique<SimTransport>(*proc.ctx, network);
      proc.channel = std::make_unique<ReliableChannel>(*proc.ctx, *proc.transport);
      proc.fd = std::make_unique<FailureDetector>(*proc.ctx, *proc.transport);
      proc.fd_class = proc.fd->add_class(msec(60));
      proc.consensus = std::make_unique<Consensus>(*proc.ctx, *proc.channel, *proc.fd,
                                                   proc.fd_class);
      proc.rbcast = std::make_unique<ReliableBroadcast>(*proc.ctx, *proc.channel, Tag::kRbcast);
      proc.abcast = std::make_unique<AtomicBroadcast>(*proc.ctx, *proc.rbcast, *proc.consensus);
      // As in GcsStack: a suspected origin's retained frames are relayed.
      proc.fd->on_suspect(proc.fd_class, [&proc](ProcessId q) { proc.rbcast->suspect(q); });
      proc.fd->on_restore(proc.fd_class, [&proc](ProcessId q) { proc.rbcast->restore(q); });
      proc.abcast->subscribe(AtomicBroadcast::kApp,
                             [&proc](const MsgId& id, const Bytes& b) { proc.log.record(id, b); });
      proc.fd->monitor_group(proc.fd_class, {});
      proc.fd->start();
    }
    for (auto& proc : procs) proc.abcast->init(all);
  }

  void crash(ProcessId p) {
    procs[static_cast<std::size_t>(p)].ctx->kill();
    network.crash(p);
  }

  bool all_alive_delivered(std::size_t count) {
    for (ProcessId p = 0; p < static_cast<ProcessId>(procs.size()); ++p) {
      if (!network.alive(p)) continue;
      if (procs[static_cast<std::size_t>(p)].log.size() < count) return false;
    }
    return true;
  }

  void expect_total_order() {
    for (std::size_t i = 0; i + 1 < procs.size(); ++i) {
      EXPECT_TRUE(consistent_prefix(procs[i].log.order, procs[i + 1].log.order))
          << "processes " << i << " and " << i + 1 << " disagree on the order";
    }
  }
};

TEST(AtomicBroadcast, SingleMessageDeliveredEverywhere) {
  AbcastWorld w(3);
  const MsgId id = w.procs[0].abcast->abcast(AtomicBroadcast::kApp, bytes_of("hello"));
  ASSERT_TRUE(test::run_until(w.engine, sec(5), [&] { return w.all_alive_delivered(1); }));
  for (auto& proc : w.procs) {
    ASSERT_EQ(proc.log.size(), 1u);
    EXPECT_EQ(proc.log.order[0], id);
    EXPECT_EQ(proc.log.payloads[0], "hello");
  }
}

TEST(AtomicBroadcast, TotalOrderWithConcurrentSenders) {
  AbcastWorld w(4);
  const int kPerSender = 10;
  for (int i = 0; i < kPerSender; ++i) {
    for (ProcessId p = 0; p < 4; ++p) {
      w.procs[static_cast<std::size_t>(p)].abcast->abcast(
          AtomicBroadcast::kApp, bytes_of("m" + std::to_string(p) + "." + std::to_string(i)));
    }
  }
  ASSERT_TRUE(test::run_until(w.engine, sec(30), [&] { return w.all_alive_delivered(40); }));
  w.expect_total_order();
  for (auto& proc : w.procs) EXPECT_EQ(proc.log.size(), 40u);
}

TEST(AtomicBroadcast, NoDuplicateNoCreation) {
  AbcastWorld w(3);
  std::set<MsgId> sent;
  for (int i = 0; i < 5; ++i) {
    sent.insert(w.procs[0].abcast->abcast(AtomicBroadcast::kApp, bytes_of("x")));
  }
  ASSERT_TRUE(test::run_until(w.engine, sec(10), [&] { return w.all_alive_delivered(5); }));
  for (auto& proc : w.procs) {
    std::set<MsgId> got(proc.log.order.begin(), proc.log.order.end());
    EXPECT_EQ(got.size(), proc.log.order.size()) << "duplicate delivery";
    EXPECT_EQ(got, sent) << "created or lost messages";
  }
}

TEST(AtomicBroadcast, OrderSurvivesJitterAndLoss) {
  AbcastWorld w(4, sim::LinkModel{usec(200), usec(600), 0.15}, 17);
  for (int i = 0; i < 8; ++i) {
    for (ProcessId p = 0; p < 4; ++p) {
      w.procs[static_cast<std::size_t>(p)].abcast->abcast(AtomicBroadcast::kApp,
                                                          bytes_of(std::to_string(i)));
    }
  }
  ASSERT_TRUE(test::run_until(w.engine, sec(60), [&] { return w.all_alive_delivered(32); }));
  w.expect_total_order();
}

TEST(AtomicBroadcast, SurvivesMinorityCrash) {
  AbcastWorld w(5);
  for (int i = 0; i < 5; ++i) {
    w.procs[0].abcast->abcast(AtomicBroadcast::kApp, bytes_of("pre" + std::to_string(i)));
  }
  w.engine.run_until(msec(2));
  w.crash(3);
  w.crash(4);
  for (int i = 0; i < 5; ++i) {
    w.procs[1].abcast->abcast(AtomicBroadcast::kApp, bytes_of("post" + std::to_string(i)));
  }
  ASSERT_TRUE(test::run_until(w.engine, sec(30), [&] { return w.all_alive_delivered(10); }));
  w.expect_total_order();
}

TEST(AtomicBroadcast, SenderCrashAfterBroadcastIsUniform) {
  // If any process adelivers the dying sender's message, all correct ones do.
  AbcastWorld w(4);
  w.procs[0].abcast->abcast(AtomicBroadcast::kApp, bytes_of("last words"));
  w.engine.run_until(usec(600));  // rbcast out, then die
  w.crash(0);
  test::run_until(w.engine, sec(10), [&] { return w.all_alive_delivered(1); });
  // Uniformity: either none or all of the alive processes delivered it.
  std::size_t delivered = 0;
  for (ProcessId p = 1; p < 4; ++p) {
    delivered += w.procs[static_cast<std::size_t>(p)].log.size();
  }
  EXPECT_TRUE(delivered == 0 || delivered == 3) << delivered;
  w.expect_total_order();
}

TEST(AtomicBroadcast, SubTagsShareOneTotalOrder) {
  AbcastWorld w(3);
  std::vector<std::pair<char, std::string>> combined0;  // (subtag, payload) at p0
  w.procs[0].abcast->subscribe(AtomicBroadcast::kViewChange,
                               [&](const MsgId&, const Bytes& b) {
                                 combined0.emplace_back('V', test::str_of(b));
                               });
  std::vector<std::pair<char, std::string>> combined1;
  w.procs[1].abcast->subscribe(AtomicBroadcast::kViewChange,
                               [&](const MsgId&, const Bytes& b) {
                                 combined1.emplace_back('V', test::str_of(b));
                               });
  // Interleave app and view-change messages from different senders.
  for (int i = 0; i < 6; ++i) {
    w.procs[static_cast<std::size_t>(i % 3)].abcast->abcast(
        (i % 2 == 0) ? AtomicBroadcast::kApp : AtomicBroadcast::kViewChange,
        bytes_of(std::to_string(i)));
  }
  ASSERT_TRUE(test::run_until(w.engine, sec(10), [&] {
    return w.procs[0].log.size() + combined0.size() == 6 &&
           w.procs[1].log.size() + combined1.size() == 6;
  }));
  EXPECT_EQ(combined0, combined1);
  w.expect_total_order();
}

TEST(AtomicBroadcast, BatchingKeepsConsensusCountBelowMessageCount) {
  AbcastWorld w(3);
  // Burst of 30 messages: batching should order them in far fewer instances.
  for (int i = 0; i < 30; ++i) {
    w.procs[0].abcast->abcast(AtomicBroadcast::kApp, bytes_of(std::to_string(i)));
  }
  ASSERT_TRUE(test::run_until(w.engine, sec(30), [&] { return w.all_alive_delivered(30); }));
  EXPECT_LT(w.procs[0].abcast->next_instance(), 20u);
  EXPECT_GE(w.procs[0].abcast->next_instance(), 1u);
}

TEST(AtomicBroadcast, SnapshotRestoreBringsJoinerInSync) {
  AbcastWorld w(4);
  // Run the group as {0,1,2} first; 3 is outside.
  for (auto& proc : w.procs) proc.abcast->init({0, 1, 2});
  for (int i = 0; i < 5; ++i) {
    w.procs[0].abcast->abcast(AtomicBroadcast::kApp, bytes_of("old" + std::to_string(i)));
  }
  ASSERT_TRUE(test::run_until(w.engine, sec(10), [&] {
    return w.procs[0].log.size() >= 5 && w.procs[1].log.size() >= 5 &&
           w.procs[2].log.size() >= 5;
  }));
  // Snapshot from member 0; bring in 3 with members {0,1,2,3}.
  Bytes snap = w.procs[0].abcast->snapshot();
  {
    // Patch the member set the snapshot carries by re-initializing members
    // at every process (this test drives the layer manually; the membership
    // component automates this in stack tests).
    for (ProcessId p = 0; p < 4; ++p) {
      w.procs[static_cast<std::size_t>(p)].abcast->set_members({0, 1, 2, 3});
    }
    w.procs[3].abcast->restore(snap);
    w.procs[3].abcast->set_members({0, 1, 2, 3});
  }
  for (int i = 0; i < 5; ++i) {
    w.procs[3].abcast->abcast(AtomicBroadcast::kApp, bytes_of("new" + std::to_string(i)));
  }
  ASSERT_TRUE(test::run_until(w.engine, sec(10), [&] {
    return w.procs[3].log.size() >= 5 && w.procs[0].log.size() >= 10;
  }));
  // Joiner must not re-deliver old messages...
  for (const auto& payload : w.procs[3].log.payloads) {
    EXPECT_EQ(payload.substr(0, 3), "new");
  }
  // ...and new messages are totally ordered at the old members.
  EXPECT_TRUE(consistent_prefix(w.procs[0].log.order, w.procs[1].log.order));
}

}  // namespace
}  // namespace gcs
