#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>

#include "broadcast/atomic_broadcast.hpp"
#include "consensus/paxos.hpp"
#include "tests/test_util.hpp"
#include "util/codec.hpp"

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
    std::unique_ptr<ConsensusProtocol> consensus;
    std::unique_ptr<ReliableBroadcast> rbcast;
    std::unique_ptr<AtomicBroadcast> abcast;
    test::DeliveryLog log;
  };
  std::vector<Proc> procs;
  std::vector<ProcessId> all;

  enum class Algo { kChandraToueg, kPaxos };

  explicit AbcastWorld(int n, sim::LinkModel link = {}, std::uint64_t seed = 1,
                       Algo algo = Algo::kChandraToueg, AtomicBroadcast::Config config = {})
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
      if (algo == Algo::kPaxos) {
        proc.consensus = std::make_unique<PaxosConsensus>(*proc.ctx, *proc.channel, *proc.fd,
                                                          proc.fd_class);
      } else {
        proc.consensus = std::make_unique<Consensus>(*proc.ctx, *proc.channel, *proc.fd,
                                                     proc.fd_class);
      }
      proc.rbcast = std::make_unique<ReliableBroadcast>(*proc.ctx, *proc.channel, Tag::kRbcast);
      proc.abcast = std::make_unique<AtomicBroadcast>(*proc.ctx, *proc.rbcast, *proc.consensus,
                                                      *proc.channel, config);
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

  /// Drop everything between \p a and \p b, both directions.
  void cut(ProcessId a, ProcessId b) {
    const sim::LinkModel lost{usec(200), usec(100), 1.0};
    network.set_link(a, b, lost);
    network.set_link(b, a, lost);
  }

  bool delivered(ProcessId p, const MsgId& id) {
    const auto& order = procs[static_cast<std::size_t>(p)].log.order;
    return std::find(order.begin(), order.end(), id) != order.end();
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

// -- one proposer per instance (DESIGN.md §15) --------------------------------

constexpr Duration kHold = msec(60);  // the fixture's consensus FD timeout

// Each member keeps one message of its own in flight; the stable Paxos
// leader alone proposes, so no decided instance re-orders an id an earlier
// instance ordered. (When every member proposes what it has, an id rides
// in its origin's instance and in the leader's, and a quarter or more of
// the instances order nothing new.)
TEST(AtomicBroadcast, PaxosClosedLoopDecidesNoInstanceWithoutAFreshId) {
  constexpr int kN = 3;
  constexpr int kPerProc = 150;
  AtomicBroadcast::Config config;
  config.pipeline_depth = 16;
  config.max_batch = 16;
  config.adaptive = true;
  AbcastWorld w(kN, sim::LinkModel{usec(50), usec(20), 0.0}, 7, AbcastWorld::Algo::kPaxos,
                config);
  std::map<std::uint64_t, Bytes> decided;  // at p0, by instance
  w.procs[0].consensus->on_decide(
      [&decided](std::uint64_t k, const Bytes& v) { decided.emplace(k, v); });
  std::vector<int> sent(kN, 0);
  for (ProcessId p = 0; p < kN; ++p) {
    auto& proc = w.procs[static_cast<std::size_t>(p)];
    proc.abcast->subscribe(AtomicBroadcast::kApp, [&, p](const MsgId& id, const Bytes&) {
      if (id.sender != p || sent[static_cast<std::size_t>(p)] >= kPerProc) return;
      ++sent[static_cast<std::size_t>(p)];
      w.procs[static_cast<std::size_t>(p)].abcast->abcast(AtomicBroadcast::kApp,
                                                          bytes_of("m"));
    });
  }
  for (ProcessId p = 0; p < kN; ++p) {
    ++sent[static_cast<std::size_t>(p)];
    w.procs[static_cast<std::size_t>(p)].abcast->abcast(AtomicBroadcast::kApp, bytes_of("m"));
  }
  ASSERT_TRUE(test::run_until(w.engine, sec(30), [&] {
    return w.all_alive_delivered(static_cast<std::size_t>(kN * kPerProc));
  }));
  w.expect_total_order();
  std::set<MsgId> ordered;
  int stale = 0;
  for (const auto& [k, value] : decided) {
    Decoder dec(value);
    const BatchProposal prop = BatchProposal::decode(dec);
    ASSERT_TRUE(dec.ok()) << "instance " << k;
    bool fresh = false;
    for (const ProposalEntry& e : prop.entries) fresh = ordered.insert(e.id).second || fresh;
    if (!fresh) ++stale;
  }
  EXPECT_GT(decided.size(), 100u);
  EXPECT_EQ(stale, 0) << "of " << decided.size() << " decided instances";
}

// The leader has the followers' messages when it crashes, and nothing it
// sent after receiving them got out, so no follower accepted a decree that
// carries them. The followers left them to the leader; once they suspect
// it, or their hold runs out, they propose them, and every survivor
// delivers them all.
TEST(AtomicBroadcast, PaxosLeaderCrashingWithOthersMessagesLosesNone) {
  constexpr int kN = 5;
  AbcastWorld w(kN, {}, 3, AbcastWorld::Algo::kPaxos);
  w.procs[0].abcast->abcast(AtomicBroadcast::kApp, bytes_of("warm-up"));
  ASSERT_TRUE(test::run_until(w.engine, sec(1), [&] { return w.all_alive_delivered(1); }));
  ASSERT_EQ(w.procs[1].consensus->proposer().leader, 0);
  for (ProcessId q = 1; q < kN; ++q) w.network.set_link(0, q, {usec(200), usec(100), 1.0});
  std::vector<MsgId> ids;
  for (ProcessId p = 1; p < kN; ++p) {
    ids.push_back(w.procs[static_cast<std::size_t>(p)].abcast->abcast(
        AtomicBroadcast::kApp, bytes_of("from " + std::to_string(p))));
  }
  ASSERT_TRUE(test::run_until(w.engine, msec(5), [&] {
    return w.procs[0].abcast->pending_count() == ids.size();
  }));
  w.crash(0);
  const TimePoint crashed_at = w.engine.now();
  // Nothing was ordered yet: the followers hold their messages for the
  // leader that is gone.
  for (ProcessId p = 1; p < kN; ++p) {
    EXPECT_EQ(w.procs[static_cast<std::size_t>(p)].log.size(), 1u);
  }
  ASSERT_TRUE(test::run_until(w.engine, sec(2), [&] { return w.all_alive_delivered(5); }));
  EXPECT_LT(w.engine.now() - crashed_at, kHold + msec(100));
  w.expect_total_order();
  for (ProcessId p = 1; p < kN; ++p) {
    for (const MsgId& id : ids) EXPECT_TRUE(w.delivered(p, id)) << "p" << p;
  }
}

// p2 cannot reach the leader p0, and p0 never gets p2's message. p1 has it
// and leaves it to p0 for a hold; then p1 proposes it (and p2, suspecting
// p0, takes the lead), so it is delivered within the hold plus a bound.
TEST(AtomicBroadcast, PaxosFollowerCutFromTheLeaderIsOrderedAfterTheHold) {
  AbcastWorld w(3, {}, 5, AbcastWorld::Algo::kPaxos);
  w.procs[0].abcast->abcast(AtomicBroadcast::kApp, bytes_of("warm-up"));
  ASSERT_TRUE(test::run_until(w.engine, sec(1), [&] { return w.all_alive_delivered(1); }));
  w.cut(0, 2);
  const TimePoint sent_at = w.engine.now();
  const MsgId id = w.procs[2].abcast->abcast(AtomicBroadcast::kApp, bytes_of("cut off"));
  ASSERT_TRUE(test::run_until(w.engine, sec(2),
                              [&] { return w.delivered(1, id) && w.delivered(2, id); }));
  EXPECT_LT(w.engine.now() - sent_at, kHold + msec(100));
  w.expect_total_order();
}

/// Consensus driven by the test: it records proposals and decides only
/// when told to.
struct ScriptedConsensus final : ConsensusProtocol {
  std::map<std::uint64_t, Bytes> proposed;
  DecideFn decide_fn;

  void propose(std::uint64_t k, Bytes value, std::vector<ProcessId>) override {
    proposed.emplace(k, std::move(value));
  }
  void on_decide(DecideFn fn) override { decide_fn = std::move(fn); }
  bool decided(std::uint64_t) const override { return false; }
  std::int64_t instances_decided() const override { return 0; }
  std::int64_t open_instances() const override { return 0; }
  void forget_below(std::uint64_t) override {}

 protected:
  void cast_deferred(std::uint64_t, DeferredVote) override {}
};

/// A transport that sends nowhere; the test hands frames in by hand.
struct HandTransport final : Transport {
  Handler handler;
  ProcessId self() const override { return 0; }
  int universe_size() const override { return 2; }
  void u_send(ProcessId, Tag, const Bytes&) override {}
  void subscribe(Tag tag, Handler h) override {
    if (tag == Tag::kChannel) handler = std::move(h);
  }
};

Bytes batch_of(const std::vector<MsgId>& ids) {
  BatchProposal prop;
  for (const MsgId& id : ids) prop.entries.push_back(ProposalEntry{id, AtomicBroadcast::kApp});
  Encoder enc;
  prop.encode(enc);
  return enc.take();
}

TEST(AtomicBroadcast, UpcallProposalDoesNotShiftTheReleasedBatch) {
  // p0 makes no proposal into instance 0, which another proposer's batch
  // {x} decides; p0 pulls x's payload. Delivering x, a subscriber abcasts
  // c, and p0 proposes {c} into instance 1 before instance 0's release
  // runs. Instance 1 then decides without c (a no-op fill). Its release
  // must free c, so that p0 proposes c again into instance 2; releasing
  // by position instead pops {c} at instance 0 and strands it for good.
  sim::Engine engine;
  sim::Context ctx(0, engine, Rng(1), Logger(), std::make_shared<Metrics>());
  HandTransport transport;
  ReliableChannel channel(ctx, transport);
  ReliableBroadcast rbcast(ctx, channel, Tag::kRbcast);
  ScriptedConsensus consensus;
  AtomicBroadcast ab(ctx, rbcast, consensus, channel);
  std::vector<std::string> got;
  ab.subscribe(AtomicBroadcast::kApp, [&](const MsgId&, BytesView b) {
    got.push_back(test::str_of(b));
    if (got.size() == 1) ab.abcast(AtomicBroadcast::kApp, bytes_of("c"));
  });
  ab.init({0, 1}, 0);

  const MsgId x{1, 0};
  consensus.decide_fn(0, batch_of({x}));
  EXPECT_TRUE(got.empty());  // x's payload is missing: pulled from p1
  // p1's push, as a channel data frame: kind | ack | seq | upper | body.
  Encoder entries;
  entries.put_msgid(x);
  entries.put_byte(AtomicBroadcast::kApp);
  entries.put_bytes(bytes_of("x"));
  Encoder push;
  push.put_byte(1);  // kPush
  push.put_u64(1);
  push.put_bytes(entries.bytes());
  Encoder frame;
  frame.put_byte(0);  // kData
  frame.put_u64(0);
  frame.put_u64(0);
  frame.put_byte(static_cast<std::uint8_t>(Tag::kAbcast));
  frame.put_bytes(push.bytes());
  transport.handler(1, BytesView(frame.bytes()));
  ASSERT_EQ(got, (std::vector<std::string>{"x"}));
  ASSERT_EQ(consensus.proposed.count(0), 0u);
  ASSERT_EQ(consensus.proposed.count(1), 1u);
  const MsgId c{0, 0};
  EXPECT_EQ(ab.pending_count(), 1u);
  EXPECT_EQ(consensus.proposed[1], batch_of({c}));

  consensus.decide_fn(1, Bytes{});  // instance 1 decides without c
  ASSERT_EQ(consensus.proposed.count(2), 1u) << "c was not proposed again";
  EXPECT_EQ(consensus.proposed[2], batch_of({c}));
  consensus.decide_fn(2, consensus.proposed[2]);
  EXPECT_EQ(got, (std::vector<std::string>{"x", "c"}));
  EXPECT_EQ(ab.pending_count(), 0u);
}

TEST(AtomicBroadcast, RestoreEndsThePullStallUnderItsBeginKey) {
  // p0 stalls instance 0 on a pull for x's payload; then a snapshot at
  // instance 5 supersedes the stall. The abcast_pull_wait span must end
  // under the key it began with (instance 0), not the restored instance.
  test::FlightRecorder recorder;
  sim::Engine engine;
  sim::Context ctx(0, engine, Rng(1), Logger(), std::make_shared<Metrics>());
  ctx.set_tracer(obs::Tracer(recorder.recorder().get(), 0));
  HandTransport transport;
  ReliableChannel channel(ctx, transport);
  ReliableBroadcast rbcast(ctx, channel, Tag::kRbcast);
  ScriptedConsensus consensus;
  AtomicBroadcast ab(ctx, rbcast, consensus, channel);
  ab.init({0, 1}, 0);
  consensus.decide_fn(0, batch_of({MsgId{1, 0}}));  // x's payload is missing

  // snapshot(): members | next instance | delivered ids | stability |
  // batch (empty: taken between batches).
  Encoder snap;
  snap.put_vector(std::vector<ProcessId>{0, 1}, [](Encoder& e, ProcessId p) { e.put_i32(p); });
  snap.put_u64(5);
  snap.put_u64(0);
  snap.put_bytes(rbcast.stability_snapshot());
  snap.put_bytes(Bytes{});
  ab.restore(BytesView(snap.bytes()));
  ASSERT_EQ(ab.next_instance(), 5u);

  const obs::NameId span = obs::Names::get().abcast_pull_wait;
  std::vector<obs::Record> begins;
  std::vector<obs::Record> ends;
  for (const obs::Record& r : recorder.recorder()->records()) {
    if (r.name != span) continue;
    (r.phase == obs::Phase::kBegin ? begins : ends).push_back(r);
  }
  ASSERT_EQ(begins.size(), 1u);
  ASSERT_EQ(ends.size(), 1u);
  EXPECT_EQ(begins[0].msg, (MsgId{obs::kConsensusKey, 0}));
  EXPECT_EQ(ends[0].msg, begins[0].msg);
}

}  // namespace
}  // namespace gcs
