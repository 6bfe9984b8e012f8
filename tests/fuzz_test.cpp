/// Robustness fuzzing: random and truncated byte strings thrown at every
/// wire-message decoder in the system. Nothing may crash, hang, or corrupt
/// a healthy group — a malformed datagram is (at worst) silently dropped.
#include <gtest/gtest.h>

#include "channel/reliable_channel.hpp"
#include "core/stack.hpp"
#include "tests/test_util.hpp"
#include "util/codec.hpp"

namespace gcs {
namespace {

using test::bytes_of;

Bytes random_bytes(Rng& rng, std::size_t max_len) {
  Bytes b(rng.next_below(max_len + 1));
  for (auto& byte : b) byte = static_cast<std::uint8_t>(rng.next_below(256));
  return b;
}

TEST(Fuzz, DecoderNeverReadsOutOfBounds) {
  Rng rng(2024);
  for (int i = 0; i < 2000; ++i) {
    const Bytes buf = random_bytes(rng, 64);
    Decoder dec(buf);
    // Exercise every accessor repeatedly; all failures must be soft.
    for (int j = 0; j < 8; ++j) {
      switch (rng.next_below(6)) {
        case 0: (void)dec.get_u64(); break;
        case 1: (void)dec.get_i64(); break;
        case 2: (void)dec.get_byte(); break;
        case 3: (void)dec.get_string(); break;
        case 4: (void)dec.get_bytes(); break;
        default: (void)dec.get_msgid(); break;
      }
    }
    (void)dec.ok();
  }
  SUCCEED();
}

TEST(Fuzz, VectorDecoderRejectsHostileLengths) {
  Rng rng(7);
  for (int i = 0; i < 500; ++i) {
    Encoder enc;
    enc.put_u64(rng.next_u64());  // often an absurd element count
    Bytes buf = enc.take();
    Decoder dec(buf);
    auto v = dec.get_vector<std::uint64_t>([](Decoder& d) { return d.get_u64(); });
    EXPECT_LE(v.size(), buf.size());
  }
}

/// Inject garbage datagrams into a running group at every wire tag: the
/// group must keep working as if nothing happened.
TEST(Fuzz, GarbageDatagramsDontBreakTheGroup) {
  World::Config cfg;
  cfg.n = 4;
  cfg.seed = 55;
  World w(cfg);
  std::vector<test::DeliveryLog> logs(4);
  for (ProcessId p = 0; p < 4; ++p) {
    w.stack(p).on_adeliver([&logs, p](const MsgId& id, const Bytes& b) {
      logs[static_cast<std::size_t>(p)].record(id, b);
    });
  }
  w.found_group_all();
  Rng rng(99);
  // Interleave real traffic with garbage aimed at every layer's tag.
  for (int i = 0; i < 20; ++i) {
    w.stack(static_cast<ProcessId>(i % 4)).abcast(bytes_of("real" + std::to_string(i)));
    for (int g = 0; g < 5; ++g) {
      Bytes garbage = random_bytes(rng, 48);
      garbage.insert(garbage.begin(),
                     static_cast<std::uint8_t>(1 + rng.next_below(
                                                   static_cast<std::uint64_t>(Tag::kMax) - 1)));
      w.network().send(static_cast<ProcessId>(rng.next_below(4)),
                       static_cast<ProcessId>(rng.next_below(4)), std::move(garbage));
    }
    w.run_for(msec(5));
  }
  ASSERT_TRUE(test::run_until(w.engine(), sec(30), [&] {
    for (auto& log : logs) {
      if (log.size() < 20) return false;
    }
    return true;
  }));
  for (ProcessId p = 1; p < 4; ++p) {
    EXPECT_EQ(logs[static_cast<std::size_t>(p)].order, logs[0].order);
  }
  // Only the real messages were delivered.
  for (auto& log : logs) EXPECT_EQ(log.size(), 20u);
}

/// Generic broadcast's resolution reports (round | open count | (id, acked)*
/// | run count | (first id, length)*), cut at every length and with random
/// bytes flipped, are atomically broadcast by p0 for rounds far ahead of
/// the group's: every member decodes them without harm, and conflicting
/// traffic still reaches every member in one order.
TEST(Fuzz, MalformedGbReportsAreDecodedSafely) {
  World::Config cfg;
  cfg.n = 4;
  cfg.seed = 61;
  cfg.stack.conflict = ConflictRelation::rbcast_abcast();
  World w(cfg);
  std::vector<test::DeliveryLog> logs(4);
  for (ProcessId p = 0; p < 4; ++p) {
    w.stack(p).on_gdeliver([&logs, p](const MsgId& id, MsgClass, const Bytes& b) {
      logs[static_cast<std::size_t>(p)].record(id, b);
    });
  }
  w.found_group_all();
  std::uint64_t round = 1'000'000;
  const auto report = [&round] {
    Encoder enc;
    enc.put_u64(round++);
    enc.put_u64(2);
    enc.put_msgid(MsgId{1, 3});
    enc.put_bool(true);
    enc.put_msgid(MsgId{2, 0});
    enc.put_bool(false);
    enc.put_u64(1);
    enc.put_msgid(MsgId{0, 0});
    enc.put_u64(4);
    return enc.take();
  };
  Rng rng(0x6b);
  const std::size_t full = report().size();
  for (std::size_t cut = 0; cut <= full + 1; ++cut) {
    Bytes truncated = report();
    truncated.resize(std::min(cut, truncated.size()));
    Bytes flipped = report();
    flipped[1 + rng.next_below(flipped.size() - 1)] ^=
        static_cast<std::uint8_t>(1 + rng.next_below(255));
    for (Bytes* b : {&truncated, &flipped}) {
      w.stack(0).atomic_broadcast().abcast(AtomicBroadcast::kGbResolve, std::move(*b));
    }
  }
  for (int i = 0; i < 12; ++i) {
    w.stack(static_cast<ProcessId>(1 + i % 3))
        .gbcast(kAbcastClass, bytes_of("c" + std::to_string(i)));
  }
  ASSERT_TRUE(test::run_until(w.engine(), sec(30), [&] {
    for (auto& log : logs) {
      if (log.size() < 12) return false;
    }
    return true;
  }));
  for (ProcessId p = 1; p < 4; ++p) {
    EXPECT_EQ(logs[static_cast<std::size_t>(p)].order, logs[0].order);
  }
}

/// Generic broadcast indexes its store by origin and seq, and its delivered
/// index by origin. Relayed reliable-broadcast data frames, ACKs (kind 2 |
/// round | id) for this round and the next, a resolution report and payload
/// pushes naming seq 2^62, negative senders and senders outside the
/// universe of 4 must throw nothing and widen none of that state, nor leave
/// ACKs waiting; a flood of ACKs for made-up ids stops at the pending
/// list's cap. Every member fixes the same sequences, and the group still
/// delivers.
TEST(Fuzz, HostileGbIdsWidenNoIndexedState) {
  World::Config cfg;
  cfg.n = 4;
  cfg.seed = 67;
  cfg.stack.conflict = ConflictRelation::rbcast_abcast();
  World w(cfg);
  std::vector<test::DeliveryLog> logs(4);
  for (ProcessId p = 0; p < 4; ++p) {
    w.stack(p).on_gdeliver([&logs, p](const MsgId& id, MsgClass, const Bytes& b) {
      logs[static_cast<std::size_t>(p)].record(id, b);
    });
  }
  w.found_group_all();
  w.stack(0).gbcast(kRbcastClass, bytes_of("warm"));
  ASSERT_TRUE(test::run_until(w.engine(), sec(5), [&] {
    for (auto& log : logs) {
      if (log.size() < 1) return false;
    }
    return true;
  }));
  constexpr std::uint64_t kFar = std::uint64_t{1} << 62;
  const std::vector<MsgId> hostile{{0, kFar}, {3, kFar}, {-1, 0}, {-5, kFar},
                                   {4, 0},    {4, kFar}, {1 << 30, 7}};
  for (const MsgId& id : hostile) {
    // A reliable-broadcast data frame, relayed by p1: the rbcast delivers
    // any id it has not seen, and relays one of an origin outside the group.
    Encoder gb;
    gb.put_byte(kRbcastClass);
    gb.put_bytes(bytes_of("relayed"));
    Encoder data;
    data.put_byte(2);  // kHeldData
    data.put_msgid(id);
    data.put_u64(0);
    data.put_bytes(gb.bytes());
    for (ProcessId q : {0, 2, 3}) w.stack(1).channel().send(q, Tag::kGbData, data.bytes());
    for (std::uint64_t round : {0, 1}) {
      Encoder ack;
      ack.put_byte(2);
      ack.put_u64(round);
      ack.put_msgid(id);
      for (ProcessId q : {0, 2, 3}) w.stack(1).channel().send(q, Tag::kGbcast, ack.bytes());
    }
    Encoder entry;
    entry.put_msgid(id);
    entry.put_byte(kRbcastClass);
    entry.put_bytes(bytes_of("pushed"));
    Encoder push;
    push.put_byte(1);
    push.put_u64(1);
    push.put_bytes(entry.bytes());
    for (ProcessId q : {0, 2, 3}) w.stack(1).channel().send(q, Tag::kGbcast, push.bytes());
  }
  // p1's report of round 0 lists every hostile id as ACKed: one report of
  // n = 4 is below both f + 1 and tau, so no sequence takes them.
  Encoder report;
  report.put_u64(0);
  report.put_u64(hostile.size());
  for (const MsgId& id : hostile) {
    report.put_msgid(id);
    report.put_bool(true);
  }
  report.put_u64(0);
  w.stack(1).atomic_broadcast().abcast(AtomicBroadcast::kGbResolve, report.take());
  w.run_for(msec(20));
  for (ProcessId p = 0; p < 4; ++p) {
    const GenericBroadcast& gb = w.stack(p).generic_broadcast();
    EXPECT_LE(gb.store_size(), 1u) << "at p" << p;
    EXPECT_LE(gb.store_span(), 1u) << "at p" << p;
    EXPECT_EQ(gb.pending_acks(), 0u) << "at p" << p;
  }
  // ACKs for more made-up ids than the pending list holds, all storable,
  // for a round no member reaches: the list stops at its cap.
  for (std::uint64_t seq = 100; seq < 100 + 2 * GenericBroadcast::kPendingCap; ++seq) {
    Encoder ack;
    ack.put_byte(2);
    ack.put_u64(std::uint64_t{1} << 40);
    ack.put_msgid(MsgId{2, seq});
    for (ProcessId q : {0, 2, 3}) w.stack(1).channel().send(q, Tag::kGbcast, ack.bytes());
  }
  w.run_for(msec(20));
  for (ProcessId p : {0, 2, 3}) {
    EXPECT_EQ(w.stack(p).generic_broadcast().pending_acks(), GenericBroadcast::kPendingCap)
        << "at p" << p;
  }
  // The report committed the group to resolving round 0; conflicting
  // traffic then runs more rounds. Every member delivers the same sequence.
  for (int i = 0; i < 6; ++i) {
    w.stack(static_cast<ProcessId>(i % 4))
        .gbcast(i % 2 == 0 ? kAbcastClass : kRbcastClass, bytes_of("m" + std::to_string(i)));
  }
  ASSERT_TRUE(test::run_until(w.engine(), sec(30), [&] {
    for (auto& log : logs) {
      if (log.size() < 7) return false;
    }
    return true;
  }));
  w.run_for(msec(50));
  for (ProcessId p = 0; p < 4; ++p) {
    const GenericBroadcast& gb = w.stack(p).generic_broadcast();
    EXPECT_EQ(logs[static_cast<std::size_t>(p)].order, logs[0].order) << "at p" << p;
    EXPECT_EQ(logs[static_cast<std::size_t>(p)].size(), 7u) << "at p" << p;
    EXPECT_EQ(gb.current_round(), w.stack(0).generic_broadcast().current_round());
    EXPECT_GE(gb.rounds_resolved(), 1u);
    EXPECT_LE(gb.store_span(), 8u) << "at p" << p;
  }
}

/// Same fuzzing against the channel layer specifically: garbage that looks
/// like channel frames (valid tag, broken interior).
TEST(Fuzz, MalformedChannelFramesAreDropped) {
  World::Config cfg;
  cfg.n = 3;
  cfg.seed = 77;
  World w(cfg);
  std::size_t delivered = 0;
  w.stack(0).on_adeliver([&](const MsgId&, const Bytes&) { ++delivered; });
  w.found_group_all();
  Rng rng(123);
  for (int i = 0; i < 10; ++i) {
    w.stack(0).abcast(bytes_of("x"));
    for (int g = 0; g < 10; ++g) {
      Bytes frame = random_bytes(rng, 32);
      if (g % 2 == 1) {
        // A valid kind byte (data, ack, batch) and a zero ack, so decoding
        // gets past the frame header into the entries.
        frame.insert(frame.begin(), {static_cast<std::uint8_t>(g % 3), 0});
      }
      frame.insert(frame.begin(), static_cast<std::uint8_t>(Tag::kChannel));
      w.network().send(1, 0, std::move(frame));
    }
    w.run_for(msec(5));
  }
  ASSERT_TRUE(test::run_until(w.engine(), sec(20), [&] { return delivered >= 10; }));
}

/// One consensus frame as the encoders write it: kind | u64 (an instance,
/// or a ranged floor) | body.
template <typename Body>
Bytes consensus_frame(std::uint8_t kind, std::uint64_t k, Body body) {
  Encoder enc;
  enc.put_byte(kind);
  enc.put_u64(k);
  body(enc);
  return enc.take();
}

/// Real frames of every kind \p algo sends, for instance 1,000 (far ahead
/// of the run): its own kinds, then the shell's DECIDE (5) and ANNOUNCE (6).
std::vector<Bytes> consensus_frames(StackConfig::ConsensusAlgo algo) {
  constexpr std::uint64_t k = 1'000;
  const auto value = [](Encoder& e) { e.put_bytes(bytes_of("value")); };
  const auto round = [](Encoder& e) { e.put_i64(3); };
  std::vector<Bytes> frames;
  if (algo == StackConfig::ConsensusAlgo::kChandraToueg) {
    frames.push_back(consensus_frame(0, k, [&](Encoder& e) {  // ESTIMATE
      round(e);
      e.put_i64(2);  // estimate timestamp
      value(e);
    }));
    frames.push_back(consensus_frame(1, k, [&](Encoder& e) {  // PROPOSE
      round(e);
      value(e);
    }));
    frames.push_back(consensus_frame(2, k, round));  // ACK
    frames.push_back(consensus_frame(3, k, round));  // NACK
  } else {
    frames.push_back(consensus_frame(2, k, [&](Encoder& e) {  // ACCEPT
      round(e);
      value(e);
    }));
    frames.push_back(consensus_frame(3, k, round));  // ACCEPTED
    frames.push_back(consensus_frame(4, k, round));  // NACK
    frames.push_back(consensus_frame(7, 0, round));  // ranged PREPARE
    frames.push_back(consensus_frame(8, 0, [&](Encoder& e) {  // ranged PROMISE
      round(e);
      e.put_u64(1);  // one accepted decree
      e.put_u64(k);
      e.put_i64(1);
      value(e);
      e.put_u64(1);  // one decision
      e.put_u64(k + 1);
      value(e);
    }));
    frames.push_back(consensus_frame(9, 0, round));  // ranged NACK
  }
  frames.push_back(consensus_frame(5, k, [&](Encoder& e) {  // DECIDE
    e.put_u64(7);  // the sender's send number
    e.put_u64(3);  // its confirmed watermark
    value(e);
  }));
  frames.push_back(consensus_frame(6, k, [&](Encoder& e) {  // ANNOUNCE
    e.put_vector(std::vector<ProcessId>{0, 1, 2}, [](Encoder& v, ProcessId p) { v.put_i32(p); });
    value(e);
  }));
  return frames;
}

/// Sends, from p1 through its own channel so that they reach p0's decoder,
/// every strict prefix of each of \p frames, then each of \p whole. p0's
/// consensus must not move (no instance, no decision, no reply), and the
/// group must still deliver an abcast (\p delivered counts p0's).
void expect_consensus_frames_dropped(World& w, const std::vector<Bytes>& frames,
                                     const std::vector<Bytes>& whole,
                                     const std::size_t& delivered) {
  w.run_for(msec(200));  // let the founding view's traffic settle
  const ConsensusProtocol& c = w.stack(0).consensus();
  const std::int64_t open = c.open_instances();
  const std::int64_t decided = c.instances_decided();
  const std::int64_t sent = w.stack(0).metrics().counter("consensus.wire_msgs");
  for (const Bytes& full : frames) {
    for (std::size_t len = 0; len < full.size(); ++len) {
      w.stack(1).channel().send(0, Tag::kConsensus, Bytes(full.begin(), full.begin() + len));
    }
  }
  for (const Bytes& frame : whole) w.stack(1).channel().send(0, Tag::kConsensus, frame);
  w.run_for(msec(50));
  EXPECT_EQ(c.open_instances(), open);
  EXPECT_EQ(c.instances_decided(), decided);
  EXPECT_EQ(w.stack(0).metrics().counter("consensus.wire_msgs"), sent);
  const std::size_t before = delivered;
  w.stack(2).abcast(bytes_of("still fine"));
  ASSERT_TRUE(test::run_until(w.engine(), sec(20), [&] { return delivered > before; }));
}

TEST(Fuzz, TruncatedRealMessagesAreDropped) {
  // Take REAL encoded protocol messages, truncate them at every length,
  // and replay: decoders must reject every prefix quietly. Under Paxos, so
  // must a ranged PROMISE whose entry count (2^40) exceeds its bytes.
  World::Config cfg;
  cfg.n = 3;
  cfg.seed = 31;
  std::size_t delivered = 0;
  {
    World::Config paxos = cfg;
    paxos.stack.consensus_algorithm = StackConfig::ConsensusAlgo::kPaxos;
    World w(paxos);
    w.stack(0).on_adeliver([&](const MsgId&, const Bytes&) { ++delivered; });
    w.found_group_all();
    const Bytes hostile = consensus_frame(8, 0, [](Encoder& e) {
      e.put_i64(1);  // ballot
      e.put_u64(1ULL << 40);
    });
    expect_consensus_frames_dropped(w, consensus_frames(paxos.stack.consensus_algorithm),
                                    {hostile}, delivered);
  }
  World w(cfg);
  delivered = 0;
  w.stack(0).on_adeliver([&](const MsgId&, const Bytes&) { ++delivered; });
  w.found_group_all();
  expect_consensus_frames_dropped(w, consensus_frames(cfg.stack.consensus_algorithm), {},
                                  delivered);
  {
    // A whole DECIDE, twice, for an instance p0 never started, from p1,
    // which is not its decider: p0 learns it once and, trusting p1,
    // relays nothing.
    const ConsensusProtocol& c = w.stack(0).consensus();
    const std::int64_t decided = c.instances_decided();
    const std::int64_t sent = w.stack(0).metrics().counter("consensus.wire_msgs");
    const Bytes decide = consensus_frames(cfg.stack.consensus_algorithm)[4];
    ASSERT_EQ(decide[0], 5);
    w.stack(1).channel().send(0, Tag::kConsensus, decide);
    w.stack(1).channel().send(0, Tag::kConsensus, decide);
    w.run_for(msec(50));
    EXPECT_TRUE(c.decided(1'000));
    EXPECT_EQ(c.instances_decided(), decided + 1);
    EXPECT_EQ(w.stack(0).metrics().counter("consensus.wire_msgs"), sent);
  }

  // The payload pull's frames, on both tags that carry it, for a message
  // p0 holds: pull (0 | count | ids, here the id twice) and push (1 |
  // count | bytes(id | tag | bytes(body))). p1 sends them through its own
  // channel, so they reach p0's decoder. Every strict prefix (a pull cut
  // inside its second id included) and a hostile entry count must get no
  // reply and store nothing; the whole frames are answered and taken.
  std::size_t gdelivered = 0;
  w.stack(0).on_gdeliver([&](const MsgId&, MsgClass, const Bytes&) { ++gdelivered; });
  const MsgId ab_held = w.stack(0).abcast(bytes_of("held"));
  const MsgId gb_held = w.stack(0).gbcast(kRbcastClass, bytes_of("held"));
  ASSERT_TRUE(test::run_until(w.engine(), sec(20),
                              [&] { return delivered >= 2 && gdelivered >= 1; }));
  struct PullCase {
    Tag tag;
    MsgId id;
    std::uint8_t label;  // abcast subtag or GB class
    std::string metrics;
  };
  for (const PullCase& c : {PullCase{Tag::kAbcast, ab_held, AtomicBroadcast::kApp, "abcast"},
                            PullCase{Tag::kGbcast, gb_held, kRbcastClass, "gbcast"}}) {
    Encoder entries;
    entries.put_msgid(c.id);
    entries.put_byte(c.label);
    entries.put_bytes(bytes_of("held"));
    const auto frame = [&](std::uint8_t kind, std::uint64_t count) {
      Encoder enc;
      enc.put_byte(kind);
      enc.put_u64(count);
      if (kind == 0) {
        enc.put_msgid(c.id);
        enc.put_msgid(c.id);
      } else {
        enc.put_bytes(entries.bytes());
      }
      return enc.take();
    };
    const Bytes pull = frame(0, 2);
    const Bytes push = frame(1, 1);
    const Metrics& m = w.stack(0).metrics();
    const std::int64_t served = m.counter(c.metrics + ".pull_served");
    const std::int64_t pushes = m.counter(c.metrics + ".pushes");
    for (const Bytes* full : {&pull, &push}) {
      for (std::size_t len = 0; len < full->size(); ++len) {
        w.stack(1).channel().send(0, c.tag, Bytes(full->begin(), full->begin() + len));
      }
    }
    w.stack(1).channel().send(0, c.tag, frame(0, 1ULL << 40));
    w.stack(1).channel().send(0, c.tag, frame(1, 1ULL << 40));
    w.run_for(msec(50));
    EXPECT_EQ(m.counter(c.metrics + ".pull_served"), served) << c.metrics;
    EXPECT_EQ(m.counter(c.metrics + ".pushes"), pushes) << c.metrics;
    w.stack(1).channel().send(0, c.tag, pull);
    w.stack(1).channel().send(0, c.tag, push);
    w.run_for(msec(50));
    EXPECT_EQ(m.counter(c.metrics + ".pull_served"), served + 2) << c.metrics;
    EXPECT_EQ(m.counter(c.metrics + ".pushes"), pushes + 1) << c.metrics;
  }
  w.stack(2).abcast(bytes_of("after pulls"));
  w.stack(2).gbcast(kRbcastClass, bytes_of("after pulls"));
  ASSERT_TRUE(test::run_until(w.engine(), sec(20),
                              [&] { return delivered >= 3 && gdelivered >= 2; }));
}

TEST(Fuzz, StateSnapshotPrefixesAreDropped) {
  // A real state-transfer snapshot, taken where a joiner's gets taken: at
  // the view change's delivery, inside its batch, so it carries the batch.
  // A fresh process restores every strict prefix of it without effect,
  // then the whole of it.
  World::Config cfg;
  cfg.n = 3;
  cfg.seed = 41;
  World w(cfg);
  Bytes snapshot;
  std::uint64_t batch_instance = 0;
  w.stack(0).on_view([&](const View& v) {
    if (v.id != 1) return;
    snapshot = w.stack(0).atomic_broadcast().snapshot();
    batch_instance = w.stack(0).atomic_broadcast().next_instance() - 1;
  });
  w.found_group({0, 1});
  w.run_for(msec(20));
  w.stack(2).join(0);
  ASSERT_TRUE(test::run_until(w.engine(), sec(5), [&] { return !snapshot.empty(); }));

  World fresh(cfg);
  AtomicBroadcast& ab = fresh.stack(2).atomic_broadcast();
  for (std::size_t len = 0; len < snapshot.size(); ++len) {
    ab.restore(BytesView(snapshot.data(), len));
    ASSERT_EQ(ab.next_instance(), 0u) << "snapshot cut at " << len;
  }
  ab.restore(BytesView(snapshot));
  EXPECT_EQ(ab.next_instance(), batch_instance);
}

/// Two-process wire for the channel layer alone: keeps what a channel
/// sends, and hands injected frames to its receive path.
struct FrameTap final : Transport {
  ProcessId id;
  std::vector<Bytes> sent;
  Handler deliver;

  explicit FrameTap(ProcessId self) : id(self) {}
  ProcessId self() const override { return id; }
  int universe_size() const override { return 2; }
  void u_send(ProcessId, Tag, const Bytes& payload) override { sent.push_back(payload); }
  void subscribe(Tag tag, Handler handler) override {
    if (tag == Tag::kChannel) deliver = std::move(handler);
  }
  Bytes take_last() {
    Bytes frame = sent.back();
    sent.clear();
    return frame;
  }
};

TEST(Fuzz, ChannelFramePrefixesAreRejected) {
  // Real data, batch and ack frames, each carrying a nonzero cumulative
  // ack: every strict prefix must be dropped whole (no delivery, no ack
  // applied), and the full frame then accepted. The batch frame is a
  // retransmission, which packs every due frame into one datagram.
  sim::Engine engine;
  sim::Context ca(0, engine, Rng(1), Logger(), std::make_shared<Metrics>());
  sim::Context cb(1, engine, Rng(2), Logger(), std::make_shared<Metrics>());
  FrameTap ta(0), tb(1);
  ReliableChannel a(ca, ta), b(cb, tb);
  std::vector<std::string> at_b;
  a.subscribe(Tag::kApp, [](ProcessId, BytesView) {});
  b.subscribe(Tag::kApp, [&](ProcessId, BytesView v) { at_b.push_back(test::str_of(v)); });

  // b -> a, so that a owes b an ack.
  b.send(0, Tag::kApp, bytes_of("b0"));
  b.send(0, Tag::kApp, bytes_of("b1"));
  for (const Bytes& frame : tb.sent) ta.deliver(1, frame);
  tb.sent.clear();
  a.send(1, Tag::kApp, bytes_of("a0"));
  const Bytes data = ta.take_last();
  for (const char* m : {"a1", "a2", "a3"}) a.send(1, Tag::kApp, bytes_of(m));
  ta.sent.clear();  // lost: a resends a0..a3 at its first retransmit tick
  engine.run_until(msec(25));
  const Bytes batch = ta.take_last();
  b.send(0, Tag::kApp, bytes_of("b2"));
  ta.deliver(1, tb.take_last());
  engine.run_until(msec(35));  // nothing goes back: a's hold expires
  const Bytes ack = ta.take_last();
  ASSERT_EQ(data[0], 0);
  ASSERT_EQ(ack[0], 1);
  ASSERT_EQ(batch[0], 2);
  ASSERT_EQ(b.unacked_count(0), 3u);

  for (const Bytes* frame : {&data, &batch, &ack}) {
    for (std::size_t len = 0; len < frame->size(); ++len) {
      tb.deliver(0, BytesView(frame->data(), len));
      EXPECT_TRUE(at_b.empty()) << "frame kind " << int{(*frame)[0]} << " cut at " << len;
      EXPECT_EQ(b.unacked_count(0), 3u) << "frame kind " << int{(*frame)[0]} << " cut at " << len;
    }
  }
  tb.deliver(0, data);
  EXPECT_EQ(at_b, (std::vector<std::string>{"a0"}));
  EXPECT_EQ(b.unacked_count(0), 1u);  // b0 and b1 acked
  tb.deliver(0, batch);
  EXPECT_EQ(at_b, (std::vector<std::string>{"a0", "a1", "a2", "a3"}));
  tb.deliver(0, ack);
  EXPECT_EQ(b.unacked_count(0), 0u);
}

TEST(Fuzz, ChannelFrameExtensionsAreValidated) {
  // The SACK and floor extensions ride flag bits of the kind byte. An ack
  // frame claiming a floor, a SACK bitmap over the 128-byte cap, or an
  // unknown flag bit must be dropped whole; a well-formed SACK ack applies.
  sim::Engine engine;
  sim::Context cb(1, engine, Rng(2), Logger(), std::make_shared<Metrics>());
  FrameTap tb(1);
  ReliableChannel b(cb, tb);
  for (int i = 0; i < 3; ++i) b.send(0, Tag::kApp, bytes_of("b"));
  ASSERT_EQ(b.unacked_count(0), 3u);
  const auto ack_frame = [](std::uint8_t head, std::size_t sack_bytes, bool floor) {
    Encoder enc;
    enc.put_byte(head);
    enc.put_u64(2);  // cumulative ack: seqs 0 and 1 received
    if (sack_bytes > 0) enc.put_bytes(Bytes(sack_bytes, 0x01));
    if (floor) enc.put_u64(7);
    return enc.take();
  };
  tb.deliver(0, ack_frame(0x01 | 0x20, 0, true));    // floor on an ack
  tb.deliver(0, ack_frame(0x01 | 0x10, 129, false));  // bitmap over the cap
  tb.deliver(0, ack_frame(0x01 | 0x40, 0, false));    // unknown flag
  EXPECT_EQ(b.unacked_count(0), 3u);
  tb.deliver(0, ack_frame(0x01 | 0x10, 1, false));
  EXPECT_EQ(b.unacked_count(0), 1u);
}

}  // namespace
}  // namespace gcs
