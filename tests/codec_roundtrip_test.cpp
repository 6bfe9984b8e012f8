/// Property-style codec round-trip tests, seeded via util::Rng.
///
/// Every wire message in nggcs is a flat sequence of codec primitives
/// (varints, zigzag varints, raw bytes, length-prefixed strings/blobs,
/// MsgIds, vectors), so the round-trip property is checked at three levels:
///   1. each primitive over randomized values including the boundary cases
///      the LEB128 / zigzag encodings care about (byte-width edges, sign
///      extremes);
///   2. random typed interleavings — a random "message shape" encoded then
///      decoded field by field (catches cross-field state bugs);
///   3. the structured round-trippers built on the codec: FaultStep and
///      FaultPlan (the schedule explorer's DSL), fuzzed field-wise and via
///      generated plans.
/// Plus the hardening property: every strict prefix of a valid encoding
/// decodes to failure (ok() == false), never to garbage acceptance of a
/// full read.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

#include "broadcast/proposal.hpp"
#include "sim/fault_plan.hpp"
#include "util/codec.hpp"
#include "util/rng.hpp"

namespace gcs {
namespace {

// Random u64 with a random effective bit width, so every varint byte count
// (1..10) is exercised rather than mostly 10-byte extremes.
std::uint64_t random_width_u64(Rng& rng) {
  const auto bits = static_cast<int>(rng.next_below(65));
  if (bits == 0) return 0;
  std::uint64_t v = rng.next_u64();
  if (bits < 64) v &= (1ULL << bits) - 1;
  return v;
}

TEST(CodecRoundTrip, UnsignedVarints) {
  Rng rng(0xc0dec);
  std::vector<std::uint64_t> values = {0, 1, 127, 128, 16383, 16384,
                                       std::numeric_limits<std::uint64_t>::max()};
  for (int i = 0; i < 2000; ++i) values.push_back(random_width_u64(rng));
  for (int b = 0; b < 64; ++b) {
    values.push_back(1ULL << b);        // byte-width edges
    values.push_back((1ULL << b) - 1);
  }
  Encoder enc;
  for (std::uint64_t v : values) enc.put_u64(v);
  Decoder dec(enc.bytes());
  for (std::uint64_t v : values) EXPECT_EQ(dec.get_u64(), v);
  EXPECT_TRUE(dec.ok());
  EXPECT_TRUE(dec.at_end());
}

TEST(CodecRoundTrip, SignedVarints) {
  Rng rng(0x51611ed);
  std::vector<std::int64_t> values = {0,  1,  -1, 63, 64, -64, -65,
                                      std::numeric_limits<std::int64_t>::min(),
                                      std::numeric_limits<std::int64_t>::max()};
  for (int i = 0; i < 2000; ++i) {
    const auto raw = static_cast<std::int64_t>(random_width_u64(rng));
    values.push_back(rng.chance(0.5) ? raw : -raw);
  }
  Encoder enc;
  for (std::int64_t v : values) enc.put_i64(v);
  Decoder dec(enc.bytes());
  for (std::int64_t v : values) EXPECT_EQ(dec.get_i64(), v);
  EXPECT_TRUE(dec.ok());
  EXPECT_TRUE(dec.at_end());
}

TEST(CodecRoundTrip, StringsAndBlobsWithArbitraryContent) {
  Rng rng(0xb10b5);
  for (int round = 0; round < 200; ++round) {
    std::string s;
    Bytes b;
    const auto len = rng.next_below(300);
    for (std::uint64_t i = 0; i < len; ++i) {
      s.push_back(static_cast<char>(rng.next_below(256)));  // NULs included
      b.push_back(static_cast<std::uint8_t>(rng.next_below(256)));
    }
    Encoder enc;
    enc.put_string(s);
    enc.put_bytes(b);
    Decoder dec(enc.bytes());
    EXPECT_EQ(dec.get_string(), s);
    EXPECT_EQ(dec.get_bytes(), b);
    EXPECT_TRUE(dec.ok());
    EXPECT_TRUE(dec.at_end());
  }
}

TEST(CodecRoundTrip, MsgIds) {
  Rng rng(0x3513);
  for (int i = 0; i < 500; ++i) {
    MsgId id;
    id.sender = rng.chance(0.1)
                    ? kNoProcess
                    : static_cast<ProcessId>(rng.next_below(1u << 20));
    id.seq = random_width_u64(rng);
    Encoder enc;
    enc.put_msgid(id);
    Decoder dec(enc.bytes());
    EXPECT_EQ(dec.get_msgid(), id);
    EXPECT_TRUE(dec.ok());
  }
}

TEST(CodecRoundTrip, RandomTypedInterleavings) {
  // A random message "shape": sequence of (type, value) fields encoded in
  // order and decoded in the same order.
  Rng rng(0x17e51ea5e);
  for (int round = 0; round < 100; ++round) {
    struct Field {
      int type;
      std::uint64_t u;
      std::int64_t i;
      std::string s;
      MsgId m;
    };
    std::vector<Field> fields;
    Encoder enc;
    const auto count = 1 + rng.next_below(40);
    for (std::uint64_t f = 0; f < count; ++f) {
      Field field;
      field.type = static_cast<int>(rng.next_below(5));
      switch (field.type) {
        case 0:
          field.u = random_width_u64(rng);
          enc.put_u64(field.u);
          break;
        case 1:
          field.i = static_cast<std::int64_t>(random_width_u64(rng)) *
                    (rng.chance(0.5) ? 1 : -1);
          enc.put_i64(field.i);
          break;
        case 2:
          field.u = rng.next_below(256);
          enc.put_byte(static_cast<std::uint8_t>(field.u));
          break;
        case 3: {
          const auto len = rng.next_below(40);
          for (std::uint64_t i = 0; i < len; ++i) {
            field.s.push_back(static_cast<char>(rng.next_below(256)));
          }
          enc.put_string(field.s);
          break;
        }
        case 4:
          field.m = MsgId{static_cast<ProcessId>(rng.next_below(64)), random_width_u64(rng)};
          enc.put_msgid(field.m);
          break;
      }
      fields.push_back(std::move(field));
    }
    Decoder dec(enc.bytes());
    for (const Field& field : fields) {
      switch (field.type) {
        case 0: EXPECT_EQ(dec.get_u64(), field.u); break;
        case 1: EXPECT_EQ(dec.get_i64(), field.i); break;
        case 2: EXPECT_EQ(dec.get_byte(), field.u); break;
        case 3: EXPECT_EQ(dec.get_string(), field.s); break;
        case 4: EXPECT_EQ(dec.get_msgid(), field.m); break;
      }
    }
    EXPECT_TRUE(dec.ok());
    EXPECT_TRUE(dec.at_end());
  }
}

TEST(CodecRoundTrip, EveryStrictPrefixFailsCleanly) {
  // Hardened decode: a truncated message must set the failed flag (or leave
  // trailing state detectable via at_end), never fabricate a full read.
  Encoder enc;
  enc.put_u64(300);
  enc.put_i64(-12345);
  enc.put_string("hello");
  enc.put_msgid(MsgId{3, 17});
  const Bytes full = enc.bytes();
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    Decoder dec(full.data(), cut);
    dec.get_u64();
    dec.get_i64();
    dec.get_string();
    dec.get_msgid();
    EXPECT_FALSE(dec.ok()) << "prefix of " << cut << " bytes decoded fully";
  }
}

TEST(CodecRoundTrip, FaultStepsFuzzedFieldwise) {
  Rng rng(0xfa017);
  for (int i = 0; i < 1000; ++i) {
    sim::FaultStep step;
    step.at = static_cast<Duration>(random_width_u64(rng) & 0x7fffffffffffffffULL);
    step.op = static_cast<sim::FaultOp>(rng.next_below(
        static_cast<std::uint64_t>(sim::FaultOp::kCount_)));
    step.proc = static_cast<ProcessId>(rng.next_range(-1, 15));
    step.target = static_cast<ProcessId>(rng.next_range(-1, 15));
    step.cls = static_cast<std::uint8_t>(rng.next_below(256));
    step.arg = random_width_u64(rng);
    step.duration = static_cast<Duration>(random_width_u64(rng) & 0x7fffffffffffffffULL);
    Encoder enc;
    step.encode(enc);
    Decoder dec(enc.bytes());
    const sim::FaultStep back = sim::FaultStep::decode(dec);
    EXPECT_TRUE(dec.ok());
    EXPECT_TRUE(dec.at_end());
    EXPECT_EQ(back, step);
  }
}

TEST(CodecRoundTrip, GeneratedFaultPlans) {
  Rng rng(0x9e2);
  for (int i = 0; i < 50; ++i) {
    const std::uint64_t seed = rng.next_u64();
    const sim::FaultPlan plan = sim::FaultPlan::generate(seed);
    Encoder enc;
    plan.encode(enc);
    Decoder dec(enc.bytes());
    const sim::FaultPlan back = sim::FaultPlan::decode(dec);
    ASSERT_TRUE(dec.ok());
    EXPECT_TRUE(dec.at_end());
    EXPECT_EQ(back.steps, plan.steps);
    EXPECT_EQ(back.digest(), plan.digest());
  }
}

TEST(CodecRoundTrip, VectorsOfStructs) {
  Rng rng(0x7ec);
  for (int round = 0; round < 50; ++round) {
    std::vector<MsgId> ids;
    const auto n = rng.next_below(100);
    for (std::uint64_t i = 0; i < n; ++i) {
      ids.push_back(MsgId{static_cast<ProcessId>(rng.next_below(32)), random_width_u64(rng)});
    }
    Encoder enc;
    enc.put_vector(ids, [](Encoder& e, const MsgId& id) { e.put_msgid(id); });
    Decoder dec(enc.bytes());
    const auto back = dec.get_vector<MsgId>([](Decoder& d) { return d.get_msgid(); });
    EXPECT_TRUE(dec.ok());
    EXPECT_TRUE(dec.at_end());
    EXPECT_EQ(back, ids);
  }
}

// -- zero-copy views ---------------------------------------------------------
//
// get_view() hands back a span into the decoder's underlying buffer. The view
// is valid only while that buffer is alive and unmodified: a handler that
// stores the view past its own return (instead of to_bytes()-copying it) has
// a use-after-free once the datagram/pooled buffer is reused. That misuse is
// a lifetime contract, not something a unit test can observe portably — the
// tests below pin down the bounds checking and the aliasing (no-copy)
// behavior, which ARE observable.

TEST(CodecViews, ViewRoundTripAliasesTheBuffer) {
  Rng rng(0x71e35);
  for (int round = 0; round < 200; ++round) {
    Bytes blob;
    const auto len = rng.next_below(300);
    for (std::uint64_t i = 0; i < len; ++i) {
      blob.push_back(static_cast<std::uint8_t>(rng.next_below(256)));
    }
    Encoder enc;
    enc.put_u64(7);
    enc.put_bytes(blob);
    enc.put_u64(9);
    const Bytes& wire = enc.bytes();
    Decoder dec(wire);
    EXPECT_EQ(dec.get_u64(), 7u);
    const BytesView view = dec.get_view();
    EXPECT_EQ(dec.get_u64(), 9u);
    ASSERT_TRUE(dec.ok());
    EXPECT_TRUE(dec.at_end());
    ASSERT_EQ(view.size(), blob.size());
    EXPECT_EQ(to_bytes(view), blob);
    if (!view.empty()) {
      // No copy: the view points into the encoder's buffer.
      EXPECT_GE(view.data(), wire.data());
      EXPECT_LE(view.data() + view.size(), wire.data() + wire.size());
    }
  }
}

TEST(CodecViews, ZeroLengthViewIsEmptyAndOk) {
  Encoder enc;
  enc.put_bytes(Bytes{});
  enc.put_u64(42);
  Decoder dec(enc.bytes());
  const BytesView view = dec.get_view();
  EXPECT_TRUE(view.empty());
  EXPECT_EQ(dec.get_u64(), 42u);
  EXPECT_TRUE(dec.ok());
  EXPECT_TRUE(dec.at_end());
}

TEST(CodecViews, TruncatedBufferFailsEveryPrefix) {
  Encoder enc;
  enc.put_bytes(Bytes{0xde, 0xad, 0xbe, 0xef, 0x01, 0x02, 0x03});
  const Bytes full = enc.bytes();
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    Decoder dec(full.data(), cut);
    const BytesView view = dec.get_view();
    EXPECT_FALSE(dec.ok()) << "prefix of " << cut << " bytes yielded a view";
    EXPECT_TRUE(view.empty());
  }
}

TEST(CodecViews, HostileLengthPrefixRejected) {
  // Length prefix claims far more bytes than the buffer holds.
  Encoder enc;
  enc.put_u64(1'000'000);
  enc.put_byte(0xaa);
  enc.put_byte(0xbb);
  Decoder dec(enc.bytes());
  const BytesView view = dec.get_view();
  EXPECT_FALSE(dec.ok());
  EXPECT_TRUE(view.empty());
  // get_bytes must reject identically (shared bounds check).
  Decoder dec2(enc.bytes());
  EXPECT_TRUE(dec2.get_bytes().empty());
  EXPECT_FALSE(dec2.ok());
}

// -- batch proposals (the consensus value: ids, never payloads) --------------

BatchProposal random_batch(Rng& rng) {
  BatchProposal batch;
  const auto n = rng.next_below(12);
  for (std::uint64_t i = 0; i < n; ++i) {
    batch.entries.push_back(
        ProposalEntry{MsgId{static_cast<ProcessId>(rng.next_below(64)), random_width_u64(rng)},
                      static_cast<std::uint8_t>(rng.next_below(3))});
  }
  return batch;
}

TEST(ProposalRoundTrip, SlimAndLegacyFuzz) {
  Rng rng(0xba7c4);
  for (int round = 0; round < 500; ++round) {
    const BatchProposal batch = random_batch(rng);
    Encoder enc;
    batch.encode(enc);
    Decoder dec(enc.bytes());
    const BatchProposal back = BatchProposal::decode(dec);
    ASSERT_TRUE(dec.ok());
    EXPECT_TRUE(dec.at_end());
    EXPECT_EQ(back, batch);
  }
}

TEST(ProposalRoundTrip, EveryStrictPrefixFailsCleanly) {
  Rng rng(0x5717);
  for (int round = 0; round < 20; ++round) {
    const BatchProposal batch = random_batch(rng);
    if (batch.entries.empty()) continue;  // need at least one entry to cut into
    Encoder enc;
    batch.encode(enc);
    const Bytes full = enc.bytes();
    for (std::size_t cut = 0; cut < full.size(); ++cut) {
      Decoder dec(full.data(), cut);
      const BatchProposal back = BatchProposal::decode(dec);
      EXPECT_FALSE(dec.ok()) << "prefix of " << cut << "/" << full.size() << " decoded";
      EXPECT_TRUE(back.entries.empty());
    }
  }
}

TEST(ProposalRoundTrip, HostileEntryCountRejected) {
  Encoder enc;
  enc.put_u64(std::numeric_limits<std::uint64_t>::max());  // absurd count
  enc.put_byte(0);
  Decoder dec(enc.bytes());
  const BatchProposal back = BatchProposal::decode(dec);
  EXPECT_FALSE(dec.ok());
  EXPECT_TRUE(back.entries.empty());
}

TEST(ProposalRoundTrip, CorruptedBytesNeverCrash) {
  // Random mutations of valid encodings either decode to ok() (benign
  // mutation) or fail cleanly — never UB (run under ASan in CI).
  Rng rng(0xc0a2b7);
  for (int round = 0; round < 500; ++round) {
    const BatchProposal batch = random_batch(rng);
    Encoder enc;
    batch.encode(enc);
    Bytes wire = enc.bytes();
    const auto flips = 1 + rng.next_below(4);
    for (std::uint64_t f = 0; f < flips && !wire.empty(); ++f) {
      wire[static_cast<std::size_t>(rng.next_below(wire.size()))] ^=
          static_cast<std::uint8_t>(1 + rng.next_below(255));
    }
    Decoder dec(wire);
    const BatchProposal back = BatchProposal::decode(dec);
    (void)back;  // any outcome is fine as long as it is bounded
  }
}

}  // namespace
}  // namespace gcs
