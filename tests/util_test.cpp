#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdlib>
#include <new>

#include "util/buffer_pool.hpp"
#include "util/codec.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"
#include "util/types.hpp"

// Counting allocator: this test binary counts every operator new so the
// pool tests can assert that warm acquire/release cycles allocate nothing.
namespace {
std::atomic<std::uint64_t> g_news{0};

void* counted_new(std::size_t n) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t n) { return counted_new(n); }
void* operator new[](std::size_t n) { return counted_new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace gcs {
namespace {

TEST(Codec, VarintRoundTripSmall) {
  Encoder enc;
  enc.put_u64(0);
  enc.put_u64(1);
  enc.put_u64(127);
  enc.put_u64(128);
  Decoder dec(enc.bytes());
  EXPECT_EQ(dec.get_u64(), 0u);
  EXPECT_EQ(dec.get_u64(), 1u);
  EXPECT_EQ(dec.get_u64(), 127u);
  EXPECT_EQ(dec.get_u64(), 128u);
  EXPECT_TRUE(dec.ok());
  EXPECT_TRUE(dec.at_end());
}

TEST(Codec, VarintRoundTripLarge) {
  const std::uint64_t values[] = {1ull << 32, 1ull << 63, ~0ull, 0x123456789abcdefull};
  Encoder enc;
  for (auto v : values) enc.put_u64(v);
  Decoder dec(enc.bytes());
  for (auto v : values) EXPECT_EQ(dec.get_u64(), v);
  EXPECT_TRUE(dec.ok());
}

TEST(Codec, SignedZigzag) {
  const std::int64_t values[] = {0, -1, 1, -64, 64, INT64_MIN, INT64_MAX, -123456789};
  Encoder enc;
  for (auto v : values) enc.put_i64(v);
  Decoder dec(enc.bytes());
  for (auto v : values) EXPECT_EQ(dec.get_i64(), v);
  EXPECT_TRUE(dec.ok());
}

TEST(Codec, SmallNegativesAreCompact) {
  Encoder enc;
  enc.put_i64(-1);
  EXPECT_EQ(enc.size(), 1u);  // zigzag: -1 -> 1
}

TEST(Codec, StringsAndBytes) {
  Encoder enc;
  enc.put_string("hello");
  enc.put_string("");
  enc.put_bytes(Bytes{1, 2, 3});
  Decoder dec(enc.bytes());
  EXPECT_EQ(dec.get_string(), "hello");
  EXPECT_EQ(dec.get_string(), "");
  EXPECT_EQ(dec.get_bytes(), (Bytes{1, 2, 3}));
  EXPECT_TRUE(dec.ok());
}

TEST(Codec, MsgIdRoundTrip) {
  Encoder enc;
  enc.put_msgid(MsgId{7, 42});
  enc.put_msgid(MsgId{-1, 0});
  Decoder dec(enc.bytes());
  EXPECT_EQ(dec.get_msgid(), (MsgId{7, 42}));
  EXPECT_EQ(dec.get_msgid(), (MsgId{-1, 0}));
  EXPECT_TRUE(dec.ok());
}

TEST(Codec, VectorRoundTrip) {
  Encoder enc;
  std::vector<std::uint32_t> v{1, 2, 3, 500};
  enc.put_vector(v, [](Encoder& e, std::uint32_t x) { e.put_u32(x); });
  Decoder dec(enc.bytes());
  auto out = dec.get_vector<std::uint32_t>([](Decoder& d) { return d.get_u32(); });
  EXPECT_EQ(out, v);
  EXPECT_TRUE(dec.ok());
}

TEST(Codec, TruncatedInputFailsGracefully) {
  Encoder enc;
  enc.put_string("this is a long string");
  Bytes truncated = enc.take();
  truncated.resize(4);
  Decoder dec(truncated);
  (void)dec.get_string();
  EXPECT_FALSE(dec.ok());
}

TEST(Codec, HostileVectorLengthRejected) {
  Encoder enc;
  enc.put_u64(1ull << 40);  // claims 2^40 elements in a tiny buffer
  Decoder dec(enc.bytes());
  auto out = dec.get_vector<std::uint32_t>([](Decoder& d) { return d.get_u32(); });
  EXPECT_TRUE(out.empty());
  EXPECT_FALSE(dec.ok());
}

TEST(Codec, CorruptVarintFails) {
  Bytes bad(11, 0xff);  // continuation bit forever
  Decoder dec(bad);
  (void)dec.get_u64();
  EXPECT_FALSE(dec.ok());
}

TEST(Rng, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, NextBelowInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
  }
  EXPECT_EQ(rng.next_below(0), 0u);
  EXPECT_EQ(rng.next_below(1), 0u);
}

TEST(Rng, RangeInclusive) {
  Rng rng(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.next_range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, DoublesInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, ChanceExtremes) {
  Rng rng(13);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, SplitIndependent) {
  Rng parent(5);
  Rng child = parent.split();
  // Child stream differs from the parent's continued stream.
  EXPECT_NE(parent.next_u64(), child.next_u64());
}

TEST(Histogram, Percentiles) {
  Histogram h;
  for (int i = 1; i <= 100; ++i) h.add(i);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.min(), 1);
  EXPECT_EQ(h.max(), 100);
  EXPECT_DOUBLE_EQ(h.mean(), 50.5);
  EXPECT_NEAR(static_cast<double>(h.percentile(50)), 50.0, 1.0);
  EXPECT_NEAR(static_cast<double>(h.percentile(99)), 99.0, 1.0);
  EXPECT_EQ(h.percentile(0), 1);
  EXPECT_EQ(h.percentile(100), 100);
}

TEST(Histogram, Empty) {
  Histogram h;
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 0);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.percentile(50), 0);
}

TEST(Histogram, SingleSample) {
  Histogram h;
  h.add(42);
  // Every percentile of a one-sample distribution is that sample.
  EXPECT_EQ(h.percentile(0), 42);
  EXPECT_EQ(h.percentile(1), 42);
  EXPECT_EQ(h.percentile(50), 42);
  EXPECT_EQ(h.percentile(99), 42);
  EXPECT_EQ(h.percentile(100), 42);
  EXPECT_EQ(h.min(), 42);
  EXPECT_EQ(h.max(), 42);
  EXPECT_DOUBLE_EQ(h.mean(), 42.0);
}

TEST(Histogram, NearestRankIsExactOnSmallSets) {
  Histogram h;
  h.add(10);
  h.add(20);
  h.add(30);
  h.add(40);
  // Nearest-rank: rank = ceil(q/100 * n), 1-based. For n=4:
  // q=25 -> rank 1, q=50 -> rank 2, q=75 -> rank 3, q=76 -> rank 4.
  EXPECT_EQ(h.percentile(25), 10);
  EXPECT_EQ(h.percentile(50), 20);
  EXPECT_EQ(h.percentile(75), 30);
  EXPECT_EQ(h.percentile(76), 40);
  EXPECT_EQ(h.percentile(100), 40);
}

TEST(Histogram, DuplicateSamples) {
  Histogram h;
  for (int i = 0; i < 10; ++i) h.add(7);
  h.add(100);
  EXPECT_EQ(h.percentile(50), 7);
  EXPECT_EQ(h.percentile(90), 7);
  EXPECT_EQ(h.percentile(100), 100);
  EXPECT_EQ(h.min(), 7);
  EXPECT_EQ(h.max(), 100);
}

TEST(Histogram, CapBoundsRetainedSamples) {
  Histogram h;
  h.set_sample_cap(64);
  for (int i = 1; i <= 10000; ++i) h.add(i);
  // Exact running statistics survive decimation...
  EXPECT_EQ(h.count(), 10000u);
  EXPECT_EQ(h.min(), 1);
  EXPECT_EQ(h.max(), 10000);
  EXPECT_DOUBLE_EQ(h.mean(), 5000.5);
  // ...while the retained set stays bounded and uniformly spread.
  EXPECT_LT(h.samples().size(), 64u);
  EXPECT_GT(h.sample_stride(), 1u);
  // Percentiles come from the thinned set: approximate but in range.
  EXPECT_NEAR(static_cast<double>(h.percentile(50)), 5000.0, 512.0);
  EXPECT_EQ(h.percentile(0), 1);
  EXPECT_EQ(h.percentile(100), 10000);
}

TEST(Histogram, BelowCapStaysExact) {
  Histogram h;
  h.set_sample_cap(1024);
  for (int i = 1; i <= 1000; ++i) h.add(i);
  EXPECT_EQ(h.sample_stride(), 1u);
  EXPECT_EQ(h.samples().size(), 1000u);
  EXPECT_EQ(h.percentile(50), 500);
  EXPECT_EQ(h.percentile(99), 990);
}

TEST(Histogram, CapZeroDisablesDecimation) {
  Histogram h;
  h.set_sample_cap(0);
  for (int i = 0; i < 5000; ++i) h.add(i);
  EXPECT_EQ(h.samples().size(), 5000u);
  EXPECT_EQ(h.sample_stride(), 1u);
}

TEST(Histogram, DecimationIsDeterministic) {
  auto run = [] {
    Histogram h;
    h.set_sample_cap(32);
    for (int i = 0; i < 777; ++i) h.add(i * 3 % 101);
    return h.samples();
  };
  EXPECT_EQ(run(), run());
}

TEST(Histogram, ClearResetsCapState) {
  Histogram h;
  h.set_sample_cap(16);
  for (int i = 0; i < 100; ++i) h.add(i);
  h.clear();
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.sample_stride(), 1u);
  h.add(5);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.percentile(50), 5);
}

TEST(Histogram, OutOfRangeQuantilesClamp) {
  Histogram h;
  h.add(1);
  h.add(2);
  h.add(3);
  EXPECT_EQ(h.percentile(-5), 1);    // clamps to min
  EXPECT_EQ(h.percentile(0), 1);
  EXPECT_EQ(h.percentile(100), 3);
  EXPECT_EQ(h.percentile(250), 3);   // clamps to max
}

TEST(Histogram, InterleavedAddAndQuery) {
  Histogram h;
  h.add(10);
  EXPECT_EQ(h.max(), 10);
  h.add(5);  // added after a sorted query
  EXPECT_EQ(h.min(), 5);
  EXPECT_EQ(h.max(), 10);
}

TEST(Metrics, CountersAndHistograms) {
  Metrics m;
  m.inc("a");
  m.inc("a", 2);
  m.inc("b", -1);
  EXPECT_EQ(m.counter("a"), 3);
  EXPECT_EQ(m.counter("b"), -1);
  EXPECT_EQ(m.counter("missing"), 0);
  m.observe("lat", 100);
  m.observe("lat", 200);
  EXPECT_EQ(m.histogram("lat").count(), 2u);
  EXPECT_EQ(m.histogram("missing").count(), 0u);
  m.clear();
  EXPECT_EQ(m.counter("a"), 0);
}

TEST(Metrics, InternedIdsAreStableAndShared) {
  // Interning the same name twice yields the same id, process-wide.
  const MetricId a1 = metric_id("interned.test.a");
  const MetricId a2 = metric_id("interned.test.a");
  const MetricId b = metric_id("interned.test.b");
  EXPECT_EQ(a1, a2);
  EXPECT_NE(a1, b);
  EXPECT_EQ(metric_name(a1), "interned.test.a");
  EXPECT_EQ(find_metric("interned.test.b"), b);
  EXPECT_EQ(find_metric("interned.test.never-registered"), kNoMetric);
}

TEST(Metrics, IdAndStringPathsObserveTheSameSlot) {
  Metrics m;
  const MetricId id = metric_id("interned.test.counter");
  m.inc(id, 4);
  m.inc("interned.test.counter", 1);
  EXPECT_EQ(m.counter(id), 5);
  EXPECT_EQ(m.counter("interned.test.counter"), 5);
  const MetricId h = metric_id("interned.test.hist");
  m.observe(h, 10);
  m.observe("interned.test.hist", 20);
  EXPECT_EQ(m.histogram(h).count(), 2u);
  EXPECT_EQ(m.histogram("interned.test.hist").max(), 20);
}

TEST(Metrics, ReadOfUnknownNameDoesNotIntern) {
  Metrics m;
  EXPECT_EQ(m.counter("interned.test.read-only-probe"), 0);
  // A pure read must not have registered the name.
  EXPECT_EQ(find_metric("interned.test.read-only-probe"), kNoMetric);
}

TEST(Metrics, CountersSnapshotIsSortedAndNonZeroOnly) {
  Metrics m;
  m.inc("z.last", 2);
  m.inc("a.first", 1);
  m.inc("m.zeroed", 5);
  m.inc("m.zeroed", -5);
  const auto snap = m.counters();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap.begin()->first, "a.first");
  EXPECT_EQ(snap.rbegin()->first, "z.last");
  EXPECT_EQ(snap.count("m.zeroed"), 0u);  // zero counters are elided
}

TEST(Types, MsgIdOrdering) {
  EXPECT_LT((MsgId{1, 5}), (MsgId{2, 0}));
  EXPECT_LT((MsgId{1, 5}), (MsgId{1, 6}));
  EXPECT_EQ((MsgId{1, 5}), (MsgId{1, 5}));
  EXPECT_EQ(to_string(MsgId{3, 17}), "3:17");
}

TEST(Types, DurationHelpers) {
  EXPECT_EQ(usec(5), 5);
  EXPECT_EQ(msec(5), 5000);
  EXPECT_EQ(sec(5), 5000000);
}

Payload seal(std::shared_ptr<Bytes> buf) {
  return Payload(std::shared_ptr<const Bytes>(std::move(buf)));
}

TEST(BufferPool, BufferIsReusedOnceLastPayloadDrops) {
  BufferPool pool;
  auto buf = pool.acquire();
  buf->assign({1, 2, 3});
  const Bytes* raw = buf.get();
  Payload a = seal(std::move(buf));
  Payload b = a;
  // Still referenced: the pool must hand out a different buffer.
  auto other = pool.acquire();
  EXPECT_NE(other.get(), raw);
  other.reset();
  a = Payload();
  auto again = pool.acquire();  // b still holds raw
  EXPECT_NE(again.get(), raw);
  EXPECT_EQ(pool.size(), 2u);
  b = Payload();
  // The last reference dropped: raw is back, cleared, capacity kept.
  auto reused = pool.acquire();
  EXPECT_EQ(reused.get(), raw);
  EXPECT_TRUE(reused->empty());
  EXPECT_GE(reused->capacity(), 3u);
  EXPECT_EQ(pool.size(), 2u);
}

TEST(BufferPool, PayloadOutlivesItsPool) {
  // A network closure can still hold a datagram when its Context dies. The
  // payload must stay readable, and dropping it afterwards must free the
  // buffer, its control block and the pool's shared core (the sanitizer
  // build catches a use-after-free or a leak here).
  Payload survivor;
  {
    BufferPool pool;
    auto buf = pool.acquire();
    buf->assign({7, 8, 9});
    survivor = seal(std::move(buf));
    Payload idle = seal(pool.acquire());  // returned before the pool dies
  }
  EXPECT_EQ(survivor.bytes(), (Bytes{7, 8, 9}));
  Payload copy = survivor;
  survivor = Payload();
  EXPECT_EQ(copy.size(), 3u);
}

TEST(BufferPool, WarmAcquireReleaseCyclesDoNotAllocate) {
  BufferPool pool;
  std::array<Payload, 8> held;
  auto cycle = [&] {
    for (auto& p : held) {
      auto buf = pool.acquire();
      buf->resize(256);
      p = seal(std::move(buf));
    }
    for (auto& p : held) p = Payload();
  };
  cycle();  // warm-up creates the buffers, control blocks and free lists
  const std::uint64_t before = g_news.load();
  for (int i = 0; i < 100; ++i) cycle();
  EXPECT_EQ(g_news.load() - before, 0u) << "steady-state acquire allocated";
  EXPECT_EQ(pool.size(), held.size());
}

}  // namespace
}  // namespace gcs
