/// Live telemetry & watchdog tests.
///
/// Three layers, mirroring the subsystem's guarantees:
///   1. frame codec — randomized Snapshot round-trips (including the
///      IEEE-754 bit-pattern encoding of doubles), strict-prefix rejection
///      fuzz in the style of codec_roundtrip_test.cpp, magic/version
///      gating, trailing-garbage rejection; the publisher, and Probes
///      folding its gauges into bounded, decimated series;
///   2. watchdog rules — synthetic frame streams plant exactly one anomaly
///      each (stall, pull storm, fc saturation, view flap, queue growth)
///      and every test pins down that exactly its own rule fires, plus the
///      fire-once-per-episode / re-arm semantics;
///   3. integration — a healthy simulated group publishes frames on a
///      virtual-time cadence with zero alerts and a byte-identical stream
///      (and alert section) across same-seed runs; a planted majority
///      crash raises a delivery-stall alert within two cadences.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "core/stack.hpp"
#include "obs/probes.hpp"
#include "obs/report.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "obs/watchdog.hpp"
#include "util/codec.hpp"
#include "util/rng.hpp"

namespace gcs {
namespace {

using obs::Alert;
using obs::Probes;
using obs::Snapshot;
using obs::Telemetry;
using obs::Watchdog;
using obs::WatchdogRule;

// ---------------------------------------------------------------------------
// frame codec

std::uint64_t random_width_u64(Rng& rng) {
  const auto bits = static_cast<int>(rng.next_below(65));
  if (bits == 0) return 0;
  std::uint64_t v = rng.next_u64();
  if (bits < 64) v &= (1ULL << bits) - 1;
  return v;
}

std::string random_name(Rng& rng, int salt) {
  std::string s = "m" + std::to_string(salt) + ".";
  const auto len = 1 + rng.next_below(24);
  for (std::uint64_t i = 0; i < len; ++i) {
    s.push_back(static_cast<char>('a' + rng.next_below(26)));
  }
  return s;
}

// Random double spanning the full bit space (NaNs, infinities, denormals
// included): the wire carries the bit pattern, so everything round-trips.
double random_double(Rng& rng) { return std::bit_cast<double>(rng.next_u64()); }

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

Snapshot random_snapshot(Rng& rng) {
  Snapshot s;
  s.proc = static_cast<ProcessId>(rng.next_below(64));
  s.seq = random_width_u64(rng);
  s.ts = static_cast<TimePoint>(random_width_u64(rng) >> 1);
  const int nc = static_cast<int>(rng.next_below(12));
  for (int i = 0; i < nc; ++i) {
    const auto raw = static_cast<std::int64_t>(random_width_u64(rng));
    s.counters.push_back({random_name(rng, i), rng.chance(0.5) ? raw : -raw});
  }
  const int ng = static_cast<int>(rng.next_below(8));
  for (int i = 0; i < ng; ++i) {
    s.gauges.push_back({random_name(rng, 100 + i), random_double(rng)});
  }
  const int nh = static_cast<int>(rng.next_below(5));
  for (int i = 0; i < nh; ++i) {
    Snapshot::Hist h;
    h.name = random_name(rng, 200 + i);
    h.count = random_width_u64(rng);
    h.min = static_cast<Duration>(random_width_u64(rng) >> 1);
    h.max = static_cast<Duration>(random_width_u64(rng) >> 1);
    h.mean = random_double(rng);
    h.p50 = static_cast<Duration>(rng.next_below(1 << 20));
    h.p90 = static_cast<Duration>(rng.next_below(1 << 20));
    h.p99 = static_cast<Duration>(rng.next_below(1 << 20));
    s.histograms.push_back(std::move(h));
  }
  s.trace_enabled = rng.chance(0.5);
  s.trace_capacity = rng.next_below(1 << 16);
  s.trace_records = rng.next_below(1 << 16);
  s.trace_dropped = rng.next_below(1 << 16);
  return s;
}

void expect_equal(const Snapshot& a, const Snapshot& b) {
  EXPECT_EQ(a.proc, b.proc);
  EXPECT_EQ(a.seq, b.seq);
  EXPECT_EQ(a.ts, b.ts);
  ASSERT_EQ(a.counters.size(), b.counters.size());
  for (std::size_t i = 0; i < a.counters.size(); ++i) {
    EXPECT_EQ(a.counters[i].name, b.counters[i].name);
    EXPECT_EQ(a.counters[i].value, b.counters[i].value);
  }
  ASSERT_EQ(a.gauges.size(), b.gauges.size());
  for (std::size_t i = 0; i < a.gauges.size(); ++i) {
    EXPECT_EQ(a.gauges[i].name, b.gauges[i].name);
    EXPECT_TRUE(same_bits(a.gauges[i].value, b.gauges[i].value));
  }
  ASSERT_EQ(a.histograms.size(), b.histograms.size());
  for (std::size_t i = 0; i < a.histograms.size(); ++i) {
    EXPECT_EQ(a.histograms[i].name, b.histograms[i].name);
    EXPECT_EQ(a.histograms[i].count, b.histograms[i].count);
    EXPECT_EQ(a.histograms[i].min, b.histograms[i].min);
    EXPECT_EQ(a.histograms[i].max, b.histograms[i].max);
    EXPECT_TRUE(same_bits(a.histograms[i].mean, b.histograms[i].mean));
    EXPECT_EQ(a.histograms[i].p50, b.histograms[i].p50);
    EXPECT_EQ(a.histograms[i].p90, b.histograms[i].p90);
    EXPECT_EQ(a.histograms[i].p99, b.histograms[i].p99);
  }
  EXPECT_EQ(a.trace_enabled, b.trace_enabled);
  EXPECT_EQ(a.trace_capacity, b.trace_capacity);
  EXPECT_EQ(a.trace_records, b.trace_records);
  EXPECT_EQ(a.trace_dropped, b.trace_dropped);
}

TEST(TelemetryCodec, RandomSnapshotsRoundTrip) {
  Rng rng(0x7e1e);
  for (int round = 0; round < 300; ++round) {
    const Snapshot s = random_snapshot(rng);
    const Bytes wire = obs::encode_snapshot(s);
    const auto back = obs::decode_snapshot(BytesView(wire.data(), wire.size()));
    ASSERT_TRUE(back.has_value()) << "round " << round;
    expect_equal(s, *back);
  }
}

TEST(TelemetryCodec, EveryStrictPrefixRejected) {
  Rng rng(0x9ef1);
  for (int round = 0; round < 40; ++round) {
    const Bytes wire = obs::encode_snapshot(random_snapshot(rng));
    for (std::size_t cut = 0; cut < wire.size(); ++cut) {
      EXPECT_FALSE(obs::decode_snapshot(BytesView(wire.data(), cut)).has_value())
          << "prefix of length " << cut << " of " << wire.size() << " accepted";
    }
  }
}

TEST(TelemetryCodec, TrailingGarbageRejected) {
  Rng rng(0x6a5b);
  for (int round = 0; round < 40; ++round) {
    Bytes wire = obs::encode_snapshot(random_snapshot(rng));
    wire.push_back(static_cast<std::uint8_t>(rng.next_below(256)));
    EXPECT_FALSE(obs::decode_snapshot(BytesView(wire.data(), wire.size())).has_value());
  }
}

TEST(TelemetryCodec, BadMagicAndVersionRejected) {
  const Bytes wire = obs::encode_snapshot(Snapshot{});
  ASSERT_TRUE(obs::decode_snapshot(BytesView(wire.data(), wire.size())).has_value());
  for (std::size_t i = 0; i < 4; ++i) {  // 3 magic bytes + version byte
    Bytes bad = wire;
    bad[i] ^= 0x5a;
    EXPECT_FALSE(obs::decode_snapshot(BytesView(bad.data(), bad.size())).has_value());
  }
  EXPECT_FALSE(obs::decode_snapshot(BytesView{}).has_value());
}

TEST(TelemetryCodec, LookupsOnNameSortedEntries) {
  Snapshot s;
  s.counters = {{"a.one", 1}, {"b.two", 2}, {"c.three", 3}};
  s.gauges = {{"g.x", 1.5}, {"g.y", 2.5}};
  s.histograms.push_back({"h.lat", 4, 1, 9, 5.0, 5, 8, 9});
  EXPECT_EQ(s.counter("b.two"), 2);
  EXPECT_EQ(s.counter("missing"), 0);
  EXPECT_DOUBLE_EQ(s.gauge("g.y"), 2.5);
  EXPECT_DOUBLE_EQ(s.gauge("missing", -7.0), -7.0);
  ASSERT_NE(s.histogram("h.lat"), nullptr);
  EXPECT_EQ(s.histogram("h.lat")->count, 4u);
  EXPECT_EQ(s.histogram("missing"), nullptr);
}

// ---------------------------------------------------------------------------
// Telemetry publisher mechanics

TEST(Telemetry, SnapshotCollectsCountersGaugesHistogramsSorted) {
  auto metrics = std::make_shared<Metrics>();
  metrics->inc("zz.last", 5);
  metrics->inc("aa.first", 2);
  metrics->inc("mm.zeroed", 3);
  metrics->inc("mm.zeroed", -3);  // zero totals are elided from frames
  metrics->observe("lat.us", 100);
  metrics->observe("lat.us", 300);

  Telemetry t;
  t.register_process(7, metrics);
  t.add_gauge(7, "g.depth", [] { return 42.0; });
  const Snapshot s = t.snapshot(7, usec(1234));

  EXPECT_EQ(s.proc, 7);
  EXPECT_EQ(s.ts, 1234);
  EXPECT_EQ(s.counter("aa.first"), 2);
  EXPECT_EQ(s.counter("zz.last"), 5);
  EXPECT_EQ(s.counter("mm.zeroed"), 0);
  for (const auto& c : s.counters) EXPECT_NE(c.name, "mm.zeroed");
  EXPECT_DOUBLE_EQ(s.gauge("g.depth"), 42.0);
  ASSERT_NE(s.histogram("lat.us"), nullptr);
  EXPECT_EQ(s.histogram("lat.us")->count, 2u);
  EXPECT_DOUBLE_EQ(s.histogram("lat.us")->mean, 200.0);
  for (std::size_t i = 1; i < s.counters.size(); ++i) {
    EXPECT_LT(s.counters[i - 1].name, s.counters[i].name);
  }
}

TEST(Telemetry, AuxiliaryMetricsMergeSummed) {
  auto stack_metrics = std::make_shared<Metrics>();
  auto transport_metrics = std::make_shared<Metrics>();
  stack_metrics->inc("shared.count", 10);
  transport_metrics->inc("shared.count", 32);
  transport_metrics->inc("udp.rx_datagrams", 9);

  Telemetry t;
  t.register_process(0, stack_metrics);
  t.add_metrics(0, transport_metrics);
  const Snapshot s = t.snapshot(0, 0);
  EXPECT_EQ(s.counter("shared.count"), 42);
  EXPECT_EQ(s.counter("udp.rx_datagrams"), 9);
}

TEST(Telemetry, PublishFansOutPerProcessWithSequencedFrames) {
  auto m0 = std::make_shared<Metrics>();
  auto m1 = std::make_shared<Metrics>();
  m0->inc("x", 1);
  m1->inc("x", 2);

  Telemetry t;
  t.register_process(0, m0);
  t.register_process(1, m1);
  std::vector<Snapshot> seen;
  std::vector<Bytes> wires;
  t.add_sink([&](const Snapshot& s, BytesView wire) {
    seen.push_back(s);
    wires.push_back(to_bytes(wire));
  });
  t.publish(usec(10));
  t.publish(usec(20));

  ASSERT_EQ(seen.size(), 4u);
  EXPECT_EQ(t.frames_published(), 4u);
  EXPECT_EQ(seen[0].proc, 0);
  EXPECT_EQ(seen[1].proc, 1);
  EXPECT_EQ(seen[0].seq, 0u);
  EXPECT_EQ(seen[2].seq, 1u);  // per-process sequence, not global
  EXPECT_EQ(seen[2].ts, 20);
  for (std::size_t i = 0; i < wires.size(); ++i) {
    const auto back = obs::decode_snapshot(BytesView(wires[i].data(), wires[i].size()));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->seq, seen[i].seq);
  }
}

TEST(Telemetry, TraceRingHealthInFrames) {
  obs::Recorder recorder(/*capacity=*/4);
  auto metrics = std::make_shared<Metrics>();
  Telemetry t;
  t.register_process(0, metrics, &recorder);
  for (int i = 0; i < 10; ++i) recorder.append(obs::Record{});
  const Snapshot s = t.snapshot(0, 0);
  EXPECT_TRUE(s.trace_enabled);
  EXPECT_EQ(s.trace_capacity, 4u);
  EXPECT_EQ(s.trace_records, 4u);
  EXPECT_EQ(s.trace_dropped, 6u);
}

// ---------------------------------------------------------------------------
// probes: published gauges folded into bounded time series

/// Publish \p samples frames per process (two processes, two gauges each,
/// timestamps 1000, 1010, ...) into \p probes.
void fold_samples(int samples, Probes& probes) {
  Telemetry t;
  t.add_sink(probes.sink());
  int tick = 0;
  for (ProcessId p = 0; p < 2; ++p) {
    t.register_process(p, std::make_shared<Metrics>());
    t.add_gauge(p, "g.tick", [&tick, p] { return tick * 10.0 + p; });
    t.add_gauge(p, "g.const", [] { return 1.0; });
  }
  for (tick = 0; tick < samples; ++tick) t.publish(1000 + tick * 10);
}

TEST(Probes, OnePointPerGaugePerPublish) {
  Probes probes;
  fold_samples(3, probes);
  EXPECT_EQ(probes.samples_taken(), 3u);
  EXPECT_EQ(probes.timestamps(), (std::vector<TimePoint>{1000, 1010, 1020}));
  // Ordered by process, then by gauge name.
  ASSERT_EQ(probes.series().size(), 4u);
  EXPECT_EQ(probes.series()[0].proc, 0);
  EXPECT_EQ(probes.series()[0].name, "g.const");
  EXPECT_EQ(probes.series()[3].proc, 1);
  EXPECT_EQ(probes.series()[3].name, "g.tick");
  EXPECT_EQ(probes.series()[3].values, (std::vector<double>{1, 11, 21}));
}

TEST(Probes, LongFeedDecimatesWithinBound) {
  constexpr std::size_t kMax = Probes::kMaxPoints;
  Probes full;
  fold_samples(static_cast<int>(kMax), full);
  EXPECT_EQ(full.stride(), 1u);
  EXPECT_EQ(full.timestamps().size(), kMax);
  Probes over;
  fold_samples(static_cast<int>(kMax) + 1, over);
  EXPECT_EQ(over.stride(), 2u);  // the stride doubles...
  EXPECT_EQ(over.timestamps().size(), kMax / 2 + 1);  // ...and half the points go

  Probes a;
  fold_samples(1300, a);
  EXPECT_EQ(a.samples_taken(), 1300u);
  EXPECT_EQ(a.stride(), 4u);
  ASSERT_LE(a.timestamps().size(), kMax);
  EXPECT_EQ(a.timestamps().front(), 1000);  // the first sample survives
  for (std::size_t i = 0; i < a.timestamps().size(); ++i) {
    // Retained points stay uniform: every stride-th sample, values aligned.
    const TimePoint ts = a.timestamps()[i];
    EXPECT_EQ(ts, 1000 + static_cast<TimePoint>(i * a.stride() * 10));
    EXPECT_EQ(a.series()[3].values[i], static_cast<double>(ts - 1000) + 1);
  }
  for (const Probes::Series& s : a.series()) {
    EXPECT_EQ(s.values.size(), a.timestamps().size()) << s.name;
  }

  Probes b;
  fold_samples(1300, b);
  EXPECT_EQ(a.timestamps(), b.timestamps());
  ASSERT_EQ(a.series().size(), b.series().size());
  for (std::size_t i = 0; i < a.series().size(); ++i) {
    EXPECT_EQ(a.series()[i].values, b.series()[i].values);
  }
}

// ---------------------------------------------------------------------------
// watchdog rules over synthetic frame streams

/// Builder for synthetic frames: counters/gauges/hists accumulate across
/// frames like real metrics registries do.
struct FrameFeed {
  ProcessId proc = 0;
  std::uint64_t seq = 0;
  TimePoint ts = 0;
  Duration cadence = msec(100);
  std::map<std::string, std::int64_t> counters;
  std::map<std::string, double> gauges;
  double fc_stall_total_us = 0;
  std::uint64_t fc_stall_count = 0;

  Snapshot next() {
    Snapshot s;
    s.proc = proc;
    s.seq = seq++;
    s.ts = ts;
    ts += cadence;
    for (const auto& [name, v] : counters) {
      if (v != 0) s.counters.push_back({name, v});
    }
    for (const auto& [name, v] : gauges) s.gauges.push_back({name, v});
    if (fc_stall_count > 0) {
      Snapshot::Hist h;
      h.name = "channel.fc_stall_us";
      h.count = fc_stall_count;
      h.mean = fc_stall_total_us / static_cast<double>(fc_stall_count);
      s.histograms.push_back(std::move(h));
    }
    return s;  // maps iterate sorted, so entries are name-sorted already
  }
};

std::size_t alerts_of(const Watchdog& wd, WatchdogRule rule) {
  std::size_t n = 0;
  for (const Alert& a : wd.alerts()) {
    if (a.rule == rule) ++n;
  }
  return n;
}

/// A healthy window: submits and deliveries advance together, no pulls, no
/// view churn, queues level.
void healthy_tick(FrameFeed& feed, Watchdog& wd) {
  feed.counters["abcast.broadcasts"] += 4;
  feed.counters["abcast.delivered"] += 12;
  wd.observe(feed.next());
}

TEST(WatchdogRules, HealthyStreamRaisesNothing) {
  FrameFeed feed;
  Watchdog wd;
  for (int i = 0; i < 50; ++i) healthy_tick(feed, wd);
  EXPECT_TRUE(wd.clean());
  EXPECT_EQ(wd.alerts_raised(), 0u);
  EXPECT_EQ(wd.frames_observed(), 50u);
}

TEST(WatchdogRules, DeliveryStallFiresItsOwnAlertOnly) {
  FrameFeed feed;
  Watchdog wd;
  for (int i = 0; i < 5; ++i) healthy_tick(feed, wd);
  // Submits keep advancing, deliveries freeze: fires on the 2nd stalled
  // window (default stall_windows = 2) and not again while stalled.
  for (int i = 0; i < 6; ++i) {
    feed.counters["abcast.broadcasts"] += 4;
    wd.observe(feed.next());
  }
  EXPECT_EQ(wd.alerts_raised(), 1u);
  ASSERT_EQ(wd.alerts().size(), 1u);
  EXPECT_EQ(wd.alerts()[0].rule, WatchdogRule::kDeliveryStall);
  EXPECT_EQ(wd.alerts()[0].proc, 0);
  EXPECT_EQ(wd.alerts()[0].frame, 6u);  // 5 healthy + 2nd stalled window
  // Recovery re-arms; a second stall episode fires a second alert.
  for (int i = 0; i < 3; ++i) healthy_tick(feed, wd);
  for (int i = 0; i < 3; ++i) {
    feed.counters["abcast.broadcasts"] += 4;
    wd.observe(feed.next());
  }
  EXPECT_EQ(wd.alerts_raised(), 2u);
  EXPECT_EQ(alerts_of(wd, WatchdogRule::kDeliveryStall), 2u);
}

TEST(WatchdogRules, PullStormFiresItsOwnAlertOnly) {
  FrameFeed feed;
  Watchdog wd;
  for (int i = 0; i < 5; ++i) healthy_tick(feed, wd);
  // Pulls spike past pull_min and past pull_ratio * deliveries, while
  // deliveries still advance (so no stall).
  feed.counters["abcast.broadcasts"] += 4;
  feed.counters["abcast.delivered"] += 12;
  feed.counters["abcast.pull_requests"] += 20;
  wd.observe(feed.next());
  EXPECT_EQ(wd.alerts_raised(), 1u);
  ASSERT_EQ(wd.alerts().size(), 1u);
  EXPECT_EQ(wd.alerts()[0].rule, WatchdogRule::kPullStorm);
  // Still storming: fire-once holds. Calm window: re-arms.
  feed.counters["abcast.broadcasts"] += 4;
  feed.counters["abcast.delivered"] += 12;
  feed.counters["abcast.pull_requests"] += 20;
  wd.observe(feed.next());
  EXPECT_EQ(wd.alerts_raised(), 1u);
  healthy_tick(feed, wd);
  feed.counters["abcast.broadcasts"] += 4;
  feed.counters["abcast.delivered"] += 12;
  feed.counters["gbcast.pull_requests"] += 30;  // gb pulls count too
  wd.observe(feed.next());
  EXPECT_EQ(alerts_of(wd, WatchdogRule::kPullStorm), 2u);
  EXPECT_EQ(wd.alerts_raised(), 2u);
}

TEST(WatchdogRules, FcSaturationFiresItsOwnAlertOnly) {
  FrameFeed feed;
  Watchdog wd;
  for (int i = 0; i < 5; ++i) healthy_tick(feed, wd);
  // 60ms of fc stalls inside a 100ms window (> fc_fraction = 0.5).
  feed.counters["abcast.broadcasts"] += 4;
  feed.counters["abcast.delivered"] += 12;
  feed.fc_stall_total_us += 60'000;
  feed.fc_stall_count += 3;
  wd.observe(feed.next());
  EXPECT_EQ(wd.alerts_raised(), 1u);
  ASSERT_EQ(wd.alerts().size(), 1u);
  EXPECT_EQ(wd.alerts()[0].rule, WatchdogRule::kFcSaturation);
}

TEST(WatchdogRules, ViewFlapFiresItsOwnAlertOnly) {
  FrameFeed feed;
  Watchdog wd;
  for (int i = 0; i < 5; ++i) healthy_tick(feed, wd);
  feed.counters["abcast.broadcasts"] += 4;
  feed.counters["abcast.delivered"] += 12;
  feed.counters["membership.views_installed"] += 3;  // default flap_views
  wd.observe(feed.next());
  EXPECT_EQ(wd.alerts_raised(), 1u);
  ASSERT_EQ(wd.alerts().size(), 1u);
  EXPECT_EQ(wd.alerts()[0].rule, WatchdogRule::kViewFlap);
  // One view per window is normal churn, not flap.
  for (int i = 0; i < 4; ++i) {
    feed.counters["abcast.broadcasts"] += 4;
    feed.counters["abcast.delivered"] += 12;
    feed.counters["membership.views_installed"] += 1;
    wd.observe(feed.next());
  }
  EXPECT_EQ(wd.alerts_raised(), 1u);
}

TEST(WatchdogRules, QueueGrowthFiresItsOwnAlertOnly) {
  FrameFeed feed;
  Watchdog wd;
  feed.gauges["probe.channel.send_queue"] = 0;
  for (int i = 0; i < 5; ++i) healthy_tick(feed, wd);
  // Strictly increasing for growth_windows = 3 windows, total >= 64.
  for (int i = 0; i < 3; ++i) {
    feed.counters["abcast.broadcasts"] += 4;
    feed.counters["abcast.delivered"] += 12;
    feed.gauges["probe.channel.send_queue"] += 30;
    wd.observe(feed.next());
  }
  EXPECT_EQ(wd.alerts_raised(), 1u);
  ASSERT_EQ(wd.alerts().size(), 1u);
  EXPECT_EQ(wd.alerts()[0].rule, WatchdogRule::kQueueGrowth);
  // Draining the queue re-arms the rule.
  feed.gauges["probe.channel.send_queue"] = 0;
  for (int i = 0; i < 5; ++i) healthy_tick(feed, wd);
  for (int i = 0; i < 3; ++i) {
    feed.counters["abcast.broadcasts"] += 4;
    feed.counters["abcast.delivered"] += 12;
    feed.gauges["probe.channel.send_queue"] += 40;
    wd.observe(feed.next());
  }
  EXPECT_EQ(alerts_of(wd, WatchdogRule::kQueueGrowth), 2u);
  EXPECT_EQ(wd.alerts_raised(), 2u);
}

TEST(WatchdogRules, SlowGrowthBelowThresholdStaysQuiet) {
  FrameFeed feed;
  Watchdog wd;
  feed.gauges["probe.channel.send_queue"] = 0;
  wd.observe(feed.next());
  // Strictly increasing but far below growth_min total: a queue breathing
  // under load, not growing without bound.
  for (int i = 0; i < 20; ++i) {
    feed.counters["abcast.broadcasts"] += 4;
    feed.counters["abcast.delivered"] += 12;
    feed.gauges["probe.channel.send_queue"] += 1;
    wd.observe(feed.next());
  }
  EXPECT_TRUE(wd.clean());
}

TEST(WatchdogRules, InterleavedProcessesTrackedIndependently) {
  Watchdog wd;
  FrameFeed healthy;
  healthy.proc = 0;
  FrameFeed stalling;
  stalling.proc = 1;
  for (int i = 0; i < 6; ++i) {
    healthy_tick(healthy, wd);
    stalling.counters["abcast.broadcasts"] += 4;  // never delivers
    wd.observe(stalling.next());
  }
  EXPECT_EQ(wd.alerts_raised(), 1u);
  ASSERT_EQ(wd.alerts().size(), 1u);
  EXPECT_EQ(wd.alerts()[0].proc, 1);
  EXPECT_EQ(wd.alerts()[0].rule, WatchdogRule::kDeliveryStall);
}

TEST(WatchdogRules, AlertListBoundTruncatesButCounts) {
  Watchdog::Config cfg;
  cfg.max_alerts = 2;
  Watchdog wd(cfg);
  FrameFeed feed;
  wd.observe(feed.next());
  for (int episode = 0; episode < 5; ++episode) {
    for (int i = 0; i < 3; ++i) {
      feed.counters["abcast.broadcasts"] += 4;
      wd.observe(feed.next());
    }
    healthy_tick(feed, wd);  // clear + re-arm
  }
  EXPECT_EQ(wd.alerts_raised(), 5u);
  EXPECT_EQ(wd.alerts().size(), 2u);
  EXPECT_EQ(wd.truncated_alerts(), 3u);
}

TEST(WatchdogRules, AlertsJsonIsDeterministic) {
  const auto run = [] {
    Watchdog wd;
    FrameFeed feed;
    wd.observe(feed.next());
    for (int i = 0; i < 3; ++i) {
      feed.counters["abcast.broadcasts"] += 4;
      wd.observe(feed.next());
    }
    return obs::render_alerts_json(wd);
  };
  const std::string a = run();
  const std::string b = run();
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("\"rule\":\"delivery_stall\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// integration: simulated group publishing on a virtual-time cadence

struct SimStream {
  Telemetry telemetry;
  Watchdog watchdog;
  Bytes wire;  ///< all frames concatenated (length-prefixed)

  void attach(World& world, Duration cadence) {
    telemetry.add_sink([this](const Snapshot& s, BytesView w) {
      watchdog.observe(s);
      Encoder enc(wire);
      enc.put_u64(w.size());
      for (std::uint8_t b : w) wire.push_back(b);
    });
    world.enable_telemetry(telemetry, cadence);
  }
};

TEST(TelemetryIntegration, HealthySimRunIsCleanAndByteIdentical) {
  const auto run = [](Bytes& wire_out, std::string& alerts_out) {
    World::Config cfg;
    cfg.n = 3;
    cfg.seed = 42;
    World world(cfg);
    SimStream stream;
    stream.attach(world, msec(100));
    world.found_group_all();
    for (int i = 0; i < 20; ++i) {
      world.stack(static_cast<ProcessId>(i % 3)).abcast(Bytes{1, 2, 3});
      world.run_for(msec(50));
    }
    world.run_for(msec(500));
    EXPECT_GT(stream.telemetry.frames_published(), 0u);
    EXPECT_TRUE(stream.watchdog.clean())
        << obs::render_alerts_json(stream.watchdog);
    wire_out = stream.wire;
    alerts_out = obs::render_alerts_json(stream.watchdog);
  };
  Bytes wire_a, wire_b;
  std::string alerts_a, alerts_b;
  run(wire_a, alerts_a);
  run(wire_b, alerts_b);
  EXPECT_FALSE(wire_a.empty());
  EXPECT_EQ(wire_a, wire_b);  // byte-identical same-seed streams
  EXPECT_EQ(alerts_a, alerts_b);
}

TEST(TelemetryIntegration, PlantedMajorityCrashRaisesStallWithinTwoCadences) {
  World::Config cfg;
  cfg.n = 3;
  cfg.seed = 7;
  // Keep monitoring from excluding the crashed majority during the test
  // window, so the stall persists instead of resolving via a view change.
  cfg.stack.monitoring.exclusion_timeout = sec(30);
  World world(cfg);
  SimStream stream;
  const Duration cadence = msec(100);
  stream.attach(world, cadence);
  world.found_group_all();

  // p0 submits on a timer so submits keep advancing across the crash.
  sim::PeriodicTimer submit;
  submit.start(world.engine(), msec(20),
               [&world](TimePoint) { world.stack(0).abcast(Bytes{9}); });
  world.run_for(msec(500));
  ASSERT_TRUE(stream.watchdog.clean()) << obs::render_alerts_json(stream.watchdog);

  const TimePoint crash_ts = world.engine().now();
  world.crash(1);
  world.crash(2);
  world.run_for(msec(600));

  bool stall_seen = false;
  for (const Alert& a : stream.watchdog.alerts()) {
    if (a.rule != WatchdogRule::kDeliveryStall) continue;
    stall_seen = true;
    EXPECT_EQ(a.proc, 0);
    // Within two cadences of the fault (+1 for a window straddling it).
    EXPECT_LE(a.ts, crash_ts + 3 * cadence);
  }
  EXPECT_TRUE(stall_seen) << obs::render_alerts_json(stream.watchdog);
}

TEST(TelemetryIntegration, ScenarioReportCarriesAlertSection) {
  Watchdog wd;
  FrameFeed feed;
  wd.observe(feed.next());
  for (int i = 0; i < 3; ++i) {
    feed.counters["abcast.broadcasts"] += 4;
    wd.observe(feed.next());
  }
  World::Config cfg;
  cfg.n = 2;
  World world(cfg);
  obs::Oracle oracle;
  world.attach_oracle(oracle);
  world.found_group_all();
  world.run_for(msec(100));
  const std::string report = obs::render_scenario_report(
      "telemetry_report_test", cfg.seed, oracle, nullptr, nullptr, nullptr, &wd);
  EXPECT_NE(report.find("\"alerts\":["), std::string::npos);
  EXPECT_NE(report.find("\"rule\":\"delivery_stall\""), std::string::npos);
}

}  // namespace
}  // namespace gcs
