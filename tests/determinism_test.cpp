/// Whole-system determinism: identical seeds must give bit-identical
/// delivery traces for every configuration the stack supports. This is the
/// property that makes every other test in this suite trustworthy.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "core/stack.hpp"
#include "replication/lock_service.hpp"
#include "tests/test_util.hpp"

namespace gcs {
namespace {

using test::bytes_of;

/// One fairly busy scenario (traffic + gbcast + a crash + a join) reduced
/// to a comparable trace string.
std::string run_trace(std::uint64_t seed, StackConfig sc) {
  World::Config cfg;
  cfg.n = 5;
  cfg.seed = seed;
  cfg.link.jitter = usec(300);
  cfg.link.drop_probability = 0.05;
  cfg.stack = std::move(sc);
  cfg.stack.monitoring.exclusion_timeout = msec(500);
  World w(cfg);
  std::string trace;
  for (ProcessId p = 0; p < 5; ++p) {
    w.stack(p).on_adeliver([&trace, p, &w](const MsgId& id, const Bytes&) {
      trace += "A" + std::to_string(p) + ":" + to_string(id) + "@" +
               std::to_string(w.engine().now()) + ";";
    });
    w.stack(p).on_gdeliver([&trace, p, &w](const MsgId& id, MsgClass cls, const Bytes&) {
      trace += "G" + std::to_string(p) + ":" + to_string(id) + "/" +
               std::to_string(cls) + "@" + std::to_string(w.engine().now()) + ";";
    });
    w.stack(p).on_view([&trace, p](const View& v) {
      trace += "V" + std::to_string(p) + ":" + std::to_string(v.id) + "/" +
               std::to_string(v.members.size()) + ";";
    });
  }
  w.found_group({0, 1, 2, 3});
  for (int i = 0; i < 12; ++i) {
    w.stack(static_cast<ProcessId>(i % 4)).abcast(bytes_of("a" + std::to_string(i)));
    if (i % 3 == 0) {
      w.stack(static_cast<ProcessId>((i + 1) % 4))
          .gbcast(i % 2 ? kAbcastClass : kRbcastClass, bytes_of("g" + std::to_string(i)));
    }
    w.run_for(msec(2));
  }
  w.stack(4).join(1);
  w.run_for(msec(50));
  w.crash(3);
  w.run_for(sec(2));
  return trace;
}

/// FNV-1a over a string; used to reduce a whole run's metrics to one value.
std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

/// E1-style failure-free atomic-broadcast workload reduced to a metrics
/// hash: per-message delivery latencies at p0, every network/stack counter,
/// and the engine's own counters (executed event count and final virtual
/// time). Two runs with the same seed must produce the same hash — this is
/// the regression net for the timer-wheel rewrite: any change in cascade
/// or compaction order shows up in executed()/now()/latency totals.
std::uint64_t run_metrics_hash(std::uint64_t seed) {
  constexpr int kProcs = 4;
  constexpr int kMessages = 100;
  World::Config cfg;
  cfg.n = kProcs;
  cfg.seed = seed;
  cfg.link.jitter = usec(200);
  World w(cfg);
  std::string digest;
  std::map<MsgId, TimePoint> sent_time;
  std::size_t delivered = 0;
  w.stack(0).on_adeliver([&](const MsgId& id, const Bytes&) {
    ++delivered;
    auto it = sent_time.find(id);
    const Duration lat = it == sent_time.end() ? -1 : w.engine().now() - it->second;
    digest += "L" + std::to_string(lat) + ";";
  });
  w.found_group({0, 1, 2, 3});
  int sent = 0;
  std::function<void()> tick = [&] {
    if (sent >= kMessages) return;
    const ProcessId sender = static_cast<ProcessId>(sent % kProcs);
    const MsgId id = w.stack(sender).abcast(test::bytes_of("m" + std::to_string(sent)));
    sent_time[id] = w.engine().now();
    ++sent;
    w.engine().schedule_after(msec(2), tick);
  };
  w.engine().schedule_after(0, tick);
  while (delivered < kMessages && w.engine().now() < sec(120)) {
    if (!w.engine().step()) break;
  }
  w.run_for(msec(50));  // drain trailing protocol traffic
  for (const auto& [name, value] : w.network().metrics().counters()) {
    digest += name + "=" + std::to_string(value) + ";";
  }
  digest += "executed=" + std::to_string(w.engine().executed()) + ";";
  digest += "now=" + std::to_string(w.engine().now()) + ";";
  digest += "pending=" + std::to_string(w.engine().pending()) + ";";
  digest += "delivered=" + std::to_string(delivered) + ";";
  EXPECT_EQ(delivered, static_cast<std::size_t>(kMessages));
  return fnv1a(digest);
}

TEST(Determinism, MetricsHashIsReproducible) {
  EXPECT_EQ(run_metrics_hash(7), run_metrics_hash(7));
}

TEST(Determinism, MetricsHashDependsOnSeed) {
  EXPECT_NE(run_metrics_hash(7), run_metrics_hash(8));
}

TEST(Determinism, IdenticalSeedsIdenticalTraces) {
  StackConfig sc;
  EXPECT_EQ(run_trace(42, sc), run_trace(42, sc));
}

TEST(Determinism, HoldsWithPaxos) {
  StackConfig sc;
  sc.consensus_algorithm = StackConfig::ConsensusAlgo::kPaxos;
  EXPECT_EQ(run_trace(43, sc), run_trace(43, sc));
}

TEST(Determinism, HoldsWithStabilityAndBatchingAndFlowControl) {
  StackConfig sc;
  // The run's 5% loss makes the channel resend in batch frames.
  sc.stability_interval = msec(20);
  sc.channel.send_window = 32;
  EXPECT_EQ(run_trace(44, sc), run_trace(44, sc));
}

TEST(Determinism, DifferentSeedsDiffer) {
  StackConfig sc;
  EXPECT_NE(run_trace(42, sc), run_trace(4242, sc));
}

/// The chaos scenario of run_trace() executed under the full oracle +
/// probe pipeline, reduced to the rendered scenario report. Byte-identical
/// reports across same-seed runs are what makes CI's report artifacts
/// diffable.
std::string run_report(std::uint64_t seed) {
  World::Config cfg;
  cfg.n = 5;
  cfg.seed = seed;
  cfg.link.jitter = usec(300);
  cfg.link.drop_probability = 0.05;
  cfg.stack.monitoring.exclusion_timeout = msec(500);
  World w(cfg);
  obs::Oracle oracle;
  obs::Probes probes;
  obs::Telemetry telemetry;
  telemetry.add_sink(probes.sink());
  w.attach_oracle(oracle);
  w.enable_telemetry(telemetry, msec(10));
  w.found_group({0, 1, 2, 3});
  for (int i = 0; i < 12; ++i) {
    w.stack(static_cast<ProcessId>(i % 4)).abcast(bytes_of("a" + std::to_string(i)));
    if (i % 3 == 0) {
      w.stack(static_cast<ProcessId>((i + 1) % 4))
          .gbcast(i % 2 ? kAbcastClass : kRbcastClass, bytes_of("g" + std::to_string(i)));
    }
    w.run_for(msec(2));
  }
  w.stack(4).join(1);
  w.run_for(msec(50));
  w.crash(3);
  w.run_for(sec(2));
  oracle.finalize();
  return obs::render_scenario_report("determinism", seed, oracle, &probes,
                                     &w.stack(0).metrics());
}

TEST(Determinism, ScenarioReportsAreByteIdentical) {
  const std::string a = run_report(57);
  const std::string b = run_report(57);
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("\"passed\":true"), std::string::npos) << a;
}

TEST(Determinism, ScenarioReportsDependOnSeed) {
  EXPECT_NE(run_report(57), run_report(58));
}

}  // namespace
}  // namespace gcs
