/// \file bench_latency_json.cpp
/// Latency critical-path attribution report: runs abcast workloads at
/// n = 3/5/7 plus a mixed generic-broadcast workload, each with the
/// flight recorder on, feeds the trace through the critical-path analyzer
/// (obs/critical_path.hpp) and emits BENCH_latency.json with the
/// end-to-end latency of every delivery split into exhaustive phases
/// (flood / batch_wait / propose_wait / accept_wait / pull_wait /
/// reorder_wait, plus the GB fast/slow phases) and an honest residual.
///
/// The `checks` block states the acceptance bounds, and the process exits
/// nonzero when one fails: every scenario attributes at least 95% of its
/// total end-to-end latency, no trace ring wrapped (truncated attribution),
/// every delivery had a submit anchor in the window, and every delivery's
/// attributed phases plus residual sum to its end-to-end latency. Virtual
/// time only, so the report is byte-identical across machines for a given
/// seed.
///
///   ./bench/bench_latency_json [--json=PATH] [--oracle]
///                              (default PATH: BENCH_latency.json)
#include <algorithm>
#include <array>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "obs/critical_path.hpp"

namespace gcs::bench {
namespace {

constexpr int kMessages = 120;
constexpr Duration kGap = msec(1);
constexpr std::size_t kRingCapacity = std::size_t{1} << 19;
constexpr double kMinCoverage = 0.95;

/// Abcast workload: round-robin senders, every process delivers, shared
/// flight recorder across all stacks so the trace interleaves the group.
obs::LatencyScenario run_abcast(int n, std::uint64_t seed) {
  World::Config config;
  config.n = n;
  config.seed = seed;
  auto recorder = std::make_shared<obs::Recorder>(kRingCapacity);
  config.stack.recorder = recorder;
  World world(config);
  OracleScope oracle(world, "latency_json/abcast_n" + std::to_string(n));
  int delivered = 0;
  for (ProcessId p = 0; p < n; ++p) {
    world.stack(p).on_adeliver([&delivered](const MsgId&, const Bytes&) { ++delivered; });
  }
  world.found_group_all();
  world.run_for(msec(20));

  int sent = 0;
  std::function<void()> tick = [&] {
    if (sent >= kMessages) return;
    world.stack(static_cast<ProcessId>(sent % n)).abcast(payload_of(sent));
    ++sent;
    world.engine().schedule_after(kGap, tick);
  };
  world.engine().schedule_after(0, tick);
  drive(world.engine(), sec(300), [&] { return delivered >= kMessages * n; });
  world.run_for(sec(1));  // let decide propagation / pulls settle

  obs::LatencyScenario sc;
  sc.name = "abcast_n" + std::to_string(n);
  sc.params_json = "{\"n\": " + std::to_string(n) +
                   ", \"messages\": " + std::to_string(kMessages) +
                   ", \"gap_us\": " + std::to_string(kGap) +
                   ", \"seed\": " + std::to_string(seed) + "}";
  sc.stats = obs::analyze_critical_path(*recorder);
  return sc;
}

/// Generic-broadcast workload with a 25% conflict fraction: commutative
/// commands exercise the fast path (flood + gb_ack_wait), conflicting ones
/// the resolution chain (gb_conflict_wait + gb_resolve).
obs::LatencyScenario run_gbcast_mixed(int n, std::uint64_t seed) {
  const double conflict_fraction = 0.25;
  World::Config config;
  config.n = n;
  config.seed = seed;
  config.stack.conflict = ConflictRelation::rbcast_abcast();
  auto recorder = std::make_shared<obs::Recorder>(kRingCapacity);
  config.stack.recorder = recorder;
  World world(config);
  OracleScope oracle(world, "latency_json/gbcast_n" + std::to_string(n));
  int delivered = 0;
  for (ProcessId p = 0; p < n; ++p) {
    world.stack(p).on_gdeliver(
        [&delivered](const MsgId&, MsgClass, const Bytes&) { ++delivered; });
  }
  world.found_group_all();
  world.run_for(msec(20));

  Rng rng(seed ^ 0x9e3779b9u);
  std::vector<bool> conflicting(kMessages);
  for (int i = 0; i < kMessages; ++i) {
    conflicting[static_cast<std::size_t>(i)] = rng.chance(conflict_fraction);
  }
  int sent = 0;
  std::function<void()> tick = [&] {
    if (sent >= kMessages) return;
    const MsgClass cls =
        conflicting[static_cast<std::size_t>(sent)] ? kAbcastClass : kRbcastClass;
    world.stack(static_cast<ProcessId>(sent % n)).gbcast(cls, payload_of(sent));
    ++sent;
    world.engine().schedule_after(kGap, tick);
  };
  world.engine().schedule_after(0, tick);
  drive(world.engine(), sec(300), [&] { return delivered >= kMessages * n; });
  world.run_for(sec(1));

  obs::LatencyScenario sc;
  sc.name = "gbcast_n" + std::to_string(n) + "_mixed";
  sc.params_json = "{\"n\": " + std::to_string(n) +
                   ", \"messages\": " + std::to_string(kMessages) +
                   ", \"conflict_fraction\": " + json_num(conflict_fraction) +
                   ", \"seed\": " + std::to_string(seed) + "}";
  sc.stats = obs::analyze_critical_path(*recorder);
  return sc;
}

void run_suite(SuiteReport& report) {
  banner("latency critical path — per-phase attribution (JSON report)",
         "abcast at n=3/5/7 and mixed generic broadcast, traced end to end;\n"
         "every delivery's latency split into exhaustive phases + residual");

  std::vector<obs::LatencyScenario> scenarios;
  scenarios.push_back(run_abcast(3, 101));
  scenarios.push_back(run_abcast(5, 102));
  scenarios.push_back(run_abcast(7, 103));
  scenarios.push_back(run_gbcast_mixed(5, 104));

  Table table({"scenario", "deliveries", "e2e mean (ms)", "dominant phase", "coverage",
               "residual"});
  // Each bound lists the scenarios that miss it.
  std::string low_coverage, truncated, unmatched, inexhaustive;
  for (const obs::LatencyScenario& sc : scenarios) {
    const obs::CriticalPathStats& st = sc.stats;
    // Dominant-phase mode across deliveries, for the human table.
    std::array<std::size_t, obs::kNumPathPhases + 1> dom{};
    // The report's phase and residual sums count positive spans only, so
    // they add up to the end-to-end sum only when no span is negative.
    Duration e2e_sum = 0, accounted = 0;
    for (const obs::PathBreakdown& p : st.paths) {
      e2e_sum += p.total;
      ++dom[p.dominant < 0 ? obs::kNumPathPhases : static_cast<std::size_t>(p.dominant)];
      for (const Duration d : p.phase) accounted += std::max<Duration>(d, 0);
      accounted += std::max<Duration>(p.residual, 0);
    }
    std::size_t best = 0;
    for (std::size_t i = 1; i < dom.size(); ++i) {
      if (dom[i] > dom[best]) best = i;
    }
    const std::string dom_name =
        best == obs::kNumPathPhases
            ? "residual"
            : std::string(obs::path_phase_name(static_cast<obs::PathPhase>(best)));
    const double mean =
        st.paths.empty() ? 0.0
                         : static_cast<double>(e2e_sum) / static_cast<double>(st.paths.size());
    table.add_row({sc.name, std::to_string(st.paths.size()), fmt_ms(mean), dom_name,
                   fmt_pct(st.coverage()), fmt_pct(st.residual_share())});

    if (st.coverage() < kMinCoverage) low_coverage += " " + sc.name;
    if (st.truncated) truncated += " " + sc.name;
    if (st.unmatched > 0) unmatched += " " + sc.name;
    if (accounted != e2e_sum) inexhaustive += " " + sc.name;
  }
  table.print();
  report.members.push_back(obs::render_latency_scenarios(scenarios));

  const auto check = [&report](const char* name, const std::string& misses, std::string claim) {
    if (!misses.empty()) claim += " (not:" + misses + ")";
    report.checks.push_back({name, misses.empty(), claim});
  };
  check("coverage", low_coverage,
        "every scenario attributes >= 95% of its end-to-end latency to phases");
  check("trace_complete", truncated,
        "no scenario's trace ring wrapped (raise kRingCapacity if one did)");
  check("every_delivery_anchored", unmatched,
        "every delivery has its submit anchor in the trace window");
  check("attribution_exhaustive", inexhaustive,
        "summed over deliveries, attributed phases + residual == end-to-end latency");
}

}  // namespace
}  // namespace gcs::bench

int main(int argc, char** argv) {
  return gcs::bench::suite_main(argc, argv, "latency", gcs::bench::run_suite);
}
