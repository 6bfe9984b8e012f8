/// \file bench_protocol_json.cpp
/// Protocol-level performance report: runs the E3 generic-broadcast and E5
/// view-change scenarios on the new stack and emits BENCH_protocol.json
/// (alongside bench_e7_micro's BENCH_kernel.json) with the per-phase
/// latency breakdown that the interned-metric histograms now collect:
///
///   channel.residence_us     time-in-channel (first transmit -> cum. ack)
///   consensus.latency_us     propose() -> decision, per instance
///   abcast.order_latency_us  rdelivered -> adelivered (ordering wait)
///   gbcast.fast_latency_us   payload seen -> fast-path delivery
///   gbcast.slow_latency_us   payload seen -> resolution delivery
///
/// plus the GB fast-path ratio (fast vs resolved deliveries), and a Paxos
/// leader-crash scenario reporting retransmissions per delivery, the
/// exclusion delay and the delivery outage. Latencies
/// are virtual-time microseconds, so the report is deterministic for a
/// given seed and comparable across machines.
///
///   ./bench/bench_protocol_json [--json=PATH]   (default BENCH_protocol.json)
#include <algorithm>
#include <cstring>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"

namespace gcs::bench {
namespace {

constexpr int kCommands = 200;
constexpr Duration kGap = msec(1);

/// Summary of one per-phase histogram, merged across all processes.
struct PhaseStats {
  std::size_t count = 0;
  double mean = 0;
  Duration p50 = 0;
  Duration p99 = 0;
  Duration max = 0;
};

PhaseStats merge_phase(World& world, int n, const std::string& name) {
  Histogram merged;
  for (ProcessId p = 0; p < n; ++p) {
    for (Duration s : world.stack(p).metrics().histogram(name).samples()) merged.add(s);
  }
  PhaseStats st;
  st.count = merged.count();
  if (merged.empty()) return st;
  st.mean = merged.mean();
  st.p50 = merged.percentile(50);
  st.p99 = merged.percentile(99);
  st.max = merged.max();
  return st;
}

std::int64_t sum_counter(World& world, int n, const std::string& name) {
  std::int64_t total = 0;
  for (ProcessId p = 0; p < n; ++p) total += world.stack(p).metrics().counter(name);
  return total;
}

/// One finished scenario, ready for the table and the JSON report.
struct Scenario {
  std::string name;
  std::map<std::string, std::string> params;  // insertion-order irrelevant
  std::map<std::string, PhaseStats> phases;
  std::int64_t gb_fast = 0;
  std::int64_t gb_resolved = 0;
  std::int64_t consensus_decided = 0;
  std::int64_t views_installed = 0;
  // Leader-crash scenario only (has_crash): what a dead member costs.
  bool has_crash = false;
  double retransmits_per_delivered = 0;
  double exclusion_ms = 0;  ///< crash -> last survivor installs the view without it
  double outage_ms = 0;     ///< longest delivery gap at a survivor

  double fast_ratio() const {
    const std::int64_t total = gb_fast + gb_resolved;
    return total > 0 ? static_cast<double>(gb_fast) / static_cast<double>(total) : 0.0;
  }
};

const char* const kPhaseNames[] = {
    "channel.residence_us", "consensus.latency_us", "abcast.order_latency_us",
    "gbcast.fast_latency_us", "gbcast.slow_latency_us",
};

void collect(World& world, int n, Scenario& sc) {
  for (const char* phase : kPhaseNames) sc.phases[phase] = merge_phase(world, n, phase);
  sc.gb_fast = sum_counter(world, n, "gbcast.fast_delivered");
  sc.gb_resolved = sum_counter(world, n, "gbcast.resolved_delivered");
  sc.consensus_decided = sum_counter(world, n, "consensus.decided");
  sc.views_installed = sum_counter(world, n, "membership.views_installed");
}

/// E3 shape: gbcast workload with a given conflict fraction. Commutative
/// commands take the fast path; conflicting ones fall back to resolution
/// rounds riding the abcast/consensus machinery.
Scenario run_generic_broadcast(double conflict_fraction) {
  const int n = 4;
  World::Config config;
  config.n = n;
  config.seed = 11;
  config.stack.conflict = ConflictRelation::rbcast_abcast();
  World world(config);
  OracleScope oracle(world, "protocol_json/gbcast");
  int delivered = 0;
  for (ProcessId p = 0; p < n; ++p) {
    world.stack(p).on_gdeliver([&delivered](const MsgId&, MsgClass, const Bytes&) {
      ++delivered;
    });
  }
  world.found_group_all();
  world.run_for(msec(20));

  Rng rng(42);
  std::vector<bool> conflicting(kCommands);
  for (int i = 0; i < kCommands; ++i) conflicting[static_cast<std::size_t>(i)] = rng.chance(conflict_fraction);

  int sent = 0;
  std::function<void()> tick = [&] {
    if (sent >= kCommands) return;
    const MsgClass cls = conflicting[static_cast<std::size_t>(sent)] ? kAbcastClass : kRbcastClass;
    world.stack(static_cast<ProcessId>(sent % n)).gbcast(cls, payload_of(sent));
    ++sent;
    world.engine().schedule_after(kGap, tick);
  };
  world.engine().schedule_after(0, tick);
  drive(world.engine(), sec(300), [&] { return delivered >= kCommands * n; });
  world.run_for(sec(1));  // let acks/stragglers settle so residence is complete

  Scenario sc;
  // Distinct names per conflict fraction so perf-ledger metric identities
  // don't collide across the sweep.
  sc.name = "e3_generic_broadcast_c" +
            std::to_string(static_cast<int>(conflict_fraction * 100.0));
  sc.params["n"] = std::to_string(n);
  sc.params["commands"] = std::to_string(kCommands);
  sc.params["conflict_fraction"] = json_num(conflict_fraction);
  collect(world, n, sc);
  return sc;
}

/// E5 shape: a process joins mid-stream while every member keeps sending
/// abcasts. The per-phase histograms show what the view change costs (and
/// that ordering latency stays in the same regime — senders never block).
Scenario run_view_change() {
  const int n = 5;
  World::Config config;
  config.n = n;
  config.seed = 17;
  World world(config);
  OracleScope oracle(world, "protocol_json/abcast");
  int delivered = 0;
  world.stack(1).on_adeliver([&delivered](const MsgId&, const Bytes&) { ++delivered; });
  world.found_group({0, 1, 2, 3});
  const TimePoint join_time = msec(200);
  int sent = 0;
  std::function<void()> tick = [&] {
    if (world.engine().now() > join_time + sec(1)) return;
    world.stack(static_cast<ProcessId>(sent % 4)).abcast(payload_of(sent));
    ++sent;
    world.engine().schedule_after(kGap, tick);
  };
  world.engine().schedule_after(0, tick);
  world.engine().schedule_at(join_time, [&] { world.stack(4).join(0); });
  world.engine().run_until(join_time + sec(2));

  Scenario sc;
  sc.name = "e5_view_change";
  sc.params["n"] = std::to_string(n);
  sc.params["join_at_ms"] = std::to_string(join_time / 1000);
  sc.params["sends"] = std::to_string(sent);
  sc.params["joined"] = world.stack(4).membership().is_member() ? "true" : "false";
  collect(world, n, sc);
  return sc;
}

/// Paxos leader crash under an open abcast load (perfbench's leader_crash
/// shape, shortened): the channel keeps resending toward the dead leader
/// until monitoring excludes it. Reports the retransmissions that cost per
/// delivery, the exclusion delay and the delivery outage.
Scenario run_leader_crash() {
  const int n = 5;
  World::Config config;
  config.n = n;
  config.seed = 23;
  config.stack.consensus_algorithm = StackConfig::ConsensusAlgo::kPaxos;
  config.stack.abcast.pipeline_depth = 4;
  World world(config);
  OracleScope oracle(world, "protocol_json/leader_crash");
  std::int64_t delivered = 0;
  TimePoint last_delivery = 0;
  Duration outage = 0;
  for (ProcessId p = 1; p < n; ++p) {
    world.stack(p).on_adeliver([&, p](const MsgId&, const Bytes&) {
      ++delivered;
      if (p != 1) return;
      const TimePoint now = world.engine().now();
      if (last_delivery > 0) outage = std::max(outage, now - last_delivery);
      last_delivery = now;
    });
  }
  const TimePoint crash_at = msec(300);
  TimePoint excluded_at = -1;
  for (ProcessId p = 1; p < n; ++p) {
    world.stack(p).on_view([&](const View& v) {
      if (!v.contains(0)) excluded_at = world.engine().now();
    });
  }
  world.found_group_all();
  const TimePoint stop_at = msec(3000);
  int sent = 0;
  std::function<void()> tick = [&] {
    if (world.engine().now() >= stop_at) return;
    world.stack(static_cast<ProcessId>(1 + sent % (n - 1))).abcast(payload_of(sent));
    ++sent;
    world.engine().schedule_after(kGap, tick);
  };
  world.engine().schedule_after(0, tick);
  world.engine().schedule_at(crash_at, [&] { world.crash(0); });
  world.engine().run_until(stop_at + sec(1));

  Scenario sc;
  sc.name = "leader_crash";
  sc.params["n"] = std::to_string(n);
  sc.params["crash_at_ms"] = std::to_string(crash_at / 1000);
  sc.params["sends"] = std::to_string(sent);
  collect(world, n, sc);
  sc.has_crash = true;
  sc.retransmits_per_delivered =
      delivered > 0 ? static_cast<double>(sum_counter(world, n, "channel.retransmits")) /
                          static_cast<double>(delivered)
                    : 0.0;
  sc.exclusion_ms = excluded_at < 0 ? -1.0 : static_cast<double>(excluded_at - crash_at) / 1000.0;
  sc.outage_ms = static_cast<double>(outage) / 1000.0;
  return sc;
}

std::string phase_json(const PhaseStats& st) {
  return "{\"count\": " + std::to_string(st.count) + ", \"mean_us\": " + json_num(st.mean) +
         ", \"p50_us\": " + std::to_string(st.p50) + ", \"p99_us\": " + std::to_string(st.p99) +
         ", \"max_us\": " + std::to_string(st.max) + "}";
}

int run_suite(const std::string& json_path) {
  banner("protocol perf — per-phase latency breakdown (JSON report)",
         "E3 generic broadcast (fast path vs conflict fallback), E5 view\n"
         "change and a leader crash, measured by the per-phase histograms;\n"
         "virtual time");

  std::vector<Scenario> scenarios;
  scenarios.push_back(run_generic_broadcast(0.0));
  scenarios.push_back(run_generic_broadcast(0.25));
  scenarios.push_back(run_generic_broadcast(1.0));
  scenarios.push_back(run_view_change());
  scenarios.push_back(run_leader_crash());

  Table table({"scenario", "phase", "count", "mean (ms)", "p50 (ms)", "p99 (ms)"});
  for (const Scenario& sc : scenarios) {
    for (const char* phase : kPhaseNames) {
      const PhaseStats& st = sc.phases.at(phase);
      if (st.count == 0) continue;
      table.add_row({sc.name, phase, std::to_string(st.count), fmt_ms(st.mean),
                     fmt_ms(st.p50), fmt_ms(st.p99)});
    }
  }
  table.print();
  for (const Scenario& sc : scenarios) {
    if (sc.gb_fast + sc.gb_resolved == 0) continue;
    std::printf("  %s: fast-path ratio %s (%lld fast / %lld resolved), %lld consensus\n",
                sc.name.c_str(), fmt_pct(sc.fast_ratio()).c_str(),
                static_cast<long long>(sc.gb_fast), static_cast<long long>(sc.gb_resolved),
                static_cast<long long>(sc.consensus_decided));
  }
  for (const Scenario& sc : scenarios) {
    if (!sc.has_crash) continue;
    std::printf("  %s: %.2f retransmits/delivery, exclusion %.1f ms, outage %.1f ms\n",
                sc.name.c_str(), sc.retransmits_per_delivered, sc.exclusion_ms, sc.outage_ms);
  }

  std::FILE* out = std::fopen(json_path.c_str(), "w");
  if (!out) {
    std::fprintf(stderr, "cannot open %s for writing\n", json_path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n  \"suite\": \"protocol\",\n  \"schema\": 1,\n  \"scenarios\": [\n");
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const Scenario& sc = scenarios[i];
    std::fprintf(out, "    {\"name\": \"%s\",\n     \"params\": {", json_escape(sc.name).c_str());
    bool first = true;
    for (const auto& [k, v] : sc.params) {
      const bool quoted = v != "true" && v != "false" &&
                          v.find_first_not_of("0123456789.-") != std::string::npos;
      std::fprintf(out, "%s\"%s\": %s%s%s", first ? "" : ", ", json_escape(k).c_str(),
                   quoted ? "\"" : "", json_escape(v).c_str(), quoted ? "\"" : "");
      first = false;
    }
    std::fprintf(out, "},\n     \"phases\": {");
    first = true;
    for (const char* phase : kPhaseNames) {
      std::fprintf(out, "%s\n       \"%s\": %s", first ? "" : ",", phase,
                   phase_json(sc.phases.at(phase)).c_str());
      first = false;
    }
    std::fprintf(out,
                 "\n     },\n     \"gb\": {\"fast_delivered\": %lld, \"resolved_delivered\": "
                 "%lld, \"fast_ratio\": %s},\n     \"consensus_decided\": %lld,\n"
                 "     \"views_installed\": %lld",
                 static_cast<long long>(sc.gb_fast), static_cast<long long>(sc.gb_resolved),
                 json_num(sc.fast_ratio()).c_str(),
                 static_cast<long long>(sc.consensus_decided),
                 static_cast<long long>(sc.views_installed));
    if (sc.has_crash) {
      std::fprintf(out,
                   ",\n     \"crash\": {\"retransmits_per_delivered\": %s, \"exclusion_ms\": %s, "
                   "\"outage_ms\": %s}",
                   json_num(sc.retransmits_per_delivered).c_str(),
                   json_num(sc.exclusion_ms).c_str(), json_num(sc.outage_ms).c_str());
    }
    std::fprintf(out, "}%s\n", i + 1 < scenarios.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("\n  wrote %s\n", json_path.c_str());
  return 0;
}

}  // namespace
}  // namespace gcs::bench

int main(int argc, char** argv) {
  std::string json_path = "BENCH_protocol.json";
  gcs::bench::oracle_setup(argc, argv);
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) json_path = argv[i] + 7;
  }
  const int rc = gcs::bench::run_suite(json_path);
  const int oracle_rc = gcs::bench::oracle_verdict();
  return rc != 0 ? rc : oracle_rc;
}
