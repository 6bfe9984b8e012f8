/// \file bench_protocol_json.cpp
/// Protocol-level performance report: a Paxos leader crash under an open
/// abcast load, emitting BENCH_protocol.json with the per-phase latency
/// breakdown the stack's histograms collect (bench_util.hpp, kPhaseNames),
/// the retransmissions the dead leader costs per delivery, the exclusion
/// delay and the delivery outage. Latencies are virtual-time microseconds,
/// so the report is deterministic for a given seed and comparable across
/// machines. The paper's E3 generic-broadcast and E5 view-change cells carry
/// the same per-phase fields in bench_paper_json's BENCH_paper.json.
///
///   ./bench/bench_protocol_json [--json=PATH]   (default BENCH_protocol.json)
#include <algorithm>
#include <cstring>
#include <functional>
#include <string>

#include "bench/bench_util.hpp"

namespace gcs::bench {
namespace {

constexpr Duration kGap = msec(1);
constexpr int kProcs = 5;
constexpr TimePoint kCrashAt = msec(300);

/// What the scenario measured, ready for the table and the JSON report.
struct Scenario {
  int sends = 0;
  PhaseReport report;
  double retransmits_per_delivered = 0;
  double exclusion_ms = 0;  ///< crash -> last survivor installs the view without it
  double outage_ms = 0;     ///< longest delivery gap at a survivor
};

/// Paxos leader crash under an open abcast load (perfbench's leader_crash
/// shape, shortened): the channel keeps resending toward the dead leader
/// until monitoring excludes it. Reports the retransmissions that cost per
/// delivery, the exclusion delay and the delivery outage.
Scenario run_leader_crash() {
  const int n = kProcs;
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
  world.engine().schedule_at(kCrashAt, [&] { world.crash(0); });
  world.engine().run_until(stop_at + sec(1));

  Scenario sc;
  sc.sends = sent;
  sc.report = collect(world, n);
  sc.retransmits_per_delivered =
      delivered > 0 ? static_cast<double>(sum_counter(world, n, "channel.retransmits")) /
                          static_cast<double>(delivered)
                    : 0.0;
  sc.exclusion_ms = excluded_at < 0 ? -1.0 : static_cast<double>(excluded_at - kCrashAt) / 1000.0;
  sc.outage_ms = static_cast<double>(outage) / 1000.0;
  return sc;
}

int run_suite(const std::string& json_path) {
  banner("protocol perf — per-phase latency breakdown (JSON report)",
         "a Paxos leader crash under open abcast load, measured by the\n"
         "per-phase histograms; virtual time");

  const Scenario sc = run_leader_crash();
  const PhaseReport& r = sc.report;
  Table table({"scenario", "phase", "count", "mean (ms)", "p50 (ms)", "p99 (ms)"});
  for (const char* phase : kPhaseNames) {
    const PhaseStats& st = r.phases.at(phase);
    if (st.count == 0) continue;
    table.add_row({"leader_crash", phase, std::to_string(st.count), fmt_ms(st.mean),
                   fmt_ms(st.p50), fmt_ms(st.p99)});
  }
  table.print();
  std::printf("  leader_crash: %.2f retransmits/delivery, exclusion %.1f ms, outage %.1f ms\n",
              sc.retransmits_per_delivered, sc.exclusion_ms, sc.outage_ms);

  std::FILE* out = std::fopen(json_path.c_str(), "w");
  if (!out) {
    std::fprintf(stderr, "cannot open %s for writing\n", json_path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n  \"suite\": \"protocol\",\n  \"schema\": 1,\n  \"scenarios\": [\n");
  std::fprintf(out,
               "    {\"name\": \"leader_crash\",\n     \"params\": {\"crash_at_ms\": %lld, "
               "\"n\": %d, \"sends\": %d},\n     \"phases\": {",
               static_cast<long long>(kCrashAt / 1000), kProcs, sc.sends);
  bool first = true;
  for (const char* phase : kPhaseNames) {
    std::fprintf(out, "%s\n       \"%s\": %s", first ? "" : ",", phase,
                 phase_json(r.phases.at(phase)).c_str());
    first = false;
  }
  std::fprintf(out,
               "\n     },\n     \"gb\": %s,\n     \"consensus_decided\": %lld,\n"
               "     \"views_installed\": %lld",
               r.gb_json().c_str(), static_cast<long long>(r.consensus_decided),
               static_cast<long long>(r.views_installed));
  std::fprintf(out,
               ",\n     \"crash\": {\"retransmits_per_delivered\": %s, \"exclusion_ms\": %s, "
               "\"outage_ms\": %s}",
               json_num(sc.retransmits_per_delivered).c_str(), json_num(sc.exclusion_ms).c_str(),
               json_num(sc.outage_ms).c_str());
  std::fprintf(out, "}\n  ]\n}\n");
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
