/// \file bench_pipeline_json.cpp
/// Ordering-pipeline throughput report (DESIGN.md §15): closed-loop abcast
/// of 1 KiB payloads on leader-stable multi-Paxos across the grid
///
///   n ∈ {3, 5, 7} × pipeline depth ∈ {1, 4, 16} × adaptive {off, on}
///
/// emitting BENCH_pipeline.json with msgs/sec/group (virtual time — the
/// report is byte-deterministic for a given seed) and the per-phase latency
/// means (batch_wait / accept_rtt / order_latency / end-to-end consensus).
///
/// The run doubles as the CI sentinel:
///   - every cell must complete and stay PREPARE-free (leader-stable steady
///     state is 1-RTT: phase 1 never runs in a fault-free run);
///   - at n=5, depth=4 static, depth=16 static and the adaptive controller
///     must each beat the depth=1 baseline by >= 4x msgs/sec.
/// The process exits nonzero when any of those fail.
///
///   ./bench/bench_pipeline_json [--json=PATH]  (default BENCH_pipeline.json)
#include <cstring>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"

namespace gcs::bench {
namespace {

constexpr int kMessagesPerProc = 256;   // closed-loop total per process
constexpr int kOutstandingPerProc = 64; // closed-loop window per process
constexpr std::size_t kPayloadBytes = 1024;
constexpr double kSentinelSpeedup = 4.0;

Bytes payload_1k(ProcessId p, int i) {
  Bytes b(kPayloadBytes, static_cast<std::uint8_t>('a' + (i % 26)));
  const std::string tag = "p" + std::to_string(p) + "-" + std::to_string(i);
  std::copy(tag.begin(), tag.end(), b.begin());
  return b;
}

struct Cell {
  std::string name;
  int n = 0;
  std::uint32_t depth = 0;
  bool adaptive = false;
  bool completed = false;
  double elapsed_ms = 0;
  double msgs_per_sec = 0;           // unique messages ordered / virtual sec
  std::int64_t prepares = 0;         // paxos.prepares_sent, summed (must be 0)
  std::int64_t decided = 0;          // consensus instances decided, summed
  std::uint32_t max_open = 0;        // proposer window high-water, max over procs
  std::map<std::string, double> phase_means;  // merged histogram means (us)
};

double merged_mean(World& world, int n, const std::string& name) {
  double sum = 0;
  std::uint64_t count = 0;
  for (ProcessId p = 0; p < n; ++p) {
    const Histogram& h = world.stack(p).metrics().histogram(name);
    sum += h.mean() * static_cast<double>(h.count());
    count += h.count();
  }
  return count == 0 ? 0.0 : sum / static_cast<double>(count);
}

Cell run_cell(int n, std::uint32_t depth, bool adaptive, std::uint64_t seed) {
  Cell cell;
  cell.n = n;
  cell.depth = depth;
  cell.adaptive = adaptive;
  cell.name = "n" + std::to_string(n) + "_d" + std::to_string(depth) +
              (adaptive ? "_adaptive" : "_static");

  World::Config config;
  config.n = n;
  config.seed = seed;
  config.stack.consensus_algorithm = StackConfig::ConsensusAlgo::kPaxos;
  config.stack.abcast.pipeline_depth = depth;
  config.stack.abcast.max_batch = 16;
  config.stack.abcast.adaptive = adaptive;
  World world(config);
  OracleScope oracle(world, "pipeline_json/" + cell.name);

  const int total = kMessagesPerProc * n;
  // Closed loop: each process keeps kOutstandingPerProc of its own messages
  // in flight, refilling from its own deliveries.
  std::vector<int> sent(static_cast<std::size_t>(n), 0);
  std::vector<int> delivered_own(static_cast<std::size_t>(n), 0);
  int delivered_all = 0;  // at proc 0: unique messages ordered group-wide
  for (ProcessId p = 0; p < n; ++p) {
    world.stack(p).on_adeliver([&, p](const MsgId& id, const Bytes&) {
      if (p == 0) ++delivered_all;
      if (id.sender != p) return;
      ++delivered_own[static_cast<std::size_t>(p)];
      if (sent[static_cast<std::size_t>(p)] < kMessagesPerProc) {
        const int i = sent[static_cast<std::size_t>(p)]++;
        world.stack(p).abcast(payload_1k(p, i));
      }
    });
  }
  world.found_group_all();
  world.run_for(msec(20));

  const TimePoint t0 = world.engine().now();
  for (ProcessId p = 0; p < n; ++p) {
    for (int i = 0; i < kOutstandingPerProc && sent[static_cast<std::size_t>(p)] < kMessagesPerProc; ++i) {
      const int j = sent[static_cast<std::size_t>(p)]++;
      world.stack(p).abcast(payload_1k(p, j));
    }
  }
  cell.completed =
      drive(world.engine(), sec(600), [&] { return delivered_all >= total; });
  const Duration elapsed = world.engine().now() - t0;
  cell.elapsed_ms = static_cast<double>(elapsed) / 1000.0;
  cell.msgs_per_sec =
      elapsed > 0 ? static_cast<double>(delivered_all) * 1e6 / static_cast<double>(elapsed) : 0;

  for (ProcessId p = 0; p < n; ++p) {
    cell.prepares += world.stack(p).metrics().counter("paxos.prepares_sent");
    cell.decided += world.stack(p).metrics().counter("paxos.decided");
    cell.max_open = std::max(cell.max_open, world.stack(p).atomic_broadcast().max_open_proposals());
  }
  for (const char* phase : {"abcast.batch_wait_us", "consensus.accept_rtt_us",
                            "abcast.order_latency_us", "consensus.latency_us"}) {
    cell.phase_means[phase] = merged_mean(world, n, phase);
  }
  return cell;
}

int run_suite(const std::string& json_path) {
  banner("ordering pipeline — leader-stable multi-Paxos throughput (JSON report)",
         "closed-loop 1 KiB abcast, n x pipeline-depth x adaptive grid;\n"
         "virtual-time msgs/sec per group + per-phase latency means");

  std::vector<Cell> cells;
  std::uint64_t seed = 300;
  for (int n : {3, 5, 7}) {
    for (std::uint32_t depth : {1u, 4u, 16u}) {
      for (bool adaptive : {false, true}) {
        cells.push_back(run_cell(n, depth, adaptive, ++seed));
      }
    }
  }

  Table table({"cell", "msgs/s (group)", "elapsed (ms)", "accept rtt (ms)",
               "batch wait (ms)", "max open", "prepares"});
  for (const Cell& c : cells) {
    table.add_row({c.name, fmt_double(c.msgs_per_sec, 0), fmt_double(c.elapsed_ms, 1),
                   fmt_ms(c.phase_means.at("consensus.accept_rtt_us")),
                   fmt_ms(c.phase_means.at("abcast.batch_wait_us")),
                   std::to_string(c.max_open), std::to_string(c.prepares)});
  }
  table.print();

  // -- sentinel ---------------------------------------------------------------
  int failures = 0;
  auto cell_named = [&cells](const std::string& name) -> const Cell& {
    for (const Cell& c : cells) {
      if (c.name == name) return c;
    }
    static Cell none;
    return none;
  };
  for (const Cell& c : cells) {
    if (!c.completed) {
      std::printf("  FAIL %s: did not complete\n", c.name.c_str());
      ++failures;
    }
    if (c.prepares != 0) {
      std::printf("  FAIL %s: %lld PREPAREs in a fault-free run (steady state must be 1-RTT)\n",
                  c.name.c_str(), static_cast<long long>(c.prepares));
      ++failures;
    }
  }
  // The ISSUE-10 sentinel: adaptive pipelining at depth >= 4 must beat the
  // depth=1 static baseline by >= 4x at n=5 / 1 KiB (the static d16 cell
  // rides along as the order-of-magnitude trend check).
  const double base = cell_named("n5_d1_static").msgs_per_sec;
  struct { const char* cell; double speedup; } sentinels[] = {
      {"n5_d4_adaptive", 0}, {"n5_d16_adaptive", 0}, {"n5_d16_static", 0}};
  for (auto& s : sentinels) {
    s.speedup = base > 0 ? cell_named(s.cell).msgs_per_sec / base : 0;
    if (s.speedup < kSentinelSpeedup) {
      std::printf("  FAIL %s: %.2fx over n5_d1_static < %.1fx\n", s.cell, s.speedup,
                  kSentinelSpeedup);
      ++failures;
    } else {
      std::printf("  sentinel %s: %.2fx over n5_d1_static (>= %.1fx)\n", s.cell, s.speedup,
                  kSentinelSpeedup);
    }
  }

  std::FILE* out = std::fopen(json_path.c_str(), "w");
  if (!out) {
    std::fprintf(stderr, "cannot open %s for writing\n", json_path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n  \"suite\": \"pipeline\",\n  \"schema\": 1,\n");
  std::fprintf(out, "  \"params\": {\"messages_per_proc\": %d, \"outstanding_per_proc\": %d, "
                    "\"payload_bytes\": %zu},\n",
               kMessagesPerProc, kOutstandingPerProc, kPayloadBytes);
  std::fprintf(out, "  \"cells\": [\n");
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    std::fprintf(out,
                 "    {\"name\": \"%s\", \"n\": %d, \"depth\": %u, \"adaptive\": %s,\n"
                 "     \"completed\": %s, \"elapsed_ms\": %s, \"msgs_per_sec\": %s,\n"
                 "     \"prepares\": %lld, \"decided\": %lld, \"max_open\": %u,\n"
                 "     \"phases\": {",
                 obs::json_escape_string(c.name).c_str(), c.n, c.depth,
                 c.adaptive ? "true" : "false",
                 c.completed ? "true" : "false", json_num(c.elapsed_ms).c_str(),
                 json_num(c.msgs_per_sec).c_str(), static_cast<long long>(c.prepares),
                 static_cast<long long>(c.decided), c.max_open);
    bool first = true;
    for (const auto& [phase, mean] : c.phase_means) {
      std::fprintf(out, "%s\"%s\": {\"mean_us\": %s}", first ? "" : ", ", phase.c_str(),
                   json_num(mean).c_str());
      first = false;
    }
    std::fprintf(out, "}}%s\n", i + 1 < cells.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n  \"sentinel\": {");
  for (std::size_t i = 0; i < 3; ++i) {
    std::fprintf(out, "%s\"%s_speedup\": %s", i ? ", " : "", sentinels[i].cell,
                 json_num(sentinels[i].speedup).c_str());
  }
  std::fprintf(out, ", \"required\": %s}\n}\n", json_num(kSentinelSpeedup).c_str());
  std::fclose(out);
  std::printf("\n  wrote %s\n", json_path.c_str());
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace gcs::bench

int main(int argc, char** argv) {
  std::string json_path = "BENCH_pipeline.json";
  gcs::bench::oracle_setup(argc, argv);
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) json_path = argv[i] + 7;
  }
  const int rc = gcs::bench::run_suite(json_path);
  const int oracle_rc = gcs::bench::oracle_verdict();
  return rc != 0 ? rc : oracle_rc;
}
