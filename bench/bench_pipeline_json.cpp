/// \file bench_pipeline_json.cpp
/// Ordering-pipeline report (DESIGN.md §15): closed-loop abcast of 1 KiB
/// payloads on leader-stable multi-Paxos across the grid
///
///   n ∈ {3, 5, 7} × pipeline depth ∈ {1, 4, 16} × adaptive {off, on}
///
/// emitting BENCH_pipeline.json with msgs/sec/group (virtual time — the
/// report is byte-deterministic for a given seed) and the per-phase latency
/// means (batch_wait / accept_rtt / order_latency / end-to-end consensus),
/// plus one open-loop Paxos leader crash (`leader_crash`): its per-phase
/// histograms, the retransmissions the dead leader costs per delivery, the
/// exclusion delay and the delivery outage; plus low-load closed loops
/// (`fresh_id_cells`: W = 1 and 4 messages in flight per member, n = 3
/// and 5) that count the decided instances ordering no fresh id.
///
/// The `checks` block states the suite's bounds:
///   - every cell completes and stays PREPARE-free (leader-stable steady
///     state is 1-RTT: phase 1 never runs in a fault-free run);
///   - at n=5, depth=4 adaptive, depth=16 adaptive and depth=16 static must
///     each beat the depth=1 baseline by >= 4x msgs/sec;
///   - in each fresh-id cell, under 1% of the decided instances order only
///     ids an earlier instance ordered (one proposer per instance,
///     DESIGN.md §15).
///
///   ./bench/bench_pipeline_json [--json=PATH] [--oracle]
///                               (default PATH: BENCH_pipeline.json)
#include <algorithm>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "broadcast/proposal.hpp"
#include "util/codec.hpp"

namespace gcs::bench {
namespace {

constexpr int kMessagesPerProc = 256;   // closed-loop total per process
constexpr int kOutstandingPerProc = 64; // closed-loop window per process
constexpr std::size_t kPayloadBytes = 1024;
constexpr double kRequiredSpeedup = 4.0;

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
    cell.decided += world.stack(p).metrics().counter("consensus.decided");
    cell.max_open = std::max(cell.max_open, world.stack(p).atomic_broadcast().max_open_proposals());
  }
  for (const char* phase : {"abcast.batch_wait_us", "consensus.accept_rtt_us",
                            "abcast.order_latency_us", "consensus.latency_us"}) {
    cell.phase_means[phase] = merged_mean(world, n, phase);
  }
  return cell;
}

constexpr Duration kCrashGap = msec(1);
constexpr int kCrashProcs = 5;
constexpr TimePoint kCrashAt = msec(300);

/// What the leader crash measured.
struct Crash {
  int sends = 0;
  PhaseReport report;
  double retransmits_per_delivered = 0;
  double exclusion_ms = 0;  ///< crash -> last survivor installs the view without it
  double outage_ms = 0;     ///< longest delivery gap at a survivor
};

/// Paxos leader crash under an open abcast load (perfbench's leader_crash
/// shape, shortened): the channel keeps resending toward the dead leader
/// until monitoring excludes it.
Crash run_leader_crash() {
  const int n = kCrashProcs;
  World::Config config;
  config.n = n;
  config.seed = 23;
  config.stack.consensus_algorithm = StackConfig::ConsensusAlgo::kPaxos;
  config.stack.abcast.pipeline_depth = 4;
  World world(config);
  OracleScope oracle(world, "pipeline_json/leader_crash");
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
    world.engine().schedule_after(kCrashGap, tick);
  };
  world.engine().schedule_after(0, tick);
  world.engine().schedule_at(kCrashAt, [&] { world.crash(0); });
  world.engine().run_until(stop_at + sec(1));

  Crash c;
  c.sends = sent;
  c.report = collect(world, n);
  c.retransmits_per_delivered =
      delivered > 0 ? static_cast<double>(sum_counter(world, n, "channel.retransmits")) /
                          static_cast<double>(delivered)
                    : 0.0;
  c.exclusion_ms = excluded_at < 0 ? -1.0 : static_cast<double>(excluded_at - kCrashAt) / 1000.0;
  c.outage_ms = static_cast<double>(outage) / 1000.0;
  return c;
}

constexpr int kFreshPerProc = 1000;       // closed-loop total per process
constexpr double kMaxStaleShare = 0.01;

/// A low-load closed loop: what share of the decided instances order no
/// id that an earlier instance had not ordered already.
struct FreshCell {
  std::string name;
  int n = 0;
  int window = 0;              // messages each member keeps in flight
  bool completed = false;
  std::int64_t instances = 0;  // decided at p0
  std::int64_t stale = 0;      // of those, ordering no fresh id
  double stale_share() const {
    return instances > 0 ? static_cast<double>(stale) / static_cast<double>(instances) : 0.0;
  }
};

FreshCell run_fresh_cell(int n, int window) {
  FreshCell cell;
  cell.n = n;
  cell.window = window;
  cell.name = "n" + std::to_string(n) + "_w" + std::to_string(window);

  World::Config config;
  config.n = n;
  config.seed = 7;
  config.link = sim::LinkModel{usec(50), usec(20), 0.0};
  config.stack.consensus_algorithm = StackConfig::ConsensusAlgo::kPaxos;
  config.stack.abcast.pipeline_depth = 16;
  config.stack.abcast.max_batch = 16;
  config.stack.abcast.adaptive = true;
  World world(config);
  OracleScope oracle(world, "pipeline_json/fresh_" + cell.name);
  std::map<std::uint64_t, Bytes> decided;
  world.stack(0).consensus().on_decide(
      [&decided](std::uint64_t k, const Bytes& v) { decided.emplace(k, v); });

  std::vector<int> sent(static_cast<std::size_t>(n), 0);
  int delivered_all = 0;  // at p0
  for (ProcessId p = 0; p < n; ++p) {
    world.stack(p).on_adeliver([&, p](const MsgId& id, const Bytes&) {
      if (p == 0) ++delivered_all;
      if (id.sender != p || sent[static_cast<std::size_t>(p)] >= kFreshPerProc) return;
      world.stack(p).abcast(payload_1k(p, sent[static_cast<std::size_t>(p)]++));
    });
  }
  world.found_group_all();
  world.run_for(msec(20));
  for (ProcessId p = 0; p < n; ++p) {
    for (int i = 0; i < window; ++i) {
      world.stack(p).abcast(payload_1k(p, sent[static_cast<std::size_t>(p)]++));
    }
  }
  cell.completed =
      drive(world.engine(), sec(600), [&] { return delivered_all >= kFreshPerProc * n; });

  // Walk the decisions in instance order; an instance is stale when every
  // id it carries (none, for a no-op) was ordered before.
  std::set<MsgId> ordered;
  for (const auto& [k, value] : decided) {
    (void)k;
    Decoder dec(value);
    const BatchProposal prop = BatchProposal::decode(dec);
    bool fresh = false;
    for (const ProposalEntry& e : prop.entries) fresh = ordered.insert(e.id).second || fresh;
    ++cell.instances;
    if (!fresh) ++cell.stale;
  }
  return cell;
}

std::string fresh_json(const std::vector<FreshCell>& cells) {
  std::string out = "  \"fresh_id_cells\": [\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const FreshCell& c = cells[i];
    out += "    {\"name\": \"" + c.name + "\", \"n\": " + std::to_string(c.n) +
           ", \"window\": " + std::to_string(c.window) +
           ", \"completed\": " + (c.completed ? "true" : "false") +
           ",\n     \"instances\": " + std::to_string(c.instances) +
           ", \"stale_instances\": " + std::to_string(c.stale) +
           ", \"stale_share\": " + json_num(c.stale_share()) + "}" +
           (i + 1 < cells.size() ? "," : "") + "\n";
  }
  return out + "  ]";
}

std::string crash_json(const Crash& c) {
  const PhaseReport& r = c.report;
  return "  \"leader_crash\": {\"params\": {\"crash_at_ms\": " + std::to_string(kCrashAt / 1000) +
         ", \"n\": " + std::to_string(kCrashProcs) + ", \"sends\": " + std::to_string(c.sends) +
         "},\n    \"phases\": " + r.phases_json() + ",\n    \"gb\": " + r.gb_json() +
         ", \"consensus_decided\": " + std::to_string(r.consensus_decided) +
         ", \"views_installed\": " + std::to_string(r.views_installed) +
         ",\n    \"crash\": {\"retransmits_per_delivered\": " +
         json_num(c.retransmits_per_delivered) + ", \"exclusion_ms\": " +
         json_num(c.exclusion_ms) + ", \"outage_ms\": " + json_num(c.outage_ms) + "}}";
}

std::string cells_json(const std::vector<Cell>& cells) {
  std::string out = "  \"cells\": [\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    out += "    {\"name\": \"" + c.name + "\", \"n\": " + std::to_string(c.n) +
           ", \"depth\": " + std::to_string(c.depth) +
           ", \"adaptive\": " + (c.adaptive ? "true" : "false") +
           ",\n     \"completed\": " + (c.completed ? "true" : "false") +
           ", \"elapsed_ms\": " + json_num(c.elapsed_ms) +
           ", \"msgs_per_sec\": " + json_num(c.msgs_per_sec) +
           ",\n     \"prepares\": " + std::to_string(c.prepares) +
           ", \"decided\": " + std::to_string(c.decided) +
           ", \"max_open\": " + std::to_string(c.max_open) + ",\n     \"phases\": {";
    bool first = true;
    for (const auto& [phase, mean] : c.phase_means) {
      out += std::string(first ? "" : ", ") + "\"" + phase + "\": {\"mean_us\": " +
             json_num(mean) + "}";
      first = false;
    }
    out += std::string("}}") + (i + 1 < cells.size() ? "," : "") + "\n";
  }
  return out + "  ]";
}

void run_suite(SuiteReport& report) {
  banner("ordering pipeline — leader-stable multi-Paxos throughput (JSON report)",
         "closed-loop 1 KiB abcast, n x pipeline-depth x adaptive grid;\n"
         "virtual-time msgs/sec per group + per-phase latency means;\n"
         "then a Paxos leader crash under open abcast load");

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

  const Crash crash = run_leader_crash();
  std::printf("\n  leader_crash: %.2f retransmits/delivery, exclusion %.1f ms, outage %.1f ms\n",
              crash.retransmits_per_delivered, crash.exclusion_ms, crash.outage_ms);

  std::vector<FreshCell> fresh;
  for (int n : {3, 5}) {
    for (int window : {1, 4}) fresh.push_back(run_fresh_cell(n, window));
  }
  Table fresh_table({"fresh-id cell", "instances", "stale", "stale share"});
  for (const FreshCell& c : fresh) {
    fresh_table.add_row({c.name, std::to_string(c.instances), std::to_string(c.stale),
                         fmt_pct(c.stale_share())});
  }
  std::printf("\n");
  fresh_table.print();

  report.members = {"  \"params\": {\"messages_per_proc\": " + std::to_string(kMessagesPerProc) +
                        ", \"outstanding_per_proc\": " + std::to_string(kOutstandingPerProc) +
                        ", \"payload_bytes\": " + std::to_string(kPayloadBytes) + "}",
                    cells_json(cells), crash_json(crash), fresh_json(fresh)};

  std::string incomplete, preparing;
  for (const Cell& c : cells) {
    if (!c.completed) incomplete += " " + c.name;
    if (c.prepares != 0) preparing += " " + c.name;
  }
  report.checks.push_back({"cells_completed", incomplete.empty(),
                           "every cell orders all its messages" +
                               (incomplete.empty() ? "" : " (not:" + incomplete + ")")});
  report.checks.push_back({"fault_free_prepare_free", preparing.empty(),
                           "no cell sends a PREPARE: the leader-stable steady state is 1-RTT" +
                               (preparing.empty() ? "" : " (PREPAREs in:" + preparing + ")")});
  // Pipelining at depth >= 4 must beat the depth=1 static baseline by >= 4x
  // at n=5 / 1 KiB; the static d16 cell rides along as the trend check.
  auto rate_of = [&cells](const std::string& name) {
    for (const Cell& c : cells) {
      if (c.name == name) return c.msgs_per_sec;
    }
    return 0.0;
  };
  const double base = rate_of("n5_d1_static");
  for (const char* cell : {"n5_d4_adaptive", "n5_d16_adaptive", "n5_d16_static"}) {
    const double speedup = base > 0 ? rate_of(cell) / base : 0;
    report.checks.push_back({std::string(cell) + "_speedup", speedup >= kRequiredSpeedup,
                             std::string(cell) + " orders >= " + fmt_double(kRequiredSpeedup, 0) +
                                 "x the msgs/s of n5_d1_static (" + fmt_double(speedup, 2) + "x)",
                             {{"value", json_num(speedup)},
                              {"required", json_num(kRequiredSpeedup)}}});
  }
  for (const FreshCell& c : fresh) {
    report.checks.push_back(
        {"fresh_" + c.name + "_stale_share", c.completed && c.stale_share() < kMaxStaleShare,
         "closed loop " + c.name + ": under " + fmt_pct(kMaxStaleShare) +
             " of decided instances order no fresh id (" + std::to_string(c.stale) + " of " +
             std::to_string(c.instances) + ")",
         {{"value", json_num(c.stale_share())}, {"required", json_num(kMaxStaleShare)}}});
  }
}

}  // namespace
}  // namespace gcs::bench

int main(int argc, char** argv) {
  return gcs::bench::suite_main(argc, argv, "pipeline", gcs::bench::run_suite);
}
