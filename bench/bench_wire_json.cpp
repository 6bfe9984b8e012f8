/// \file bench_wire_json.cpp
/// Bytes-on-wire report for the ordering layers (DESIGN.md §12): runs the
/// E6-style abcast workload and an E3-style generic-broadcast workload and
/// emits BENCH_wire.json with, per cell, the bytes the consensus tag
/// actually carried per delivered message. Consensus proposals and GB
/// resolution reports carry ids, never application payloads, so consensus
/// traffic should be independent of payload size — that is the claim this
/// report measures, and the `cells_payload_free_consensus` check states it.
/// Each cell also counts every reliable-channel datagram (data frames and
/// standalone acks alike) and every channel retransmission per delivered
/// message. One extra abcast cell runs over links that drop 2% of
/// datagrams, so the retransmission count measures loss recovery, and one
/// runs on Paxos instead of Chandra–Toueg (n = 7), where the stable leader
/// alone proposes: the `paxos_consensus_msgs_per_instance` check bounds its
/// consensus frames per instance by 3n (ACCEPT, ACCEPTED and DECIDE, self
/// included).
///
/// This binary opts into the counting operator new/delete of bench_util.hpp
/// (as bench_e7_micro does), which also powers two steady-state allocation
/// checks: after warm-up, a commutative gbcast workload must not grow the
/// heap per delivery (pooled wire buffers, recycled map nodes), with and
/// without an idle telemetry publisher attached. A failed check flips the
/// exit status.
///
///   ./bench/bench_wire_json [--json=PATH] [--oracle]
///                           (default PATH: BENCH_wire.json)
#include <algorithm>
#include <cstdint>
#include <functional>
#include <iterator>
#include <string>
#include <vector>

#define NGGCS_BENCH_COUNTING_ALLOCATOR
#include "bench/bench_util.hpp"
#include "obs/telemetry.hpp"

namespace gcs::bench {
namespace {

Bytes sized_payload(int i, std::size_t bytes) {
  std::string s = "m" + std::to_string(i) + ":";
  s.resize(bytes, 'x');
  return Bytes(s.begin(), s.end());
}

/// One measured (layer, n, payload) cell of the report.
struct Cell {
  std::string layer;  // "abcast" or "gbcast"
  int n = 0;
  std::size_t payload_bytes = 0;
  std::int64_t delivered = 0;            // deliveries summed over processes
  std::int64_t consensus_wire_bytes = 0; // what rides the consensus tag
  std::int64_t consensus_wire_msgs = 0;
  std::int64_t instances = 0;            // consensus instances the group decided
  std::int64_t flood_wire_bytes = 0;     // rbcast / gbdata payload flooding
  // Bytes on the layer's own channel tag: abcast's payload pulls and
  // pushes; for generic broadcast its fast-path ACKs as well as its pulls.
  std::int64_t control_wire_bytes = 0;
  std::int64_t report_wire_bytes = 0;    // GB resolution reports (abcast payloads)
  std::int64_t channel_datagrams = 0;    // every channel datagram, acks included
  std::int64_t retransmits = 0;          // channel frames sent again
  double loss = 0;                       // link drop probability
  bool paxos = false;                    // Paxos instead of Chandra–Toueg
  std::uint64_t net_allocs = 0;          // heap growth across the whole run
  std::uint64_t allocs = 0;              // every allocation across the run
  bool completed = false;

  double per_delivered(std::int64_t bytes) const {
    return delivered > 0 ? static_cast<double>(bytes) / static_cast<double>(delivered) : 0.0;
  }
  std::int64_t total_wire_bytes() const {
    return consensus_wire_bytes + flood_wire_bytes + control_wire_bytes + report_wire_bytes;
  }
  double per_delivered(std::uint64_t count) const {
    return per_delivered(static_cast<std::int64_t>(count));
  }
  /// Consensus frames the group sent per instance: the stand-in for the
  /// ordering path's message cost.
  double consensus_msgs_per_instance() const {
    return instances > 0 ? static_cast<double>(consensus_wire_msgs) /
                               static_cast<double>(instances)
                         : 0.0;
  }
};

/// Instances the group decided: every live member decides each one, so
/// the most any member decided.
std::int64_t group_instances(World& world, int n) {
  std::int64_t most = 0;
  for (ProcessId p = 0; p < n; ++p) {
    most = std::max(most, world.stack(p).metrics().counter("consensus.decided"));
  }
  return most;
}

constexpr int kMsgs = 150;
constexpr Duration kGap = msec(1);

/// E6-style abcast workload: every member sends in round-robin at a steady
/// rate; the cell records what each wire tag carried until everyone
/// delivered everything.
Cell run_abcast_cell(int n, std::size_t payload_bytes, double loss = 0, bool paxos = false) {
  Cell cell;
  cell.layer = "abcast";
  cell.n = n;
  cell.payload_bytes = payload_bytes;
  cell.loss = loss;
  cell.paxos = paxos;

  World::Config config;
  config.n = n;
  config.seed = 101 + static_cast<std::uint64_t>(n);
  config.link.drop_probability = loss;
  if (paxos) config.stack.consensus_algorithm = StackConfig::ConsensusAlgo::kPaxos;
  World world(config);
  OracleScope oracle(world, "wire/abcast");
  std::vector<int> delivered(static_cast<std::size_t>(n), 0);
  for (ProcessId p = 0; p < n; ++p) {
    world.stack(p).on_adeliver([&delivered, p](const MsgId&, const Bytes&) {
      ++delivered[static_cast<std::size_t>(p)];
    });
  }
  world.found_group_all();
  world.run_for(msec(20));

  const AllocSnapshot a0 = alloc_snapshot();
  int sent = 0;
  std::function<void()> tick = [&] {
    if (sent >= kMsgs) return;
    world.stack(static_cast<ProcessId>(sent % n)).abcast(sized_payload(sent, payload_bytes));
    ++sent;
    world.engine().schedule_after(kGap, tick);
  };
  world.engine().schedule_after(0, tick);
  cell.completed = drive(world.engine(), sec(120), [&] {
    for (int d : delivered) {
      if (d < kMsgs) return false;
    }
    return true;
  });
  world.run_for(msec(200));
  const AllocSnapshot a1 = alloc_snapshot();

  cell.delivered = sum_counter(world, n, "abcast.delivered");
  cell.consensus_wire_bytes = sum_counter(world, n, "consensus.wire_bytes");
  cell.consensus_wire_msgs = sum_counter(world, n, "consensus.wire_msgs");
  cell.instances = group_instances(world, n);
  cell.flood_wire_bytes = sum_counter(world, n, "rbcast.wire_bytes");
  cell.control_wire_bytes = sum_counter(world, n, "abcast.wire_bytes");
  cell.channel_datagrams = sum_counter(world, n, "channel.wire_msgs");
  cell.retransmits = sum_counter(world, n, "channel.retransmits");
  cell.allocs = a1.allocs - a0.allocs;
  cell.net_allocs = cell.allocs - (a1.frees - a0.frees);
  return cell;
}

/// E3-style gbcast workload with a 25% conflicting mix, so both the fast
/// path and the resolution reports (which ride consensus) are on the wire.
Cell run_gbcast_cell(int n, std::size_t payload_bytes) {
  Cell cell;
  cell.layer = "gbcast";
  cell.n = n;
  cell.payload_bytes = payload_bytes;

  World::Config config;
  config.n = n;
  config.seed = 211 + static_cast<std::uint64_t>(n);
  World world(config);
  OracleScope oracle(world, "wire/gbcast");
  std::vector<int> delivered(static_cast<std::size_t>(n), 0);
  for (ProcessId p = 0; p < n; ++p) {
    world.stack(p).on_gdeliver([&delivered, p](const MsgId&, MsgClass, const Bytes&) {
      ++delivered[static_cast<std::size_t>(p)];
    });
  }
  world.found_group_all();
  world.run_for(msec(20));

  const AllocSnapshot a0 = alloc_snapshot();
  Rng rng(7);
  int sent = 0;
  std::function<void()> tick = [&] {
    if (sent >= kMsgs) return;
    const MsgClass cls = rng.chance(0.25) ? kAbcastClass : kRbcastClass;
    world.stack(static_cast<ProcessId>(sent % n)).gbcast(cls, sized_payload(sent, payload_bytes));
    ++sent;
    world.engine().schedule_after(kGap, tick);
  };
  world.engine().schedule_after(0, tick);
  cell.completed = drive(world.engine(), sec(120), [&] {
    for (int d : delivered) {
      if (d < kMsgs) return false;
    }
    return true;
  });
  world.run_for(msec(200));
  const AllocSnapshot a1 = alloc_snapshot();

  cell.delivered = sum_counter(world, n, "gbcast.fast_delivered") +
                   sum_counter(world, n, "gbcast.resolved_delivered");
  cell.consensus_wire_bytes = sum_counter(world, n, "consensus.wire_bytes");
  cell.consensus_wire_msgs = sum_counter(world, n, "consensus.wire_msgs");
  cell.instances = group_instances(world, n);
  cell.flood_wire_bytes = sum_counter(world, n, "gbdata.wire_bytes");
  cell.control_wire_bytes = sum_counter(world, n, "gbcast.wire_bytes");
  cell.report_wire_bytes = sum_counter(world, n, "rbcast.wire_bytes");
  cell.channel_datagrams = sum_counter(world, n, "channel.wire_msgs");
  cell.retransmits = sum_counter(world, n, "channel.retransmits");
  cell.allocs = a1.allocs - a0.allocs;
  cell.net_allocs = cell.allocs - (a1.frees - a0.frees);
  return cell;
}

/// Steady-state allocation check: a purely commutative gbcast workload
/// after warm-up must not grow the heap — wire buffers come from the pool,
/// dedup/store map nodes are freed as fast as they are made. The budget of
/// 1 net allocation per delivery absorbs the engine's and metrics'
/// amortized growth (vector doublings, timing-wheel spill) while still
/// catching a per-message leak or an unpooled encode path. With
/// \p telemetry, a live-telemetry publisher is fully attached (every stack
/// registered, gauges wired, a sink installed) but no cadence runs:
/// attachment alone must cost nothing on the delivery hot path, since all
/// telemetry work happens at publish time and nothing publishes here.
Check run_alloc_check(const std::string& name, std::uint64_t seed, bool telemetry) {
  const int n = 3;
  World::Config config;
  config.n = n;
  config.seed = seed;
  // Steady state needs the bounded-memory machinery running: stability
  // gossip prunes the rbcast dedup index, and the warm-up below pushes
  // more messages than GenericBroadcast's retired-payload cap so the
  // retire ring is evicting (not growing) when the measurement starts.
  config.stack.stability_interval = msec(20);
  World world(config);

  obs::Telemetry publisher;
  std::uint64_t sink_calls = 0;
  if (telemetry) {
    publisher.add_sink([&sink_calls](const obs::Snapshot&, BytesView) { ++sink_calls; });
    for (ProcessId p = 0; p < n; ++p) world.stack(p).attach_telemetry(publisher);
  }

  std::int64_t delivered = 0;
  for (ProcessId p = 0; p < n; ++p) {
    world.stack(p).on_gdeliver([&delivered](const MsgId&, MsgClass, const Bytes&) {
      ++delivered;
    });
  }
  world.found_group_all();
  world.run_for(msec(20));

  constexpr int kWarmup = 400;
  constexpr int kMeasured = 400;
  int sent = 0;
  std::function<void()> tick = [&] {
    if (sent >= kWarmup + kMeasured) return;
    world.stack(static_cast<ProcessId>(sent % n)).gbcast(kRbcastClass, sized_payload(sent, 256));
    ++sent;
    world.engine().schedule_after(kGap, tick);
  };
  world.engine().schedule_after(0, tick);
  drive(world.engine(), sec(60), [&] { return delivered >= std::int64_t{kWarmup} * n; });
  world.run_for(msec(100));  // drain in-flight acks so the pool is primed

  const std::int64_t base = delivered;
  const AllocSnapshot a0 = alloc_snapshot();
  drive(world.engine(), sec(60),
        [&] { return delivered >= std::int64_t{kWarmup + kMeasured} * n; });
  world.run_for(msec(100));
  const AllocSnapshot a1 = alloc_snapshot();

  const std::int64_t deliveries = delivered - base;
  const auto allocs = static_cast<std::int64_t>(a1.allocs - a0.allocs);
  const std::int64_t net_allocs = allocs - static_cast<std::int64_t>(a1.frees - a0.frees);
  const auto per = [deliveries](std::int64_t count) {
    return deliveries > 0 ? static_cast<double>(count) / static_cast<double>(deliveries) : 0.0;
  };
  // Every allocation, freed or not, per delivery: what the message path
  // costs the allocator. It read 13.48 while generic broadcast kept its
  // ACK sets, store and tallies in tree nodes, 3.83 since they are flat.
  constexpr double kMaxAllocsPerDelivery = 4.5;
  // The warm-up drain keeps the ticker running, so part of the nominal
  // kMeasured budget lands before the base snapshot; demand a minimum
  // window rather than the full count. Idle telemetry means nothing
  // published.
  const bool passed = sink_calls == 0 && deliveries >= std::int64_t{kMeasured} * n / 2 &&
                      per(net_allocs) < 1.0 && per(allocs) <= kMaxAllocsPerDelivery;
  return {name, passed,
          std::string(telemetry ? "with idle telemetry attached, " : "") +
              "the GB fast path's steady state stays under 1 net allocation per delivery (" +
              std::to_string(net_allocs) + " over " + std::to_string(deliveries) +
              ") and at most " + fmt_double(kMaxAllocsPerDelivery, 1) + " in all (" +
              fmt_double(per(allocs), 2) + ")",
          {{"layer", "\"gbcast\""},
           {"deliveries", std::to_string(deliveries)},
           {"net_allocs", std::to_string(net_allocs)},
           {"net_allocs_per_delivery", json_num(per(net_allocs))},
           {"allocs_per_delivery", json_num(per(allocs))},
           {"allocs_required", json_num(kMaxAllocsPerDelivery)}}};
}

std::string cells_json(const std::vector<Cell>& cells) {
  std::string out = "  \"cells\": [\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    // A lossy or Paxos cell shares its layer/n/payload key with a
    // loss-free Chandra–Toueg one; a name keeps them apart in the perf
    // ledger.
    const std::string name =
        c.loss > 0 || c.paxos
            ? "\"name\": \"" + c.layer + (c.paxos ? "_paxos" : "") + "_n" + std::to_string(c.n) +
                  "_b" + std::to_string(c.payload_bytes) +
                  (c.loss > 0 ? "_loss" + std::to_string(static_cast<int>(c.loss * 100)) : "") +
                  "\", "
            : std::string();
    const std::string report =
        c.layer == "gbcast"
            ? "\"report_bytes_per_delivered\": " + json_num(c.per_delivered(c.report_wire_bytes)) +
                  ", "
            : std::string();
    out += "    {" + name + "\"layer\": \"" + c.layer + "\", \"n\": " + std::to_string(c.n) +
           ", \"payload_bytes\": " + std::to_string(c.payload_bytes) +
           ",\n     \"completed\": " + (c.completed ? "true" : "false") +
           ", \"delivered\": " + std::to_string(c.delivered) +
           ",\n     \"consensus_wire_bytes\": " + std::to_string(c.consensus_wire_bytes) +
           ", \"consensus_wire_msgs\": " + std::to_string(c.consensus_wire_msgs) +
           ",\n     \"consensus_msgs_per_instance\": " + json_num(c.consensus_msgs_per_instance()) +
           ",\n     \"flood_wire_bytes\": " + std::to_string(c.flood_wire_bytes) +
           ", \"control_wire_bytes\": " + std::to_string(c.control_wire_bytes) +
           ",\n     \"consensus_bytes_per_delivered\": " +
           json_num(c.per_delivered(c.consensus_wire_bytes)) +
           ", \"flood_bytes_per_delivered\": " + json_num(c.per_delivered(c.flood_wire_bytes)) +
           ",\n     " + report + "\"total_bytes_per_delivered\": " +
           json_num(c.per_delivered(c.total_wire_bytes())) +
           ",\n     \"datagrams_per_delivered\": " +
           json_num(c.per_delivered(c.channel_datagrams)) +
           ", \"net_allocs_per_delivered\": " + json_num(c.per_delivered(c.net_allocs)) +
           ", \"allocs_per_delivered\": " + json_num(c.per_delivered(c.allocs)) +
           ",\n     \"retransmits_per_delivered\": " + json_num(c.per_delivered(c.retransmits)) +
           "}" + (i + 1 < cells.size() ? "," : "") + "\n";
  }
  return out + "  ]";
}

void run_suite(SuiteReport& report) {
  banner("wire path — bytes on the wire per delivered message",
         "E6-style abcast and E3-style gbcast workloads; proposals and\n"
         "reports carry ids only, so the consensus column should not\n"
         "grow with the payload");

  constexpr std::size_t kPayloads[] = {64, 1024, 8192};
  // The process's first run interns the process-wide tables (trace names,
  // metric ids); an uncounted run keeps those one-off allocations out of
  // the first cell, so every cell counts only the message path.
  (void)run_abcast_cell(3, kPayloads[0]);
  std::vector<Cell> cells;
  for (const int n : {3, 5, 7}) {
    for (const std::size_t payload : kPayloads) cells.push_back(run_abcast_cell(n, payload));
  }
  cells.push_back(run_gbcast_cell(7, 1024));
  cells.push_back(run_abcast_cell(5, 1024, 0.02));
  cells.push_back(run_abcast_cell(7, 1024, 0, /*paxos=*/true));

  Table table({"layer", "n", "payload", "loss", "consensus", "delivered", "consensus msgs/inst",
               "consensus B/msg", "flood B/msg", "control B/msg", "datagrams/msg", "allocs/msg",
               "retransmits/msg"});
  for (const Cell& c : cells) {
    table.add_row({c.layer, std::to_string(c.n), std::to_string(c.payload_bytes),
                   fmt_pct(c.loss), c.paxos ? "Paxos" : "CT", std::to_string(c.delivered),
                   fmt_double(c.consensus_msgs_per_instance(), 1),
                   fmt_double(c.per_delivered(c.consensus_wire_bytes), 1),
                   fmt_double(c.per_delivered(c.flood_wire_bytes), 1),
                   fmt_double(c.per_delivered(c.control_wire_bytes), 1),
                   fmt_double(c.per_delivered(c.channel_datagrams), 1),
                   fmt_double(c.per_delivered(c.allocs), 1),
                   fmt_double(c.per_delivered(c.retransmits), 2)});
  }
  table.print();
  report.members.push_back(cells_json(cells));

  bool completed = true;
  for (const Cell& c : cells) completed = completed && c.completed;
  report.checks.push_back({"cells_completed", completed,
                           "every member of every cell delivers all its messages"});
  // Payloads never enter consensus: at each n, the loss-free abcast cells'
  // consensus bytes per delivered message do not depend on the payload size.
  bool flat = true;
  for (std::size_t row = 0; row < 3; ++row) {
    const Cell* first = &cells[row * std::size(kPayloads)];
    for (std::size_t k = 1; k < std::size(kPayloads); ++k) {
      const Cell& c = first[k];
      flat = flat && c.per_delivered(c.consensus_wire_bytes) ==
                         first->per_delivered(first->consensus_wire_bytes);
    }
  }
  report.checks.push_back({"cells_payload_free_consensus", flat,
                           "at n = 3, 5 and 7, abcast's consensus bytes per delivered message "
                           "are the same for 64 B, 1 KiB and 8 KiB payloads"});
  // One proposer per Paxos instance: the leader's ACCEPT, the ACCEPTEDs and
  // its DECIDE, n frames each, with no ANNOUNCE in a fault-free run.
  const Cell& paxos = cells.back();
  const double paxos_bound = 3.0 * paxos.n;
  report.checks.push_back(
      {"paxos_consensus_msgs_per_instance",
       paxos.completed && paxos.consensus_msgs_per_instance() <= paxos_bound,
       "the Paxos abcast cell (n = " + std::to_string(paxos.n) + ") sends <= 3n consensus "
           "frames per instance (" + fmt_double(paxos.consensus_msgs_per_instance(), 2) + ")",
       {{"value", json_num(paxos.consensus_msgs_per_instance())},
        {"required", json_num(paxos_bound)}}});
  report.checks.push_back(run_alloc_check("fastpath_alloc", 307, false));
  report.checks.push_back(run_alloc_check("telemetry_idle_alloc", 311, true));
}

}  // namespace
}  // namespace gcs::bench

int main(int argc, char** argv) {
  return gcs::bench::suite_main(argc, argv, "wire", gcs::bench::run_suite);
}
