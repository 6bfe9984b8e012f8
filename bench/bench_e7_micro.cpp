/// \file bench_e7_micro.cpp
/// E7 — wall-clock microbenchmarks of the building blocks: codec, event
/// engine, network, consensus, atomic and generic broadcast end-to-end.
/// These measure REAL time (how fast the simulator executes),
/// complementing the virtual-time experiment tables E1–E6.
///
/// Two modes:
///   (default)        google-benchmark suite, usual gbench flags apply.
///   --json[=path]    kernel hot-path suite with the counting allocator:
///                    engine steady-state/cold-start/cancel-churn and
///                    network fan-out, written as machine-readable JSON
///                    (default ./BENCH_kernel.json) with one `checks`
///                    block; exits nonzero when a check fails. Used by
///                    CI; how to read the numbers is documented in
///                    DESIGN.md ("Kernel performance model").
///
/// This binary opts into the counting operator new/delete of
/// bench_util.hpp, so allocations per event can be reported exactly.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#define NGGCS_BENCH_COUNTING_ALLOCATOR
#include "bench/bench_util.hpp"
#include "core/stack.hpp"
#include "replication/state_machine.hpp"
#include "sim/network.hpp"
#include "util/codec.hpp"

namespace gcs {
namespace {

// --------------------------------------------------------------------------
// google-benchmark suite (default mode)
// --------------------------------------------------------------------------

void BM_CodecEncode(benchmark::State& state) {
  for (auto _ : state) {
    Encoder enc;
    for (int i = 0; i < 32; ++i) {
      enc.put_u64(static_cast<std::uint64_t>(i) * 977);
      enc.put_msgid(MsgId{static_cast<ProcessId>(i), static_cast<std::uint64_t>(i)});
    }
    benchmark::DoNotOptimize(enc.bytes());
  }
}
BENCHMARK(BM_CodecEncode);

void BM_CodecDecode(benchmark::State& state) {
  Encoder enc;
  for (int i = 0; i < 32; ++i) {
    enc.put_u64(static_cast<std::uint64_t>(i) * 977);
    enc.put_msgid(MsgId{static_cast<ProcessId>(i), static_cast<std::uint64_t>(i)});
  }
  const Bytes buf = enc.take();
  for (auto _ : state) {
    Decoder dec(buf);
    std::uint64_t sum = 0;
    for (int i = 0; i < 32; ++i) {
      sum += dec.get_u64();
      sum += static_cast<std::uint64_t>(dec.get_msgid().seq);
    }
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_CodecDecode);

/// Cold shape: engine construction + 1000 one-shot timers, every iteration.
void BM_EngineScheduleAndRun(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine engine;
    int fired = 0;
    for (int i = 0; i < 1000; ++i) {
      engine.schedule_at(i, [&fired] { ++fired; });
    }
    engine.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EngineScheduleAndRun);

/// Steady shape: 64 self-rescheduling timers on a long-lived engine — the
/// state a multi-second simulation run spends nearly all its time in.
void BM_EngineSteadyState(benchmark::State& state) {
  sim::Engine engine;
  long long fired = 0;
  struct Tick {
    sim::Engine* engine;
    long long* fired;
    void operator()() const {
      ++*fired;
      engine->schedule_after(10, Tick{*this});
    }
  };
  for (int i = 0; i < 64; ++i) engine.schedule_after(i, Tick{&engine, &fired});
  for (auto _ : state) {
    engine.run(1000);
  }
  benchmark::DoNotOptimize(fired);
  state.SetItemsProcessed(state.iterations() * 1000);
  // Pending self-rescheduling timers die with the engine.
}
BENCHMARK(BM_EngineSteadyState);

void BM_NetworkSendDeliver(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine engine;
    sim::Network net(engine, 2, sim::LinkModel{}, 1);
    int received = 0;
    net.set_handler(1, [&](ProcessId, const Bytes&) { ++received; });
    for (int i = 0; i < 100; ++i) net.send(0, 1, Bytes{1, 2, 3, 4});
    engine.run();
    benchmark::DoNotOptimize(received);
  }
  state.SetItemsProcessed(state.iterations() * 100);
}
BENCHMARK(BM_NetworkSendDeliver);

/// Full-stack construction cost: n processes with all Fig 9 components.
void BM_StackConstruction(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    World::Config config;
    config.n = n;
    World world(config);
    benchmark::DoNotOptimize(&world.stack(0));
  }
}
BENCHMARK(BM_StackConstruction)->Arg(4)->Arg(8)->Arg(16);

/// One consensus-ordered abcast batch, end to end (simulation wall time).
void BM_AbcastBatch(benchmark::State& state) {
  const int batch = static_cast<int>(state.range(0));
  for (auto _ : state) {
    World::Config config;
    config.n = 4;
    World world(config);
    bench::OracleScope oracle(world, "e7/abcast");
    std::size_t delivered = 0;
    world.stack(0).on_adeliver([&](const MsgId&, const Bytes&) { ++delivered; });
    world.found_group_all();
    for (int i = 0; i < batch; ++i) {
      world.stack(static_cast<ProcessId>(i % 4)).abcast(Bytes{static_cast<std::uint8_t>(i)});
    }
    while (delivered < static_cast<std::size_t>(batch) && world.engine().step()) {
    }
    benchmark::DoNotOptimize(delivered);
  }
}
BENCHMARK(BM_AbcastBatch)->Arg(1)->Arg(16)->Arg(64);

/// Generic broadcast fast path (non-conflicting), end to end.
void BM_GbcastFastPath(benchmark::State& state) {
  const int batch = static_cast<int>(state.range(0));
  for (auto _ : state) {
    World::Config config;
    config.n = 4;
    World world(config);
    bench::OracleScope oracle(world, "e7/gbcast");
    std::size_t delivered = 0;
    world.stack(0).on_gdeliver([&](const MsgId&, MsgClass, const Bytes&) { ++delivered; });
    world.found_group_all();
    for (int i = 0; i < batch; ++i) {
      world.stack(static_cast<ProcessId>(i % 4)).rbcast(Bytes{static_cast<std::uint8_t>(i)});
    }
    while (delivered < static_cast<std::size_t>(batch) && world.engine().step()) {
    }
    benchmark::DoNotOptimize(delivered);
  }
}
BENCHMARK(BM_GbcastFastPath)->Arg(1)->Arg(16)->Arg(64);

void BM_BankStateMachineApply(benchmark::State& state) {
  replication::BankAccount bank;
  const Bytes deposit = replication::BankAccount::make_deposit(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bank.apply(deposit));
  }
}
BENCHMARK(BM_BankStateMachineApply);

// --------------------------------------------------------------------------
// Kernel hot-path suite (--json mode): chrono-timed, allocation-counted.
// --------------------------------------------------------------------------

using Clock = std::chrono::steady_clock;

double elapsed_ns(Clock::time_point t0) {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0).count());
}

struct KernelRow {
  std::string name;
  std::uint64_t events = 0;
  double wall_ns = 0;
  std::uint64_t allocs = 0;
  std::uint64_t frees = 0;

  double ns_per_event() const {
    return events ? wall_ns / static_cast<double>(events) : 0.0;
  }
  double events_per_sec() const {
    return wall_ns > 0 ? static_cast<double>(events) * 1e9 / wall_ns : 0.0;
  }
  double allocs_per_event() const {
    return events ? static_cast<double>(allocs) / static_cast<double>(events) : 0.0;
  }
};

/// N self-rescheduling timers on a long-lived engine: the state a long
/// simulation run spends nearly all its wall time in. Steady state must be
/// allocation-free: nodes come from the free list, captures fit inline.
KernelRow kernel_engine_steady(const std::string& name, int timers, long long events) {
  sim::Engine engine;
  long long fired = 0;
  const long long warmup = 100000;
  const long long stop = warmup + events;
  struct Tick {
    sim::Engine* engine;
    long long* fired;
    long long stop;
    void operator()() const {
      if (++*fired < stop) engine->schedule_after(10, Tick{*this});
    }
  };
  for (int i = 0; i < timers; ++i) {
    engine.schedule_after(i % 50, Tick{&engine, &fired, stop});
  }
  while (fired < warmup && engine.step()) {
  }
  const long long fired_before = fired;
  const AllocSnapshot a0 = alloc_snapshot();
  const auto t0 = Clock::now();
  engine.run();
  const double wall = elapsed_ns(t0);
  const AllocSnapshot a1 = alloc_snapshot();
  return {name, static_cast<std::uint64_t>(fired - fired_before), wall, a1.allocs - a0.allocs,
          a1.frees - a0.frees};
}

/// Fresh engine + 1000 one-shot timers per round (the BM_EngineScheduleAndRun
/// shape): measures construction and pool/chunk growth on top of dispatch.
KernelRow kernel_engine_cold(long long rounds) {
  long long fired = 0;
  const AllocSnapshot a0 = alloc_snapshot();
  const auto t0 = Clock::now();
  for (long long r = 0; r < rounds; ++r) {
    sim::Engine engine;
    for (int i = 0; i < 1000; ++i) {
      engine.schedule_at(i, [&fired] { ++fired; });
    }
    engine.run();
  }
  const double wall = elapsed_ns(t0);
  const AllocSnapshot a1 = alloc_snapshot();
  return {"engine_cold_start_1000", static_cast<std::uint64_t>(fired), wall,
          a1.allocs - a0.allocs, a1.frees - a0.frees};
}

/// Schedule+cancel churn against a window of armed timeouts — the failure-
/// detector pattern. Exercises O(1) cancel and wheel compaction; queue depth
/// and pool size must stay bounded by the window, not by total churn.
KernelRow kernel_engine_cancel_churn(long long pairs, std::size_t* max_depth,
                                     std::size_t* max_pool) {
  sim::Engine engine;
  const int window = 1024;
  long long sink = 0;
  std::vector<sim::TimerId> ids(window);
  for (int i = 0; i < window; ++i) {
    ids[static_cast<std::size_t>(i)] =
        engine.schedule_after(1000000 + i, [&sink] { ++sink; });
  }
  *max_depth = 0;
  *max_pool = 0;
  const AllocSnapshot a0 = alloc_snapshot();
  const auto t0 = Clock::now();
  for (long long i = 0; i < pairs; ++i) {
    const auto j = static_cast<std::size_t>(i) % window;
    engine.cancel(ids[j]);
    ids[j] = engine.schedule_after(1000000 + static_cast<Duration>(j), [&sink] { ++sink; });
    if ((i & 0xffff) == 0) {
      *max_depth = std::max(*max_depth, engine.queue_depth());
      *max_pool = std::max(*max_pool, engine.pool_size());
    }
  }
  const double wall = elapsed_ns(t0);
  const AllocSnapshot a1 = alloc_snapshot();
  *max_depth = std::max(*max_depth, engine.queue_depth());
  *max_pool = std::max(*max_pool, engine.pool_size());
  return {"engine_cancel_churn", static_cast<std::uint64_t>(pairs), wall, a1.allocs - a0.allocs,
          a1.frees - a0.frees};
}

/// 16-destination multicast of a 64-byte payload through sim::Network: the
/// datagram is built and refcounted once, deliveries share the bytes.
KernelRow kernel_network_fanout(long long multicasts) {
  sim::Engine engine;
  sim::Network net(engine, 17, sim::LinkModel{}, 1);
  long long received = 0;
  std::vector<ProcessId> dests;
  for (ProcessId p = 1; p <= 16; ++p) {
    dests.push_back(p);
    net.set_handler(p, [&received](ProcessId, const Bytes& b) {
      received += static_cast<long long>(!b.empty());
    });
  }
  const Bytes bytes(64, 0xab);
  // Warmup: let slot lists, node pool and rng reach steady state.
  for (int i = 0; i < 2000; ++i) {
    net.multicast(0, dests, Payload(bytes));
    if ((i & 63) == 0) engine.run();
  }
  engine.run();
  const long long received_before = received;
  const AllocSnapshot a0 = alloc_snapshot();
  const auto t0 = Clock::now();
  for (long long i = 0; i < multicasts; ++i) {
    net.multicast(0, dests, Payload(bytes));
    if ((i & 63) == 0) engine.run();
  }
  engine.run();
  const double wall = elapsed_ns(t0);
  const AllocSnapshot a1 = alloc_snapshot();
  return {"network_fanout_16", static_cast<std::uint64_t>(received - received_before), wall,
          a1.allocs - a0.allocs, a1.frees - a0.frees};
}

void run_kernel_suite(bench::SuiteReport& report) {
  bench::banner("E7-kernel — engine/event hot-path microbenchmarks",
                "Wall-clock cost per event with exact allocation counts "
                "(counting operator new/delete). See DESIGN.md, \"Kernel "
                "performance model\".");

  std::size_t churn_depth = 0;
  std::size_t churn_pool = 0;
  std::vector<KernelRow> rows;
  rows.push_back(kernel_engine_steady("engine_steady_64", 64, 8000000));
  rows.push_back(kernel_engine_steady("engine_steady_1024", 1024, 8000000));
  rows.push_back(kernel_engine_cold(3000));
  rows.push_back(kernel_engine_cancel_churn(2000000, &churn_depth, &churn_pool));
  rows.push_back(kernel_network_fanout(200000));

  bench::Table table({"benchmark", "events", "ns/event", "events/sec", "allocs/event"});
  for (const KernelRow& r : rows) {
    table.add_row({r.name, bench::fmt_int(static_cast<std::int64_t>(r.events)),
                   bench::fmt_double(r.ns_per_event(), 1),
                   bench::fmt_double(r.events_per_sec() / 1e6, 2) + "M",
                   bench::fmt_double(r.allocs_per_event(), 4)});
  }
  table.print();

  std::string results = "  \"results\": [";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const KernelRow& r = rows[i];
    results += std::string(i ? "," : "") + "\n    {\"name\": \"" + obs::json_escape_string(r.name) +
               "\", \"events\": " + std::to_string(r.events) +
               ", \"wall_ns\": " + bench::json_num(r.wall_ns) +
               ", \"ns_per_event\": " + bench::json_num(r.ns_per_event()) +
               ", \"events_per_sec\": " + bench::json_num(r.events_per_sec()) +
               ", \"allocs\": " + std::to_string(r.allocs) +
               ", \"frees\": " + std::to_string(r.frees) +
               ", \"allocs_per_event\": " + bench::json_num(r.allocs_per_event()) + "}";
  }
  report.members.push_back(results + "\n  ]");

  report.checks.push_back({"steady_state_zero_alloc", rows[0].allocs == 0 && rows[1].allocs == 0,
                           "self-rescheduling timers allocate nothing in steady state"});
  report.checks.push_back({"cancel_churn_bounded", churn_depth <= 4096 && churn_pool <= 8192,
                           "cancel/reschedule churn keeps queue depth <= 4096 and pool <= 8192",
                           {{"max_queue_depth", std::to_string(churn_depth)},
                            {"max_pool", std::to_string(churn_pool)}}});
}

}  // namespace
}  // namespace gcs

int main(int argc, char** argv) {
  std::vector<char*> gbench_args;
  gbench_args.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 || std::strncmp(argv[i], "--json=", 7) == 0) {
      return gcs::bench::suite_main(argc, argv, "kernel", gcs::run_kernel_suite);
    }
    if (std::strcmp(argv[i], "--oracle") == 0) {
      gcs::bench::OracleGate::enabled() = true;
    } else {
      gbench_args.push_back(argv[i]);
    }
  }
  int gargc = static_cast<int>(gbench_args.size());
  benchmark::Initialize(&gargc, gbench_args.data());
  if (benchmark::ReportUnrecognizedArguments(gargc, gbench_args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return gcs::bench::oracle_verdict();
}
