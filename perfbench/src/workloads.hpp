/// \file workloads.hpp
/// The benchmark's workloads and the runs that measure them.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// One benchmark run: what was attempted, what failed, whether every
/// correctness check passed, and the metrics by name.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::string error;  ///< first correctness problem, empty when clean
};

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;  ///< per-layer run (traced) instead of the end-to-end one
};

const std::vector<std::string>& workload_names();

/// {"end_to_end": [[name, unit], ...], "per_layer": [...]}: what the runs
/// report, for checking against BENCHMARK.json.
std::string metric_catalog_json();

/// Run \p config's workload for about config.seconds of measured wall time.
Result run(const RunConfig& config);

/// Virtual-time outcome of one simulated episode: identical for identical
/// seeds whatever the instrumentation, which the self-test checks.
struct VirtualOutcome {
  std::uint64_t digest = 0;
  std::uint64_t submitted = 0;
  std::uint64_t complete = 0;
  std::uint64_t events = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  double sim_msgs_per_s = 0;
  double max_gap_ms = 0;
  double exclusion_ms = 0;
  std::string error;
};

enum class Wiring {
  kWorld,      ///< gcs::World: SimTransport wired by the simulation constructor
  kDecorated,  ///< the benchmark's TimedTransport around SimTransport, untimed
  kTimed,      ///< the decorator with the host-time ledger on
};

/// One episode of simulated workload \p workload under \p wiring.
VirtualOutcome virtual_episode(const std::string& workload, std::uint64_t seed, Wiring wiring);

}  // namespace perfbench
