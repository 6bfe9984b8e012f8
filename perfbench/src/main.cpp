/// \file main.cpp
/// Benchmark program for the nggcs stack.
///
///   perfbench_gcs --workload NAME --seed N --seconds S --trace 0|1
///       Runs one workload. Prints every metric as "name = value unit",
///       then, as the last line, one JSON object with the keys correct,
///       attempted, failed and metrics. --trace 0 reports the end-to-end
///       metrics, --trace 1 the per-layer ones from a traced run.
///   perfbench_gcs --virtual NAME --seed N
///       Prints one simulated episode's virtual-time outcome, so the
///       self-test can compare the counting and the plain binary.
///   perfbench_gcs --selftest
///       Runs the benchmark's own checks.
///   perfbench_gcs --metrics
///       Prints the end-to-end and per-layer metric names and units as JSON.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "workloads.hpp"

namespace perfbench {
int selftest();
}

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_gcs --workload NAME --seed N --seconds S --trace 0|1\n"
               "       perfbench_gcs --virtual NAME --seed N\n"
               "       perfbench_gcs --selftest\n");
  return 2;
}

bool parse_u64(const char* s, std::uint64_t& out) {
  char* end = nullptr;
  out = std::strtoull(s, &end, 10);
  return end != s && *end == '\0';
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  RunConfig cfg;
  std::string virtual_workload;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--selftest") return selftest();
    if (arg == "--metrics") {
      std::printf("%s\n", metric_catalog_json().c_str());
      return 0;
    }
    if (i + 1 >= argc) return usage();
    const char* val = argv[++i];
    std::uint64_t num = 0;
    if (arg == "--workload") {
      cfg.workload = val;
      have_workload = true;
    } else if (arg == "--virtual") {
      virtual_workload = val;
    } else if (arg == "--seed" && parse_u64(val, num)) {
      cfg.seed = num;
    } else if (arg == "--seconds" && parse_u64(val, num) && num >= 1 && num <= 60) {
      cfg.seconds = static_cast<int>(num);
    } else if (arg == "--trace" && parse_u64(val, num) && num <= 1) {
      cfg.trace = num == 1;
    } else {
      return usage();
    }
  }

  try {
    if (!virtual_workload.empty()) {
      const VirtualOutcome o = virtual_episode(virtual_workload, cfg.seed, Wiring::kDecorated);
      std::printf(
          "{\"digest\": %llu, \"submitted\": %llu, \"complete\": %llu, \"events\": %llu, "
          "\"p50_ms\": %s, \"p99_ms\": %s, \"sim_msgs_per_s\": %s, \"max_gap_ms\": %s, "
          "\"exclusion_ms\": %s, \"error\": \"%s\"}\n",
          static_cast<unsigned long long>(o.digest), static_cast<unsigned long long>(o.submitted),
          static_cast<unsigned long long>(o.complete), static_cast<unsigned long long>(o.events),
          json_number(o.p50_ms).c_str(), json_number(o.p99_ms).c_str(),
          json_number(o.sim_msgs_per_s).c_str(), json_number(o.max_gap_ms).c_str(),
          json_number(o.exclusion_ms).c_str(), o.error.empty() ? "" : "failed");
      if (!o.error.empty()) std::fprintf(stderr, "perfbench_gcs: %s\n", o.error.c_str());
      return o.error.empty() ? 0 : 1;
    }
    if (!have_workload) return usage();
    bool known = false;
    for (const std::string& w : workload_names()) known = known || w == cfg.workload;
    if (!known) {
      std::fprintf(stderr, "unknown workload %s\n", cfg.workload.c_str());
      return 2;
    }

    const Result r = run(cfg);
    for (const Metric& m : r.metrics) {
      std::printf("%-32s = %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
    std::printf("attempted %llu, failed %llu, correct %s%s%s\n",
                static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed), r.correct ? "true" : "false",
                r.error.empty() ? "" : ": ", r.error.c_str());
    std::string json = "{\"correct\": ";
    json += r.correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(r.attempted);
    json += ", \"failed\": " + std::to_string(r.failed);
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < r.metrics.size(); ++i) {
      const Metric& m = r.metrics[i];
      json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + json_number(m.value) +
              ", \"unit\": \"" + m.unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_gcs: %s\n", e.what());
    return 1;
  }
}
