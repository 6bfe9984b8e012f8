/// \file test_util.hpp
/// Shared helpers for the nggcs test suite.
#pragma once

#include <array>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/stack.hpp"
#include "obs/exporters.hpp"
#include "obs/oracle.hpp"
#include "obs/probes.hpp"
#include "obs/report.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "util/types.hpp"

namespace gcs::test {

inline Bytes bytes_of(const std::string& s) { return Bytes(s.begin(), s.end()); }

inline std::string str_of(const Bytes& b) { return std::string(b.begin(), b.end()); }
inline std::string str_of(BytesView b) { return std::string(b.begin(), b.end()); }

/// Counts the consensus frames one process receives, by kind byte, and
/// hands each on to the consensus that subscribed to the channel before.
struct ConsensusTap {
  std::array<std::int64_t, 16> received{};

  void attach(ReliableChannel& channel) {
    auto next = std::make_shared<ReliableChannel::Handler>();
    *next = channel.subscribe(Tag::kConsensus, [this, next](ProcessId from, BytesView b) {
      if (!b.empty() && b[0] < received.size()) ++received[b[0]];
      (*next)(from, b);
    });
  }
};

/// Run the engine until \p predicate holds or \p budget of virtual time has
/// elapsed. Returns true iff the predicate held. The predicate is checked
/// after every event, so self-perpetuating timers (heartbeats) don't hang
/// the test.
inline bool run_until(sim::Engine& engine, Duration budget,
                      const std::function<bool()>& predicate) {
  const TimePoint deadline = engine.now() + budget;
  while (!predicate()) {
    if (engine.now() > deadline) return false;
    if (!engine.step()) return predicate();
  }
  return true;
}

inline bool run_until(World& world, Duration budget, const std::function<bool()>& predicate) {
  return run_until(world.engine(), budget, predicate);
}

/// Records one process's deliveries for order/agreement assertions.
struct DeliveryLog {
  std::vector<MsgId> order;
  std::vector<std::string> payloads;

  void record(const MsgId& id, const Bytes& payload) {
    order.push_back(id);
    payloads.push_back(str_of(payload));
  }
  std::size_t size() const { return order.size(); }
};

/// True iff \p a is a prefix of \p b or vice versa (total-order check for
/// logs of different lengths).
inline bool consistent_prefix(const std::vector<MsgId>& a, const std::vector<MsgId>& b) {
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (!(a[i] == b[i])) return false;
  }
  return true;
}

/// Post-mortem flight recorder for protocol tests.
///
/// Construct one before the World and pass `fr.install(config.stack)` (or
/// set `config.stack.recorder = fr.recorder()` yourself). Tracing runs into
/// a bounded ring during the test; nothing is printed while the test
/// passes. If the test has a failed assertion when the FlightRecorder goes
/// out of scope, the last `tail` records (optionally restricted to one
/// process) are dumped to stderr, so the failure comes with the protocol
/// history that led to it.
class FlightRecorder {
 public:
  /// Dump-tail length; overridable with the NGGCS_TRACE_TAIL environment
  /// variable (useful when a failure needs deeper history than the
  /// default without recompiling).
  static std::size_t default_tail() {
    if (const char* env = std::getenv("NGGCS_TRACE_TAIL"); env && *env) {
      const long v = std::strtol(env, nullptr, 10);
      if (v > 0) return static_cast<std::size_t>(v);
    }
    return 64;
  }

  /// Ring capacity; grows with an oversized NGGCS_TRACE_TAIL so the
  /// requested tail actually fits.
  static std::size_t default_capacity() {
    const std::size_t tail = default_tail();
    return tail > 4096 ? tail : 4096;
  }

  explicit FlightRecorder(std::size_t capacity = default_capacity(),
                          std::size_t tail = default_tail())
      : recorder_(std::make_shared<obs::Recorder>(capacity)), tail_(tail) {}

  ~FlightRecorder() {
    if (!::testing::Test::HasFailure()) return;
    const auto records = recorder_->tail(proc_, tail_);
    if (records.empty()) return;
    std::fprintf(stderr, "--- flight recorder: last %zu trace records%s ---\n",
                 records.size(),
                 proc_ == kNoProcess ? ""
                                     : (" (p" + std::to_string(proc_) + ")").c_str());
    for (const obs::Record& r : records) {
      std::fprintf(stderr, "%s\n", obs::format_record(r).c_str());
    }
    std::fprintf(stderr, "--- end flight recorder ---\n");
  }

  /// Wire the recorder into a stack config (chainable at World setup).
  StackConfig& install(StackConfig& config) {
    config.recorder = recorder_;
    return config;
  }

  /// Restrict the failure dump to one process's records.
  void focus(ProcessId proc) { proc_ = proc; }

  const std::shared_ptr<obs::Recorder>& recorder() const { return recorder_; }

 private:
  std::shared_ptr<obs::Recorder> recorder_;
  std::size_t tail_;
  ProcessId proc_ = kNoProcess;
};

/// Runs a scenario test under the simulation-global protocol oracle.
///
///   World world(cfg);
///   ScenarioOracle oracle(world);       // before found_group()/join()
///   ... drive the scenario ...
///   // destructor: finalize() + EXPECT no violations + report emission
///
/// Construction taps every stack (attach_oracle) and, by default, publishes
/// telemetry frames into the state probes. Destruction finalizes the
/// oracle, adds a test failure listing every violation if any property was
/// violated, and — when NGGCS_REPORT_DIR is set — writes
/// scenario_report_<test-name>.json.
///
/// Scenarios that intentionally end mid-flight (messages still undelivered)
/// can call skip_finalize(); the online safety checks still apply.
/// Negative tests that EXPECT violations call expect_violations().
class ScenarioOracle {
 public:
  explicit ScenarioOracle(World& world, Duration probe_cadence = msec(100),
                          std::uint64_t seed = 0)
      : world_(&world), seed_(seed) {
    world.attach_oracle(oracle_);
    if (probe_cadence > 0) {
      telemetry_.add_sink(probes_.sink());
      world.enable_telemetry(telemetry_, probe_cadence);
    }
  }

  ~ScenarioOracle() {
    if (!skip_finalize_) oracle_.finalize();
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    const std::string name = info ? std::string(info->test_suite_name()) + "." + info->name()
                                  : "scenario";
    if (!expect_violations_ && !oracle_.passed()) {
      ADD_FAILURE() << "protocol oracle violations in " << name << ":\n"
                    << oracle_.summary();
    }
    const std::string json =
        obs::render_scenario_report(name, seed_, oracle_, &probes_, metrics_, recorder_);
    obs::write_scenario_report(name, json);
  }

  /// Leave the finalize-time agreement checks unchecked (mid-flight end).
  void skip_finalize() { skip_finalize_ = true; }
  /// Invert the destructor check: this scenario is SUPPOSED to violate.
  void expect_violations() { expect_violations_ = true; }
  /// Include this registry's counters/histograms in the report.
  void set_metrics(const Metrics* m) { metrics_ = m; }
  /// Surface the flight recorder's window health (records/dropped/truncated)
  /// in the report's "trace" section.
  void set_recorder(const obs::Recorder* r) { recorder_ = r; }

  obs::Oracle& oracle() { return oracle_; }
  obs::Probes& probes() { return probes_; }

 private:
  World* world_;
  obs::Oracle oracle_;
  obs::Probes probes_;
  obs::Telemetry telemetry_;  // publishes into probes_
  const Metrics* metrics_ = nullptr;
  const obs::Recorder* recorder_ = nullptr;
  std::uint64_t seed_ = 0;
  bool skip_finalize_ = false;
  bool expect_violations_ = false;
};

}  // namespace gcs::test
