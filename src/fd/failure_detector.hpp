/// \file failure_detector.hpp
/// Heartbeat failure detector with independent timeout classes.
///
/// The paper (§3.3.2) requires the *same* failure-detection component to
/// serve two very different customers:
///   - consensus, which wants aggressive (seconds-scale) timeouts and can
///     tolerate an unbounded number of false suspicions (◇S), and
///   - monitoring, which wants conservative (minutes-scale) timeouts
///     because its suspicions lead to exclusion from the membership.
///
/// A *timeout class* is a (timeout, monitored-set, callbacks) triple; each
/// class forms its own suspected set over the shared stream of heartbeats.
/// Suspicions are revoked (on_restore) when a heartbeat from a suspected
/// process arrives — the eventually-strong (◇S) pattern.
#pragma once

#include <functional>
#include <set>
#include <vector>

#include "sim/context.hpp"
#include "transport/transport.hpp"

namespace gcs {

class FailureDetector {
 public:
  using ClassId = int;
  using SuspectFn = std::function<void(ProcessId)>;

  struct Config {
    Duration heartbeat_interval = msec(10);
  };

  FailureDetector(sim::Context& ctx, Transport& transport, Config config);
  FailureDetector(sim::Context& ctx, Transport& transport);

  /// Start emitting heartbeats and checking timeouts. Idempotent.
  void start();
  /// Stop heartbeating (used when a process leaves the group voluntarily).
  void stop();

  /// Create a timeout class. Suspicion fires when no heartbeat from a
  /// monitored process has been seen for \p timeout.
  ClassId add_class(Duration timeout);

  /// Adjust a class's timeout.
  void set_timeout(ClassId cls, Duration timeout);
  Duration timeout(ClassId cls) const { return classes_[static_cast<std::size_t>(cls)].timeout; }

  /// Start/stop monitoring q in a class (Fig 9: start_stop_monitor).
  void monitor(ClassId cls, ProcessId q);
  void unmonitor(ClassId cls, ProcessId q);
  void monitor_group(ClassId cls, const std::vector<ProcessId>& group);

  bool suspects(ClassId cls, ProcessId q) const;
  std::vector<ProcessId> suspected(ClassId cls) const;

  /// Callbacks fire on suspicion transitions (Fig 9: suspect).
  void on_suspect(ClassId cls, SuspectFn fn);
  void on_restore(ClassId cls, SuspectFn fn);

  /// Testing/benchmark hook: force an (incorrect) suspicion now. The next
  /// heartbeat restores it, exactly like a naturally occurring mistake.
  void inject_suspicion(ClassId cls, ProcessId q);

  /// Number of false suspicions observed (suspicions later restored).
  std::int64_t false_suspicions() const { return ctx_.metrics().counter(m_false_suspicions_); }

 private:
  struct TimeoutClass {
    Duration timeout;
    std::set<ProcessId> monitored;
    std::set<ProcessId> suspected;
    std::vector<SuspectFn> suspect_fns;
    std::vector<SuspectFn> restore_fns;
  };

  void on_heartbeat(ProcessId from);
  void heartbeat_tick();
  void check_tick();
  void mark_suspected(ClassId cls, ProcessId q);

  sim::Context& ctx_;
  Transport& transport_;
  Config config_;
  bool running_ = false;
  std::vector<TimePoint> last_heard_;
  std::vector<TimeoutClass> classes_;
  MetricId m_false_suspicions_;
};

}  // namespace gcs
