/// \file watchdog.hpp
/// Online anomaly detection over consecutive telemetry snapshots.
///
/// The oracle certifies safety ("nothing illegal happened"); the watchdog
/// flags *health* anomalies that are perfectly legal but mean the system
/// is failing its users: deliveries stalling while submits advance, the
/// id-only wire path degenerating into a pull storm, flow control eating the
/// whole window, membership flapping, queues growing without bound.
///
/// The engine is a pure fold over the per-process frame stream: observe()
/// diffs each frame against the previous frame of the same process and
/// evaluates every rule on the window's deltas. No wall clock, no
/// randomness — identical frame streams produce identical alerts, so
/// sim-side alert sections are byte-stable across same-seed runs while the
/// same engine runs live against a realtime stats stream.
///
/// Each rule fires once per episode: an alert is raised when its condition
/// is met (for windowed rules, met on the configured number of consecutive
/// windows) and re-arms only after a window in which the condition is
/// clear. A planted fault therefore produces exactly one alert from
/// exactly its own rule, which is what the negative tests pin down.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "obs/telemetry.hpp"
#include "util/types.hpp"

namespace gcs::obs {

/// Identifies a watchdog rule; stable order and names (report schema).
enum class WatchdogRule : std::uint8_t {
  kDeliveryStall = 0,  ///< submits advancing, deliveries flat
  kPullStorm,          ///< payload-pull fallback rate spiking
  kFcSaturation,       ///< flow-control stalls dominating the window
  kViewFlap,           ///< views installed in a burst (membership flap)
  kQueueGrowth,        ///< a queue gauge growing monotonically
};
inline constexpr std::size_t kWatchdogRuleCount = 5;

/// Stable lowercase rule name ("delivery_stall", ...).
std::string_view watchdog_rule_name(WatchdogRule rule);

/// Counters aggregated across the ordering layers, the way an operator
/// thinks about the stack: messages submitted, delivered, and payload pulls
/// requested. A frame from a process without a given layer contributes zero.
std::int64_t submits_of(const Snapshot& s);
std::int64_t deliveries_of(const Snapshot& s);
std::int64_t pulls_of(const Snapshot& s);

/// One structured anomaly record.
struct Alert {
  WatchdogRule rule = WatchdogRule::kDeliveryStall;
  ProcessId proc = kNoProcess;
  std::uint64_t frame = 0;  ///< Snapshot::seq that triggered the alert
  TimePoint ts = 0;         ///< Snapshot::ts of that frame
  std::string detail;       ///< deterministic human-readable evidence
};

class Watchdog {
 public:
  struct Config {
    /// Consecutive windows with submits advancing and deliveries flat
    /// before delivery_stall fires (2 = "within two cadences").
    int stall_windows = 2;
    /// Pull storm: a window with at least this many pull requests AND
    /// pulls exceeding pull_ratio * deliveries.
    std::int64_t pull_min = 8;
    double pull_ratio = 0.5;
    /// Flow-control saturation: fc-stall time accumulated in a window
    /// exceeding this fraction of the window's duration.
    double fc_fraction = 0.5;
    /// View flap: at least this many view installs inside one window.
    std::int64_t flap_views = 3;
    /// Queue growth: a watched gauge strictly increasing for this many
    /// consecutive windows by at least growth_min in total.
    int growth_windows = 3;
    double growth_min = 64.0;
    /// Gauges the growth rule watches. Only genuinely bounded-in-health
    /// queues belong here — working sets that legitimately grow with
    /// traffic (dedup stores) would false-positive.
    std::vector<std::string> growth_gauges = {"probe.channel.send_queue",
                                              "probe.abcast.pending"};
    /// Alert-list bound; past it alerts are counted but not stored.
    std::size_t max_alerts = 256;
  };

  // Two constructors rather than one defaulted argument: a `Config{}`
  // default argument inside the enclosing class would need Watchdog to be
  // complete before Config's member initializers are.
  Watchdog() = default;
  explicit Watchdog(Config config) : config_(std::move(config)) {}

  /// Feed the next frame of frame.proc (frames of one process must arrive
  /// in seq order; interleaving across processes is fine). Evaluates every
  /// rule against the window since that process's previous frame.
  void observe(const Snapshot& frame);

  /// Realtime hook: called synchronously for every alert raised (stderr
  /// logging in the realtime harness). Alerts are recorded either way.
  void on_alert(std::function<void(const Alert&)> fn) { alert_fn_ = std::move(fn); }

  const std::vector<Alert>& alerts() const { return alerts_; }
  /// Alerts raised beyond the max_alerts storage bound.
  std::uint64_t truncated_alerts() const { return truncated_; }
  std::uint64_t alerts_raised() const { return raised_; }
  bool clean() const { return raised_ == 0; }
  std::uint64_t frames_observed() const { return frames_; }

 private:
  struct GaugeTrack {
    std::string name;
    double start = 0;  ///< value when the current growth streak began
    double last = 0;
    int streak = 0;  ///< consecutive strictly-increasing windows
  };
  struct ProcState {
    ProcessId id = kNoProcess;
    bool has_prev = false;
    Snapshot prev;
    int stall_streak = 0;
    bool armed[kWatchdogRuleCount] = {true, true, true, true, true};
    std::vector<GaugeTrack> tracked;
  };

  ProcState& state_of(ProcessId p);
  void raise(WatchdogRule rule, const Snapshot& frame, std::string detail);
  /// Fire \p rule if armed, then disarm; re-arm is per rule in observe().
  void fire_once(ProcState& st, WatchdogRule rule, const Snapshot& frame,
                 std::string detail);

  Config config_;
  std::vector<ProcState> procs_;
  std::vector<Alert> alerts_;
  std::uint64_t raised_ = 0;
  std::uint64_t truncated_ = 0;
  std::uint64_t frames_ = 0;
  std::function<void(const Alert&)> alert_fn_;
};

/// Render the watchdog's alert list as a JSON array (the scenario report's
/// "alerts" section; deterministic for deterministic frame streams).
std::string render_alerts_json(const Watchdog& watchdog);

}  // namespace gcs::obs
