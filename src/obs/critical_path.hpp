/// \file critical_path.hpp
/// Post-run latency critical-path attribution (DESIGN.md §13).
///
/// The flight recorder (obs/trace.hpp) captures every protocol layer's
/// begin/end/instant records keyed by message id. This analyzer walks one
/// run's records and, for every delivered message, splits the end-to-end
/// latency (submit at the origin -> delivery at each process) into an
/// exhaustive chain of non-overlapping phases:
///
///   atomic broadcast deliveries
///     flood         submit at the origin .. rdelivered at the observer
///     batch_wait    rdelivered .. first included in a consensus proposal
///                   (an observer that left the message to the proposer
///                   of its instance: flood and batch_wait at that member)
///     propose_wait  proposal submitted .. coordinator's PROPOSE goes out
///                   (quorum assembly; CT estimate collection / Paxos
///                   prepare+promise)
///     accept_wait   PROPOSE out .. DECIDE observed locally (ACK quorum
///                   round trip plus decision propagation)
///     pull_wait     head-decision stall on missing payloads (payload-pull
///                   fallback), clipped out of the tail
///     reorder_wait  DECIDE observed .. adelivery (in-order buffering
///                   behind earlier instances)
///
///   generic broadcast deliveries
///     flood            submit .. payload seen at the observer
///     gb_ack_wait      payload seen .. fast-path quorum delivery
///     gb_conflict_wait payload seen .. resolution triggered (slow path)
///     pull_wait        round-finalize stall on missing payloads
///     gb_resolve       resolution in flight .. resolution delivery
///
/// Honesty rule: a segment is attributed to a phase only when both of its
/// bounding trace anchors are present in the record window. Segments that
/// span missing anchors (truncated ring, layer without tracing) are counted
/// as *residual*, never silently folded into a neighbouring phase — so
/// attributed + residual == end-to-end exactly, and coverage() tells you
/// how much of the latency the analyzer actually explained.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>
#include <vector>

#include "obs/trace.hpp"

namespace gcs::obs {

/// Phases of the delivery critical path. Order is the wire order of the
/// abcast chain followed by the GB-specific phases; reports emit phases in
/// this order so the JSON schema is stable.
enum class PathPhase : std::uint8_t {
  kFlood = 0,        ///< origin submit -> payload at the observer
  kBatchWait,        ///< rdelivered -> first consensus proposal
  kProposeWait,      ///< proposal -> coordinator PROPOSE (quorum assembly)
  kAcceptWait,       ///< PROPOSE -> local DECIDE (ACK quorum + propagation)
  kPullWait,         ///< stalled on the payload-pull fallback
  kReorderWait,      ///< DECIDE -> adelivery (in-order buffering)
  kGbAckWait,        ///< payload seen -> GB fast-quorum delivery
  kGbConflictWait,   ///< payload seen -> GB resolution triggered
  kGbResolve,        ///< GB resolution in flight -> resolution delivery
};
inline constexpr std::size_t kNumPathPhases = 9;

/// Stable short name of a phase ("flood", "batch_wait", ...).
std::string_view path_phase_name(PathPhase phase);

/// One delivered message at one process, with its latency attributed.
struct PathBreakdown {
  enum class Kind : std::uint8_t {
    kAbcast,  ///< total-order delivery (abcast.ordered)
    kGbFast,  ///< generic-broadcast fast-path delivery
    kGbSlow,  ///< generic-broadcast resolution delivery
  };

  MsgId msg{};
  ProcessId proc = kNoProcess;
  Kind kind = Kind::kAbcast;
  TimePoint submit_ts = 0;
  TimePoint deliver_ts = 0;
  Duration total = 0;  ///< deliver_ts - submit_ts
  /// Attributed time per phase, indexed by PathPhase. Phases not on this
  /// delivery's path are 0.
  std::array<Duration, kNumPathPhases> phase{};
  /// total - sum(phase): time spanning missing anchors. Always >= 0.
  Duration residual = 0;
  /// Index of the largest phase (ties go to the earlier phase), or -1 when
  /// the residual exceeds every attributed phase.
  int dominant = -1;
};

/// Result of analyzing one run's trace.
struct CriticalPathStats {
  std::vector<PathBreakdown> paths;
  /// Deliveries whose submit record was not in the window (no end-to-end
  /// baseline — skipped, not guessed).
  std::uint64_t unmatched = 0;
  /// True when the recorder overwrote records (ring wrapped): attribution
  /// is then only valid for the surviving window.
  bool truncated = false;
  std::uint64_t dropped = 0;  ///< records overwritten (Recorder::dropped)

  /// Fraction of total end-to-end latency attributed to a phase, in [0, 1].
  /// 1 when there are no paths (nothing to explain).
  double coverage() const;
  /// 1 - coverage(): the unexplained share.
  double residual_share() const;
  /// Sum of `total` over all paths.
  Duration total_latency() const;
};

/// Analyze \p records (append order, as Recorder::records() returns them).
CriticalPathStats analyze_critical_path(const std::vector<Record>& records);

/// Convenience: analyze a recorder's window and fill truncated/dropped.
CriticalPathStats analyze_critical_path(const Recorder& recorder);

/// One named scenario for the latency report (BENCH_latency.json).
struct LatencyScenario {
  std::string name;
  /// Raw JSON object text for the "params" field, e.g. `{"n": 5}`.
  std::string params_json = "{}";
  CriticalPathStats stats;
};

/// Render the latency suite's `  "scenarios": [...]` member with
/// per-scenario end-to-end and per-phase summary statistics, coverage,
/// residual, and the dominant-phase distribution. Deterministic for a
/// deterministic run (fixed phase order, fixed float formatting,
/// virtual-time only).
std::string render_latency_scenarios(const std::vector<LatencyScenario>& scenarios);

}  // namespace gcs::obs
