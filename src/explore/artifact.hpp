/// \file artifact.hpp
/// Self-contained repro artifacts (schema "nggcs.repro.v1").
///
/// When the sweep finds a failing schedule it writes ONE JSON file that
/// holds everything a fresh process needs to reproduce and understand the
/// failure:
///   - the plan coordinates (seed + generation options) — the plan itself
///     is regenerated from them, which is sound because FaultPlan::generate
///     is a pure function; a digest of the regenerated plan is checked
///     against the recorded one so silent generator drift is caught loudly;
///   - the kept step indices (after shrinking) and their human renderings;
///   - the run options that were in effect (planted fast-quorum override);
///   - the oracle's violation records (machine-readable) and the observed
///     outcome / first violated property;
///   - the full deterministic scenario report and the flight-recorder
///     trace tail of the failing run, for byte-exact replay comparison and
///     post-mortem reading.
///
/// Replay (`nggcs_explore --replay file`) parses the artifact with
/// obs::parse_json, regenerates the plan, re-runs the kept steps and
/// byte-compares the fresh report against the embedded one.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "explore/runner.hpp"
#include "sim/fault_plan.hpp"

namespace gcs::explore {

struct Artifact {
  // Plan coordinates (enough to regenerate the exact plan).
  std::uint64_t plan_seed = 0;
  sim::FaultPlanOptions plan_options;
  std::uint64_t plan_digest = 0;
  // Run configuration.
  int fast_quorum_override = 0;
  // The (possibly shrunk) schedule.
  std::vector<std::uint32_t> keep;
  // Observed failure.
  std::string outcome;
  std::string first_violation;
  std::string violations_json;  ///< JSON array (embedded verbatim)
  std::string report_json;      ///< full scenario report (embedded as a string)
  std::string trace_tail;       ///< flight-recorder tail (embedded as a string)
};

/// Build the artifact for a failing (plan, keep, options, result) tuple.
Artifact make_artifact(const sim::FaultPlan& plan, const std::vector<std::uint32_t>& keep,
                       const RunOptions& options, const RunResult& result);

/// Render \p a as the v1 JSON document.
std::string render_artifact(const Artifact& a);

/// Parse a v1 artifact. Returns nullopt on malformed input (invalid JSON,
/// missing or out-of-range top-level field, wrong schema). Only the fields
/// replay needs are read; unknown fields are ignored.
std::optional<Artifact> parse_artifact(const std::string& json);

/// Regenerate the plan an artifact describes and verify its digest.
/// Returns nullopt when the regenerated plan's digest disagrees with the
/// recorded one (generator drift: the artifact predates a generator change).
std::optional<sim::FaultPlan> regenerate_plan(const Artifact& a);

}  // namespace gcs::explore
