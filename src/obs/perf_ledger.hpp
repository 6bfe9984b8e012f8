/// \file perf_ledger.hpp
/// Perf ledger: schema-stable flattening of the JSON bench suites plus a
/// baseline-diff engine with per-metric tolerance bands (DESIGN.md §13).
///
/// Every JSON bench (BENCH_kernel / BENCH_paper / BENCH_wire /
/// BENCH_latency / BENCH_pipeline) emits `{"suite": ..., "schema": 1,
/// ...}`. load_ledger() parses one such document (a minimal built-in JSON
/// parser — no external dependencies) and flattens every numeric leaf into
/// a dotted metric path prefixed by the suite name:
///
///   latency.scenarios.abcast_n5.end_to_end.mean_us = 1234.5
///   wire.cells.abcast_n5_b256.consensus_bytes_per_delivered = 18.2
///   kernel.results.timer_wheel.ns_per_event = 41.7
///
/// Array elements are labeled by their "name" member when present, by
/// their identifying members (layer / scenario / n / payload_bytes) when
/// not, and by index as a last resort — so adding a cell to a bench never
/// shifts the identity of existing metrics. Booleans flatten to 0/1 (so
/// "did the check pass" is diffable); strings are identity, not data, and
/// are skipped.
///
/// diff_ledgers() compares a fresh run against a committed baseline under
/// a tolerance table: each rule is a glob pattern with a direction (is
/// bigger worse, smaller worse, either, or informational) and relative +
/// absolute slack. Unmatched metrics are informational by default — only
/// deliberately enumerated, deterministic metrics gate CI, so wall-clock
/// kernel numbers can ride along without flaking. Metrics present in the
/// baseline but missing from the fresh run are regressions (a bench
/// silently dropping a scenario must not pass), and so are metrics present
/// only in the fresh run (a change that adds a metric commits the refreshed
/// baseline, so a stale baseline cannot pass).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace gcs::obs {

// -- minimal JSON ------------------------------------------------------------

/// Parsed JSON value (enough of a DOM for the ledger and tools; object
/// member order is preserved for deterministic labeling).
struct JsonValue {
  enum class Type : std::uint8_t { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;
  /// A number written as a non-negative integer that fits in 64 bits, held
  /// exactly (`number` rounds above 2^53).
  std::optional<std::uint64_t> exact_uint;

  /// First member with \p key, or nullptr (objects only).
  const JsonValue* find(std::string_view key) const;
  /// The exact unsigned integer, or nullopt when this is not one or it
  /// exceeds \p max.
  std::optional<std::uint64_t> as_uint(std::uint64_t max) const;
};

/// Parse \p text (RFC 8259; containers nest at most 256 deep) into \p out.
/// On failure returns false and, when \p error is non-null, stores a
/// message with the byte offset.
bool parse_json(std::string_view text, JsonValue& out, std::string* error = nullptr);

// -- ledgers -----------------------------------------------------------------

/// One bench suite's numeric results, flattened.
struct Ledger {
  std::string suite;
  std::int64_t schema = 0;
  std::map<std::string, double> metrics;  // dotted path (suite-prefixed) -> value
};

/// Parse + flatten one bench JSON document.
bool load_ledger(std::string_view json_text, Ledger& out, std::string* error = nullptr);

// -- tolerance rules ---------------------------------------------------------

/// Which direction of change is a regression.
enum class ToleranceDir : std::uint8_t {
  kUp,    ///< bigger is worse (latency, bytes)
  kDown,  ///< smaller is worse (coverage, deliveries, checks passed)
  kBoth,  ///< any drift beyond tolerance is worse (determinism guards)
  kInfo,  ///< never a regression; report the delta only
};

/// One tolerance rule: `pattern` is a glob ('*' matches any run of
/// characters, '.' is literal); first matching rule wins.
struct ToleranceRule {
  std::string pattern;
  ToleranceDir dir = ToleranceDir::kInfo;
  double rel_tol = 0.0;  ///< allowed |delta| as a fraction of |baseline|
  double abs_tol = 0.0;  ///< allowed |delta| floor (guards near-zero baselines)
};

/// Glob match with '*' wildcards (no escapes; '?' is literal).
bool glob_match(std::string_view pattern, std::string_view text);

/// Parse a tolerance file: one rule per line,
///   `<pattern> <up|down|both|info> <rel_tol> [abs_tol]`
/// '#' starts a comment; blank lines are skipped. Returns false (with
/// \p error) on a malformed line. Rules keep file order (first match wins).
bool parse_tolerance_file(std::string_view text, std::vector<ToleranceRule>& out,
                          std::string* error = nullptr);

// -- diffing -----------------------------------------------------------------

/// Verdict for one metric.
enum class DeltaKind : std::uint8_t {
  kOk,          ///< within tolerance (or info-only)
  kRegression,  ///< out of tolerance in the gated direction
  kImproved,    ///< out of tolerance in the *good* direction
  kNew,         ///< present only in the fresh run (stale baseline)
  kMissing,     ///< present only in the baseline
};

struct MetricDelta {
  std::string metric;
  double baseline = 0.0;
  double fresh = 0.0;
  double delta = 0.0;      // fresh - baseline
  double rel_delta = 0.0;  // delta / |baseline| (0 when baseline == 0)
  DeltaKind kind = DeltaKind::kOk;
  ToleranceDir dir = ToleranceDir::kInfo;  // rule that judged it
  bool gated = false;                      // a non-info rule matched
};

struct LedgerDiff {
  std::vector<MetricDelta> deltas;  // metric-name order, every metric seen
  std::size_t checked = 0;          // metrics present on both sides
  std::size_t regressions = 0;
  std::size_t improved = 0;
  std::size_t added = 0;  // fresh-only metrics: the baseline is stale
  std::size_t missing = 0;
  bool ok() const { return regressions == 0 && added == 0; }
};

struct DiffOptions {
  /// Downgrade baseline-only metrics from regression to informational
  /// (deliberate bench removals, migrations).
  bool allow_missing = false;
};

/// Diff \p fresh against \p baseline under \p rules. Both maps use the
/// flattened suite-prefixed metric paths, so ledgers from several suites
/// can be merged into one map before diffing.
LedgerDiff diff_ledgers(const std::map<std::string, double>& baseline,
                        const std::map<std::string, double>& fresh,
                        const std::vector<ToleranceRule>& rules,
                        const DiffOptions& options = {});

/// Render the diff as an aligned text table (regressions first), ending in
/// a one-line verdict. \p show_ok includes in-tolerance rows.
std::string render_diff_table(const LedgerDiff& diff, bool show_ok);

/// Render the diff as a JSON report (`{"suite": "perf_delta", ...}`) for
/// CI artifacts.
std::string render_diff_json(const LedgerDiff& diff);

}  // namespace gcs::obs
