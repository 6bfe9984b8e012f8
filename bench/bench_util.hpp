/// \file bench_util.hpp
/// Shared helpers for the experiment benchmarks and JSON perf suites.
///
/// Experiments run under VIRTUAL time: latencies and throughputs reported
/// in the tables are simulation-time quantities, which is what makes the
/// runs deterministic and the comparisons fair (identical link models,
/// identical workloads, identical seeds).
#pragma once

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/stack.hpp"
#include "obs/oracle.hpp"
#include "obs/report.hpp"
#include "util/metrics.hpp"

namespace gcs::bench {

inline Bytes payload_of(int i) {
  const std::string s = "msg-" + std::to_string(i);
  return Bytes(s.begin(), s.end());
}

/// Drive the engine until \p done or \p budget virtual time passed.
inline bool drive(sim::Engine& engine, Duration budget, const std::function<bool()>& done) {
  const TimePoint deadline = engine.now() + budget;
  while (!done()) {
    if (engine.now() > deadline) return false;
    if (!engine.step()) return done();
  }
  return true;
}

/// Pretty table printer: fixed-width columns from string cells.
class Table {
 public:
  explicit Table(std::vector<std::string> headers) : headers_(std::move(headers)) {}

  void add_row(std::vector<std::string> cells) { rows_.push_back(std::move(cells)); }

  void print() const {
    std::vector<std::size_t> widths(headers_.size());
    for (std::size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
    for (const auto& row : rows_) {
      for (std::size_t c = 0; c < row.size() && c < widths.size(); ++c) {
        widths[c] = std::max(widths[c], row[c].size());
      }
    }
    auto print_row = [&](const std::vector<std::string>& row) {
      std::printf("  ");
      for (std::size_t c = 0; c < row.size(); ++c) {
        std::printf("%-*s  ", static_cast<int>(widths[c]), row[c].c_str());
      }
      std::printf("\n");
    };
    print_row(headers_);
    std::vector<std::string> rule;
    for (auto w : widths) rule.push_back(std::string(w, '-'));
    print_row(rule);
    for (const auto& row : rows_) print_row(row);
  }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

inline std::string fmt_ms(double us_value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", us_value / 1000.0);
  return buf;
}
inline std::string fmt_ms(Duration us_value) { return fmt_ms(static_cast<double>(us_value)); }
inline std::string fmt_int(std::int64_t v) { return std::to_string(v); }
inline std::string fmt_pct(double fraction) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.0f%%", fraction * 100.0);
  return buf;
}
inline std::string fmt_double(double v, int digits = 2) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, v);
  return buf;
}

inline void banner(const std::string& title, const std::string& subtitle) {
  std::printf("\n=== %s ===\n%s\n\n", title.c_str(), subtitle.c_str());
}

/// ---- protocol-oracle gating (--oracle / NGGCS_BENCH_ORACLE=1) -------------
///
/// Benchmarks measure; the oracle certifies. Off by default, so the
/// measured hot path pays nothing beyond one null check per tap. When
/// enabled, every World wrapped in an OracleScope runs under obs::Oracle;
/// online safety violations are printed and flip the bench's exit status
/// to nonzero (CI's oracle sweep). Bench workloads routinely end
/// mid-flight, so only the online properties are checked — there is no
/// finalize-time agreement pass here.
struct OracleGate {
  static bool& enabled() {
    static bool on = std::getenv("NGGCS_BENCH_ORACLE") != nullptr;
    return on;
  }
  static int& violated_runs() {
    static int n = 0;
    return n;
  }
};

/// Per-process verdict, 1 iff any checked run violated.
inline int oracle_verdict() {
  if (!OracleGate::enabled()) return 0;
  if (OracleGate::violated_runs() > 0) {
    std::printf("\n[oracle] %d run(s) violated protocol safety\n",
                OracleGate::violated_runs());
    return 1;
  }
  std::printf("\n[oracle] all checked runs clean\n");
  return 0;
}

/// RAII oracle attachment for one World; construct right after the World
/// (so the scope dies first) and before found_group()/join().
class OracleScope {
 public:
  OracleScope(World& world, std::string label) : label_(std::move(label)) {
    if (!OracleGate::enabled()) return;
    oracle_ = std::make_unique<obs::Oracle>();
    world.attach_oracle(*oracle_);
  }
  ~OracleScope() {
    if (!oracle_ || oracle_->passed()) return;
    ++OracleGate::violated_runs();
    std::printf("[oracle] VIOLATIONS in %s:\n%s", label_.c_str(),
                oracle_->summary().c_str());
  }

  OracleScope(const OracleScope&) = delete;
  OracleScope& operator=(const OracleScope&) = delete;

 private:
  std::string label_;
  std::unique_ptr<obs::Oracle> oracle_;
};

/// Format a double for JSON: fixed with enough digits for ns-scale values,
/// trailing zeros trimmed.
inline std::string json_num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.4f", v);
  std::string s = buf;
  while (s.size() > 1 && s.back() == '0') s.pop_back();
  if (!s.empty() && s.back() == '.') s.pop_back();
  return s;
}

// -- JSON suites ----------------------------------------------------------------

/// A claim a suite makes about its own measurements. `data` holds the
/// values the claim rests on, as extra `"key": <JSON>` members of its entry
/// in the suite's `checks` block.
struct Check {
  std::string name;
  bool passed;
  std::string claim;
  std::vector<std::pair<std::string, std::string>> data = {};
};

/// What a suite's run produces: its top-level JSON members in order, each
/// rendered with its indent as `  "key": <JSON>`, and its checks.
struct SuiteReport {
  std::vector<std::string> members;
  std::vector<Check> checks;
};

/// The main() of every JSON suite. Recognizes `--json=PATH` (default
/// BENCH_<suite>.json) and `--oracle`, calls \p run, prints the checks and
/// writes `{"suite", "schema", <members>, "checks": [...]}`. Exits 1 when a
/// check fails or the report cannot be written, else with the oracle's
/// verdict.
inline int suite_main(int argc, char** argv, const std::string& suite,
                      const std::function<void(SuiteReport&)>& run) {
  std::string json_path = "BENCH_" + suite + ".json";
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--oracle") OracleGate::enabled() = true;
    if (arg.substr(0, 7) == "--json=") json_path = std::string(arg.substr(7));
  }
  SuiteReport report;
  run(report);

  std::printf("\n### checks\n\n");
  int failures = 0;
  for (const Check& c : report.checks) {
    std::printf("- %s %s: %s\n", c.passed ? "ok  " : "FAIL", c.name.c_str(), c.claim.c_str());
    failures += c.passed ? 0 : 1;
  }
  std::FILE* out = std::fopen(json_path.c_str(), "w");
  if (!out) {
    std::fprintf(stderr, "cannot open %s for writing\n", json_path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n  \"suite\": \"%s\",\n  \"schema\": 1,\n", suite.c_str());
  for (const std::string& member : report.members) std::fprintf(out, "%s,\n", member.c_str());
  std::fprintf(out, "  \"checks\": [");
  for (std::size_t i = 0; i < report.checks.size(); ++i) {
    const Check& c = report.checks[i];
    std::fprintf(out, "%s\n    {\"name\": \"%s\", \"passed\": %s", i ? "," : "", c.name.c_str(),
                 c.passed ? "true" : "false");
    for (const auto& [key, json] : c.data) {
      std::fprintf(out, ", \"%s\": %s", key.c_str(), json.c_str());
    }
    std::fprintf(out, "}");
  }
  std::fprintf(out, "\n  ]\n}\n");
  std::fclose(out);
  std::printf("\n  wrote %s\n", json_path.c_str());
  const int oracle_rc = oracle_verdict();
  return failures > 0 ? 1 : oracle_rc;
}

/// One per-phase latency histogram, merged across a World's members.
struct PhaseStats {
  std::size_t count = 0;
  double mean = 0;
  Duration p50 = 0;
  Duration p99 = 0;
  Duration max = 0;
};

inline PhaseStats merge_phase(World& world, int n, const std::string& name) {
  Histogram merged;
  for (ProcessId p = 0; p < n; ++p) {
    for (Duration s : world.stack(p).metrics().histogram(name).samples()) merged.add(s);
  }
  PhaseStats st;
  st.count = merged.count();
  if (merged.empty()) return st;
  st.mean = merged.mean();
  st.p50 = merged.percentile(50);
  st.p99 = merged.percentile(99);
  st.max = merged.max();
  return st;
}

inline std::string phase_json(const PhaseStats& st) {
  return "{\"count\": " + std::to_string(st.count) + ", \"mean_us\": " + json_num(st.mean) +
         ", \"p50_us\": " + std::to_string(st.p50) + ", \"p99_us\": " + std::to_string(st.p99) +
         ", \"max_us\": " + std::to_string(st.max) + "}";
}

inline std::int64_t sum_counter(World& world, int n, const std::string& name) {
  std::int64_t total = 0;
  for (ProcessId p = 0; p < n; ++p) total += world.stack(p).metrics().counter(name);
  return total;
}

/// The per-phase latency histograms every stack records:
///   channel.residence_us     time-in-channel (first transmit -> cum. ack)
///   consensus.latency_us     propose() -> decision, per instance
///   abcast.order_latency_us  rdelivered -> adelivered (ordering wait)
///   gbcast.fast_latency_us   payload seen -> fast-path delivery
///   gbcast.slow_latency_us   payload seen -> resolution delivery
inline const char* const kPhaseNames[] = {
    "channel.residence_us", "consensus.latency_us", "abcast.order_latency_us",
    "gbcast.fast_latency_us", "gbcast.slow_latency_us",
};

/// What a finished run's histograms and counters say, summed over members.
struct PhaseReport {
  std::map<std::string, PhaseStats> phases;
  std::int64_t gb_fast = 0;
  std::int64_t gb_resolved = 0;
  std::int64_t consensus_decided = 0;
  std::int64_t views_installed = 0;

  double fast_ratio() const {
    const std::int64_t total = gb_fast + gb_resolved;
    return total > 0 ? static_cast<double>(gb_fast) / static_cast<double>(total) : 0.0;
  }
  /// {"<phase>": {count, mean_us, p50_us, p99_us, max_us}, ...} on one line.
  std::string phases_json() const {
    std::string out;
    for (const char* phase : kPhaseNames) {
      out += std::string(out.empty() ? "{" : ", ") + "\"" + phase +
             "\": " + phase_json(phases.at(phase));
    }
    return out + "}";
  }
  std::string gb_json() const {
    return "{\"fast_delivered\": " + std::to_string(gb_fast) +
           ", \"resolved_delivered\": " + std::to_string(gb_resolved) +
           ", \"fast_ratio\": " + json_num(fast_ratio()) + "}";
  }
};

inline PhaseReport collect(World& world, int n) {
  PhaseReport r;
  for (const char* phase : kPhaseNames) r.phases[phase] = merge_phase(world, n, phase);
  r.gb_fast = sum_counter(world, n, "gbcast.fast_delivered");
  r.gb_resolved = sum_counter(world, n, "gbcast.resolved_delivered");
  r.consensus_decided = sum_counter(world, n, "consensus.decided");
  r.views_installed = sum_counter(world, n, "membership.views_installed");
  return r;
}

}  // namespace gcs::bench

// --------------------------------------------------------------------------
// Counting allocator: every path into the heap increments a counter, so a
// suite can report allocations per event or per delivery exactly. A binary
// opts in by defining NGGCS_BENCH_COUNTING_ALLOCATOR before including this
// header in exactly one translation unit; the replacement operator new and
// delete are then process-wide for that binary only.
// --------------------------------------------------------------------------
#ifdef NGGCS_BENCH_COUNTING_ALLOCATOR
#include <atomic>
#include <cstdint>
#include <new>

namespace {
std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::uint64_t> g_frees{0};

struct AllocSnapshot {
  std::uint64_t allocs;
  std::uint64_t frees;
};

AllocSnapshot alloc_snapshot() {
  return {g_allocs.load(std::memory_order_relaxed), g_frees.load(std::memory_order_relaxed)};
}

void* counted_alloc(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t size, std::size_t align) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  const std::size_t rounded = (size + align - 1) / align * align;
  if (void* p = std::aligned_alloc(align, rounded ? rounded : align)) return p;
  throw std::bad_alloc();
}

void counted_free(void* p) noexcept {
  if (!p) return;
  g_frees.fetch_add(1, std::memory_order_relaxed);
  std::free(p);
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }
void operator delete(void* p, std::align_val_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { counted_free(p); }
#endif  // NGGCS_BENCH_COUNTING_ALLOCATOR
