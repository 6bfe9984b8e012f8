/// \file bench_util.hpp
/// Shared helpers for the experiment benchmarks (E1..E7).
///
/// Experiments run under VIRTUAL time: latencies and throughputs reported
/// in the tables are simulation-time quantities, which is what makes the
/// runs deterministic and the comparisons fair (identical link models,
/// identical workloads, identical seeds).
#pragma once

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/stack.hpp"
#include "obs/oracle.hpp"
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

/// Call first thing in main(): recognizes --oracle.
inline void oracle_setup(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--oracle") OracleGate::enabled() = true;
  }
}

/// Call last in main(): per-process verdict, 1 iff any checked run violated.
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
/// (so the scope dies first) and before found_group()/join(). Pass
/// check=false for deliberately unsafe ablations (e.g. E8's sub-2n/3 fast
/// quorum) whose violations are the point, not a failure.
class OracleScope {
 public:
  OracleScope(World& world, std::string label, bool check = true)
      : label_(std::move(label)) {
    if (!OracleGate::enabled() || !check) return;
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

/// Escape a string for embedding in a JSON document (BENCH_*.json reports).
inline std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

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
