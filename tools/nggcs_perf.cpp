/// \file nggcs_perf.cpp
/// Perf-ledger CLI: diff fresh BENCH_*.json runs against committed
/// baselines under a tolerance table (DESIGN.md §13).
///
///   nggcs_perf diff --baseline DIR --fresh DIR
///                   [--tolerance-file FILE] [--report OUT.json]
///                   [--allow-missing] [--show-ok]
///   nggcs_perf show FILE.json
///
/// `diff` scans both directories for BENCH_*.json, flattens every suite
/// into one suite-prefixed metric map per side, and exits 1 when any gated
/// metric regressed beyond tolerance (CI's perf sentinel). A baseline file
/// with no fresh counterpart is itself a failure — a bench silently not
/// running must not pass — and so is a metric on one side only: missing
/// from the fresh run (unless --allow-missing) or absent from the baseline
/// (a stale baseline; commit the refreshed one). `show` prints one file's
/// flattened metrics (the exact identities the tolerance patterns match
/// against).
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "obs/perf_ledger.hpp"

namespace {

namespace fs = std::filesystem;
using gcs::obs::Ledger;

bool read_file(const fs::path& path, std::string& out) {
  std::ifstream is(path, std::ios::binary);
  if (!is) return false;
  std::ostringstream ss;
  ss << is.rdbuf();
  out = ss.str();
  return static_cast<bool>(is);
}

/// BENCH_*.json files in \p dir, name-sorted for deterministic output.
std::vector<fs::path> bench_files(const fs::path& dir) {
  std::vector<fs::path> files;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    if (name.rfind("BENCH_", 0) == 0 && name.size() > 5 &&
        name.substr(name.size() - 5) == ".json") {
      files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

/// Load every bench file in \p dir into one merged metric map. Returns
/// false (after printing the reason) on an unreadable or unparsable file.
bool load_dir(const fs::path& dir, std::map<std::string, double>& metrics,
              std::vector<std::string>& suites) {
  const auto files = bench_files(dir);
  if (files.empty()) {
    std::fprintf(stderr, "nggcs_perf: no BENCH_*.json files in %s\n", dir.string().c_str());
    return false;
  }
  for (const fs::path& file : files) {
    std::string text;
    if (!read_file(file, text)) {
      std::fprintf(stderr, "nggcs_perf: cannot read %s\n", file.string().c_str());
      return false;
    }
    Ledger ledger;
    std::string error;
    if (!gcs::obs::load_ledger(text, ledger, &error)) {
      std::fprintf(stderr, "nggcs_perf: %s: %s\n", file.string().c_str(), error.c_str());
      return false;
    }
    suites.push_back(ledger.suite);
    for (const auto& [path, value] : ledger.metrics) metrics[path] = value;
  }
  return true;
}

int cmd_show(const std::string& file) {
  std::string text;
  if (!read_file(file, text)) {
    std::fprintf(stderr, "nggcs_perf: cannot read %s\n", file.c_str());
    return 2;
  }
  Ledger ledger;
  std::string error;
  if (!gcs::obs::load_ledger(text, ledger, &error)) {
    std::fprintf(stderr, "nggcs_perf: %s: %s\n", file.c_str(), error.c_str());
    return 2;
  }
  std::printf("suite %s (schema %lld): %zu metrics\n", ledger.suite.c_str(),
              static_cast<long long>(ledger.schema), ledger.metrics.size());
  for (const auto& [path, value] : ledger.metrics) {
    std::printf("  %-72s %g\n", path.c_str(), value);
  }
  return 0;
}

int cmd_diff(int argc, char** argv) {
  std::string baseline_dir, fresh_dir, tolerance_file, report_path;
  gcs::obs::DiffOptions options;
  bool show_ok = false;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "nggcs_perf: %s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--baseline") baseline_dir = next("--baseline");
    else if (arg == "--fresh") fresh_dir = next("--fresh");
    else if (arg == "--tolerance-file") tolerance_file = next("--tolerance-file");
    else if (arg == "--report") report_path = next("--report");
    else if (arg == "--allow-missing") options.allow_missing = true;
    else if (arg == "--show-ok") show_ok = true;
    else {
      std::fprintf(stderr, "nggcs_perf: unknown option %s\n", arg.c_str());
      return 2;
    }
  }
  if (baseline_dir.empty() || fresh_dir.empty()) {
    std::fprintf(stderr, "nggcs_perf: diff needs --baseline DIR and --fresh DIR\n");
    return 2;
  }

  std::map<std::string, double> baseline, fresh;
  std::vector<std::string> baseline_suites, fresh_suites;
  if (!load_dir(baseline_dir, baseline, baseline_suites)) return 2;
  if (!load_dir(fresh_dir, fresh, fresh_suites)) return 2;
  for (const std::string& suite : baseline_suites) {
    if (std::find(fresh_suites.begin(), fresh_suites.end(), suite) == fresh_suites.end()) {
      std::fprintf(stderr,
                   "nggcs_perf: baseline suite \"%s\" has no fresh run — did the bench "
                   "fail to execute?\n",
                   suite.c_str());
      return 1;
    }
  }

  std::vector<gcs::obs::ToleranceRule> rules;
  if (!tolerance_file.empty()) {
    std::string text;
    if (!read_file(tolerance_file, text)) {
      std::fprintf(stderr, "nggcs_perf: cannot read %s\n", tolerance_file.c_str());
      return 2;
    }
    std::string error;
    if (!gcs::obs::parse_tolerance_file(text, rules, &error)) {
      std::fprintf(stderr, "nggcs_perf: %s: %s\n", tolerance_file.c_str(), error.c_str());
      return 2;
    }
  }

  const gcs::obs::LedgerDiff diff = gcs::obs::diff_ledgers(baseline, fresh, rules, options);
  std::fputs(gcs::obs::render_diff_table(diff, show_ok).c_str(), stdout);

  if (!report_path.empty()) {
    std::ofstream os(report_path, std::ios::binary | std::ios::trunc);
    if (!os) {
      std::fprintf(stderr, "nggcs_perf: cannot write %s\n", report_path.c_str());
      return 2;
    }
    os << gcs::obs::render_diff_json(diff);
  }
  return diff.ok() ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  nggcs_perf diff --baseline DIR --fresh DIR [--tolerance-file FILE]\n"
               "                  [--report OUT.json] [--allow-missing] [--show-ok]\n"
               "  nggcs_perf show FILE.json\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  if (cmd == "diff") return cmd_diff(argc, argv);
  if (cmd == "show") return argc == 3 ? cmd_show(argv[2]) : usage();
  return usage();
}
