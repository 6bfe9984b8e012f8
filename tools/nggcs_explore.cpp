/// \file nggcs_explore.cpp
/// Deterministic schedule explorer CLI.
///
///   nggcs_explore --seeds 0:1000 [--jobs N] [--n N] [--steps N]
///                 [--max-crashes K] [--break-fast-quorum Q] [--out DIR]
///                 [--no-shrink] [--shrink-budget N] [--max-failures K]
///                 [--quiet]
///       Sweep the seed range, printing one line per failure. Exit 0 when
///       every schedule was oracle-clean and live, 1 when failures were
///       found, 2 on usage errors. --max-crashes sets the generator's crash
///       budget per plan (default 1; the runner still keeps a strict
///       majority alive).
///
///   nggcs_explore --run SEED [--n N] [--steps N] [--max-crashes K]
///                 [--break-fast-quorum Q]
///       Run one schedule verbosely (step listing + report summary).
///
///   nggcs_explore --replay repro.json
///       Re-execute a repro artifact from scratch and byte-compare the
///       fresh scenario report against the embedded one. Exit 0 iff the
///       failure reproduces identically.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>

#include "explore/artifact.hpp"
#include "explore/runner.hpp"
#include "explore/sweep.hpp"
#include "sim/fault_plan.hpp"

namespace {

using namespace gcs;

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --seeds A:B [--jobs N] [--n N] [--steps N]\n"
               "          [--max-crashes K] [--break-fast-quorum Q] [--out DIR]\n"
               "          [--no-shrink] [--shrink-budget N] [--max-failures K] [--quiet]\n"
               "       %s --run SEED [--n N] [--steps N] [--max-crashes K]\n"
               "          [--break-fast-quorum Q]\n"
               "       %s --replay repro.json\n",
               argv0, argv0, argv0);
  return 2;
}

bool parse_u64(const char* s, std::uint64_t* out) {
  if (!s || !*s) return false;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0') return false;
  *out = v;
  return true;
}

bool parse_int(const char* s, int* out) {
  std::uint64_t v = 0;
  if (!parse_u64(s, &v) || v > 1'000'000'000ULL) return false;
  *out = static_cast<int>(v);
  return true;
}

int replay(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) {
    std::fprintf(stderr, "replay: cannot read %s\n", path.c_str());
    return 2;
  }
  std::ostringstream buf;
  buf << is.rdbuf();
  const auto artifact = explore::parse_artifact(buf.str());
  if (!artifact) {
    std::fprintf(stderr, "replay: %s is not a valid nggcs.repro.v1 artifact\n", path.c_str());
    return 2;
  }
  const auto plan = explore::regenerate_plan(*artifact);
  if (!plan) {
    std::fprintf(stderr,
                 "replay: plan digest mismatch — the artifact predates a generator change\n");
    return 1;
  }
  std::printf("replay: seed %llu, %zu/%d steps kept, expected outcome %s\n",
              static_cast<unsigned long long>(artifact->plan_seed), artifact->keep.size(),
              plan->options.steps, artifact->outcome.c_str());

  explore::RunOptions run_options;
  run_options.fast_quorum_override = artifact->fast_quorum_override;
  const explore::RunResult result = explore::run_plan(*plan, artifact->keep, run_options);

  const bool outcome_match = std::string(explore::outcome_name(result.outcome)) == artifact->outcome;
  const bool report_match = result.report_json == artifact->report_json;
  std::printf("replay: outcome %s (%s), report %s\n",
              std::string(explore::outcome_name(result.outcome)).c_str(),
              outcome_match ? "match" : "MISMATCH",
              report_match ? "byte-identical" : "DIFFERS");
  if (!result.first_violation.empty()) {
    std::printf("replay: first violation %s\n", result.first_violation.c_str());
  }
  return outcome_match && report_match ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::optional<std::uint64_t> sweep_begin, sweep_end, run_seed;
  std::string replay_path, out_dir;
  sim::FaultPlanOptions plan_options;
  explore::RunOptions run_options;
  int jobs = 0, shrink_budget = 200;
  std::uint64_t max_failures = 4;
  bool do_shrink = true, quiet = false;

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    auto value = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (!std::strcmp(arg, "--seeds")) {
      const char* v = value();
      const char* colon = v ? std::strchr(v, ':') : nullptr;
      std::uint64_t a = 0, b = 0;
      if (!colon || !parse_u64(std::string(v, colon).c_str(), &a) || !parse_u64(colon + 1, &b) ||
          b <= a) {
        return usage(argv[0]);
      }
      sweep_begin = a;
      sweep_end = b;
    } else if (!std::strcmp(arg, "--run")) {
      std::uint64_t s = 0;
      if (!parse_u64(value(), &s)) return usage(argv[0]);
      run_seed = s;
    } else if (!std::strcmp(arg, "--replay")) {
      const char* v = value();
      if (!v) return usage(argv[0]);
      replay_path = v;
    } else if (!std::strcmp(arg, "--jobs")) {
      if (!parse_int(value(), &jobs)) return usage(argv[0]);
    } else if (!std::strcmp(arg, "--n")) {
      if (!parse_int(value(), &plan_options.n) || plan_options.n < 4 || plan_options.n > 16) {
        return usage(argv[0]);
      }
    } else if (!std::strcmp(arg, "--steps")) {
      if (!parse_int(value(), &plan_options.steps)) return usage(argv[0]);
    } else if (!std::strcmp(arg, "--max-crashes")) {
      if (!parse_int(value(), &plan_options.max_crashes) || plan_options.max_crashes < 0) {
        return usage(argv[0]);
      }
    } else if (!std::strcmp(arg, "--break-fast-quorum")) {
      if (!parse_int(value(), &run_options.fast_quorum_override)) return usage(argv[0]);
    } else if (!std::strcmp(arg, "--out")) {
      const char* v = value();
      if (!v) return usage(argv[0]);
      out_dir = v;
    } else if (!std::strcmp(arg, "--no-shrink")) {
      do_shrink = false;
    } else if (!std::strcmp(arg, "--shrink-budget")) {
      if (!parse_int(value(), &shrink_budget)) return usage(argv[0]);
    } else if (!std::strcmp(arg, "--max-failures")) {
      if (!parse_u64(value(), &max_failures)) return usage(argv[0]);
    } else if (!std::strcmp(arg, "--quiet")) {
      quiet = true;
    } else {
      return usage(argv[0]);
    }
  }

  if (!replay_path.empty()) return replay(replay_path);

  if (run_seed) {
    const sim::FaultPlan plan = sim::FaultPlan::generate(*run_seed, plan_options);
    std::printf("seed %llu: n=%d max_crashes=%d paxos=%d link(base=%lld us, jitter=%lld us, "
                "drop=%.4f)\n",
                static_cast<unsigned long long>(plan.seed), plan.options.n,
                plan.options.max_crashes,
                plan.use_paxos ? 1 : 0, static_cast<long long>(plan.link.base_delay),
                static_cast<long long>(plan.link.jitter), plan.link.drop_probability);
    for (const sim::FaultStep& step : plan.steps) {
      std::printf("  %s\n", step.to_string().c_str());
    }
    const explore::RunResult result = explore::run_plan(plan, explore::all_steps(plan), run_options);
    std::printf("outcome: %s (adeliveries=%llu, gdeliveries=%llu)\n",
                std::string(explore::outcome_name(result.outcome)).c_str(),
                static_cast<unsigned long long>(result.adeliveries),
                static_cast<unsigned long long>(result.gdeliveries));
    if (result.outcome == explore::Outcome::kViolation) {
      std::printf("violations: %s\n", result.violations_json.c_str());
    }
    return result.outcome == explore::Outcome::kClean ? 0 : 1;
  }

  if (!sweep_begin) return usage(argv[0]);

  explore::SweepOptions options;
  options.begin = *sweep_begin;
  options.end = *sweep_end;
  options.jobs = jobs;
  options.plan = plan_options;
  options.run = run_options;
  options.shrink = do_shrink;
  options.shrink_budget = shrink_budget;
  options.max_failures = max_failures;
  options.artifact_dir = out_dir;
  if (!quiet) {
    options.on_seed = [](std::uint64_t seed, explore::Outcome outcome) {
      if (outcome != explore::Outcome::kClean) {
        std::printf("seed %llu: %s\n", static_cast<unsigned long long>(seed),
                    std::string(explore::outcome_name(outcome)).c_str());
        std::fflush(stdout);
      }
    };
  }

  const explore::SweepResult result = explore::sweep(options);
  std::printf("swept %llu seeds [%llu:%llu): %zu failure(s)\n",
              static_cast<unsigned long long>(result.seeds_run),
              static_cast<unsigned long long>(options.begin),
              static_cast<unsigned long long>(options.end), result.failures.size());
  for (const explore::SweepFailure& f : result.failures) {
    std::printf("  seed %llu: %s%s%s, shrunk %zu -> %zu steps (%d runs)%s%s\n",
                static_cast<unsigned long long>(f.seed),
                std::string(explore::outcome_name(f.outcome)).c_str(),
                f.first_violation.empty() ? "" : " ", f.first_violation.c_str(),
                f.original_steps, f.shrunk_keep.size(), f.shrink_runs,
                f.artifact_path.empty() ? "" : " -> ", f.artifact_path.c_str());
  }
  return result.failures.empty() ? 0 : 1;
}
