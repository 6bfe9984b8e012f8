/// Schedule-explorer tests: fault-plan determinism and codec round-trips,
/// ddmin shrinking on synthetic predicates, the full planted-bug pipeline
/// (sweep finds the broken-fast-quorum violation, shrinks it to a handful
/// of steps, emits an artifact) and byte-exact replay of that artifact in a
/// fresh World.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "explore/artifact.hpp"
#include "explore/runner.hpp"
#include "explore/shrink.hpp"
#include "explore/sweep.hpp"
#include "sim/fault_plan.hpp"

namespace gcs {
namespace {

TEST(FaultPlan, GenerationIsDeterministic) {
  const sim::FaultPlan a = sim::FaultPlan::generate(7);
  const sim::FaultPlan b = sim::FaultPlan::generate(7);
  ASSERT_EQ(a.steps.size(), b.steps.size());
  EXPECT_EQ(a.steps, b.steps);
  EXPECT_EQ(a.digest(), b.digest());
  EXPECT_EQ(a.link.base_delay, b.link.base_delay);
  EXPECT_NE(a.digest(), sim::FaultPlan::generate(8).digest());
}

TEST(FaultPlan, StepsAreTimeOrderedAndInEnvelope) {
  int partial_gb_crashes = 0;
  for (std::uint64_t seed = 0; seed < 60; ++seed) {
    const sim::FaultPlan plan = sim::FaultPlan::generate(seed);
    ASSERT_EQ(plan.steps.size(), 60u);
    int crashes = 0;
    Duration prev = 0;
    for (const sim::FaultStep& s : plan.steps) {
      EXPECT_GE(s.at, prev);
      prev = s.at;
      EXPECT_GE(s.proc, 0);
      EXPECT_LT(s.proc, plan.options.n);
      if (s.op == sim::FaultOp::kCrash || s.op == sim::FaultOp::kLeaderCrash ||
          s.op == sim::FaultOp::kPartialCrash || s.op == sim::FaultOp::kPartialGbCrash) {
        ++crashes;
      }
      if (s.op == sim::FaultOp::kPartialGbCrash) {
        ++partial_gb_crashes;
        EXPECT_EQ(s.arg & (1ULL << s.proc), 0u) << "the origin is not its own receiver";
      }
      if (s.op == sim::FaultOp::kPartition) {
        EXPECT_EQ(__builtin_popcountll(s.arg), 2);  // minority pair
        EXPECT_GT(s.duration, 0);
      }
    }
    EXPECT_LE(crashes, plan.options.max_crashes);
  }
  EXPECT_GT(partial_gb_crashes, 0) << "60 plans never drew the gbcast partial crash";
}

TEST(FaultPlan, CodecRoundTrip) {
  const sim::FaultPlan plan = sim::FaultPlan::generate(42);
  Encoder enc;
  plan.encode(enc);
  const Bytes wire = enc.bytes();
  Decoder dec(wire);
  const sim::FaultPlan back = sim::FaultPlan::decode(dec);
  ASSERT_TRUE(dec.ok());
  EXPECT_TRUE(dec.at_end());
  EXPECT_EQ(back.seed, plan.seed);
  EXPECT_EQ(back.options, plan.options);
  EXPECT_EQ(back.link.base_delay, plan.link.base_delay);
  EXPECT_EQ(back.link.jitter, plan.link.jitter);
  EXPECT_EQ(back.link.drop_probability, plan.link.drop_probability);
  EXPECT_EQ(back.use_paxos, plan.use_paxos);
  EXPECT_EQ(back.settle, plan.settle);
  EXPECT_EQ(back.steps, plan.steps);
  EXPECT_EQ(back.digest(), plan.digest());
}

TEST(FaultPlan, StepRenderingCoversEveryOp) {
  // Every op kind renders through to_string without falling into the "?"
  // branch (artifact step listings rely on this).
  for (int op = 0; op < static_cast<int>(sim::FaultOp::kCount_); ++op) {
    sim::FaultStep s;
    s.op = static_cast<sim::FaultOp>(op);
    s.arg = 0b11;
    EXPECT_NE(s.to_string().find(sim::fault_op_name(s.op)), std::string::npos);
  }
}

TEST(RngStream, KeyedStreamsAreStableAndIndependent) {
  Rng a = Rng::stream(5, 1);
  Rng b = Rng::stream(5, 1);
  EXPECT_EQ(a.next_u64(), b.next_u64());  // same (seed, key) -> same stream
  // Consuming one stream must not perturb a fresh derivation of another.
  Rng c = Rng::stream(5, 2);
  for (int i = 0; i < 100; ++i) a.next_u64();
  Rng d = Rng::stream(5, 2);
  EXPECT_EQ(c.next_u64(), d.next_u64());
  EXPECT_NE(Rng::stream(5, 1).next_u64(), Rng::stream(5, 2).next_u64());
  EXPECT_NE(Rng::stream(5, 1).next_u64(), Rng::stream(6, 1).next_u64());
}

TEST(Shrink, FindsTheMinimalCulpritSet) {
  // Synthetic predicate: the "bug" needs steps 3 and 17 together.
  std::vector<std::uint32_t> keep(40);
  for (std::uint32_t i = 0; i < 40; ++i) keep[i] = i;
  int runs = 0;
  const auto fails = [&runs](const std::vector<std::uint32_t>& k) {
    ++runs;
    const bool has3 = std::find(k.begin(), k.end(), 3u) != k.end();
    const bool has17 = std::find(k.begin(), k.end(), 17u) != k.end();
    return has3 && has17;
  };
  explore::ShrinkStats stats;
  const auto minimal = explore::shrink(keep, fails, 500, &stats);
  EXPECT_EQ(minimal, (std::vector<std::uint32_t>{3, 17}));
  EXPECT_TRUE(stats.minimal);
  EXPECT_EQ(stats.runs, runs);
  EXPECT_LE(stats.runs, 500);
}

TEST(Shrink, SingleCulprit) {
  std::vector<std::uint32_t> keep(60);
  for (std::uint32_t i = 0; i < 60; ++i) keep[i] = i;
  const auto fails = [](const std::vector<std::uint32_t>& k) {
    return std::find(k.begin(), k.end(), 41u) != k.end();
  };
  EXPECT_EQ(explore::shrink(keep, fails, 500), (std::vector<std::uint32_t>{41}));
}

TEST(Shrink, RespectsBudget) {
  std::vector<std::uint32_t> keep(64);
  for (std::uint32_t i = 0; i < 64; ++i) keep[i] = i;
  int runs = 0;
  const auto fails = [&runs](const std::vector<std::uint32_t>& k) {
    ++runs;
    return k.size() >= 2;  // everything with >= 2 steps "fails"
  };
  explore::ShrinkStats stats;
  explore::shrink(keep, fails, 4, &stats);
  EXPECT_LE(runs, 4);
  EXPECT_FALSE(stats.minimal);  // gave up mid-ddmin, can't certify minimality
}

TEST(Explorer, HealthySeedsRunClean) {
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    const sim::FaultPlan plan = sim::FaultPlan::generate(seed);
    const explore::RunResult result = explore::run_plan(plan, explore::all_steps(plan));
    EXPECT_EQ(result.outcome, explore::Outcome::kClean) << "seed " << seed;
    EXPECT_GT(result.adeliveries, 0u) << "seed " << seed;
  }
}

TEST(Explorer, ViewChangeBatchProposesWithTheNewMembers) {
  // Two crashes (seed 8 of the generator's two-crash budget): a view change
  // decided in a batch whose earlier delivery made this member abcast used
  // to propose the next instance with the old member set, and Paxos then
  // wedged with the group split over who leads.
  sim::FaultPlanOptions options;
  options.max_crashes = 2;
  const sim::FaultPlan plan = sim::FaultPlan::generate(8, options);
  const explore::RunResult result = explore::run_plan(plan, explore::all_steps(plan));
  EXPECT_EQ(result.outcome, explore::Outcome::kClean);
}

TEST(Explorer, PullStalledMemberResolvesLikeTheOthers) {
  // Generic broadcast over O(n) dissemination: a member resolving a round
  // stalls on a pull when a payload has not reached it yet. Seeds 12 and
  // 30: a report adelivered during the stall used to join the stalled
  // round's tally, so that member resolved from more reports than the
  // others (gb.fast_path_stability, gb.conflict_order). Seed 141: the
  // others' reports of the next round, adelivered during the stall, were
  // dropped as stale, and the member never finished that round
  // (gb.agreement).
  for (const std::uint64_t seed : {12, 30, 141}) {
    const sim::FaultPlan plan = sim::FaultPlan::generate(seed);
    const explore::RunResult result = explore::run_plan(plan, explore::all_steps(plan));
    EXPECT_EQ(result.outcome, explore::Outcome::kClean) << "seed " << seed;
  }
}

TEST(Explorer, RunIsDeterministic) {
  const sim::FaultPlan plan = sim::FaultPlan::generate(3);
  const auto keep = explore::all_steps(plan);
  const explore::RunResult a = explore::run_plan(plan, keep);
  const explore::RunResult b = explore::run_plan(plan, keep);
  EXPECT_EQ(a.report_json, b.report_json);
  EXPECT_EQ(a.trace_tail, b.trace_tail);
  EXPECT_EQ(a.adeliveries, b.adeliveries);
}

TEST(Artifact, MalformedInputIsRejected) {
  EXPECT_FALSE(explore::parse_artifact("").has_value());
  EXPECT_FALSE(explore::parse_artifact("{}").has_value());
  EXPECT_FALSE(explore::parse_artifact("{\"schema\":\"nggcs.repro.v2\"}").has_value());
  EXPECT_FALSE(
      explore::parse_artifact("{\"schema\":\"nggcs.repro.v1\",\"plan_seed\":1}").has_value());
}

/// A rendered artifact whose field \p key holds the literal \p value.
std::string artifact_with(const std::string& key, const std::string& value) {
  explore::Artifact a;
  a.plan_seed = 1;
  a.keep = {0, 1};
  a.outcome = "violation";
  a.report_json = "{}";
  std::string json = explore::render_artifact(a);
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = json.find(needle) + needle.size();
  json.replace(at, json.find(",\n", at) - at, value);
  return json;
}

TEST(Artifact, IntegersAtTheirLimitsParse) {
  const auto seed = explore::parse_artifact(artifact_with("plan_seed", "18446744073709551615"));
  ASSERT_TRUE(seed.has_value());
  EXPECT_EQ(seed->plan_seed, 18446744073709551615ULL);

  const auto quorum = explore::parse_artifact(artifact_with("fast_quorum_override", "2147483647"));
  ASSERT_TRUE(quorum.has_value());
  EXPECT_EQ(quorum->fast_quorum_override, 2147483647);

  const auto keep = explore::parse_artifact(artifact_with("keep_steps", "[0,4294967295]"));
  ASSERT_TRUE(keep.has_value());
  EXPECT_EQ(keep->keep, (std::vector<std::uint32_t>{0, 4294967295U}));
}

TEST(Artifact, OutOfRangeIntegersAreRejected) {
  // Each would otherwise wrap or truncate into a different run: e.g. a
  // fast quorum of 4294967298 would replay with a planted quorum of 2.
  const std::pair<const char*, const char*> cases[] = {
      {"plan_seed", "18446744073709551616"},
      {"plan_seed", "99999999999999999999"},
      {"plan_n", "4294967301"},
      {"plan_steps", "2147483648"},
      {"fast_quorum_override", "4294967298"},
      {"keep_steps", "[0,4294967296]"},
      {"keep_steps", "[18446744073709551617]"},
  };
  for (const auto& [key, value] : cases) {
    EXPECT_FALSE(explore::parse_artifact(artifact_with(key, value)).has_value())
        << key << " = " << value;
  }
}

// The end-to-end satellite: a stack configured with the unsafe fast quorum
// (2 of 5, well below 2n/3) must be caught by the sweep, shrink to a
// handful of steps, and the repro artifact must replay byte-identically in
// a fresh run.
TEST(Explorer, PlantedFastQuorumBugIsFoundShrunkAndReplayed) {
  explore::SweepOptions options;
  options.begin = 0;
  options.end = 12;
  options.jobs = 2;
  options.run.fast_quorum_override = 2;  // the planted bug
  options.max_failures = 1;
  options.shrink_budget = 120;

  const explore::SweepResult swept = explore::sweep(options);
  ASSERT_FALSE(swept.failures.empty()) << "planted bug not found in 12 seeds";
  const explore::SweepFailure& failure = swept.failures.front();
  EXPECT_EQ(failure.outcome, explore::Outcome::kViolation);
  EXPECT_EQ(failure.first_violation, "gb.conflict_order");
  EXPECT_LE(failure.shrunk_keep.size(), 5u)
      << "shrinker left " << failure.shrunk_keep.size() << " steps";

  // Build the artifact exactly as the sweep would have written it.
  const sim::FaultPlan plan = sim::FaultPlan::generate(failure.seed, options.plan);
  const explore::RunResult minimized =
      explore::run_plan(plan, failure.shrunk_keep, options.run);
  EXPECT_EQ(minimized.outcome, explore::Outcome::kViolation);
  const explore::Artifact artifact =
      explore::make_artifact(plan, failure.shrunk_keep, options.run, minimized);
  const std::string json = explore::render_artifact(artifact);

  // Artifact round-trip: parse back every replay-relevant field.
  const auto parsed = explore::parse_artifact(json);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->plan_seed, plan.seed);
  EXPECT_EQ(parsed->plan_options, plan.options);
  EXPECT_EQ(parsed->plan_digest, plan.digest());
  EXPECT_EQ(parsed->fast_quorum_override, 2);
  EXPECT_EQ(parsed->keep, failure.shrunk_keep);
  EXPECT_EQ(parsed->outcome, "violation");
  EXPECT_EQ(parsed->report_json, minimized.report_json);
  EXPECT_EQ(parsed->trace_tail, minimized.trace_tail);

  // Replay from the artifact alone: regenerate the plan, re-run, and the
  // fresh scenario report must be byte-identical to the embedded one.
  const auto regenerated = explore::regenerate_plan(*parsed);
  ASSERT_TRUE(regenerated.has_value());
  explore::RunOptions replay_options;
  replay_options.fast_quorum_override = parsed->fast_quorum_override;
  const explore::RunResult replayed =
      explore::run_plan(*regenerated, parsed->keep, replay_options);
  EXPECT_EQ(replayed.outcome, explore::Outcome::kViolation);
  EXPECT_EQ(replayed.first_violation, parsed->first_violation);
  EXPECT_EQ(replayed.report_json, parsed->report_json) << "replay diverged from the artifact";
}

TEST(Explorer, CorrectQuorumSurvivesTheSameSchedules) {
  // Control for the planted-bug test: the very seeds that break the unsafe
  // override stay clean under the correct quorum formula.
  explore::SweepOptions options;
  options.begin = 0;
  options.end = 6;
  options.jobs = 2;
  const explore::SweepResult swept = explore::sweep(options);
  EXPECT_EQ(swept.seeds_run, 6u);
  EXPECT_TRUE(swept.failures.empty());
}

}  // namespace
}  // namespace gcs
