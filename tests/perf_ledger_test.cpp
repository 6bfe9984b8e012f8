/// \file perf_ledger_test.cpp
/// Perf ledger: JSON parsing, schema-stable flattening (array labels from
/// "name" / identifying members / index), glob + tolerance-file parsing,
/// and the diff verdicts the CI perf sentinel gates on.
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/perf_ledger.hpp"

namespace gcs::obs {
namespace {

TEST(PerfLedgerJson, ParsesScalarsContainersAndEscapes) {
  JsonValue v;
  std::string error;
  ASSERT_TRUE(parse_json(
      R"({"a": 1.5, "b": [true, false, null], "s": "x\ny", "o": {"k": -2e3}})", v,
      &error))
      << error;
  ASSERT_EQ(v.type, JsonValue::Type::kObject);
  EXPECT_DOUBLE_EQ(v.find("a")->number, 1.5);
  ASSERT_EQ(v.find("b")->array.size(), 3u);
  EXPECT_TRUE(v.find("b")->array[0].boolean);
  EXPECT_EQ(v.find("b")->array[2].type, JsonValue::Type::kNull);
  EXPECT_EQ(v.find("s")->str, "x\ny");
  EXPECT_DOUBLE_EQ(v.find("o")->find("k")->number, -2000.0);
}

TEST(PerfLedgerJson, RejectsMalformedInput) {
  JsonValue v;
  std::string error;
  EXPECT_FALSE(parse_json(R"({"a": })", v, &error));
  EXPECT_FALSE(parse_json(R"({"a": 1)", v, &error));
  EXPECT_FALSE(parse_json(R"([1, 2] trailing)", v, &error));
  EXPECT_FALSE(error.empty());
}

TEST(PerfLedgerJson, RejectsNumbersOutsideTheRfcGrammar) {
  JsonValue v;
  for (const char* bad : {"[1-2]", "[1.2.3]", "[+5]", "[01]", "[1e]", "[-]", "[1.]", "[.5]",
                          "[1e+]", "[--1]"}) {
    std::string error;
    EXPECT_FALSE(parse_json(bad, v, &error)) << bad;
    EXPECT_NE(error.find("at offset"), std::string::npos) << bad << ": " << error;
  }
  for (const char* good : {"[0]", "[-0]", "[0.5]", "[-12.25e+2]", "[1E3]", "[7e-1]"}) {
    std::string error;
    EXPECT_TRUE(parse_json(good, v, &error)) << good << ": " << error;
  }
  ASSERT_TRUE(parse_json("[-12.25e+2]", v));
  EXPECT_DOUBLE_EQ(v.array[0].number, -1225.0);
}

TEST(PerfLedgerJson, DeepNestingFailsWithOffsetInsteadOfCrashing) {
  JsonValue v;
  std::string error;
  const std::string deep(200000, '[');
  EXPECT_FALSE(parse_json(deep, v, &error));
  EXPECT_NE(error.find("nesting deeper than 256 at offset"), std::string::npos) << error;
  // The cap leaves room for any document the benches write.
  const std::string nested = std::string(200, '[') + std::string(200, ']');
  EXPECT_TRUE(parse_json(nested, v, &error)) << error;
}

TEST(PerfLedgerJson, UnsignedIntegersAreExact) {
  JsonValue v;
  ASSERT_TRUE(parse_json(
      "[18446744073709551615, 18446744073709551616, 9007199254740993, -1, 1.0, 1e3, 0]", v));
  EXPECT_EQ(v.array[0].as_uint(UINT64_MAX), 18446744073709551615ULL);
  EXPECT_FALSE(v.array[1].as_uint(UINT64_MAX).has_value());  // overflows 64 bits
  EXPECT_EQ(v.array[2].as_uint(UINT64_MAX), 9007199254740993ULL);  // 2^53 + 1
  EXPECT_FALSE(v.array[2].as_uint(9007199254740992ULL).has_value());  // above max
  EXPECT_FALSE(v.array[3].as_uint(UINT64_MAX).has_value());
  EXPECT_FALSE(v.array[4].as_uint(UINT64_MAX).has_value());
  EXPECT_FALSE(v.array[5].as_uint(UINT64_MAX).has_value());
  EXPECT_EQ(v.array[6].as_uint(0), 0u);
}

TEST(PerfLedgerFlatten, SuitePrefixNamedElementsAndBools) {
  Ledger ledger;
  std::string error;
  ASSERT_TRUE(load_ledger(
      R"({"suite": "kernel", "schema": 1,
          "results": [
            {"name": "timer wheel", "ns_per_event": 41.7, "allocs": 0},
            {"name": "arena", "ns_per_event": 12.5}
          ],
          "checks": {"steady_state_zero_alloc": true},
          "note": "strings are identity, not data"})",
      ledger, &error))
      << error;
  EXPECT_EQ(ledger.suite, "kernel");
  EXPECT_EQ(ledger.schema, 1);
  // "timer wheel" sanitizes to timer_wheel; labels come from "name".
  EXPECT_DOUBLE_EQ(ledger.metrics.at("kernel.results.timer_wheel.ns_per_event"), 41.7);
  EXPECT_DOUBLE_EQ(ledger.metrics.at("kernel.results.arena.ns_per_event"), 12.5);
  EXPECT_DOUBLE_EQ(ledger.metrics.at("kernel.checks.steady_state_zero_alloc"), 1.0);
  // The string member produced no metric.
  EXPECT_EQ(ledger.metrics.count("kernel.note"), 0u);
}

TEST(PerfLedgerFlatten, IdentifyingMembersLabelWireCells) {
  Ledger ledger;
  std::string error;
  ASSERT_TRUE(load_ledger(
      R"({"suite": "wire",
          "cells": [
            {"layer": "abcast", "n": 5, "payload_bytes": 256, "bytes_per_delivered": 18.2},
            {"plain": 1, "unlabeled": 2.0}
          ]})",
      ledger, &error))
      << error;
  // Identity = layer + n + payload_bytes, so adding a cell never renames
  // existing metrics; elements with no id members fall back to index.
  EXPECT_DOUBLE_EQ(ledger.metrics.at("wire.cells.abcast_n5_b256.bytes_per_delivered"), 18.2);
  EXPECT_DOUBLE_EQ(ledger.metrics.at("wire.cells.1.plain"), 1.0);
}

TEST(PerfLedgerFlatten, DuplicateLabelsDisambiguatedByIndex) {
  Ledger ledger;
  std::string error;
  ASSERT_TRUE(load_ledger(
      R"({"suite": "p", "s": [{"name": "x", "v": 1}, {"name": "x", "v": 2}]})", ledger,
      &error))
      << error;
  // First keeps its plain identity; the collider gets an index suffix.
  EXPECT_DOUBLE_EQ(ledger.metrics.at("p.s.x.v"), 1.0);
  EXPECT_DOUBLE_EQ(ledger.metrics.at("p.s.x_1.v"), 2.0);
}

TEST(PerfLedgerFlatten, RequiresSuite) {
  Ledger ledger;
  std::string error;
  EXPECT_FALSE(load_ledger(R"({"schema": 1, "x": 2})", ledger, &error));
  EXPECT_NE(error.find("suite"), std::string::npos);
}

TEST(PerfLedgerGlob, StarWildcards) {
  EXPECT_TRUE(glob_match("latency.*.coverage", "latency.scenarios.abcast_n5.coverage"));
  EXPECT_TRUE(glob_match("*", "anything.at.all"));
  EXPECT_TRUE(glob_match("wire.*.fastpath_*", "wire.cells.x.fastpath_alloc_check"));
  EXPECT_FALSE(glob_match("latency.*.coverage", "latency.scenarios.abcast_n5.deliveries"));
  EXPECT_FALSE(glob_match("abc", "abcd"));
  EXPECT_TRUE(glob_match("abc*", "abc"));
}

TEST(PerfLedgerTolerance, ParsesRulesCommentsAndErrors) {
  std::vector<ToleranceRule> rules;
  std::string error;
  ASSERT_TRUE(parse_tolerance_file(
      "# gate latency means\n"
      "latency.*.mean_us up 0.15\n"
      "latency.*.coverage down 0.02 0.005  # abs floor\n"
      "\n"
      "* info 0\n",
      rules, &error))
      << error;
  ASSERT_EQ(rules.size(), 3u);
  EXPECT_EQ(rules[0].dir, ToleranceDir::kUp);
  EXPECT_DOUBLE_EQ(rules[0].rel_tol, 0.15);
  EXPECT_DOUBLE_EQ(rules[0].abs_tol, 0.0);
  EXPECT_EQ(rules[1].dir, ToleranceDir::kDown);
  EXPECT_DOUBLE_EQ(rules[1].abs_tol, 0.005);
  EXPECT_EQ(rules[2].dir, ToleranceDir::kInfo);

  std::vector<ToleranceRule> bad;
  EXPECT_FALSE(parse_tolerance_file("latency.x sideways 0.1\n", bad, &error));
  EXPECT_NE(error.find("direction"), std::string::npos);
  EXPECT_FALSE(parse_tolerance_file("latency.x up\n", bad, &error));
}

std::vector<ToleranceRule> gating_rules() {
  std::vector<ToleranceRule> rules;
  std::string error;
  EXPECT_TRUE(parse_tolerance_file(
      "latency.mean_us up 0.10\n"
      "latency.coverage down 0.02\n"
      "latency.drift both 0 0.5\n",
      rules, &error))
      << error;
  return rules;
}

TEST(PerfLedgerDiff, WithinToleranceIsOk) {
  const LedgerDiff diff = diff_ledgers({{"latency.mean_us", 100.0}},
                                       {{"latency.mean_us", 105.0}}, gating_rules());
  ASSERT_EQ(diff.deltas.size(), 1u);
  EXPECT_EQ(diff.deltas[0].kind, DeltaKind::kOk);
  EXPECT_TRUE(diff.deltas[0].gated);
  EXPECT_TRUE(diff.ok());
}

TEST(PerfLedgerDiff, RegressionInGatedDirection) {
  const LedgerDiff diff = diff_ledgers({{"latency.mean_us", 100.0}},
                                       {{"latency.mean_us", 120.0}}, gating_rules());
  ASSERT_EQ(diff.deltas.size(), 1u);
  EXPECT_EQ(diff.deltas[0].kind, DeltaKind::kRegression);
  EXPECT_DOUBLE_EQ(diff.deltas[0].rel_delta, 0.2);
  EXPECT_FALSE(diff.ok());
}

TEST(PerfLedgerDiff, OutOfBandInGoodDirectionIsImproved) {
  // mean_us gates "up": a 20% drop is out of band but in the good direction.
  const LedgerDiff up = diff_ledgers({{"latency.mean_us", 100.0}},
                                     {{"latency.mean_us", 80.0}}, gating_rules());
  EXPECT_EQ(up.deltas[0].kind, DeltaKind::kImproved);
  EXPECT_TRUE(up.ok());
  // coverage gates "down": a drop beyond 2% is a regression.
  const LedgerDiff down = diff_ledgers({{"latency.coverage", 0.99}},
                                       {{"latency.coverage", 0.90}}, gating_rules());
  EXPECT_EQ(down.deltas[0].kind, DeltaKind::kRegression);
  EXPECT_FALSE(down.ok());
}

TEST(PerfLedgerDiff, BothDirectionUsesAbsFloor) {
  // drift gates "both" with abs_tol 0.5 around a zero baseline.
  EXPECT_TRUE(diff_ledgers({{"latency.drift", 0.0}}, {{"latency.drift", 0.4}},
                           gating_rules())
                  .ok());
  EXPECT_FALSE(diff_ledgers({{"latency.drift", 0.0}}, {{"latency.drift", 0.6}},
                            gating_rules())
                   .ok());
}

TEST(PerfLedgerDiff, UnmatchedMetricIsInformational) {
  // No rule matches: huge drift, still ok (only enumerated metrics gate).
  const LedgerDiff diff = diff_ledgers({{"kernel.ns_per_event", 10.0}},
                                       {{"kernel.ns_per_event", 1000.0}}, gating_rules());
  EXPECT_EQ(diff.deltas[0].kind, DeltaKind::kOk);
  EXPECT_FALSE(diff.deltas[0].gated);
  EXPECT_TRUE(diff.ok());
}

TEST(PerfLedgerDiff, MissingMetricFailsUnlessAllowed) {
  const std::map<std::string, double> baseline{{"latency.mean_us", 100.0}};
  const std::map<std::string, double> fresh{};
  const LedgerDiff strict = diff_ledgers(baseline, fresh, gating_rules());
  ASSERT_EQ(strict.deltas.size(), 1u);
  EXPECT_EQ(strict.deltas[0].kind, DeltaKind::kMissing);
  EXPECT_FALSE(strict.ok());

  DiffOptions options;
  options.allow_missing = true;
  const LedgerDiff relaxed = diff_ledgers(baseline, fresh, gating_rules(), options);
  EXPECT_EQ(relaxed.deltas[0].kind, DeltaKind::kMissing);
  EXPECT_TRUE(relaxed.ok());
}

TEST(PerfLedgerDiff, NewMetricFails) {
  // A fresh-only metric means the committed baseline is stale; it fails
  // even under allow_missing, and whether or not a rule gates it.
  DiffOptions options;
  options.allow_missing = true;
  for (const char* metric : {"latency.mean_us", "kernel.ns_per_event"}) {
    const LedgerDiff diff = diff_ledgers({}, {{metric, 100.0}}, gating_rules(), options);
    ASSERT_EQ(diff.deltas.size(), 1u);
    EXPECT_EQ(diff.deltas[0].kind, DeltaKind::kNew);
    EXPECT_EQ(diff.added, 1u);
    EXPECT_FALSE(diff.ok()) << metric;
    EXPECT_NE(render_diff_table(diff, false).find("1 new"), std::string::npos);
  }
}

TEST(PerfLedgerDiff, RendersTableAndJsonReport) {
  const LedgerDiff diff = diff_ledgers({{"latency.mean_us", 100.0}},
                                       {{"latency.mean_us", 120.0}}, gating_rules());
  const std::string table = render_diff_table(diff, /*show_ok=*/false);
  EXPECT_NE(table.find("REGRESSION"), std::string::npos);
  EXPECT_NE(table.find("FAIL"), std::string::npos);

  const std::string json = render_diff_json(diff);
  EXPECT_NE(json.find("\"suite\": \"perf_delta\""), std::string::npos);
  EXPECT_NE(json.find("\"ok\": false"), std::string::npos);
  EXPECT_NE(json.find("latency.mean_us"), std::string::npos);

  // Round-trip: the delta report is itself a loadable ledger.
  Ledger ledger;
  std::string error;
  ASSERT_TRUE(load_ledger(json, ledger, &error)) << error;
  EXPECT_EQ(ledger.suite, "perf_delta");
}

}  // namespace
}  // namespace gcs::obs
