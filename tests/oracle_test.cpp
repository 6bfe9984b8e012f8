/// Tests for the omniscient protocol oracle (obs/oracle.hpp): a clean event
/// stream passes every property, and for EACH property a minimal corrupted
/// stream trips exactly the right verdict. The final tests sabotage a real
/// stack (GB fast quorum below 2n/3) and check the oracle catches the
/// resulting ordering violation end to end.
#include <gtest/gtest.h>

#include "core/stack.hpp"
#include "obs/oracle.hpp"
#include "obs/report.hpp"
#include "tests/test_util.hpp"

namespace gcs {
namespace {

using obs::Oracle;
using obs::Property;
using obs::Verdict;
using test::bytes_of;

MsgId mid(ProcessId sender, std::uint64_t seq) { return MsgId{sender, seq}; }

/// Feed a minimal healthy run: one view, one abcast, one gbcast, delivered
/// consistently at both members.
void feed_clean(Oracle& o) {
  o.on_view_install(0, 0, {0, 1}, false);
  o.on_view_install(1, 0, {0, 1}, false);
  const MsgId a = mid(0, 1);
  o.on_abcast_submit(0, a);
  o.on_adeliver(0, a, 0, /*instance=*/0, /*index=*/0);
  o.on_adeliver(1, a, 0, 0, 0);
  const MsgId g = mid(1, 1);
  o.on_gb_submit(1, g, 0);
  o.on_gdeliver(0, g, 0, /*round=*/0, /*fast=*/true, 0);
  o.on_gdeliver(1, g, 0, 0, true, 0);
  const MsgId r = mid(0, 2);
  o.on_rb_broadcast(0, 3, r);
  o.on_rb_deliver(0, 3, r);
  o.on_rb_deliver(1, 3, r);
}

TEST(Oracle, CleanStreamPassesEveryProperty) {
  Oracle o;
  feed_clean(o);
  // Finalize-only properties are reported as not-checked until finalize().
  EXPECT_EQ(o.verdict(Property::kAbUniformAgreement), Verdict::kNotChecked);
  o.finalize();
  EXPECT_TRUE(o.passed()) << o.summary();
  for (std::size_t i = 0; i < obs::kPropertyCount; ++i) {
    EXPECT_EQ(o.verdict(static_cast<Property>(i)), Verdict::kPass)
        << obs::property_name(static_cast<Property>(i));
  }
  EXPECT_EQ(o.stats().adeliveries, 2u);
  EXPECT_EQ(o.stats().gdeliveries, 2u);
  EXPECT_EQ(o.stats().rb_deliveries, 2u);
  EXPECT_EQ(o.stats().view_installs, 2u);
}

TEST(Oracle, AbTotalOrderCoordinateDisagreement) {
  Oracle o;
  const MsgId m1 = mid(0, 1), m2 = mid(1, 1);
  o.on_abcast_submit(0, m1);
  o.on_abcast_submit(1, m2);
  // Two processes disagree about element 0 of consensus instance 0.
  o.on_adeliver(0, m1, 0, 0, 0);
  o.on_adeliver(1, m2, 0, 0, 0);
  EXPECT_EQ(o.verdict(Property::kAbTotalOrder), Verdict::kViolated);
  EXPECT_GE(o.violation_count(Property::kAbTotalOrder), 1u);
  EXPECT_FALSE(o.passed());
}

TEST(Oracle, AbTotalOrderRegressionWithinProcess) {
  Oracle o;
  const MsgId m1 = mid(0, 1), m2 = mid(0, 2);
  o.on_abcast_submit(0, m1);
  o.on_abcast_submit(0, m2);
  o.on_adeliver(0, m2, 0, /*instance=*/1, 0);
  o.on_adeliver(0, m1, 0, /*instance=*/0, 0);  // walks backwards
  EXPECT_EQ(o.verdict(Property::kAbTotalOrder), Verdict::kViolated);
}

TEST(Oracle, AbNoDuplication) {
  Oracle o;
  const MsgId m = mid(0, 1);
  o.on_abcast_submit(0, m);
  o.on_adeliver(0, m, 0, 0, 0);
  o.on_adeliver(0, m, 0, 1, 0);
  EXPECT_EQ(o.verdict(Property::kAbNoDuplication), Verdict::kViolated);
}

TEST(Oracle, AbNoCreation) {
  Oracle o;
  o.on_adeliver(0, mid(7, 9), 0, 0, 0);  // never submitted
  EXPECT_EQ(o.verdict(Property::kAbNoCreation), Verdict::kViolated);
}

TEST(Oracle, AbUniformAgreementCatchesMissingDelivery) {
  Oracle o;
  o.on_view_install(0, 0, {0, 1}, false);
  o.on_view_install(1, 0, {0, 1}, false);
  const MsgId m = mid(0, 1);
  o.on_abcast_submit(0, m);
  o.on_adeliver(0, m, 0, 0, 0);  // p1 never delivers
  o.finalize();
  EXPECT_EQ(o.verdict(Property::kAbUniformAgreement), Verdict::kViolated);
}

TEST(Oracle, CrashedProcessExemptFromAgreement) {
  Oracle o;
  o.on_view_install(0, 0, {0, 1}, false);
  o.on_view_install(1, 0, {0, 1}, false);
  const MsgId m = mid(0, 1);
  o.on_abcast_submit(0, m);
  o.on_adeliver(0, m, 0, 0, 0);
  o.note_crash(1);  // p1's missing delivery is excused
  o.finalize();
  EXPECT_TRUE(o.passed()) << o.summary();
}

TEST(Oracle, RbIntegrity) {
  Oracle o;
  o.on_rb_deliver(0, 3, mid(2, 5));  // never broadcast
  EXPECT_EQ(o.verdict(Property::kRbIntegrity), Verdict::kViolated);
}

TEST(Oracle, RbNoDuplication) {
  Oracle o;
  const MsgId m = mid(0, 1);
  o.on_rb_broadcast(0, 3, m);
  o.on_rb_deliver(1, 3, m);
  o.on_rb_deliver(1, 3, m);
  EXPECT_EQ(o.verdict(Property::kRbNoDuplication), Verdict::kViolated);
  // Distinct tags are distinct rbcast instances: no cross-tag dup.
  Oracle o2;
  o2.on_rb_broadcast(0, 3, m);
  o2.on_rb_broadcast(0, 4, m);
  o2.on_rb_deliver(1, 3, m);
  o2.on_rb_deliver(1, 4, m);
  EXPECT_EQ(o2.verdict(Property::kRbNoDuplication), Verdict::kPass);
}

TEST(Oracle, GbConflictingPairBothFastInOneRound) {
  Oracle o;
  o.set_conflicts([](std::uint8_t, std::uint8_t) { return true; });
  const MsgId m1 = mid(0, 1), m2 = mid(1, 1);
  o.on_gb_submit(0, m1, 1);
  o.on_gb_submit(1, m2, 1);
  // The quorum-intersection failure: both fast-delivered in round 0.
  o.on_gdeliver(0, m1, 1, 0, true, 0);
  o.on_gdeliver(1, m2, 1, 0, true, 0);
  EXPECT_EQ(o.verdict(Property::kGbConflictOrder), Verdict::kViolated);
}

TEST(Oracle, GbFastPathStabilityRoundDisagreement) {
  Oracle o;
  const MsgId m = mid(0, 1);
  o.on_gb_submit(0, m, 0);
  o.on_gdeliver(0, m, 0, /*round=*/0, true, 0);
  o.on_gdeliver(1, m, 0, /*round=*/1, true, 0);  // same msg, another round
  EXPECT_EQ(o.verdict(Property::kGbFastPathStability), Verdict::kViolated);
}

TEST(Oracle, GbNoDuplicationAndNoCreation) {
  Oracle o;
  const MsgId m = mid(0, 1);
  o.on_gb_submit(0, m, 0);
  o.on_gdeliver(0, m, 0, 0, true, 0);
  o.on_gdeliver(0, m, 0, 0, true, 0);
  EXPECT_EQ(o.verdict(Property::kGbNoDuplication), Verdict::kViolated);
  Oracle o2;
  o2.on_gdeliver(0, mid(9, 9), 0, 0, true, 0);
  EXPECT_EQ(o2.verdict(Property::kGbNoCreation), Verdict::kViolated);
}

TEST(Oracle, GbAgreementCatchesMissingDelivery) {
  Oracle o;
  o.on_view_install(0, 0, {0, 1}, false);
  o.on_view_install(1, 0, {0, 1}, false);
  const MsgId m = mid(0, 1);
  o.on_gb_submit(0, m, 0);
  o.on_gdeliver(0, m, 0, 0, true, 0);  // p1 never delivers
  o.finalize();
  EXPECT_EQ(o.verdict(Property::kGbAgreement), Verdict::kViolated);
}

TEST(Oracle, ViewAgreement) {
  Oracle o;
  o.on_view_install(0, 1, {0, 1}, false);
  o.on_view_install(1, 1, {0, 2}, false);  // same id, different membership
  EXPECT_EQ(o.verdict(Property::kViewAgreement), Verdict::kViolated);
}

TEST(Oracle, ViewMonotonicity) {
  Oracle o;
  o.on_view_install(0, 1, {0, 1}, false);
  o.on_view_install(0, 1, {0, 1}, false);  // ids must strictly grow
  EXPECT_EQ(o.verdict(Property::kViewMonotonicity), Verdict::kViolated);
}

TEST(Oracle, ExclusionAccountability) {
  Oracle o;
  o.on_view_install(0, 0, {0, 1, 2}, false);
  // p2 silently vanishes from the next view: nobody ever proposed it.
  o.on_view_install(0, 1, {0, 1}, false);
  EXPECT_EQ(o.verdict(Property::kExclusionAccountability), Verdict::kViolated);

  // With a prior monitoring/admin/voluntary proposal the same exclusion
  // is accountable.
  Oracle o2;
  o2.on_view_install(0, 0, {0, 1, 2}, false);
  o2.on_remove_proposed(0, 2, false);
  o2.on_view_install(0, 1, {0, 1}, false);
  EXPECT_EQ(o2.verdict(Property::kExclusionAccountability), Verdict::kPass);
}

TEST(Oracle, ExclusionOfTheHighestIdSeenSoFar) {
  // Only p0 ever reported anything, so the oracle's per-process table has
  // one row when p9 drops out of p0's view: marking p9 excluded grows the
  // table while p0's row is in use.
  Oracle o;
  o.on_view_install(0, 0, {0, 9}, false);
  o.on_remove_proposed(0, 9, false);
  o.on_view_install(0, 1, {0}, false);
  EXPECT_EQ(o.verdict(Property::kExclusionAccountability), Verdict::kPass);
  EXPECT_EQ(o.verdict(Property::kViewMonotonicity), Verdict::kPass);
  o.on_view_install(0, 2, {0}, false);
  EXPECT_EQ(o.verdict(Property::kViewMonotonicity), Verdict::kPass);
}

TEST(Oracle, SummaryAndReportAreDeterministic) {
  Oracle o;
  feed_clean(o);
  o.finalize();
  const std::string s = o.summary();
  EXPECT_NE(s.find("ab.total_order: pass"), std::string::npos) << s;
  const std::string r1 = obs::render_scenario_report("t", 1, o, nullptr, nullptr);
  const std::string r2 = obs::render_scenario_report("t", 1, o, nullptr, nullptr);
  EXPECT_EQ(r1, r2);
  EXPECT_NE(r1.find("nggcs.scenario_report.v1"), std::string::npos);
  EXPECT_NE(r1.find("\"passed\":true"), std::string::npos) << r1;
}

TEST(Oracle, ViolationListIsBoundedButCountsAreNot) {
  Oracle o;
  for (std::uint64_t i = 0; i < 200; ++i) {
    o.on_adeliver(0, mid(3, i + 1), 0, i, 0);  // 200 x no-creation
  }
  EXPECT_FALSE(o.passed());
  EXPECT_LE(o.violations().size(), 64u);
  EXPECT_EQ(o.violation_count(Property::kAbNoCreation), 200u);
  EXPECT_GT(o.truncated_violations(), 0u);
}

/// The race behind the fast-quorum tests: n = 4 with 400 us jitter, six
/// pairs of conflicting gbcasts from neighbouring senders 3 ms apart, run
/// until every member delivered all 12 or 60 s pass, with the oracle
/// attached. \p quorum overrides the GB fast quorum (0 = the formula,
/// ⌊2n/3⌋ + 1 = 3). Returns whether every member delivered all 12.
bool race_conflicting_pairs(std::uint64_t seed, int quorum, obs::Oracle& oracle) {
  World::Config cfg;
  cfg.n = 4;
  cfg.seed = seed;
  cfg.link.jitter = usec(400);
  cfg.stack.gb.unsafe_fast_quorum_override = quorum;
  World w(cfg);
  w.attach_oracle(oracle);
  std::vector<std::size_t> counts(4, 0);
  for (ProcessId p = 0; p < 4; ++p) {
    w.stack(p).on_gdeliver([&counts, p](const MsgId&, MsgClass, const Bytes&) {
      ++counts[static_cast<std::size_t>(p)];
    });
  }
  w.found_group_all();
  for (int i = 0; i < 6; ++i) {
    w.engine().schedule_at(i * msec(3), [&w, i] {
      w.stack(static_cast<ProcessId>(i % 4))
          .gbcast(kAbcastClass, bytes_of(std::string("a") + std::to_string(i)));
      w.stack(static_cast<ProcessId>((i + 1) % 4))
          .gbcast(kAbcastClass, bytes_of(std::string("b") + std::to_string(i)));
    });
  }
  const bool done = test::run_until(w.engine(), sec(60), [&] {
    for (auto c : counts) {
      if (c < 12) return false;
    }
    return true;
  });
  w.run_for(sec(1));
  return done;
}

/// End-to-end negative test: run a REAL stack with the GB fast quorum
/// deliberately broken (2 of 4 <= 2n/3), race conflicting pairs, and
/// require the attached oracle to catch the ordering violation on at least
/// one seed.
TEST(OracleStack, BrokenFastQuorumIsCaught) {
  std::uint64_t conflict_violations = 0;
  for (std::uint64_t seed = 1; seed <= 12 && conflict_violations == 0; ++seed) {
    obs::Oracle oracle;
    race_conflicting_pairs(1000 + seed, 2, oracle);
    conflict_violations = oracle.violation_count(Property::kGbConflictOrder) +
                          oracle.violation_count(Property::kGbFastPathStability);
  }
  EXPECT_GT(conflict_violations, 0u)
      << "a sub-2n/3 fast quorum must eventually double-fast-deliver a "
         "conflicting pair";
}

/// Control for the negative test: under the same race, the formula quorum
/// (3) and the all-member quorum (4) never trip a property.
TEST(OracleStack, CorrectQuorumStaysClean) {
  for (const int quorum : {0, 4}) {
    obs::Oracle oracle;
    ASSERT_TRUE(race_conflicting_pairs(1001, quorum, oracle)) << "quorum " << quorum;
    oracle.finalize();
    EXPECT_TRUE(oracle.passed()) << "quorum " << quorum << "\n" << oracle.summary();
  }
}

}  // namespace
}  // namespace gcs
