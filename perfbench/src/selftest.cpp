/// \file selftest.cpp
/// The benchmark's own checks: the percentile helper, the failed-message
/// accounting and order checks of the delivery tracker, and that the
/// measurement does not change what the stack does.
#include <cstdio>
#include <string>
#include <vector>

#include "harness.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("  %s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

std::vector<double> iota_samples(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // reversed: the helper must sort
  return v;
}

void test_percentile() {
  std::printf("percentile helper\n");
  expect(percentile(iota_samples(1000), 0.99) == 990.0, "p99 of 1..1000 is 990 (10 beyond)");
  expect(!percentile(iota_samples(999), 0.99), "p99 of 999 samples is withheld (9 beyond)");
  expect(percentile(iota_samples(21), 0.5) == 11.0, "p50 of 1..21 is 11");
  expect(!percentile(iota_samples(19), 0.5), "p50 of 19 samples is withheld (9 beyond)");
  expect(!percentile({}, 0.5), "no samples, no percentile");
  expect(median({3, 1, 2, 10}) == 2.5, "median of an even count averages the middle pair");
  expect(grouped_percentile({iota_samples(1000), iota_samples(2000), iota_samples(50)}, 0.99) ==
             1485.0,
         "grouped p99 is the median of the groups that have one (990, 1980)");
  expect(!grouped_percentile({iota_samples(1000), iota_samples(50), iota_samples(50)}, 0.99),
         "grouped p99 is withheld when most groups are too small");
}

void test_failed_accounting() {
  std::printf("failed-message accounting\n");
  Tracker t(3, Tracker::Order::kTotal);
  const MsgId a{0, 1}, b{1, 1}, c{2, 1};
  t.on_submit(a, 1, 100);
  t.on_submit(b, 1, 200);
  t.on_submit(c, 1, 300);
  for (ProcessId p : {0, 1, 2}) t.on_deliver(p, a, 1100);
  t.on_deliver(0, b, 1200);
  t.on_deliver(1, b, 1250);  // p2 never gets b; nobody gets c
  expect(t.complete(0b111) == 1, "one message reached all three members");
  expect(t.complete(0b011) == 2, "two reached the members that stayed correct");
  expect(t.check().empty(), "a shorter sequence that is a prefix is not an order violation");
  const std::vector<double> lat = t.latencies(5300, 1.0);
  expect(lat.size() == 3 && lat[0] == 1000 && lat[1] == 1050 && lat[2] == 5000,
         "undelivered messages count as censored at the end of the run");

  Tracker order(2, Tracker::Order::kTotal);
  order.on_submit(a, 1, 0);
  order.on_submit(b, 1, 0);
  order.on_deliver(0, a, 1);
  order.on_deliver(0, b, 2);
  order.on_deliver(1, b, 1);
  order.on_deliver(1, a, 2);
  expect(!order.check().empty(), "total-order violation is caught");

  Tracker dup(2, Tracker::Order::kTotal);
  dup.on_submit(a, 1, 0);
  dup.on_deliver(0, a, 1);
  dup.on_deliver(0, a, 2);
  expect(!dup.check().empty(), "duplicate delivery is caught");
  Tracker ghost(2, Tracker::Order::kTotal);
  ghost.on_deliver(0, a, 1);
  expect(!ghost.check().empty(), "delivery of a message never submitted is caught");

  // Generic broadcast: commuting messages may swap among themselves but
  // not across a conflicting one.
  Tracker gb(2, Tracker::Order::kConflictClass);
  const MsgId r1{0, 1}, r2{1, 1}, x{0, 2};
  gb.on_submit(r1, 0, 0);
  gb.on_submit(r2, 0, 0);
  gb.on_submit(x, 1, 0);
  for (const auto& [p, m] : std::vector<std::pair<ProcessId, MsgId>>{
           {0, r1}, {0, r2}, {0, x}, {1, r2}, {1, r1}, {1, x}}) {
    gb.on_deliver(p, m, 1);
  }
  expect(gb.check().empty(), "commuting messages may be delivered in either order");
  Tracker gb_bad(2, Tracker::Order::kConflictClass);
  gb_bad.on_submit(r1, 0, 0);
  gb_bad.on_submit(x, 1, 0);
  for (const auto& [p, m] : std::vector<std::pair<ProcessId, MsgId>>{
           {0, r1}, {0, x}, {1, x}, {1, r1}}) {
    gb_bad.on_deliver(p, m, 1);
  }
  expect(!gb_bad.check().empty(), "a commuting message crossing a conflicting one is caught");
}

void test_instrumentation_invariance() {
  std::printf("instrumentation leaves virtual time unchanged\n");
  for (const std::string& w : workload_names()) {
    if (w == "udp_loopback") continue;  // wall-clock: nothing to compare exactly
    const VirtualOutcome world = virtual_episode(w, 7, Wiring::kWorld);
    for (Wiring wiring : {Wiring::kDecorated, Wiring::kTimed}) {
      const VirtualOutcome o = virtual_episode(w, 7, wiring);
      const bool same = o.digest == world.digest && o.submitted == world.submitted &&
                        o.complete == world.complete && o.events == world.events &&
                        o.p50_ms == world.p50_ms && o.p99_ms == world.p99_ms &&
                        o.sim_msgs_per_s == world.sim_msgs_per_s &&
                        o.max_gap_ms == world.max_gap_ms && o.exclusion_ms == world.exclusion_ms;
      expect(same && o.error.empty() && world.error.empty(),
             w + (wiring == Wiring::kTimed ? ": timed decorator" : ": decorator") +
                 " matches gcs::World (digest " + std::to_string(o.digest) + ")");
    }
  }
}

}  // namespace

int selftest() {
  test_percentile();
  test_failed_accounting();
  test_instrumentation_invariance();
  std::printf("%s (%d failures)\n", failures == 0 ? "PASS" : "FAIL", failures);
  return failures == 0 ? 0 : 1;
}

}  // namespace perfbench
