#include "explore/runner.hpp"

#include <algorithm>
#include <memory>
#include <numeric>

#include "core/stack.hpp"
#include "obs/oracle.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"

namespace gcs::explore {

namespace {

Bytes bytes_of(const std::string& s) { return Bytes(s.begin(), s.end()); }

std::uint64_t fnv1a(const void* data, std::size_t size, std::uint64_t h = 0xcbf29ce484222325ULL) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Run the engine until \p pred holds or \p timeout of virtual time passes.
template <typename Pred>
bool run_until(sim::Engine& engine, Duration timeout, Pred pred) {
  const TimePoint deadline = engine.now() + timeout;
  while (engine.now() < deadline) {
    if (pred()) return true;
    engine.run_until(std::min<TimePoint>(deadline, engine.now() + msec(10)));
  }
  return pred();
}

std::string format_trace_tail(const obs::Recorder& recorder, std::size_t n) {
  std::string out;
  for (const obs::Record& r : recorder.tail(kNoProcess, n)) {
    out += std::to_string(r.ts) + " p" + std::to_string(r.proc) + " " +
           std::string(obs::name_of(r.name));
    switch (r.phase) {
      case obs::Phase::kBegin: out += " begin"; break;
      case obs::Phase::kEnd: out += " end"; break;
      case obs::Phase::kInstant: break;
    }
    if (r.msg.sender != kNoProcess) out += " msg=" + to_string(r.msg);
    if (r.arg != 0) out += " arg=" + std::to_string(r.arg);
    out += "\n";
  }
  return out;
}

}  // namespace

std::string_view outcome_name(Outcome o) {
  switch (o) {
    case Outcome::kClean: return "clean";
    case Outcome::kViolation: return "violation";
    case Outcome::kWedged: return "wedged";
  }
  return "?";
}

std::vector<std::uint32_t> all_steps(const sim::FaultPlan& plan) {
  std::vector<std::uint32_t> keep(plan.steps.size());
  std::iota(keep.begin(), keep.end(), 0u);
  return keep;
}

std::string scenario_name(const sim::FaultPlan& plan, const std::vector<std::uint32_t>& keep) {
  // The kept-set digest distinguishes shrunk re-runs of the same seed; a
  // full keep and its replay hash identically, so their reports compare
  // byte-for-byte.
  const std::uint64_t mask =
      fnv1a(keep.data(), keep.size() * sizeof(std::uint32_t), plan.digest());
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(mask));
  return "explore_s" + std::to_string(plan.seed) + "_k" + buf;
}

RunResult run_plan(const sim::FaultPlan& plan, const std::vector<std::uint32_t>& keep,
                   const RunOptions& options) {
  const int n = plan.options.n;

  World::Config config;
  config.n = n;
  config.seed = plan.seed;
  config.link = plan.link;
  config.stack.monitoring.exclusion_timeout = msec(400);
  if (plan.use_paxos) config.stack.consensus_algorithm = StackConfig::ConsensusAlgo::kPaxos;
  config.stack.gb.unsafe_fast_quorum_override = options.fast_quorum_override;
  std::shared_ptr<obs::Recorder> recorder;
  if (options.trace_capacity > 0) {
    recorder = std::make_shared<obs::Recorder>(options.trace_capacity);
    config.stack.recorder = recorder;
  }

  World world(config);
  obs::Oracle oracle;
  world.attach_oracle(oracle);

  std::vector<std::uint64_t> adelivered(static_cast<std::size_t>(n), 0);
  std::uint64_t gdelivered = 0;
  for (ProcessId p = 0; p < n; ++p) {
    world.stack(p).on_adeliver(
        [&adelivered, p](const MsgId&, const Bytes&) { ++adelivered[static_cast<std::size_t>(p)]; });
    world.stack(p).on_gdeliver(
        [&gdelivered](const MsgId&, MsgClass, const Bytes&) { ++gdelivered; });
  }
  world.found_group_all();

  auto alive = [&world](ProcessId p) { return world.network().alive(p); };
  auto is_member = [&world, &alive](ProcessId p) {
    return alive(p) && world.stack(p).membership().is_member();
  };
  auto alive_count = [&world, n] {
    int c = 0;
    for (ProcessId p = 0; p < n; ++p) c += world.network().alive(p) ? 1 : 0;
    return c;
  };

  // Partition / burst state. Heals and restores are scheduled off the step
  // that opened them, so a shrunk plan that dropped a later heal step still
  // converges before the settle phase checks.
  bool partitioned = false;

  // Execute the kept steps at their plan times. All guards are evaluated
  // at execution time against simulation state, so ANY subset of steps is
  // a well-formed schedule — the shrinker depends on that.
  for (std::uint32_t i : keep) {
    if (i >= plan.steps.size()) continue;
    const sim::FaultStep& step = plan.steps[i];
    if (step.at > world.engine().now()) world.run_for(step.at - world.engine().now());
    const ProcessId p = step.proc;
    switch (step.op) {
      case sim::FaultOp::kAbcast:
        if (is_member(p)) world.stack(p).abcast(bytes_of("a" + std::to_string(i)));
        break;
      case sim::FaultOp::kGbcast:
        if (is_member(p)) {
          world.stack(p).gbcast(step.cls ? kAbcastClass : kRbcastClass,
                                bytes_of("g" + std::to_string(i)));
        }
        break;
      case sim::FaultOp::kConflictRace:
        // Two conflicting submissions at the same virtual instant from two
        // different processes: the schedule most likely to expose a broken
        // fast-path quorum.
        if (is_member(p) && is_member(step.target) && p != step.target) {
          world.stack(p).gbcast(kAbcastClass, bytes_of("r" + std::to_string(i) + "a"));
          world.stack(step.target).gbcast(kAbcastClass, bytes_of("r" + std::to_string(i) + "b"));
        }
        break;
      case sim::FaultOp::kCrash:
        // Keep a strict majority alive no matter which subset of steps
        // survived shrinking.
        if (alive(p) && 2 * (alive_count() - 1) > n) world.crash(p);
        break;
      case sim::FaultOp::kPartition: {
        if (partitioned) break;
        std::vector<ProcessId> in, out;
        for (ProcessId q = 0; q < n; ++q) {
          (step.arg & (1ULL << q) ? in : out).push_back(q);
        }
        if (in.empty() || out.empty()) break;
        partitioned = true;
        world.network().partition({out, in});
        world.engine().schedule_after(step.duration, [&world, &partitioned] {
          world.network().heal();
          partitioned = false;
        });
        break;
      }
      case sim::FaultOp::kHeal:
        world.network().heal();
        partitioned = false;
        break;
      case sim::FaultOp::kJoin:
        if (alive(p) && !world.stack(p).membership().is_member()) {
          for (ProcessId contact = 0; contact < n; ++contact) {
            if (is_member(contact)) {
              world.stack(p).membership().join(contact);
              break;
            }
          }
        }
        break;
      case sim::FaultOp::kFalseSuspicion:
        if (alive(p) && p != step.target) {
          world.stack(p).fd().inject_suspicion(world.stack(p).consensus_fd_class(), step.target);
        }
        break;
      case sim::FaultOp::kFdTimeout:
        if (alive(p)) {
          world.stack(p).fd().set_timeout(world.stack(p).consensus_fd_class(),
                                          static_cast<Duration>(step.arg));
        }
        break;
      case sim::FaultOp::kDupBurst: {
        auto knobs = world.network().fault_knobs();
        knobs.duplicate_probability = static_cast<double>(step.arg) / 100.0;
        world.network().set_fault_knobs(knobs);
        world.engine().schedule_after(step.duration, [&world] {
          auto k = world.network().fault_knobs();
          k.duplicate_probability = 0.0;
          world.network().set_fault_knobs(k);
        });
        break;
      }
      case sim::FaultOp::kReorderBurst: {
        auto knobs = world.network().fault_knobs();
        knobs.reorder_probability = static_cast<double>(step.arg) / 100.0;
        world.network().set_fault_knobs(knobs);
        world.engine().schedule_after(step.duration, [&world] {
          auto k = world.network().fault_knobs();
          k.reorder_probability = 0.0;
          world.network().set_fault_knobs(k);
        });
        break;
      }
      case sim::FaultOp::kLeaderCrash:
      case sim::FaultOp::kLeaderSuspicion: {
        // Resolve the victim at fire time: ask the first alive member who
        // the stable consensus leader is (Chandra-Toueg reports
        // kNoProcess — fall back to the first alive member, which is
        // the rotating-coordinator anchor anyway).
        ProcessId leader = kNoProcess;
        ProcessId first_alive = kNoProcess;
        for (ProcessId q = 0; q < n; ++q) {
          if (!is_member(q)) continue;
          if (first_alive == kNoProcess) first_alive = q;
          const ProcessId l = world.stack(q).consensus().stable_leader();
          if (l != kNoProcess && alive(l)) {
            leader = l;
            break;
          }
        }
        if (leader == kNoProcess) leader = first_alive;
        if (leader == kNoProcess) break;
        if (step.op == sim::FaultOp::kLeaderCrash) {
          // Same majority guard as kCrash, whatever subset survived
          // shrinking.
          if (alive(leader) && 2 * (alive_count() - 1) > n) world.crash(leader);
        } else {
          // False suspicion of the leader at two non-leader members: the
          // schedule most likely to provoke a dueling takeover.
          int injected = 0;
          for (ProcessId q = 0; q < n && injected < 2; ++q) {
            if (q == leader || !alive(q)) continue;
            world.stack(q).fd().inject_suspicion(world.stack(q).consensus_fd_class(), leader);
            ++injected;
          }
        }
        break;
      }
      case sim::FaultOp::kPartialCrash:
      case sim::FaultOp::kPartialGbCrash:
        // Same majority guard as kCrash. Links to the non-receivers drop
        // everything, so only the chosen members ever get the broadcast;
        // the crash follows at the same instant, before any retransmission.
        if (is_member(p) && 2 * (alive_count() - 1) > n) {
          for (ProcessId q = 0; q < n; ++q) {
            if (q != p && (step.arg & (1ULL << q)) == 0) {
              world.network().set_link(p, q, sim::LinkModel{plan.link.base_delay, 0, 1.0});
            }
          }
          if (step.op == sim::FaultOp::kPartialCrash) {
            world.stack(p).abcast(bytes_of("c" + std::to_string(i)));
          } else {
            world.stack(p).gbcast(kRbcastClass, bytes_of("c" + std::to_string(i)));
          }
          world.crash(p);
        }
        break;
      case sim::FaultOp::kCount_:
        break;
    }
  }

  // Settle: scheduled heals and burst restores fire inside this window.
  world.run_for(plan.settle);
  world.network().heal();
  world.network().set_fault_knobs({});
  world.run_for(sec(2));

  // Liveness probe: some alive member must still be able to get an abcast
  // delivered to itself.
  bool wedged = false;
  ProcessId sender = kNoProcess;
  for (ProcessId p = 0; p < n; ++p) {
    if (is_member(p)) {
      sender = p;
      break;
    }
  }
  if (sender == kNoProcess) {
    wedged = true;
  } else {
    const std::uint64_t before = adelivered[static_cast<std::size_t>(sender)];
    world.stack(sender).abcast(bytes_of("liveness probe"));
    wedged = !run_until(world.engine(), sec(30), [&adelivered, sender, before] {
      return adelivered[static_cast<std::size_t>(sender)] > before;
    });
    // Let the probe reach the other members before the agreement checks.
    world.run_for(sec(2));
  }

  oracle.finalize();

  RunResult result;
  result.outcome = !oracle.passed() ? Outcome::kViolation
                   : wedged         ? Outcome::kWedged
                                    : Outcome::kClean;
  if (!oracle.violations().empty()) {
    result.first_violation = std::string(obs::property_name(oracle.violations().front().property));
  }
  // Probes and metrics are omitted on purpose: the report must be a pure
  // function of (plan, keep, options) so replay can compare bytes.
  result.report_json = obs::render_scenario_report(scenario_name(plan, keep), plan.seed,
                                                   oracle, nullptr, nullptr);
  result.violations_json = obs::render_violations_json(oracle);
  if (recorder) result.trace_tail = format_trace_tail(*recorder, options.trace_tail_records);
  result.adeliveries = std::accumulate(adelivered.begin(), adelivered.end(), std::uint64_t{0});
  result.gdeliveries = gdelivered;
  return result;
}

}  // namespace gcs::explore
