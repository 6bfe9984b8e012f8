/// \file bench_paper_json.cpp
/// The paper's evaluation as one gated suite (EXPERIMENTS.md E1–E6, E9).
///
///   E1  Figs 1–5 vs 6/7/9: the three architectures run the same service
///   E2  Fig 8: passive replication, update vs primary-change race
///   E3  §4.2: generic broadcast vs atomic broadcast over the conflict rate
///   E4  §4.3: responsiveness under a crash and under a false suspicion
///   E5  §4.4: sender blocking during a view change
///   E6  §4.1: where is ordering solved, and how often?
///   E9  group-size scaling (extension)
///
/// Every run is in virtual time with pinned seeds, so the tables and
/// BENCH_paper.json are byte-deterministic. Each table prints as markdown
/// from the same values the JSON holds. The `checks` block states each
/// claim of the paper as a shape over those values; the process exits
/// nonzero when one fails, and tolerances.cfg gates the rest.
///
///   ./bench/bench_paper_json [--json=PATH] [--oracle]  (default BENCH_paper.json)
#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "obs/trace.hpp"
#include "replication/active.hpp"
#include "replication/passive.hpp"
#include "replication/state_machine.hpp"
#include "traditional/gmvs_stack.hpp"

namespace gcs::bench {
namespace {

using replication::BankAccount;
using traditional::GmVsStack;

// -- tables that print as markdown and serialize as JSON ----------------------

/// One cell, printed and reported from the same value: `text` goes under
/// `header` in the table, `json` under `key` in the row's JSON object. An
/// empty header keeps a field out of the table, an empty key out of the JSON.
struct Field {
  std::string header, text, key, json;
};

Field label(std::string header, std::string text) { return {header, text, "", ""}; }
Field number(std::string header, std::string text, std::string key, double v) {
  return {header, text, key, json_num(v)};
}
Field ms(std::string header, std::string key, double us) {
  return number(header, fmt_ms(us), key, us);
}
Field integer(std::string header, std::string key, std::int64_t v) {
  return {header, std::to_string(v), key, std::to_string(v)};
}
Field flag(std::string header, std::string key, bool v, std::string text) {
  return {header, text, key, v ? "true" : "false"};
}
Field data(std::string key, std::string json) { return {"", "", key, json}; }

struct Experiment {
  std::string key;    ///< member of BENCH_paper.json
  std::string title;  ///< markdown heading
  std::vector<std::pair<std::string, std::vector<Field>>> rows;  ///< (JSON name, fields)

  void add(std::string name, std::vector<Field> fields) {
    rows.emplace_back(std::move(name), std::move(fields));
  }

  void print() const {
    std::string head = "|", rule = "|";
    for (const Field& f : rows.front().second) {
      if (f.header.empty()) continue;
      head += " " + f.header + " |";
      rule += "---|";
    }
    std::printf("\n### %s\n\n%s\n%s\n", title.c_str(), head.c_str(), rule.c_str());
    for (const auto& [name, fields] : rows) {
      std::string line = "|";
      for (const Field& f : fields) {
        if (!f.header.empty()) line += " " + f.text + " |";
      }
      std::printf("%s\n", line.c_str());
    }
  }

  std::string json() const {
    std::string out = "  \"" + key + "\": [";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      out += std::string(i ? "," : "") + "\n    {\"name\": \"" + rows[i].first + "\"";
      for (const Field& f : rows[i].second) {
        if (!f.key.empty()) out += ", \"" + f.key + "\": " + f.json;
      }
      out += "}";
    }
    return out + "\n  ]";
  }
};

/// Print \p t's table and add its rows to the report's JSON.
void publish(SuiteReport& report, const Experiment& t) {
  t.print();
  report.members.push_back(t.json());
}

// -- shared drivers ------------------------------------------------------------

/// n traditional GM+VS stacks on one simulated network. The constructor only
/// builds them, so callers subscribe before start() founds the first view.
struct TradGroup {
  sim::Engine engine;
  sim::Network network;
  std::vector<std::unique_ptr<GmVsStack>> stacks;

  TradGroup(int n, std::uint64_t seed, const GmVsStack::Config& cfg)
      : network(engine, n, sim::LinkModel{}, seed) {
    for (ProcessId p = 0; p < n; ++p) {
      stacks.push_back(std::make_unique<GmVsStack>(engine, network, p, seed, cfg));
    }
  }
  GmVsStack& operator[](ProcessId p) { return *stacks[static_cast<std::size_t>(p)]; }

  /// Found the view {0 .. members-1} and start those members.
  void start(int members) {
    std::vector<ProcessId> view(static_cast<std::size_t>(members));
    std::iota(view.begin(), view.end(), 0);
    for (ProcessId p = 0; p < members; ++p) {
      (*this)[p].init_view(view);
      (*this)[p].start();
    }
  }
};

/// Worst submit -> delivery latency of the messages sent at or after
/// `from`, and of those sent before it.
struct Latencies {
  std::map<MsgId, TimePoint> sent_at;
  TimePoint from = 0;
  Duration worst_after = 0;
  Duration worst_before = 0;

  void delivered(const MsgId& id, TimePoint now) {
    const auto it = sent_at.find(id);
    if (it == sent_at.end()) return;
    Duration& worst = it->second >= from ? worst_after : worst_before;
    worst = std::max(worst, now - it->second);
  }
};

/// The broadcast a failure-free flow runs over.
enum class Bcast { kAbcast, kGbFast, kSequencer, kToken };

struct Flow {
  Histogram latency;           ///< submit -> delivery at p0
  double msgs_per_bcast = 0;   ///< datagrams, FD heartbeats subtracted
  double kb_per_bcast = 0;
  std::int64_t consensus = 0;  ///< consensus instances decided at p0
  bool same_order = true;      ///< every member delivered one sequence (ordered kinds)
};

/// \p messages broadcasts round-robin over n senders, one every 2 ms, until
/// p0 delivered them all. The FD heartbeats (n(n-1) datagrams per 10 ms)
/// are subtracted so the message count is the protocol's own. Then every
/// member finishes delivering and the delivery sequences are compared.
Flow run_flow(Bcast kind, int n, std::uint64_t seed, int messages) {
  std::unique_ptr<TradGroup> trad;
  std::unique_ptr<World> world;
  std::unique_ptr<OracleScope> oracle;
  sim::Engine* engine = nullptr;
  sim::Network* network = nullptr;
  std::function<MsgId(ProcessId, Bytes)> send;
  std::vector<std::vector<MsgId>> order(static_cast<std::size_t>(n));
  Histogram latency;
  std::map<MsgId, TimePoint> sent_at;
  auto deliver = [&](ProcessId p, const MsgId& id) {
    order[static_cast<std::size_t>(p)].push_back(id);
    const auto it = sent_at.find(id);
    if (p == 0 && it != sent_at.end()) latency.add(engine->now() - it->second);
  };
  if (kind == Bcast::kSequencer || kind == Bcast::kToken) {
    GmVsStack::Config cfg;
    cfg.ordering = kind == Bcast::kToken ? GmVsStack::Ordering::kToken
                                         : GmVsStack::Ordering::kSequencer;
    trad = std::make_unique<TradGroup>(n, seed, cfg);
    engine = &trad->engine;
    network = &trad->network;
    for (ProcessId p = 0; p < n; ++p) {
      (*trad)[p].on_adeliver([&, p](const MsgId& id, const Bytes&) { deliver(p, id); });
    }
    trad->start(n);
    send = [&](ProcessId p, Bytes b) { return (*trad)[p].abcast(std::move(b)); };
  } else {
    World::Config config;
    config.n = n;
    config.seed = seed;
    world = std::make_unique<World>(config);
    oracle = std::make_unique<OracleScope>(*world, "paper/flow");
    engine = &world->engine();
    network = &world->network();
    for (ProcessId p = 0; p < n; ++p) {
      if (kind == Bcast::kAbcast) {
        world->stack(p).on_adeliver([&, p](const MsgId& id, const Bytes&) { deliver(p, id); });
      } else {
        world->stack(p).on_gdeliver(
            [&, p](const MsgId& id, MsgClass, const Bytes&) { deliver(p, id); });
      }
    }
    world->found_group_all();
    send = [&](ProcessId p, Bytes b) {
      return kind == Bcast::kAbcast ? world->stack(p).abcast(std::move(b))
                                    : world->stack(p).rbcast(std::move(b));
    };
  }
  const auto sent0 = network->metrics().counter("net.sent");
  const auto bytes0 = network->metrics().counter("net.bytes_sent");
  const TimePoint start = engine->now();
  int i = 0;
  std::function<void()> tick = [&] {
    if (i >= messages) return;
    sent_at[send(static_cast<ProcessId>(i % n), payload_of(i))] = engine->now();
    ++i;
    engine->schedule_after(msec(2), tick);
  };
  engine->schedule_after(0, tick);
  const auto all_delivered = [&](std::size_t members) {
    for (std::size_t p = 0; p < members; ++p) {
      if (order[p].size() < static_cast<std::size_t>(messages)) return false;
    }
    return true;
  };
  drive(*engine, sec(120), [&] { return all_delivered(1); });
  Flow f;
  f.latency = latency;
  const double heartbeats = static_cast<double>(n) * (n - 1) *
                            (static_cast<double>(engine->now() - start) /
                             static_cast<double>(msec(10)));
  const double sent = static_cast<double>(network->metrics().counter("net.sent") - sent0);
  f.msgs_per_bcast = std::max(0.0, sent - heartbeats) / messages;
  f.kb_per_bcast =
      static_cast<double>(network->metrics().counter("net.bytes_sent") - bytes0) / 1024.0 /
      messages;
  f.consensus = trad ? (*trad)[0].metrics().counter("consensus.decided")
                     : world->stack(0).consensus().instances_decided();
  drive(*engine, sec(120), [&] { return all_delivered(order.size()); });
  if (kind != Bcast::kGbFast) {
    for (const auto& seq : order) f.same_order = f.same_order && seq == order[0];
  }
  return f;
}

// -- E1 ------------------------------------------------------------------------

void e1(SuiteReport& report) {
  constexpr int kMessages = 200;
  Experiment t{"e1", "E1: architecture comparison (paper Figs 1-5 vs 6/7/9) — 200 abcasts, "
                     "4 processes, one per 2 ms, failure-free", {}};
  bool same_order = true;
  const struct { Bcast kind; const char* name; const char* title; } archs[] = {
      {Bcast::kSequencer, "isis", "isis-like (GM+VS+sequencer)"},
      {Bcast::kToken, "totem", "totem-like (GM+VS+token)"},
      {Bcast::kAbcast, "new", "new AB-GB (consensus-based)"}};
  for (const auto& arch : archs) {
    const Flow f = run_flow(arch.kind, 4, 11, kMessages);
    same_order = same_order && f.same_order;
    t.add(arch.name,
          {label("architecture", arch.title),
           ms("lat p50 (ms)", "lat_p50_us", static_cast<double>(f.latency.percentile(50))),
           ms("lat p99 (ms)", "lat_p99_us", static_cast<double>(f.latency.percentile(99))),
           ms("lat mean (ms)", "lat_mean_us", f.latency.mean()),
           number("net msgs/abcast", fmt_double(f.msgs_per_bcast, 1), "msgs_per_bcast",
                  f.msgs_per_bcast),
           number("net KB/abcast", fmt_double(f.kb_per_bcast, 2), "kb_per_bcast",
                  f.kb_per_bcast),
           integer("consensus inst.", "consensus", f.consensus),
           flag("", "same_order", f.same_order, "")});
  }
  publish(report, t);
  report.checks.push_back({"e1_same_total_order", same_order,
                           "on each stack every member delivers the same sequence"});
}

// -- E2 ------------------------------------------------------------------------

struct RaceOutcome {
  bool committed = false;  // Fig 8 outcome 1
  bool preempted = false;  // Fig 8 outcome 2
  bool diverged = false;   // would be a bug: replicas disagree
};

/// An update from primary p0 races a primary change from backup p1; the
/// change leads by \p change_lead (negative: the update leads).
RaceOutcome race(Duration change_lead, std::uint64_t seed) {
  using replication::PassiveReplication;
  World::Config config;
  config.n = 4;
  config.seed = seed;
  config.stack.conflict = ConflictRelation::update_primary_change();
  World world(config);
  OracleScope oracle(world, "paper/e2");
  world.found_group_all();
  PassiveReplication::Config pcfg;
  pcfg.auto_primary_change = false;
  std::vector<std::unique_ptr<PassiveReplication>> replicas;
  for (ProcessId p = 0; p < 4; ++p) {
    replicas.push_back(std::make_unique<PassiveReplication>(
        world.stack(p), std::make_unique<BankAccount>(), pcfg));
  }
  RaceOutcome out;
  bool done = false;
  auto fire_update = [&] {
    replicas[0]->handle_request(BankAccount::make_deposit(100), [&](bool ok, const Bytes&) {
      out.committed = ok;
      out.preempted = !ok;
      done = true;
    });
  };
  auto fire_change = [&] { replicas[1]->request_primary_change(); };
  if (change_lead >= 0) {
    world.engine().schedule_after(0, fire_change);
    world.engine().schedule_after(change_lead, fire_update);
  } else {
    world.engine().schedule_after(0, fire_update);
    world.engine().schedule_after(-change_lead, fire_change);
  }
  drive(world.engine(), sec(30), [&] {
    if (!done) return false;
    for (auto& r : replicas) {
      if (r->primary_changes() < 1) return false;
    }
    return true;
  });
  world.run_for(msec(300));
  const auto balance = [&](std::size_t p) {
    return static_cast<BankAccount&>(replicas[p]->state()).balance();
  };
  for (std::size_t p = 1; p < 4; ++p) out.diverged = out.diverged || balance(p) != balance(0);
  // The client's outcome must match the replicated state.
  if (out.committed && balance(0) != 100) out.diverged = true;
  if (out.preempted && balance(0) != 0) out.diverged = true;
  return out;
}

void e2(SuiteReport& report) {
  constexpr int kSeeds = 50;
  Experiment t{"e2", "E2: Fig 8 — passive replication, update (p0) vs primary change (p1), "
                     "50 seeds per head start", {}};
  int two_outcomes = 0, diverged_total = 0;
  for (const Duration lead : {-msec(5), -msec(1), Duration{0}, msec(1), msec(5)}) {
    int committed = 0, preempted = 0, diverged = 0;
    for (int s = 0; s < kSeeds; ++s) {
      const RaceOutcome out = race(lead, 100 + static_cast<std::uint64_t>(s));
      if (out.diverged) ++diverged;
      else if (out.committed) ++committed;
      else if (out.preempted) ++preempted;
    }
    two_outcomes += committed + preempted;
    diverged_total += diverged;
    const std::string who = lead < 0 ? "update" : "change";
    const std::string by = std::to_string(std::abs(lead) / 1000) + "ms";
    const std::string of = std::string("/") + std::to_string(kSeeds);
    t.add(lead == 0 ? "simultaneous" : who + "_" + by,
          {label("change head start", lead == 0 ? "simultaneous" : who + " +" + by),
           number("outcome 1 (committed)", std::to_string(committed) + of, "committed",
                  committed),
           number("outcome 2 (ignored)", std::to_string(preempted) + of, "ignored", preempted),
           integer("diverged", "diverged", diverged)});
  }
  publish(report, t);
  report.checks.push_back({"e2_only_fig8_outcomes",
                           diverged_total == 0 && two_outcomes == 5 * kSeeds,
                           "all 250 races end in one of Fig 8's two outcomes, none diverges"});
}

// -- E3 ------------------------------------------------------------------------

struct BankRun {
  Histogram latency;
  std::int64_t consensus = 0;
  std::uint64_t fast = 0;
  std::int64_t balance = 0;
  bool replicas_agree = true;
  PhaseReport phases;
};

/// 200 bank commands over 4 replicas, one per ms; pattern[i] marks a
/// conflicting withdrawal, the rest are commuting deposits. With
/// \p use_generic only the withdrawals are ordered; without it every
/// command is atomically broadcast, as a stack without GB must.
BankRun run_bank(bool use_generic, const std::vector<bool>& pattern) {
  using replication::GenericActiveReplication;
  constexpr int kProcs = 4;
  const int commands = static_cast<int>(pattern.size());
  World::Config config;
  config.n = kProcs;
  config.seed = 5;
  config.stack.conflict = ConflictRelation::rbcast_abcast();
  World world(config);
  OracleScope oracle(world, "paper/e3");
  std::vector<std::unique_ptr<GenericActiveReplication>> replicas;
  for (ProcessId p = 0; p < kProcs; ++p) {
    replicas.push_back(std::make_unique<GenericActiveReplication>(
        world.stack(p), std::make_unique<BankAccount>()));
  }
  world.found_group_all();
  BankRun run;
  // Pre-fund the account so no withdrawal can fail: the final balance is
  // then schedule-independent and comparable across runs.
  bool funded = false;
  replicas[0]->submit(kAbcastClass, BankAccount::make_deposit(1'000'000),
                      [&](const Bytes&) { funded = true; });
  drive(world.engine(), sec(30), [&] { return funded; });
  int completed = 0, sent = 0;
  std::function<void()> tick = [&] {
    if (sent >= commands) return;
    const bool conflicting = pattern[static_cast<std::size_t>(sent)];
    const MsgClass cls = use_generic && !conflicting ? kRbcastClass : kAbcastClass;
    const Bytes cmd = conflicting ? BankAccount::make_withdraw(1) : BankAccount::make_deposit(2);
    const TimePoint at = world.engine().now();
    replicas[static_cast<std::size_t>(sent % kProcs)]->submit(
        cls, cmd, [&run, &completed, at, &world](const Bytes&) {
          run.latency.add(world.engine().now() - at);
          ++completed;
        });
    ++sent;
    world.engine().schedule_after(msec(1), tick);
  };
  world.engine().schedule_after(0, tick);
  drive(world.engine(), sec(300), [&] { return completed >= commands; });
  world.run_for(sec(1));  // let stragglers settle before comparing replicas
  run.consensus = world.stack(0).consensus().instances_decided();
  run.fast = world.stack(0).generic_broadcast().fast_deliveries();
  run.balance = static_cast<BankAccount&>(replicas[0]->state()).balance();
  for (const auto& r : replicas) {
    run.replicas_agree =
        run.replicas_agree && static_cast<BankAccount&>(r->state()).balance() == run.balance;
  }
  run.phases = collect(world, kProcs);
  return run;
}

void e3(SuiteReport& report) {
  constexpr int kCommands = 200;
  Experiment t{"e3", "E3: generic vs atomic broadcast (paper §4.2) — 200 bank commands, "
                     "4 replicas, conflicts = share of withdrawals", {}};
  bool same_state = true, shrinking = true;
  double previous = 1e9, last = 0;
  for (const double f : {0.0, 0.1, 0.25, 0.5, 0.75, 1.0}) {
    Rng rng(42);
    std::vector<bool> pattern(kCommands);
    for (int i = 0; i < kCommands; ++i) pattern[static_cast<std::size_t>(i)] = rng.chance(f);
    const BankRun gb = run_bank(/*use_generic=*/true, pattern);
    const BankRun ab = run_bank(/*use_generic=*/false, pattern);
    const double speedup = ab.latency.mean() / std::max(1.0, gb.latency.mean());
    same_state = same_state && gb.balance == ab.balance && gb.replicas_agree &&
                 ab.replicas_agree;
    shrinking = shrinking && speedup <= previous;
    previous = last = speedup;
    const double fast = static_cast<double>(gb.fast) / kCommands;
    t.add(std::string("c") + std::to_string(static_cast<int>(f * 100.0)),
          {number("conflicts", fmt_pct(f), "conflict_fraction", f),
           ms("gbcast lat (ms)", "gbcast_lat_us", gb.latency.mean()),
           ms("abcast lat (ms)", "abcast_lat_us", ab.latency.mean()),
           number("speedup", fmt_double(speedup, 2) + "x", "speedup", speedup),
           integer("gbcast consensus", "gbcast_consensus", gb.consensus),
           integer("abcast consensus", "abcast_consensus", ab.consensus),
           number("fast-path", fmt_pct(fast), "fast_path", fast),
           data("phases", gb.phases.phases_json()), data("gb", gb.phases.gb_json())});
  }
  publish(report, t);
  report.checks.push_back({"e3_identical_state", same_state,
                           "gbcast and abcast runs end in the same replicated state"});
  report.checks.push_back({"e3_speedup_shrinks_with_conflicts", shrinking,
                           "the GB speedup never grows as conflicts rise"});
  report.checks.push_back({"e3_parity_at_full_conflict", std::abs(last - 1.0) <= 0.05,
                           "at 100% conflicts GB costs what abcast costs (1.00x +- 5%)"});
}

// -- E4 ------------------------------------------------------------------------

constexpr int kE4Procs = 4;

struct Disruption {
  Duration stall = 0;          ///< worst latency of messages sent from 50 ms before the fault
  bool excluded = false;       ///< the healthy victim was excluded
  Duration victim_outage = 0;  ///< time the victim spent outside the view
};

/// Steady abcast traffic from p1, one message per 2 ms; \p fault fires at
/// t = 300 ms (and moves the latency window's start) and the run ends 5 s
/// later.
void run_fault(sim::Engine& engine, Latencies& lat, const std::function<MsgId(int)>& send,
               const std::function<void()>& fault) {
  const TimePoint fault_time = engine.now() + msec(300);
  lat.from = -msec(50);
  int sent = 0;
  std::function<void()> tick = [&] {
    if (engine.now() > fault_time + sec(4)) return;
    lat.sent_at[send(sent++)] = engine.now();
    engine.schedule_after(msec(2), tick);
  };
  engine.schedule_after(0, tick);
  engine.schedule_at(fault_time, [&] {
    lat.from = engine.now() - msec(50);
    fault();
  });
  while (engine.now() < fault_time + sec(5) && engine.step()) {
  }
}

/// The new stack: a false suspicion is injected at p1 and p2 against p0,
/// which monitoring (3 s exclusion timeout) leaves alone; or p0 crashes.
Disruption run_new_fault(Duration suspect_timeout, bool false_suspicion) {
  World::Config config;
  config.n = kE4Procs;
  config.seed = 3;
  config.stack.consensus_suspect_timeout = suspect_timeout;
  config.stack.monitoring.exclusion_timeout = sec(3);
  World world(config);
  OracleScope oracle(world, "paper/e4");
  Latencies lat;
  world.stack(1).on_adeliver(
      [&](const MsgId& id, const Bytes&) { lat.delivered(id, world.engine().now()); });
  world.found_group_all();
  Disruption d;
  world.stack(1).on_view([&](const View& v) {
    if (false_suspicion && !v.contains(0)) d.excluded = true;  // p0 is healthy here
  });
  run_fault(
      world.engine(), lat,
      [&](int i) { return world.stack(1).abcast(payload_of(i)); },
      [&] {
        if (!false_suspicion) {
          world.crash(0);
          return;
        }
        for (ProcessId p : {1, 2}) {
          world.stack(p).fd().inject_suspicion(world.stack(p).consensus_fd_class(), 0);
        }
      });
  d.stall = lat.worst_after;
  return d;
}

/// The traditional stack: one false suspicion at p1 excludes p0 (which
/// rejoins with a 100 ms state transfer); or p0, the sequencer, crashes.
Disruption run_trad_fault(Duration suspect_timeout, bool false_suspicion) {
  GmVsStack::Config cfg;
  cfg.suspect_timeout = suspect_timeout;
  cfg.rejoin_state_transfer_delay = msec(100);
  TradGroup g(kE4Procs, 3, cfg);
  Disruption d;
  TimePoint excluded_at = -1;
  g[0].on_view([&](const View& v) {
    if (!v.contains(0) && excluded_at < 0) {
      excluded_at = g.engine.now();
    } else if (v.contains(0) && excluded_at >= 0) {
      d.victim_outage += g.engine.now() - excluded_at;
      excluded_at = -1;
    }
  });
  Latencies lat;
  g[1].on_adeliver([&](const MsgId& id, const Bytes&) { lat.delivered(id, g.engine.now()); });
  g.start(kE4Procs);
  run_fault(
      g.engine, lat, [&](int i) { return g[1].abcast(payload_of(i)); },
      [&] {
        if (false_suspicion) {
          g[1].fd().inject_suspicion(g[1].fd_class(), 0);
        } else {
          g[0].crash();
        }
      });
  d.stall = lat.worst_after;
  d.excluded = g[0].exclusions_suffered() > 0;
  if (excluded_at >= 0) d.victim_outage += g.engine.now() - excluded_at;  // never rejoined
  return d;
}

void e4(SuiteReport& report) {
  Experiment crash{"e4_crash", "E4 (a): responsiveness (paper §4.3) — the coordinator/"
                               "sequencer crashes at t=300ms; stall = worst send->deliver "
                               "latency", {}};
  Experiment suspicion{"e4_false_suspicion", "E4 (b): a healthy member is falsely "
                                             "suspected once at t=300ms", {}};
  bool only_trad_excludes = true;
  for (const Duration t : {msec(25), msec(50), msec(100), msec(200), msec(400), msec(800)}) {
    const Disruption n = run_new_fault(t, /*false_suspicion=*/false);
    const Disruption tr = run_trad_fault(t, /*false_suspicion=*/false);
    const std::string name = std::string("t") + std::to_string(t / 1000);
    crash.add(name, {ms("suspect timeout (ms)", "timeout_us", static_cast<double>(t)),
                     ms("new arch stall (ms)", "new_stall_us", static_cast<double>(n.stall)),
                     ms("traditional stall (ms)", "trad_stall_us",
                        static_cast<double>(tr.stall))});
    const Disruption fn = run_new_fault(t, /*false_suspicion=*/true);
    const Disruption ft = run_trad_fault(t, /*false_suspicion=*/true);
    only_trad_excludes = only_trad_excludes && !fn.excluded && ft.excluded;
    suspicion.add(name,
                  {ms("suspect timeout (ms)", "timeout_us", static_cast<double>(t)),
                   ms("new: stall (ms)", "new_stall_us", static_cast<double>(fn.stall)),
                   flag("new: excluded?", "new_excluded", fn.excluded,
                        fn.excluded ? "YES" : "no"),
                   ms("trad: stall (ms)", "trad_stall_us", static_cast<double>(ft.stall)),
                   flag("trad: excluded?", "trad_excluded", ft.excluded,
                        ft.excluded ? "YES (kill+rejoin)" : "no"),
                   ms("trad: victim outage (ms)", "trad_victim_outage_us",
                      static_cast<double>(ft.victim_outage))});
  }
  publish(report, crash);
  publish(report, suspicion);
  report.checks.push_back({"e4_false_suspicion_excludes_only_traditional", only_trad_excludes,
                           "at every timeout a false suspicion excludes the healthy member "
                           "on the traditional stack and never on the new one"});
}

// -- E5 ------------------------------------------------------------------------

constexpr TimePoint kJoinAt = msec(200);

struct JoinStats {
  bool joined = false;
  Duration sender_blocked = 0;  ///< longest a send waited before it went out
  std::int64_t sends_queued = 0;
  Latencies lat;                ///< worst latency around the join, and before it
  PhaseReport phases;
};

/// Three members send one message per ms each (p1, p2, p3 in turn); \p join
/// runs at t = 200 ms, sends stop 1 s after it and the run 3 s after it.
void run_join(sim::Engine& engine, JoinStats& s, const std::function<MsgId(int)>& send,
              const std::function<void()>& join) {
  s.lat.from = kJoinAt - msec(20);
  int sent = 0;
  std::function<void()> tick = [&] {
    if (engine.now() > kJoinAt + sec(1)) return;
    s.lat.sent_at[send(sent++)] = engine.now();
    engine.schedule_after(msec(1), tick);
  };
  engine.schedule_after(0, tick);
  engine.schedule_at(kJoinAt, join);
  engine.run_until(kJoinAt + sec(3));
}

/// Sending view delivery: the flush blocks every sender for the view change.
JoinStats run_trad_join() {
  TradGroup g(5, 17, GmVsStack::Config{});
  JoinStats s;
  g[1].on_adeliver([&](const MsgId& id, const Bytes&) { s.lat.delivered(id, g.engine.now()); });
  g.start(4);
  run_join(
      g.engine, s,
      [&](int i) { return g[static_cast<ProcessId>(1 + i % 3)].abcast(payload_of(i)); },
      [&] {
        g[4].request_join(0);
        g[4].start();
      });
  s.joined = g[4].is_member();
  s.sender_blocked = g[1].total_blocked_time();
  for (ProcessId p = 1; p <= 3; ++p) s.sends_queued += g[p].metrics().counter("gmvs.sends_blocked");
  return s;
}

/// Same view delivery: a view change is one more message in the total
/// order. A send blocks if its rbcast flood leaves after the abcast() call;
/// the trace records both, so every send in the join window is timed.
JoinStats run_new_join() {
  constexpr std::size_t kTraceCapacity = std::size_t{1} << 19;  // the run records ~280k
  World::Config config;
  config.n = 5;
  config.seed = 17;
  config.stack.recorder = std::make_shared<obs::Recorder>(kTraceCapacity);
  World world(config);
  OracleScope oracle(world, "paper/e5");
  JoinStats s;
  world.stack(1).on_adeliver(
      [&](const MsgId& id, const Bytes&) { s.lat.delivered(id, world.engine().now()); });
  world.found_group({0, 1, 2, 3});
  run_join(
      world.engine(), s,
      [&](int i) { return world.stack(static_cast<ProcessId>(1 + i % 3)).abcast(payload_of(i)); },
      [&] { world.stack(4).join(0); });
  s.joined = world.stack(4).membership().is_member();
  s.phases = collect(world, 5);
  const obs::Names& names = obs::Names::get();
  std::map<MsgId, TimePoint> submitted, flooded;
  for (const obs::Record& r : config.stack.recorder->records()) {
    if (r.proc != r.msg.sender) continue;
    if (r.name == names.abcast_submit) submitted.emplace(r.msg, r.ts);
    if (r.name == names.rbcast_flood) flooded.emplace(r.msg, r.ts);
  }
  for (const auto& [id, at] : s.lat.sent_at) {
    if (at < s.lat.from) continue;
    const auto sub = submitted.find(id);
    const auto flood = flooded.find(id);
    // A send the trace lost counts as blocked for the whole run.
    const Duration gap = sub == submitted.end() || flood == flooded.end()
                             ? world.engine().now() - at
                             : flood->second - sub->second;
    s.sender_blocked = std::max(s.sender_blocked, gap);
    if (gap > 0) ++s.sends_queued;
  }
  return s;
}

void e5(SuiteReport& report) {
  Experiment t{"e5", "E5: view-change blocking (paper §4.4) — a join at t=200ms while "
                     "p1..p3 take turns sending one message per ms", {}};
  const JoinStats tr = run_trad_join();
  const JoinStats nw = run_new_join();
  const auto row = [](const char* stack, const JoinStats& s) {
    return std::vector<Field>{
        label("stack", stack),
        flag("join ok", "joined", s.joined, s.joined ? "yes" : "NO"),
        ms("sender blocked (ms)", "sender_blocked_us", static_cast<double>(s.sender_blocked)),
        integer("sends queued", "sends_queued", s.sends_queued),
        ms("worst latency around join (ms)", "worst_join_us",
           static_cast<double>(s.lat.worst_after)),
        ms("baseline worst (ms)", "worst_baseline_us", static_cast<double>(s.lat.worst_before))};
  };
  t.add("trad", row("traditional (GM+VS flush)", tr));
  std::vector<Field> nf = row("new AB-GB (membership on top)", nw);
  nf.push_back(data("phases", nw.phases.phases_json()));
  t.add("new", std::move(nf));
  publish(report, t);
  report.checks.push_back({"e5_new_stack_never_blocks",
                           nw.joined && nw.sender_blocked == 0 && nw.sends_queued == 0,
                           "on the new stack every send around the join floods at once"});
  report.checks.push_back({"e5_traditional_flush_blocks",
                           tr.joined && tr.sender_blocked > 0,
                           "the traditional flush blocks senders during the join"});
}

// -- E6 ------------------------------------------------------------------------

struct Census {
  std::int64_t orderer_assignments = 0;  ///< sequencer/token seq assignments
  std::int64_t flush_rounds = 0;         ///< VS flushes
  std::int64_t consensus_instances = 0;  ///< consensus decisions
  std::int64_t view_changes = 0;
};

/// Churn on 4 members: 100 abcasts (one per 2 ms from p1..p3), p4 joins at
/// 60 ms through p1, p3 crashes at 120 ms; 5 s of virtual time.
template <typename Send, typename Join, typename Crash>
void run_churn(sim::Engine& engine, Send send, Join join, Crash crash) {
  int sent = 0;
  std::function<void()> tick = [&] {
    if (sent >= 100) return;
    send(static_cast<ProcessId>(1 + sent % 3), payload_of(sent));
    ++sent;
    engine.schedule_after(msec(2), tick);
  };
  engine.schedule_after(0, tick);
  engine.schedule_at(msec(60), join);
  engine.schedule_at(msec(120), crash);
  engine.run_until(sec(5));
}

Census run_trad_churn(GmVsStack::Ordering ordering) {
  GmVsStack::Config cfg;
  cfg.ordering = ordering;
  cfg.suspect_timeout = msec(300);
  TradGroup g(5, 23, cfg);
  g.start(4);
  run_churn(
      g.engine, [&](ProcessId p, Bytes b) { g[p].abcast(std::move(b)); },
      [&] {
        g[4].request_join(1);
        g[4].start();
      },
      [&] { g[3].crash(); });
  Census c;
  // Sequence numbers are assigned wherever the sequencer/token happens to
  // be: sum over all processes. Flushes and consensus instances are
  // group-wide events: count them at one survivor.
  for (auto& s : g.stacks) {
    c.orderer_assignments +=
        s->metrics().counter("seq.assigned") + s->metrics().counter("token.assigned");
  }
  c.flush_rounds = g[1].metrics().counter("gmvs.flushes_started");
  c.consensus_instances = g[1].metrics().counter("consensus.decided");
  c.view_changes = static_cast<std::int64_t>(g[1].view_changes());
  return c;
}

Census run_new_churn() {
  World::Config config;
  config.n = 5;
  config.seed = 23;
  config.stack.monitoring.exclusion_timeout = msec(700);
  World world(config);
  OracleScope oracle(world, "paper/e6");
  world.found_group({0, 1, 2, 3});
  run_churn(
      world.engine(), [&](ProcessId p, Bytes b) { world.stack(p).abcast(std::move(b)); },
      [&] { world.stack(4).join(1); }, [&] { world.crash(3); });
  Census c;
  c.consensus_instances = world.stack(1).consensus().instances_decided();
  c.view_changes = static_cast<std::int64_t>(world.stack(1).membership().views_installed()) - 1;
  return c;
}

void e6(SuiteReport& report) {
  Experiment t{"e6", "E6: where is ordering solved? (paper §4.1) — 100 msgs + 1 join + "
                     "1 crash per stack, every engagement of every ordering mechanism", {}};
  const struct { const char* name; const char* title; const char* orderer; const char* views;
                 Census c; } archs[] = {
      {"sequencer", "isis-like (sequencer)", "seq", "membership",
       run_trad_churn(GmVsStack::Ordering::kSequencer)},
      {"token", "totem-like (token)", "token", "membership",
       run_trad_churn(GmVsStack::Ordering::kToken)},
      {"new", "new AB-GB", "orderer", "consensus", run_new_churn()}};
  // A mechanism counts when its counter moved during the run.
  std::vector<std::size_t> counts;
  for (const auto& a : archs) {
    std::vector<std::string> used;
    if (a.c.orderer_assignments > 0) used.emplace_back(a.orderer);
    if (a.c.flush_rounds > 0) used.emplace_back("flush");
    if (a.c.consensus_instances > 0) used.emplace_back(a.views);
    std::string text = std::to_string(used.size()) + " (";
    for (std::size_t i = 0; i < used.size(); ++i) text += (i ? " + " : "") + used[i];
    counts.push_back(used.size());
    t.add(a.name, {label("stack", a.title),
                   number("ordering mechanisms", text + ")", "mechanisms",
                          static_cast<double>(used.size())),
                   integer("orderer assignments", "orderer_assignments", a.c.orderer_assignments),
                   integer("VS flushes", "vs_flushes", a.c.flush_rounds),
                   integer("consensus instances", "consensus_instances", a.c.consensus_instances),
                   integer("view changes", "view_changes", a.c.view_changes)});
  }
  publish(report, t);
  report.checks.push_back({"e6_ordering_solved_once",
                           counts == std::vector<std::size_t>{3, 3, 1},
                           "the new stack orders with consensus alone, the traditional "
                           "stacks with three mechanisms"});
}

// -- E9 ------------------------------------------------------------------------

void e9(SuiteReport& report) {
  constexpr int kMessages = 60;
  Experiment t{"e9", "E9: group-size scaling (extension) — 60 broadcasts, one per 2 ms, "
                     "failure-free; FD heartbeats subtracted", {}};
  bool ordered = true;
  for (const int n : {3, 5, 7, 9, 13}) {
    const Flow ab = run_flow(Bcast::kAbcast, n, 4, kMessages);
    const Flow gb = run_flow(Bcast::kGbFast, n, 4, kMessages);
    const Flow sq = run_flow(Bcast::kSequencer, n, 4, kMessages);
    ordered = ordered && sq.msgs_per_bcast < gb.msgs_per_bcast &&
              gb.msgs_per_bcast < ab.msgs_per_bcast;
    const auto msgs = [](const char* header, const char* key, double v) {
      return number(header, fmt_double(v, 0), key, v);
    };
    t.add(std::string("n") + std::to_string(n),
          {integer("n", "n", n), ms("abcast lat (ms)", "abcast_lat_us", ab.latency.mean()),
           msgs("abcast msgs", "abcast_msgs", ab.msgs_per_bcast),
           ms("gb-fast lat (ms)", "gbfast_lat_us", gb.latency.mean()),
           msgs("gb-fast msgs", "gbfast_msgs", gb.msgs_per_bcast),
           ms("sequencer lat (ms)", "sequencer_lat_us", sq.latency.mean()),
           msgs("sequencer msgs", "sequencer_msgs", sq.msgs_per_bcast)});
  }
  publish(report, t);
  report.checks.push_back({"e9_message_cost_order", ordered,
                           "at every n: sequencer < GB fast path < abcast messages"});
}

}  // namespace
}  // namespace gcs::bench

int main(int argc, char** argv) {
  using namespace gcs::bench;
  return suite_main(argc, argv, "paper", [](SuiteReport& report) {
    for (auto* experiment : {e1, e2, e3, e4, e5, e6, e9}) experiment(report);
  });
}
