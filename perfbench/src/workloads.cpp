#include "workloads.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <unordered_set>

#include "core/stack.hpp"
#include "harness.hpp"
#include "obs/critical_path.hpp"
#include "obs/oracle.hpp"
#include "runtime/realtime_runner.hpp"
#include "runtime/udp_transport.hpp"
#include "stats.hpp"

namespace perfbench {

using gcs::Duration;
using gcs::GcsStack;
using gcs::StackConfig;

namespace {

// -- workload definitions -----------------------------------------------------

/// A simulated workload. Every member runs in one sim::Engine; latencies
/// and sim_msgs_per_s are virtual time, msgs_per_wall_s is host time.
struct SimSpec {
  int n = 5;
  StackConfig stack;
  bool gbcast = false;          ///< submit with gbcast (else abcast)
  double conflict_share = 0;    ///< gbcast: share of kAbcastClass messages
  int window = 0;               ///< closed loop: outstanding per sender; 0 = open loop
  double rate_per_s = 0;        ///< open loop: arrivals per virtual second
  std::size_t payload = 1024;
  Duration traffic = 0;         ///< virtual length of the submitting phase
  Duration crash_at = -1;       ///< crash p0 this long after traffic starts; <0 = never
  std::vector<ProcessId> senders;
  Duration drain = gcs::sec(3);  ///< virtual budget to deliver what is in flight
  std::size_t ring = 1u << 21;   ///< flight-recorder records for a traced episode
};

constexpr Duration kWarmup = gcs::msec(20);
/// Set-ups timed per run (their median is setup_s); each takes well under
/// a millisecond, too short to time steadily one at a time.
constexpr int kSetupSamples = 100;

SimSpec sim_spec(const std::string& name) {
  SimSpec s;
  if (name == "abcast_pipeline") {
    // BENCH_pipeline's n5_d16_adaptive cell, long enough to time on the host.
    s.n = 5;
    s.stack.consensus_algorithm = StackConfig::ConsensusAlgo::kPaxos;
    s.stack.abcast.pipeline_depth = 16;
    s.stack.abcast.max_batch = 16;
    s.stack.abcast.adaptive = true;
    s.window = 64;
    s.payload = 1024;
    s.traffic = gcs::msec(40);
    s.senders = {0, 1, 2, 3, 4};
  } else if (name == "gbcast_mix") {
    // Open loop, 5% conflicting: the GB fast path carries most messages.
    s.n = 7;
    s.gbcast = true;
    s.conflict_share = 0.05;
    s.rate_per_s = 5000;
    s.payload = 256;
    s.traffic = gcs::msec(1000);
    s.senders = {0, 1, 2, 3, 4, 5, 6};
  } else if (name == "leader_crash") {
    // The stable Paxos leader p0 crashes a quarter into the run; the run
    // continues past monitoring's exclusion and the view change.
    s.n = 5;
    s.stack.consensus_algorithm = StackConfig::ConsensusAlgo::kPaxos;
    s.stack.abcast.pipeline_depth = 4;
    s.rate_per_s = 1000;
    s.payload = 256;
    s.traffic = gcs::msec(3000);
    s.crash_at = gcs::msec(750);
    s.senders = {1, 2, 3, 4};
    // Retransmissions toward the dead leader are traced too (~800 records
    // per message until the exclusion).
    s.ring = 1u << 22;
  } else {
    throw std::invalid_argument("unknown simulated workload " + name);
  }
  return s;
}

/// Seeds for the stack (network delays, protocol randomness) and for the
/// input generators are drawn independently from the workload seed.
std::uint64_t stack_seed(std::uint64_t seed) { return gcs::Rng::stream(seed, 1).next_u64(); }
std::uint64_t generator_seed(std::uint64_t seed) { return gcs::Rng::stream(seed, 2).next_u64(); }

Bytes make_payload(std::size_t size, std::uint64_t index, gcs::Rng& rng) {
  Bytes b(size, static_cast<std::uint8_t>(rng.next_u64()));
  for (std::size_t i = 0; i < 8 && i < size; ++i) {
    b[i] = static_cast<std::uint8_t>(index >> (8 * i));
  }
  return b;
}

std::uint32_t all_mask(int n) { return n >= 32 ? ~0u : (1u << n) - 1; }

double wall_s_since(std::int64_t start_ns) {
  return static_cast<double>(HostLedger::now_ns() - start_ns) * 1e-9;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// -- per-layer counters ---------------------------------------------------------

/// Protocol counters summed over members, captured at the start of the
/// timed phase so per-message ratios exclude set-up traffic.
const std::vector<std::string>& counter_names() {
  static const std::vector<std::string> names = {
      "channel.sent", "channel.retransmits", "abcast.pull_requests", "gbcast.pull_requests",
      "consensus.wire_msgs", "rbcast.wire_bytes", "gbdata.wire_bytes", "paxos.prepares_sent",
      "paxos.decided", "consensus.decided", "gbcast.resolutions_triggered",
      "gbcast.fast_delivered", "gbcast.resolved_delivered", "membership.views_installed",
      "monitoring.exclusions_requested", "fd.suspicions", "fd.false_suspicions"};
  return names;
}

using Counters = std::map<std::string, double>;

Counters read_counters(const std::vector<GcsStack*>& stacks) {
  Counters c;
  for (const std::string& name : counter_names()) {
    double sum = 0;
    for (const auto& s : stacks) sum += static_cast<double>(s->metrics().counter(name));
    c[name] = sum;
  }
  return c;
}

Counters delta(const Counters& after, const Counters& before) {
  Counters d;
  for (const auto& [name, v] : after) d[name] = v - before.at(name);
  return d;
}

double merged_mean(const std::vector<GcsStack*>& stacks, const char* name) {
  double sum = 0;
  double count = 0;
  for (const auto& s : stacks) {
    const gcs::Histogram& h = s->metrics().histogram(name);
    sum += h.mean() * static_cast<double>(h.count());
    count += static_cast<double>(h.count());
  }
  return count == 0 ? 0.0 : sum / count;
}

double ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

// -- delivery-gap tracking ------------------------------------------------------

/// Longest time a correct member went without a delivery inside a window
/// that opens at the fault (or at the start of traffic) and closes when
/// submissions stop.
class GapTracker {
 public:
  explicit GapTracker(int n) : last_(static_cast<std::size_t>(n), 0),
                               max_gap_(static_cast<std::size_t>(n), 0) {}

  void open(std::int64_t from) {
    from_ = from;
    std::fill(last_.begin(), last_.end(), from);
    std::fill(max_gap_.begin(), max_gap_.end(), 0);
  }
  void close(std::int64_t until) { until_ = until; }
  void on_delivery(ProcessId p, std::int64_t at) {
    if (at < from_ || at > until_) return;
    auto& last = last_[static_cast<std::size_t>(p)];
    auto& gap = max_gap_[static_cast<std::size_t>(p)];
    gap = std::max(gap, at - last);
    last = at;
  }
  /// Longest gap over the members in \p correct, counting a stall that
  /// lasted until the window closed.
  std::int64_t longest(std::uint32_t correct) const {
    std::int64_t worst = 0;
    for (std::size_t p = 0; p < last_.size(); ++p) {
      if (!(correct & (1u << p))) continue;
      worst = std::max({worst, max_gap_[p], until_ - last_[p]});
    }
    return worst;
  }

 private:
  std::int64_t from_ = 0;
  std::int64_t until_ = std::numeric_limits<std::int64_t>::max();
  std::vector<std::int64_t> last_;
  std::vector<std::int64_t> max_gap_;
};

// -- simulated cluster -----------------------------------------------------------

/// The members of one simulated group. Decorated wiring builds each stack
/// through GcsStack's custom-transport constructor with a TimedTransport,
/// then binds a SimTransport over the stack's own context, which is what
/// the simulation constructor (and so gcs::World) does without the
/// decorator.
class SimCluster {
 public:
  SimCluster(const SimSpec& spec, std::uint64_t seed, Wiring wiring, HostLedger& ledger,
             std::shared_ptr<gcs::obs::Recorder> recorder) {
    StackConfig cfg = spec.stack;
    cfg.recorder = std::move(recorder);
    if (wiring == Wiring::kWorld) {
      gcs::World::Config wc;
      wc.n = spec.n;
      wc.seed = seed;
      wc.stack = cfg;
      world_ = std::make_unique<gcs::World>(wc);
      for (ProcessId p = 0; p < spec.n; ++p) stacks_.emplace_back(&world_->stack(p));
      return;
    }
    engine_ = std::make_unique<gcs::sim::Engine>();
    network_ = std::make_unique<gcs::sim::Network>(*engine_, spec.n, gcs::sim::LinkModel{}, seed);
    for (ProcessId p = 0; p < spec.n; ++p) {
      auto timed = std::make_unique<TimedTransport>(p, spec.n, ledger);
      TimedTransport* raw = timed.get();
      owned_.push_back(std::make_unique<GcsStack>(*engine_, std::move(timed), p, seed, cfg));
      GcsStack& stack = *owned_.back();
      gcs::sim::Network* net = network_.get();
      raw->bind(std::make_unique<gcs::SimTransport>(stack.context(), *net),
                [net, p] { net->crash(p); });
      transports_.push_back(raw);
      stacks_.emplace_back(&stack);
    }
  }

  gcs::sim::Engine& engine() { return world_ ? world_->engine() : *engine_; }
  GcsStack& stack(ProcessId p) { return *stacks_[static_cast<std::size_t>(p)]; }
  const std::vector<GcsStack*>& stacks() const { return stacks_; }
  std::uint64_t datagrams() const {
    std::uint64_t d = 0;
    for (const TimedTransport* t : transports_) d += t->datagrams();
    return d;
  }
  std::uint64_t bytes() const {
    std::uint64_t b = 0;
    for (const TimedTransport* t : transports_) b += t->bytes();
    return b;
  }

 private:
  std::unique_ptr<gcs::World> world_;
  std::unique_ptr<gcs::sim::Engine> engine_;
  std::unique_ptr<gcs::sim::Network> network_;
  std::vector<std::unique_ptr<GcsStack>> owned_;
  std::vector<TimedTransport*> transports_;
  std::vector<GcsStack*> stacks_;
};


// -- one simulated episode --------------------------------------------------------

/// What one episode measured. Everything above `setup_s` is virtual-time
/// and identical for identical seeds; the rest is host time.
struct Episode {
  std::string error;
  std::uint64_t digest = 0;
  std::uint64_t submitted = 0;
  std::uint64_t complete = 0;  ///< delivered at every correct member
  std::uint64_t events = 0;
  /// Latencies at the submitter. Percentiles are taken per group, then
  /// the median across groups: one group in simulation, one per slice on
  /// UDP, so a scheduler hiccup in one slice does not set the run.
  std::vector<std::vector<double>> latency_groups_ms;
  double sim_msgs_per_s = 0;
  double max_gap_ms = 0;
  double exclusion_ms = 0;
  double setup_s = 0;
  std::vector<double> slice_rates;    ///< UDP: each slice's unscaled delivery rate
  std::vector<double> slice_factors;  ///< UDP: each slice's host-speed factor
  double wall_s = 0;  ///< timed phase, host-speed bursts excluded
  double speed = 1;   ///< HostSpeed factor over this episode's bursts
  std::uint64_t allocs = 0;
  bool truncated = false;  ///< hit its wall-time cap before draining
  std::map<std::string, double> layers;  ///< traced episodes only
};

struct EpisodeOptions {
  Wiring wiring = Wiring::kDecorated;
  bool traced = false;  ///< flight recorder + oracle + host-time ledger
  bool setup_only = false;  ///< stop after set-up (a set-up time sample)
  std::int64_t wall_cap_ns = 0;  ///< absolute steady-clock deadline
  HostSpeed* speed = nullptr;    ///< interleave host-speed bursts (untraced runs)
};

/// Host-speed bursts run this often inside a timed phase, so the speed
/// factor follows the host while the episode runs.
constexpr std::int64_t kBurstEveryNs = 250'000'000;

constexpr double kMinCoverage = 0.95;
constexpr double kMaxResidualShare = 0.10;

void add_path_metrics(const gcs::obs::CriticalPathStats& cp, std::map<std::string, double>& out) {
  std::array<double, gcs::obs::kNumPathPhases> sum{};
  for (const gcs::obs::PathBreakdown& p : cp.paths) {
    for (std::size_t i = 0; i < sum.size(); ++i) sum[i] += static_cast<double>(p.phase[i]);
  }
  const double n = static_cast<double>(cp.paths.size());
  for (std::size_t i = 0; i < sum.size(); ++i) {
    const std::string phase(gcs::obs::path_phase_name(static_cast<gcs::obs::PathPhase>(i)));
    out["cp." + phase + "_us"] = ratio(sum[i], n);
  }
  out["cp.coverage"] = cp.coverage();
}

/// Host-time split of a traced phase; returns an error when the named
/// shares overlap or leave more than kMaxResidualShare unexplained.
std::string add_host_metrics(const HostLedger& ledger, std::int64_t wall_ns,
                             std::map<std::string, double>& out) {
  const double wall = static_cast<double>(wall_ns);
  const auto share = [&](HostLedger::Cat c) { return static_cast<double>(ledger.ns(c)) / wall; };
  out["host.upcall_self_share"] = share(HostLedger::kUpcall);
  out["host.send_share"] = share(HostLedger::kSend);
  out["host.submit_share"] = share(HostLedger::kSubmit);
  out["host.timer_share"] = share(HostLedger::kTimer);
  out["host.poll_share"] = share(HostLedger::kPoll);
  out["runtime.idle_share"] = share(HostLedger::kIdle);
  double named = 0;
  for (int c = HostLedger::kTimer; c < HostLedger::kNumCats; ++c) {
    named += share(static_cast<HostLedger::Cat>(c));
  }
  const double residual = 1.0 - named;
  out["host.residual_share"] = residual;
  if (residual < -0.005 || residual > kMaxResidualShare) {
    return "host-time shares sum to " + std::to_string(named) +
           " of the traced wall time; the residual is outside [-0.005, " +
           std::to_string(kMaxResidualShare) + "]";
  }
  return {};
}

/// Trace-ring and critical-path honesty checks for a traced phase.
std::string check_trace(const gcs::obs::Recorder& recorder,
                        const gcs::obs::CriticalPathStats& cp) {
  if (recorder.dropped() > 0 || cp.truncated) {
    return "trace ring wrapped (" + std::to_string(recorder.dropped()) + " records dropped)";
  }
  if (cp.coverage() < kMinCoverage) {
    return "critical-path coverage " + std::to_string(cp.coverage()) + " < " +
           std::to_string(kMinCoverage);
  }
  return {};
}

/// Engine and transport ratios of a timed phase: the engine events and the
/// datagrams, bytes and send self time the TimedTransports saw.
void add_transport_metrics(const HostLedger& ledger, double msgs, double events, double datagrams,
                           double bytes, std::map<std::string, double>& out) {
  out["sim.events_per_msg"] = ratio(events, msgs);
  out["transport.datagrams_per_msg"] = ratio(datagrams, msgs);
  out["transport.bytes_per_msg"] = ratio(bytes, msgs);
  out["transport.send_ns_per_datagram"] =
      ratio(static_cast<double>(ledger.ns(HostLedger::kSend)), datagrams);
}

/// Protocol-layer ratios shared by the simulated and the UDP workloads.
void add_protocol_metrics(const std::vector<GcsStack*>& stacks, const Counters& d, double msgs,
                          bool gbcast, std::map<std::string, double>& out) {
  out["channel.sends_per_msg"] = ratio(d.at("channel.sent"), msgs);
  out["channel.retransmits_per_msg"] = ratio(d.at("channel.retransmits"), msgs);
  out["channel.fc_stall_us"] = merged_mean(stacks, "channel.fc_stall_us");
  out["rbcast.wire_bytes_per_msg"] =
      ratio(d.at("rbcast.wire_bytes") + d.at("gbdata.wire_bytes"), msgs);
  // Instances are decided at every member; count them once per member.
  const double instances =
      (d.at("paxos.decided") + d.at("consensus.decided")) / static_cast<double>(stacks.size());
  out["abcast.msgs_per_instance"] = gbcast ? 0.0 : ratio(msgs, instances);
  out["abcast.batch_wait_us"] = merged_mean(stacks, "abcast.batch_wait_us");
  out["abcast.gap_wait_us"] = merged_mean(stacks, "abcast.gap_wait_us");
  std::uint32_t max_open = 0;
  for (GcsStack* s : stacks) {
    max_open = std::max(max_open, s->atomic_broadcast().max_open_proposals());
  }
  out["abcast.max_open"] = max_open;
  out["abcast.pull_requests_per_msg"] = ratio(d.at("abcast.pull_requests"), msgs);
  out["consensus.wire_msgs_per_msg"] = ratio(d.at("consensus.wire_msgs"), msgs);
  out["consensus.accept_rtt_us"] = merged_mean(stacks, "consensus.accept_rtt_us");
  out["paxos.prepares"] = d.at("paxos.prepares_sent");
  const double fast = d.at("gbcast.fast_delivered");
  out["gbcast.fast_share"] = ratio(fast, fast + d.at("gbcast.resolved_delivered"));
  out["gbcast.fast_latency_us"] = merged_mean(stacks, "gbcast.fast_latency_us");
  out["gbcast.slow_latency_us"] = merged_mean(stacks, "gbcast.slow_latency_us");
  out["gbcast.resolutions_per_msg"] = ratio(d.at("gbcast.resolutions_triggered"), msgs);
  out["membership.views_installed"] = d.at("membership.views_installed");
  out["monitoring.exclusions"] = d.at("monitoring.exclusions_requested");
  out["fd.suspicions"] = d.at("fd.suspicions");
  out["fd.false_suspicions"] = d.at("fd.false_suspicions");
  double pooled = 0;
  for (GcsStack* s : stacks) pooled += static_cast<double>(s->context().pool().size());
  out["util.pool_buffers"] = pooled / static_cast<double>(stacks.size());
}

/// The checks and per-layer metrics every traced phase shares: the oracle's
/// verdict, the trace's honesty checks, the host-time split, the critical
/// path and the transport and protocol ratios. \p datagrams and \p bytes
/// are the decorators' deltas over the phase, \p before the counters at its
/// start. The first problem found goes to ep.error.
void finish_traced(gcs::obs::Oracle& oracle, const gcs::obs::Recorder& recorder,
                   const HostLedger& ledger, std::int64_t wall_ns, double datagrams, double bytes,
                   const std::vector<GcsStack*>& stacks, const Counters& before, bool gbcast,
                   Episode& ep) {
  oracle.finalize();
  if (!oracle.passed() && ep.error.empty()) ep.error = "oracle: " + oracle.summary();
  const gcs::obs::CriticalPathStats cp = gcs::obs::analyze_critical_path(recorder);
  if (ep.error.empty()) ep.error = check_trace(recorder, cp);
  const std::string host_err = add_host_metrics(ledger, wall_ns, ep.layers);
  if (ep.error.empty()) ep.error = host_err;
  add_path_metrics(cp, ep.layers);
  const double msgs = static_cast<double>(ep.complete);
  add_transport_metrics(ledger, msgs, static_cast<double>(ep.events), datagrams, bytes, ep.layers);
  ep.layers["membership.exclusion_ms"] = ep.exclusion_ms;
  ep.layers["delivery.max_gap_ms"] = ep.max_gap_ms;
  add_protocol_metrics(stacks, delta(read_counters(stacks), before), msgs, gbcast, ep.layers);
}

Episode sim_episode(const SimSpec& spec, std::uint64_t seed, const EpisodeOptions& opt) {
  Episode ep;
  HostLedger ledger;
  const std::int64_t setup_start = HostLedger::now_ns();
  std::shared_ptr<gcs::obs::Recorder> recorder;
  if (opt.traced) recorder = std::make_shared<gcs::obs::Recorder>(spec.ring);
  std::optional<gcs::obs::Oracle> oracle;  // outlives the stacks it observes
  SimCluster cluster(spec, stack_seed(seed), opt.wiring, ledger, recorder);
  gcs::sim::Engine& engine = cluster.engine();
  const int n = spec.n;

  if (opt.traced) {
    oracle.emplace();
    const gcs::ConflictRelation rel = cluster.stack(0).generic_broadcast().relation();
    oracle->set_conflicts([rel](std::uint8_t a, std::uint8_t b) { return rel.conflicts(a, b); });
    for (GcsStack* s : cluster.stacks()) s->attach_oracle(*oracle);
  }

  Tracker tracker(n, spec.gbcast ? Tracker::Order::kConflictClass : Tracker::Order::kTotal);
  GapTracker gaps(n);
  gcs::Rng gen(generator_seed(seed));
  std::uint32_t correct = all_mask(n);
  TimePoint traffic_end = std::numeric_limits<TimePoint>::max();
  std::uint64_t next_index = 0;

  const auto submit = [&](ProcessId p, gcs::MsgClass cls) {
    Bytes payload = make_payload(spec.payload, next_index++, gen);
    MsgId id;
    {
      Scope scope(ledger, HostLedger::kSubmit);
      id = spec.gbcast ? cluster.stack(p).gbcast(cls, std::move(payload))
                       : cluster.stack(p).abcast(std::move(payload));
    }
    tracker.on_submit(id, cls, engine.now());
  };
  const auto on_delivery = [&](ProcessId p, const MsgId& id) {
    bool own = false;
    {
      Scope scope(ledger, HostLedger::kOutside);
      const TimePoint now = engine.now();
      gaps.on_delivery(p, now);
      own = tracker.on_deliver(p, id, now);
    }
    if (own && spec.window > 0 && engine.now() < traffic_end) submit(p, gcs::kAbcastClass);
  };
  std::vector<TimePoint> excluded_at(static_cast<std::size_t>(n), -1);
  for (ProcessId p = 0; p < n; ++p) {
    GcsStack& s = cluster.stack(p);
    if (spec.gbcast) {
      s.on_gdeliver([&on_delivery, p](const MsgId& id, gcs::MsgClass, const Bytes&) {
        on_delivery(p, id);
      });
    } else {
      s.on_adeliver([&on_delivery, p](const MsgId& id, const Bytes&) { on_delivery(p, id); });
    }
    s.on_view([&excluded_at, &engine, p](const gcs::View& v) {
      auto& at = excluded_at[static_cast<std::size_t>(p)];
      if (!v.contains(0) && at < 0) at = engine.now();
    });
  }

  std::vector<ProcessId> members(static_cast<std::size_t>(n));
  std::iota(members.begin(), members.end(), 0);
  for (GcsStack* s : cluster.stacks()) s->init_view(members);
  engine.run_until(engine.now() + kWarmup);
  ep.setup_s = wall_s_since(setup_start);
  if (opt.setup_only) return ep;

  // -- timed phase --
  const Counters before = read_counters(cluster.stacks());
  const std::uint64_t datagrams0 = cluster.datagrams();
  const std::uint64_t bytes0 = cluster.bytes();
  const std::uint64_t events0 = engine.executed();
  const std::uint64_t allocs0 = alloc_count();
  ledger.enable(opt.traced || opt.wiring == Wiring::kTimed);
  ledger.reset();
  std::optional<ScaledClock> clock;
  if (opt.speed) clock.emplace(*opt.speed);
  const std::int64_t wall0 = HostLedger::now_ns();
  std::int64_t last_split = wall0;
  const TimePoint t0 = engine.now();
  traffic_end = t0 + spec.traffic;
  gaps.open(t0);
  gaps.close(traffic_end);

  TimePoint crash_ts = -1;
  if (spec.crash_at >= 0) {
    engine.schedule_at(t0 + spec.crash_at, [&] {
      crash_ts = engine.now();
      gaps.open(crash_ts);
      correct &= ~1u;
      cluster.stack(0).crash();
    });
  }
  // Open loop: arrivals at a fixed virtual rate, sender and class drawn
  // from the generator seed. Closed loop: each sender keeps `window`
  // messages in flight, refilled from its own deliveries.
  TimePoint next_arrival = t0;
  const Duration spacing = spec.window > 0 ? 0 : std::llround(1e6 / spec.rate_per_s);
  std::function<void()> arrive = [&] {
    const ProcessId p = spec.senders[gen.next_below(spec.senders.size())];
    const gcs::MsgClass cls =
        !spec.gbcast || gen.chance(spec.conflict_share) ? gcs::kAbcastClass : gcs::kRbcastClass;
    if (correct & (1u << p)) submit(p, cls);
    next_arrival += spacing;
    if (next_arrival < traffic_end) engine.schedule_at(next_arrival, [&arrive] { arrive(); });
  };
  if (spec.window > 0) {
    for (ProcessId p : spec.senders) {
      for (int i = 0; i < spec.window; ++i) submit(p, gcs::kAbcastClass);
    }
  } else {
    engine.schedule_at(t0, [&arrive] { arrive(); });
  }

  std::size_t send_queue_max = 0;
  std::size_t store_max = 0;
  std::uint64_t steps = 0;
  const auto step_while = [&](const auto& more) {
    while (more()) {
      ++steps;
      if ((steps & 1023) == 0) {
        const std::int64_t now = HostLedger::now_ns();
        if (now > opt.wall_cap_ns) {
          ep.truncated = true;
          return;
        }
        if (clock && now - last_split > kBurstEveryNs) {
          clock->split();
          last_split = HostLedger::now_ns();
        }
      }
      if (opt.traced && (steps & 63) == 0) {
        Scope scope(ledger, HostLedger::kOutside);
        for (ProcessId p = 0; p < n; ++p) {
          if (!(correct & (1u << p))) continue;
          send_queue_max = std::max(send_queue_max, cluster.stack(p).channel().total_send_queue());
          store_max = std::max(store_max, cluster.stack(p).generic_broadcast().store_size());
        }
      }
      bool stepped = false;
      {
        Scope scope(ledger, HostLedger::kTimer);
        stepped = engine.step();
      }
      if (!stepped) return;
    }
  };
  step_while([&] { return engine.now() < traffic_end; });
  const TimePoint drain_end = traffic_end + spec.drain;
  const auto undelivered = [&] {
    for (ProcessId p = 0; p < n; ++p) {
      if ((correct & (1u << p)) && tracker.delivered_at(p) < tracker.submitted()) return true;
    }
    return false;
  };
  step_while([&] { return undelivered() && engine.now() < drain_end; });
  std::int64_t wall_ns = HostLedger::now_ns() - wall0;
  ledger.unwind();
  if (clock) {
    clock->split();
    wall_ns = clock->wall_ns();
    ep.speed = clock->scaled_ns() / static_cast<double>(wall_ns);
  }

  ep.wall_s = static_cast<double>(wall_ns) * 1e-9;
  ep.events = engine.executed() - events0;
  ep.allocs = alloc_count() - allocs0;
  const TimePoint end = engine.now();
  ep.submitted = tracker.submitted();
  ep.complete = tracker.complete(correct);
  ep.digest = tracker.digest();
  ep.latency_groups_ms = {tracker.latencies(end, 1e-3)};
  ep.sim_msgs_per_s = ratio(static_cast<double>(ep.complete), static_cast<double>(end - t0) * 1e-6);
  ep.max_gap_ms = static_cast<double>(gaps.longest(correct)) * 1e-3;
  ep.error = tracker.check();
  if (crash_ts >= 0) {
    TimePoint last = crash_ts;
    for (ProcessId p = 1; p < n; ++p) {
      const TimePoint at = excluded_at[static_cast<std::size_t>(p)];
      if (at < 0 && ep.error.empty()) {
        ep.error = "p" + std::to_string(p) + " never installed a view without p0";
      }
      last = std::max(last, at);
    }
    ep.exclusion_ms = static_cast<double>(last - crash_ts) * 1e-3;
  }
  if (!opt.traced) return ep;

  finish_traced(*oracle, *recorder, ledger, wall_ns,
                static_cast<double>(cluster.datagrams() - datagrams0),
                static_cast<double>(cluster.bytes() - bytes0), cluster.stacks(), before,
                spec.gbcast, ep);
  ep.layers["channel.send_queue_max"] = static_cast<double>(send_queue_max);
  ep.layers["gbcast.store_max"] = static_cast<double>(store_max);
  return ep;
}

// -- UDP loopback -------------------------------------------------------------------

/// udp_loopback: n members on real UDP sockets over loopback, one
/// RealTimeRunner loop in this process. Latency here is wall time.
constexpr int kUdpMembers = 3;
/// Outstanding messages per member. Larger windows collapse the load
/// (see README.md), so the closed loop stays below that point.
constexpr int kUdpWindow = 1;
constexpr std::size_t kUdpPayload = 1024;
constexpr std::size_t kUdpRing = std::size_t{1} << 21;
/// The timed phase is cut into one slice per second of --seconds, each of
/// kUdpSliceMsgs submissions (about a second), so a run handles the same
/// number of messages however fast the host is, and its memory does not
/// follow its throughput. A slice that stalls ends after kUdpSliceCapMs.
constexpr std::size_t kUdpSliceMsgs = 3000;
constexpr int kUdpSliceCapMs = 3000;
/// At most this many slices are traced; about 130 records per message keep
/// two slices inside half of kUdpRing.
constexpr int kUdpTracedSlices = 3;

StackConfig udp_stack_config() {
  StackConfig sc;
  sc.consensus_algorithm = StackConfig::ConsensusAlgo::kPaxos;
  sc.abcast.pipeline_depth = 16;
  sc.abcast.max_batch = 16;
  sc.abcast.adaptive = true;
  // Loopback timing follows the real-time tools (nggcs_rtrun): a single
  // host loop stalls now and then, so suspicion is slower than in sim, and
  // no member is excluded during a run.
  sc.fd.heartbeat_interval = gcs::msec(5);
  sc.consensus_suspect_timeout = gcs::msec(100);
  sc.monitoring.exclusion_timeout = gcs::sec(600);
  return sc;
}

/// The UDP group. Ports come from a pid-derived range outside the fixed
/// 39xxx ports of the test suite and tools, moving on when a bind fails.
class UdpCluster {
 public:
  UdpCluster(std::uint64_t seed, HostLedger& ledger, std::shared_ptr<gcs::obs::Recorder> recorder)
      : ledger_(ledger), runner_(engine_) {
    StackConfig sc = udp_stack_config();
    sc.recorder = std::move(recorder);
    const auto pid = static_cast<std::uint64_t>(::getpid());
    for (std::uint64_t attempt = 0; attempt < 64; ++attempt) {
      const auto base =
          static_cast<std::uint16_t>(40000 + ((pid * 97 + seed * 13 + attempt * 1009) % 2000) * 10);
      try {
        build(base, seed, sc);
        break;
      } catch (const std::runtime_error&) {
        stacks_.clear();
        udp_.clear();
        contexts_.clear();
      }
    }
    if (stacks_.empty()) throw std::runtime_error("udp_loopback: no free port range");
    // One pollable for the group: the runner sleeps only when no socket
    // had a datagram, and that sleep is charged to the idle category.
    runner_.add_pollable([this] {
      int processed = 0;
      {
        Scope scope(ledger_, HostLedger::kPoll);
        for (gcs::rt::UdpTransport* t : udp_) processed += t->poll();
      }
      ++polls_;
      polled_ += static_cast<std::uint64_t>(processed);
      if (processed == 0) ledger_.enter(HostLedger::kIdle);
      return processed;
    });
  }

  /// Drive the runner for \p ms of wall time or until \p done.
  bool run_until(int ms, const std::function<bool()>& done) {
    Scope scope(ledger_, HostLedger::kTimer);
    return runner_.run_until(std::chrono::milliseconds(ms), [&] {
      // Called at the top of every loop iteration: the idle sleep is over.
      if (ledger_.current() == HostLedger::kIdle) ledger_.leave();
      return done();
    });
  }

  gcs::sim::Engine& engine() { return engine_; }
  gcs::rt::RealTimeRunner& runner() { return runner_; }
  GcsStack& stack(ProcessId p) { return *stacks_[static_cast<std::size_t>(p)]; }
  const std::vector<GcsStack*>& stacks() const { return raw_stacks_; }
  std::uint64_t polls() const { return polls_; }
  std::uint64_t polled() const { return polled_; }
  std::uint64_t datagrams() const {
    std::uint64_t d = 0;
    for (const TimedTransport* t : timed_) d += t->datagrams();
    return d;
  }
  std::uint64_t bytes() const {
    std::uint64_t b = 0;
    for (const TimedTransport* t : timed_) b += t->bytes();
    return b;
  }
  /// A socket-edge counter ("udp.tx_datagrams", ...) summed over members.
  double udp_counter(const char* name) const {
    double sum = 0;
    for (const auto& c : contexts_) sum += static_cast<double>(c->metrics().counter(name));
    return sum;
  }

 private:
  void build(std::uint16_t base, std::uint64_t seed, const StackConfig& sc) {
    gcs::rt::UdpTransport::Config ucfg;
    ucfg.base_port = base;
    std::vector<std::unique_ptr<gcs::rt::UdpTransport>> sockets;
    for (ProcessId p = 0; p < kUdpMembers; ++p) {
      contexts_.push_back(std::make_unique<gcs::sim::Context>(
          p, engine_, gcs::Rng(static_cast<std::uint64_t>(p) + 1), gcs::Logger(),
          std::make_shared<gcs::Metrics>()));
      sockets.push_back(
          std::make_unique<gcs::rt::UdpTransport>(*contexts_.back(), kUdpMembers, ucfg));
    }
    for (ProcessId p = 0; p < kUdpMembers; ++p) {
      udp_.push_back(sockets[static_cast<std::size_t>(p)].get());
      auto timed = std::make_unique<TimedTransport>(p, kUdpMembers, ledger_);
      timed->bind(std::move(sockets[static_cast<std::size_t>(p)]));
      timed_.push_back(timed.get());
      stacks_.push_back(std::make_unique<GcsStack>(engine_, std::move(timed), p, seed, sc));
      raw_stacks_.push_back(stacks_.back().get());
    }
  }

  HostLedger& ledger_;
  gcs::sim::Engine engine_;
  gcs::rt::RealTimeRunner runner_;
  std::vector<std::unique_ptr<gcs::sim::Context>> contexts_;  // socket-edge metrics
  std::vector<gcs::rt::UdpTransport*> udp_;
  std::vector<TimedTransport*> timed_;
  std::vector<std::unique_ptr<GcsStack>> stacks_;
  std::vector<GcsStack*> raw_stacks_;
  std::uint64_t polls_ = 0;
  std::uint64_t polled_ = 0;
};

/// One UDP phase: set up (kSetupSamples times, keeping the last group), run a
/// closed loop for `slices` slices of kUdpSliceMsgs submissions, then drain.
Episode udp_phase(std::uint64_t seed, int slices, bool traced, HostSpeed& speed,
                  std::vector<double>& setups) {
  Episode ep;
  HostLedger ledger;
  std::shared_ptr<gcs::obs::Recorder> recorder;
  std::optional<gcs::obs::Oracle> oracle;
  std::unique_ptr<UdpCluster> cluster;
  std::unique_ptr<Tracker> tracker;
  GapTracker gaps(kUdpMembers);
  gcs::Rng gen(generator_seed(seed));
  const std::uint32_t correct = all_mask(kUdpMembers);
  std::size_t submit_until = 0;  // the closed loop refills while fewer were submitted
  std::uint64_t next_index = 0;
  std::unordered_set<std::uint64_t> warmup;  // MsgId keys of the set-up messages
  std::uint64_t warm_delivered = 0;

  std::size_t send_queue_max = 0;
  std::uint64_t loop_iterations = 0;
  const auto sample = [&] {
    if (!traced || (++loop_iterations & 63) != 0) return;
    Scope scope(ledger, HostLedger::kOutside);
    for (GcsStack* s : cluster->stacks()) {
      send_queue_max = std::max(send_queue_max, s->channel().total_send_queue());
    }
  };
  const auto submit = [&](ProcessId p) {
    Bytes payload = make_payload(kUdpPayload, next_index++, gen);
    MsgId id;
    {
      Scope scope(ledger, HostLedger::kSubmit);
      id = cluster->stack(p).abcast(std::move(payload));
    }
    tracker->on_submit(id, gcs::kAbcastClass, HostLedger::now_ns());
  };

  // Set-up samples, with a host-speed burst before every tenth.
  const std::size_t setups0 = setups.size();
  const std::uint64_t setup_rounds = speed.rounds();
  const std::int64_t setup_ns = speed.ns();
  for (int round = 0; round < kSetupSamples; ++round) {
    if (round % 10 == 0) speed.burst();
    const std::int64_t setup_start = HostLedger::now_ns();
    cluster.reset();
    oracle.reset();
    warmup.clear();
    warm_delivered = 0;
    // The last set-up is the one measured; earlier ones only time set-up.
    const bool last = round + 1 == kSetupSamples;
    if (last && traced) {
      recorder = std::make_shared<gcs::obs::Recorder>(kUdpRing);
      oracle.emplace();
    }
    cluster = std::make_unique<UdpCluster>(stack_seed(seed) + static_cast<std::uint64_t>(round),
                                           ledger, last ? recorder : nullptr);
    tracker = std::make_unique<Tracker>(kUdpMembers, Tracker::Order::kTotal);
    if (oracle) {
      const gcs::ConflictRelation rel = cluster->stack(0).generic_broadcast().relation();
      oracle->set_conflicts([rel](std::uint8_t a, std::uint8_t b) { return rel.conflicts(a, b); });
      for (GcsStack* s : cluster->stacks()) s->attach_oracle(*oracle);
    }
    for (ProcessId p = 0; p < kUdpMembers; ++p) {
      cluster->stack(p).on_adeliver([&, p](const MsgId& id, const Bytes&) {
        if (warmup.count(Tracker::key(id))) {
          ++warm_delivered;
          return;
        }
        bool own = false;
        {
          Scope scope(ledger, HostLedger::kOutside);
          const std::int64_t now = HostLedger::now_ns();
          gaps.on_delivery(p, now);
          own = tracker->on_deliver(p, id, now);
        }
        if (own && tracker->submitted() < submit_until) submit(p);
      });
    }
    std::vector<ProcessId> members(kUdpMembers);
    std::iota(members.begin(), members.end(), 0);
    for (GcsStack* s : cluster->stacks()) s->init_view(members);
    // Warm-up: one message per member delivered everywhere.
    for (ProcessId p = 0; p < kUdpMembers; ++p) {
      warmup.insert(Tracker::key(cluster->stack(p).abcast(Bytes(16, 0))));
    }
    cluster->run_until(5000, [&] { return warm_delivered >= kUdpMembers * kUdpMembers; });
    setups.push_back(wall_s_since(setup_start));
  }
  speed.burst();
  const double setup_speed = speed.factor_since(setup_rounds, setup_ns);
  for (std::size_t i = setups0; i < setups.size(); ++i) setups[i] *= setup_speed;

  // -- timed phase --
  const Counters before = read_counters(cluster->stacks());
  const std::uint64_t datagrams0 = cluster->datagrams();
  const std::uint64_t bytes0 = cluster->bytes();
  const std::uint64_t polls0 = cluster->polls();
  const std::uint64_t polled0 = cluster->polled();
  const double tx0 = cluster->udp_counter("udp.tx_datagrams");
  const double rx0 = cluster->udp_counter("udp.rx_datagrams");
  const double backoffs0 = cluster->udp_counter("udp.tx_backoffs");
  const std::uint64_t events0 = cluster->engine().executed();
  const std::uint64_t allocs0 = alloc_count();
  ledger.enable(traced);
  ledger.reset();
  const std::int64_t wall0 = HostLedger::now_ns();
  const TimePoint engine0 = cluster->engine().now();
  gaps.open(wall0);
  const auto all_delivered = [&] {
    for (ProcessId p = 0; p < kUdpMembers; ++p) {
      if (tracker->delivered_at(p) < tracker->submitted()) return false;
    }
    return true;
  };
  // Each slice primes the closed loop, submits kUdpSliceMsgs and lets the
  // group drain, so the host-speed burst after it (untraced only) pauses an
  // idle group and delays no message. A slice's rate and latencies are
  // scaled by the bursts on either side of it.
  std::uint64_t complete_before = 0;
  std::optional<ScaledClock> clock;
  if (!traced) clock.emplace(speed);
  std::vector<std::pair<std::int64_t, double>> slice_speed;  // (slice end, factor)
  for (int s = 0; s < slices; ++s) {
    // The trace must not wrap: stop once half the ring is used, which
    // leaves room for the slice in flight and the drain.
    if (recorder && recorder->size() > recorder->capacity() / 2) break;
    const std::int64_t slice_start = HostLedger::now_ns();
    submit_until = tracker->submitted() + kUdpSliceMsgs;
    for (ProcessId p = 0; p < kUdpMembers; ++p) {
      for (int i = 0; i < kUdpWindow; ++i) submit(p);
    }
    cluster->run_until(kUdpSliceCapMs, [&] {
      sample();
      return tracker->submitted() >= submit_until && all_delivered();
    });
    const std::uint64_t complete = tracker->complete(correct);
    const std::int64_t slice_end = HostLedger::now_ns();
    double wall = static_cast<double>(slice_end - slice_start);
    double factor = 1;
    if (clock) {
      const std::int64_t wall_before = clock->wall_ns();
      const double scaled_before = clock->scaled_ns();
      clock->split();
      wall = static_cast<double>(clock->wall_ns() - wall_before);
      factor = (clock->scaled_ns() - scaled_before) / wall;
    }
    ep.slice_rates.push_back(static_cast<double>(complete - complete_before) / (wall * 1e-9));
    ep.slice_factors.push_back(factor);
    complete_before = complete;
    slice_speed.emplace_back(slice_end, factor);
  }
  submit_until = 0;
  const std::int64_t traffic_end = HostLedger::now_ns();
  gaps.close(traffic_end);
  cluster->run_until(2000, all_delivered);
  std::int64_t wall_ns = HostLedger::now_ns() - wall0;
  ledger.unwind();
  if (clock) {
    clock->split();
    wall_ns = clock->wall_ns();
    ep.speed = clock->scaled_ns() / static_cast<double>(wall_ns);
  }

  ep.wall_s = static_cast<double>(wall_ns) * 1e-9;
  ep.events = cluster->engine().executed() - events0;
  ep.allocs = alloc_count() - allocs0;
  ep.submitted = tracker->submitted();
  ep.complete = tracker->complete(correct);
  ep.digest = tracker->digest();
  // Group latencies by the slice a message was submitted in, each scaled
  // by that slice's host speed.
  const std::vector<double> latencies_ns = tracker->latencies(HostLedger::now_ns(), 1.0);
  const std::vector<std::int64_t> submits = tracker->submit_times();
  ep.latency_groups_ms.assign(slice_speed.size(), {});
  for (std::size_t i = 0, s = 0; i < latencies_ns.size(); ++i) {
    while (s + 1 < slice_speed.size() && submits[i] >= slice_speed[s].first) ++s;
    ep.latency_groups_ms[s].push_back(latencies_ns[i] * 1e-6 * slice_speed[s].second);
  }
  // The runner's engine clock is wall time, so this rate is scaled too.
  ep.sim_msgs_per_s = ratio(static_cast<double>(ep.complete),
                            static_cast<double>(cluster->engine().now() - engine0) * 1e-6) /
                      ep.speed;
  ep.max_gap_ms = static_cast<double>(gaps.longest(correct)) * 1e-6 * ep.speed;
  ep.error = tracker->check();
  if (!traced) return ep;

  finish_traced(*oracle, *recorder, ledger, wall_ns,
                static_cast<double>(cluster->datagrams() - datagrams0),
                static_cast<double>(cluster->bytes() - bytes0), cluster->stacks(), before,
                false, ep);
  const double polled = static_cast<double>(cluster->polled() - polled0);
  const double tx = cluster->udp_counter("udp.tx_datagrams") - tx0;
  const double rx = cluster->udp_counter("udp.rx_datagrams") - rx0;
  ep.layers["runtime.poll_ns_per_datagram"] =
      ratio(static_cast<double>(ledger.ns(HostLedger::kPoll)), polled);
  ep.layers["runtime.datagrams_per_poll"] =
      ratio(polled, static_cast<double>(cluster->polls() - polls0));
  ep.layers["channel.send_queue_max"] = static_cast<double>(send_queue_max);
  ep.layers["gbcast.store_max"] = 0;  // no generic broadcast on this workload
  ep.layers["runtime.max_timer_lag_us"] = static_cast<double>(cluster->runner().max_timer_lag_us());
  ep.layers["udp.loss_share"] = tx > 0 ? std::max(0.0, 1.0 - rx / tx) : 0.0;
  ep.layers["udp.tx_backoffs"] = cluster->udp_counter("udp.tx_backoffs") - backoffs0;
  return ep;
}

// -- runs ---------------------------------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
};

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs = {
      {"msgs_per_wall_s", "1/s"}, {"latency_p50_ms", "ms"}, {"latency_p99_ms", "ms"},
      {"sim_msgs_per_s", "1/s"},  {"setup_s", "s"},         {"peak_rss_mb", "MB"}};
  return defs;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs = {
      {"sim.events_per_msg", "count"},
      {"sim.ns_per_event", "ns"},
      {"transport.datagrams_per_msg", "count"},
      {"transport.bytes_per_msg", "B"},
      {"transport.send_ns_per_datagram", "ns"},
      {"util.pool_buffers", "count"},
      {"util.allocs_per_msg", "count"},
      {"host.upcall_self_share", "share"},
      {"host.send_share", "share"},
      {"host.submit_share", "share"},
      {"host.timer_share", "share"},
      {"host.poll_share", "share"},
      {"host.residual_share", "share"},
      {"host.speed_factor", "ratio"},
      {"host.unscaled_msgs_per_wall_s", "1/s"},
      {"channel.sends_per_msg", "count"},
      {"channel.retransmits_per_msg", "count"},
      {"channel.send_queue_max", "count"},
      {"channel.fc_stall_us", "us"},
      {"rbcast.wire_bytes_per_msg", "B"},
      {"abcast.msgs_per_instance", "count"},
      {"abcast.batch_wait_us", "us"},
      {"abcast.max_open", "count"},
      {"abcast.gap_wait_us", "us"},
      {"abcast.pull_requests_per_msg", "count"},
      {"consensus.wire_msgs_per_msg", "count"},
      {"consensus.accept_rtt_us", "us"},
      {"paxos.prepares", "count"},
      {"gbcast.fast_share", "share"},
      {"gbcast.fast_latency_us", "us"},
      {"gbcast.slow_latency_us", "us"},
      {"gbcast.resolutions_per_msg", "count"},
      {"gbcast.store_max", "count"},
      {"membership.views_installed", "count"},
      {"membership.exclusion_ms", "ms"},
      {"delivery.max_gap_ms", "ms"},
      {"monitoring.exclusions", "count"},
      {"fd.suspicions", "count"},
      {"fd.false_suspicions", "count"},
      {"runtime.poll_ns_per_datagram", "ns"},
      {"runtime.datagrams_per_poll", "count"},
      {"runtime.idle_share", "share"},
      {"runtime.max_timer_lag_us", "us"},
      {"udp.loss_share", "share"},
      {"udp.tx_backoffs", "count"},
      {"obs.trace_overhead", "share"},
      {"cp.flood_us", "us"},
      {"cp.batch_wait_us", "us"},
      {"cp.propose_wait_us", "us"},
      {"cp.accept_wait_us", "us"},
      {"cp.pull_wait_us", "us"},
      {"cp.reorder_wait_us", "us"},
      {"cp.gb_ack_wait_us", "us"},
      {"cp.gb_conflict_wait_us", "us"},
      {"cp.gb_resolve_us", "us"},
      {"cp.coverage", "share"},
      {"failed_share", "share"}};
  return defs;
}

/// Hard wall-time cap on a whole run, so a stalled workload still reports.
constexpr double kRunCapS = 150;

Result finish(const std::vector<MetricDef>& defs, std::map<std::string, double> values,
              Result r) {
  for (const MetricDef& d : defs) {
    const auto it = values.find(d.name);
    if (it == values.end()) {
      r.correct = false;
      if (r.error.empty()) r.error = std::string("metric ") + d.name + " was not measured";
      continue;
    }
    r.metrics.push_back({d.name, it->second, d.unit});
  }
  return r;
}

/// Fill the end-to-end values shared by every workload from the first
/// measured episode (virtual results repeat exactly) and host medians.
void end_to_end_values(const Episode& first, double wall_rate, double setup_s,
                       std::map<std::string, double>& v, Result& r) {
  const auto p50 = grouped_percentile(first.latency_groups_ms, 0.5);
  const auto p99 = grouped_percentile(first.latency_groups_ms, 0.99);
  std::size_t samples = 0;
  std::size_t smallest = std::numeric_limits<std::size_t>::max();
  for (const auto& g : first.latency_groups_ms) {
    samples += g.size();
    smallest = std::min(smallest, g.size());
  }
  if (!p50 || !p99) {
    r.correct = false;
    if (r.error.empty()) {
      r.error = "too few latency samples for a p99 with " + std::to_string(kMinBeyond) +
                " beyond it in most groups";
    }
  }
  std::printf("latency samples: %zu in %zu group(s), the smallest with %zu\n", samples,
              first.latency_groups_ms.size(), smallest);
  v["msgs_per_wall_s"] = wall_rate;
  v["latency_p50_ms"] = p50.value_or(0);
  v["latency_p99_ms"] = p99.value_or(0);
  v["sim_msgs_per_s"] = first.sim_msgs_per_s;
  v["setup_s"] = setup_s;
  v["peak_rss_mb"] = peak_rss_mb();
}

void account(const Episode& ep, Result& r) {
  r.attempted += ep.submitted;
  r.failed += ep.submitted - ep.complete;
  if (!ep.error.empty()) {
    r.correct = false;
    if (r.error.empty()) r.error = ep.error;
  }
}

Result run_sim(const RunConfig& cfg, std::int64_t start_ns) {
  const SimSpec spec = sim_spec(cfg.workload);
  const std::int64_t deadline = start_ns + static_cast<std::int64_t>(cfg.seconds * 1e9);
  HostSpeed speed(HostSpeed::Kind::kMemory);
  speed.burst();
  EpisodeOptions traced;
  traced.wall_cap_ns = start_ns + static_cast<std::int64_t>(kRunCapS * 1e9);
  traced.traced = true;
  EpisodeOptions plain = traced;
  plain.traced = false;
  plain.speed = &speed;

  // Episodes repeat one seed: the virtual outcome must repeat exactly, and
  // host metrics are medians over the repeats.
  // Set-up samples, with a host-speed burst before every tenth.
  std::vector<double> setups;
  EpisodeOptions setup_only = plain;
  setup_only.setup_only = true;
  const std::uint64_t setup_rounds = speed.rounds();
  const std::int64_t setup_ns = speed.ns();
  for (int i = 0; i < kSetupSamples; ++i) {
    if (i % 10 == 0) speed.burst();
    setups.push_back(sim_episode(spec, cfg.seed, setup_only).setup_s);
  }
  speed.burst();
  for (double& s : setups) s *= speed.factor_since(setup_rounds, setup_ns);
  std::vector<Episode> plains;
  std::vector<Episode> traceds;
  Result r;
  do {
    plains.push_back(sim_episode(spec, cfg.seed, plain));
    account(plains.back(), r);
    if (cfg.trace && r.correct) {
      traceds.push_back(sim_episode(spec, cfg.seed, traced));
      account(traceds.back(), r);
    }
  } while (r.correct && !plains.back().truncated &&
           (traceds.empty() || !traceds.back().truncated) && HostLedger::now_ns() < deadline);

  const Episode& first = plains.front();
  for (const auto* eps : {&plains, &traceds}) {
    for (const Episode& ep : *eps) {
      if (ep.digest != first.digest && r.error.empty()) {
        r.correct = false;
        r.error = "repeated episodes of one seed delivered differently";
      }
    }
  }
  // Host times are scaled to the reference host speed (see HostSpeed).
  std::vector<double> raw_rates, rates, walls, traced_walls, events_ns, allocs;
  for (const Episode& ep : plains) {
    raw_rates.push_back(ratio(static_cast<double>(ep.complete), ep.wall_s));
    rates.push_back(raw_rates.back() / ep.speed);
    std::printf("episode: %.1f msgs/wall-s unscaled, host speed %.4f, %.1f scaled\n",
                raw_rates.back(), ep.speed, rates.back());
    walls.push_back(ep.wall_s);
    events_ns.push_back(ratio(ep.wall_s * 1e9, static_cast<double>(ep.events)) * ep.speed);
    allocs.push_back(ratio(static_cast<double>(ep.allocs), static_cast<double>(ep.complete)));
  }
  for (const Episode& ep : traceds) traced_walls.push_back(ep.wall_s);
  std::printf("workload %s: %zu episodes (+%zu traced), %llu messages each, %s\n",
              cfg.workload.c_str(), plains.size(), traceds.size(),
              static_cast<unsigned long long>(first.submitted),
              r.correct ? "deliveries checked" : r.error.c_str());
  std::printf("host speed factor %.4f, unscaled median %.1f msgs/wall-s\n", speed.factor(),
              median(raw_rates));

  std::map<std::string, double> v;
  if (!cfg.trace) {
    end_to_end_values(first, median(rates), median(setups), v, r);
    return finish(end_to_end_metrics(), v, r);
  }
  if (!traceds.empty()) v = traceds.back().layers;
  v["sim.ns_per_event"] = median(events_ns);
  v["host.speed_factor"] = speed.factor();
  v["host.unscaled_msgs_per_wall_s"] = median(raw_rates);
  v["util.allocs_per_msg"] = median(allocs);
  v["obs.trace_overhead"] = ratio(median(traced_walls), median(walls)) - 1.0;
  v["failed_share"] = ratio(static_cast<double>(r.failed), static_cast<double>(r.attempted));
  for (const char* m : {"runtime.poll_ns_per_datagram", "runtime.datagrams_per_poll",
                        "runtime.max_timer_lag_us", "udp.loss_share", "udp.tx_backoffs"}) {
    v[m] = 0;  // no sockets in simulation
  }
  return finish(per_layer_metrics(), v, r);
}

Result run_udp(const RunConfig& cfg) {
  Result r;
  std::vector<double> setups;
  HostSpeed speed(HostSpeed::Kind::kLoopback);
  speed.burst();
  // The traced run splits its time between an untraced and a traced group.
  const int slices = std::max(1, cfg.trace ? cfg.seconds / 2 : cfg.seconds);
  const Episode plain = udp_phase(cfg.seed, slices, false, speed, setups);
  account(plain, r);
  std::printf("workload udp_loopback: %llu messages in %d slices, %s\n",
              static_cast<unsigned long long>(plain.submitted), slices,
              r.correct ? "deliveries checked" : r.error.c_str());
  std::printf("host speed factor %.4f, unscaled %.1f msgs/wall-s\n", plain.speed,
              ratio(static_cast<double>(plain.complete), plain.wall_s));
  std::map<std::string, double> v;
  if (!cfg.trace) {
    std::vector<double> rates;
    for (std::size_t i = 0; i < plain.slice_rates.size(); ++i) {
      rates.push_back(plain.slice_rates[i] / plain.slice_factors[i]);
    }
    end_to_end_values(plain, median(rates), median(setups), v, r);
    return finish(end_to_end_metrics(), v, r);
  }
  const Episode traced =
      udp_phase(cfg.seed, std::min(slices, kUdpTracedSlices), true, speed, setups);
  account(traced, r);
  v = traced.layers;
  const double msgs = static_cast<double>(plain.complete);
  // The engine here only fires the stack's timers between socket polls,
  // under one event per message; the loop's time goes to socket calls, so
  // wall time per event would not be an engine cost.
  // runtime.poll_ns_per_datagram carries the host cost instead.
  v["sim.ns_per_event"] = 0;
  v["host.speed_factor"] = plain.speed;
  v["host.unscaled_msgs_per_wall_s"] = ratio(msgs, plain.wall_s);
  v["util.allocs_per_msg"] = ratio(static_cast<double>(plain.allocs), msgs);
  // A group slows as it ages, so the traced slices are compared with as
  // many first slices of the untraced phase, both unscaled (traced slices
  // run without host-speed bursts).
  const std::vector<double> first_slices(
      plain.slice_rates.begin(),
      plain.slice_rates.begin() +
          static_cast<std::ptrdiff_t>(std::min(plain.slice_rates.size(), traced.slice_rates.size())));
  v["obs.trace_overhead"] = ratio(median(first_slices), median(traced.slice_rates)) - 1.0;
  v["failed_share"] = ratio(static_cast<double>(r.failed), static_cast<double>(r.attempted));
  return finish(per_layer_metrics(), v, r);
}

}  // namespace

VirtualOutcome virtual_episode(const std::string& workload, std::uint64_t seed, Wiring wiring) {
  EpisodeOptions opt;
  opt.wiring = wiring;
  opt.wall_cap_ns = std::numeric_limits<std::int64_t>::max();
  const Episode ep = sim_episode(sim_spec(workload), seed, opt);
  VirtualOutcome v;
  v.digest = ep.digest;
  v.submitted = ep.submitted;
  v.complete = ep.complete;
  v.events = ep.events;
  v.p50_ms = grouped_percentile(ep.latency_groups_ms, 0.5).value_or(-1);
  v.p99_ms = grouped_percentile(ep.latency_groups_ms, 0.99).value_or(-1);
  v.sim_msgs_per_s = ep.sim_msgs_per_s;
  v.max_gap_ms = ep.max_gap_ms;
  v.exclusion_ms = ep.exclusion_ms;
  v.error = ep.error;
  return v;
}


const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"abcast_pipeline", "gbcast_mix",
                                                 "leader_crash", "udp_loopback"};
  return names;
}

std::string metric_catalog_json() {
  const auto list = [](const std::vector<MetricDef>& defs) {
    std::string out = "[";
    for (std::size_t i = 0; i < defs.size(); ++i) {
      out += std::string(i ? ", " : "") + "[\"" + defs[i].name + "\", \"" + defs[i].unit + "\"]";
    }
    return out + "]";
  };
  return "{\"end_to_end\": " + list(end_to_end_metrics()) + ", \"per_layer\": " +
         list(per_layer_metrics()) + "}";
}

Result run(const RunConfig& config) {
  const std::int64_t start = HostLedger::now_ns();
  return config.workload == "udp_loopback" ? run_udp(config) : run_sim(config, start);
}

}  // namespace perfbench
