/// \file stack.hpp
/// GcsStack: the full new architecture, wired per the paper's Figure 9.
///
///            Application
///        ┌───────┴────────┐
///   GroupMembership   (join/remove/new_view)        Monitoring
///        │  ▲                                        │   ▲  ▲
///   GenericBroadcast  (gbcast/gdeliver)   remove ────┘   │  └─ suspect (long)
///        │  ▲                                   output-triggered
///   AtomicBroadcast   (abcast/adeliver)              │
///        │  ▲                                        │
///     Consensus ── suspect (short) ── FailureDetection
///        │  ▲                              │
///    ReliableChannel ──────────────────────┘
///        │  ▲
///   UnreliableTransport (u-send/u-receive, simulated network)
///
/// One GcsStack instance is one process of the group. All components are
/// owned by the stack and wired at construction; group lifecycle is
/// init_view() (founding member) or join() (late joiner).
#pragma once

#include <memory>

#include "broadcast/atomic_broadcast.hpp"
#include "broadcast/reliable_broadcast.hpp"
#include "channel/reliable_channel.hpp"
#include "consensus/consensus.hpp"
#include "consensus/paxos.hpp"
#include "core/conflict.hpp"
#include "core/generic_broadcast.hpp"
#include "core/membership.hpp"
#include "core/monitoring.hpp"
#include "fd/failure_detector.hpp"
#include "obs/oracle.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "sim/context.hpp"
#include "sim/network.hpp"
#include "transport/sim_transport.hpp"

namespace gcs {

struct StackConfig {
  /// Which consensus algorithm sits at the bottom (the architecture is
  /// agnostic — both satisfy ConsensusProtocol).
  enum class ConsensusAlgo { kChandraToueg, kPaxos };
  ConsensusAlgo consensus_algorithm = ConsensusAlgo::kChandraToueg;
  /// ◇S (consensus) suspicion timeout — may be aggressive; false suspicions
  /// cost a consensus round, not an exclusion (paper §4.3).
  Duration consensus_suspect_timeout = msec(60);
  FailureDetector::Config fd = {};
  ReliableChannel::Config channel = {};
  GenericBroadcast::Config gb = {};
  Monitoring::Config monitoring = {};
  /// Conflict relation for generic broadcast; default is the paper's §3.3
  /// rbcast/abcast table.
  ConflictRelation conflict = ConflictRelation::rbcast_abcast();
  /// Stability gossip period for the broadcast substrates; bounds dedup
  /// memory on long runs (0 = disabled; fine for bounded runs).
  Duration stability_interval = 0;
  /// Ordering-pipeline knobs (DESIGN.md §15): pipeline_depth, max_batch,
  /// the AIMD adaptive controller and its bounds.
  AtomicBroadcast::Config abcast = {};
  /// Flight recorder for message-lifecycle tracing; null (the default)
  /// leaves tracing a branch-predictable no-op. Usually shared by every
  /// stack of one simulation so the trace interleaves all processes.
  std::shared_ptr<obs::Recorder> recorder;
};

class GcsStack {
 public:
  /// Simulation flavor: wires a SimTransport over \p network.
  GcsStack(sim::Engine& engine, sim::Network& network, ProcessId self,
           std::uint64_t seed, StackConfig config = {});

  /// Custom-transport flavor (e.g. the UDP transport in src/runtime): the
  /// caller supplies the transport; crash() only kills the local context.
  GcsStack(sim::Engine& engine, std::unique_ptr<Transport> transport, ProcessId self,
           std::uint64_t seed, StackConfig config = {});

  /// -- lifecycle --------------------------------------------------------

  /// Found the group (identical call at every initial member), then start().
  void init_view(std::vector<ProcessId> members);
  /// Ask \p contact to sponsor us into the group, then start().
  void join(ProcessId contact);
  /// Start heartbeats, suspicion checking and monitoring policies.
  void start();
  /// Leave the group gracefully: propose own removal and go silent once it
  /// is installed (heartbeats stop, so no one wastes suspicion on us).
  void leave();
  /// Crash this process (simulation fault injection).
  void crash();

  /// -- group communication operations (Fig 9) ---------------------------

  /// Atomic broadcast: total order against everything.
  MsgId abcast(Bytes payload) { return abcast_->abcast(AtomicBroadcast::kApp, std::move(payload)); }
  /// Generic broadcast with an application conflict class.
  MsgId gbcast(MsgClass cls, Bytes payload) { return gbcast_->gbcast(cls, std::move(payload)); }
  /// Reliable broadcast op = generic broadcast in the non-conflicting class.
  MsgId rbcast(Bytes payload) { return gbcast_->rbcast_op(std::move(payload)); }

  void on_adeliver(AtomicBroadcast::DeliverFn fn) {
    abcast_->subscribe(AtomicBroadcast::kApp, std::move(fn));
  }
  void on_gdeliver(GenericBroadcast::DeliverFn fn) { gbcast_->on_deliver(std::move(fn)); }
  void on_view(GroupMembership::ViewFn fn) { membership_->on_view(std::move(fn)); }

  /// -- component access (tests, benchmarks, advanced use) ---------------
  sim::Context& context() { return *ctx_; }
  Transport& transport() { return *transport_; }
  ReliableChannel& channel() { return *channel_; }
  FailureDetector& fd() { return *fd_; }
  FailureDetector::ClassId consensus_fd_class() const { return consensus_fd_class_; }
  ConsensusProtocol& consensus() { return *consensus_; }
  AtomicBroadcast& atomic_broadcast() { return *abcast_; }
  ReliableBroadcast& abcast_substrate() { return *ab_rbcast_; }
  ReliableBroadcast& gbcast_substrate() { return *gb_rbcast_; }
  GenericBroadcast& generic_broadcast() { return *gbcast_; }
  GroupMembership& membership() { return *membership_; }
  Monitoring& monitoring() { return *monitoring_; }
  const View& view() const { return membership_->view(); }
  ProcessId self() const { return ctx_->self(); }
  Metrics& metrics() { return ctx_->metrics(); }
  /// The flight recorder installed via StackConfig, or null.
  const std::shared_ptr<obs::Recorder>& recorder() const { return recorder_; }

  /// -- global observability ---------------------------------------------

  /// Tap every component of this process into the simulation-global
  /// \p oracle: abcast submits/adeliveries (with consensus-instance
  /// coordinates), rbcast floods/rdeliveries per wire tag, gbcast
  /// submits/gdeliveries (with round/phase coordinates), view installs,
  /// removal proposals, monitoring exclusions and FD suspicion
  /// transitions. The oracle must outlive the stack. Call before
  /// init_view()/join() so the founding events are observed too.
  void attach_oracle(obs::Oracle& oracle);

  /// Register this process with the live-telemetry publisher: its Metrics
  /// registry (every interned counter/histogram including per-tag wire
  /// accounting), its state gauges (channel send queue, rbcast dedup set
  /// and retained frames, abcast backlog, open consensus instances and
  /// gated votes, GB fast-path ratio and working set, FD suspicions,
  /// monitoring votes; obs::Probes folds them into time series) and the
  /// flight recorder (trace-ring health) when one is installed. The stack
  /// must outlive \p telemetry's publishing.
  void attach_telemetry(obs::Telemetry& telemetry);

 private:
  void wire(StackConfig config);

  std::shared_ptr<obs::Recorder> recorder_;
  std::unique_ptr<sim::Context> ctx_;
  std::unique_ptr<Transport> transport_;
  std::unique_ptr<ReliableChannel> channel_;
  std::unique_ptr<FailureDetector> fd_;
  FailureDetector::ClassId consensus_fd_class_;
  std::unique_ptr<ConsensusProtocol> consensus_;
  std::unique_ptr<ReliableBroadcast> ab_rbcast_;  // abcast's substrate
  std::unique_ptr<AtomicBroadcast> abcast_;
  std::unique_ptr<ReliableBroadcast> gb_rbcast_;  // generic broadcast's substrate
  std::unique_ptr<GenericBroadcast> gbcast_;
  std::unique_ptr<GroupMembership> membership_;
  std::unique_ptr<Monitoring> monitoring_;
  sim::Network* network_;
  obs::Oracle* oracle_ = nullptr;
};

/// Convenience harness: one engine + network + a GcsStack per process.
/// Used by tests, benchmarks and the examples.
class World {
 public:
  struct Config {
    int n = 4;
    sim::LinkModel link = {};
    std::uint64_t seed = 1;
    StackConfig stack = {};
  };

  explicit World(Config config);

  sim::Engine& engine() { return engine_; }
  sim::Network& network() { return network_; }
  GcsStack& stack(ProcessId p) { return *stacks_[static_cast<std::size_t>(p)]; }
  int size() const { return static_cast<int>(stacks_.size()); }

  /// init_view(members) + start() on every listed process.
  void found_group(const std::vector<ProcessId>& members);
  /// All processes 0..n-1 found the group.
  void found_group_all();

  /// Attach the simulation-global \p oracle to every stack and install the
  /// stacks' conflict relation as its GB conflict predicate. Call before
  /// found_group()/join so founding views are observed.
  void attach_oracle(obs::Oracle& oracle);

  /// Register every stack with \p telemetry and publish snapshot frames
  /// every \p cadence of virtual time. \p telemetry must outlive the
  /// World. Sinks (watchdog, probes, stream writers) are attached by the
  /// caller.
  void enable_telemetry(obs::Telemetry& telemetry, Duration cadence);

  void run_for(Duration d) { engine_.run_until(engine_.now() + d); }
  void run(std::uint64_t max_events = 50'000'000) { engine_.run(max_events); }
  void crash(ProcessId p) { stack(p).crash(); }

 private:
  sim::Engine engine_;
  sim::Network network_;
  std::vector<std::unique_ptr<GcsStack>> stacks_;
  sim::PeriodicTimer telemetry_timer_;
};

}  // namespace gcs
