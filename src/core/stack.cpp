#include "core/stack.hpp"

namespace gcs {

GcsStack::GcsStack(sim::Engine& engine, sim::Network& network, ProcessId self,
                   std::uint64_t seed, StackConfig config)
    : network_(&network) {
  Rng rng(seed ^ (0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(self + 1)));
  Logger log("p" + std::to_string(self), [&engine] { return engine.now(); });
  ctx_ = std::make_unique<sim::Context>(self, engine, rng, log,
                                        std::make_shared<Metrics>());
  transport_ = std::make_unique<SimTransport>(*ctx_, network);
  wire(config);
}

GcsStack::GcsStack(sim::Engine& engine, std::unique_ptr<Transport> transport,
                   ProcessId self, std::uint64_t seed, StackConfig config)
    : network_(nullptr) {
  Rng rng(seed ^ (0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(self + 1)));
  Logger log("p" + std::to_string(self), [&engine] { return engine.now(); });
  ctx_ = std::make_unique<sim::Context>(self, engine, rng, log,
                                        std::make_shared<Metrics>());
  transport_ = std::move(transport);
  wire(config);
}

void GcsStack::wire(StackConfig config) {
  recorder_ = config.recorder;
  if (recorder_) {
    ctx_->set_tracer(obs::Tracer(recorder_.get(), ctx_->self()));
  }
  channel_ = std::make_unique<ReliableChannel>(*ctx_, *transport_, config.channel);
  fd_ = std::make_unique<FailureDetector>(*ctx_, *transport_, config.fd);
  consensus_fd_class_ = fd_->add_class(config.consensus_suspect_timeout);
  if (config.consensus_algorithm == StackConfig::ConsensusAlgo::kPaxos) {
    consensus_ = std::make_unique<PaxosConsensus>(*ctx_, *channel_, *fd_,
                                                  consensus_fd_class_);
  } else {
    consensus_ = std::make_unique<Consensus>(*ctx_, *channel_, *fd_, consensus_fd_class_);
  }
  // Both substrates send each payload once (O(n)); suspicion-driven relay
  // and, a layer up, holder counts keep delivery uniform: abcast's consensus
  // admission gate, GB's fast quorum of holders and its resolution's f+1
  // holder rule. Two instances, because each layer's DeliveredIndex relies
  // on dense per-sender seqs.
  ab_rbcast_ = std::make_unique<ReliableBroadcast>(*ctx_, *channel_, Tag::kRbcast);
  if (config.stability_interval > 0) {
    ab_rbcast_->enable_stability(config.stability_interval);
  }
  abcast_ = std::make_unique<AtomicBroadcast>(*ctx_, *ab_rbcast_, *consensus_, *channel_,
                                              config.abcast);
  gb_rbcast_ = std::make_unique<ReliableBroadcast>(*ctx_, *channel_, Tag::kGbData);
  if (config.stability_interval > 0) {
    gb_rbcast_->enable_stability(config.stability_interval);
  }
  gbcast_ = std::make_unique<GenericBroadcast>(*ctx_, *channel_, *gb_rbcast_, *abcast_,
                                               config.conflict, config.gb);
  membership_ = std::make_unique<GroupMembership>(*ctx_, *channel_, *abcast_, gbcast_.get());
  monitoring_ = std::make_unique<Monitoring>(*ctx_, *channel_, *fd_, *membership_,
                                             config.monitoring);

  // Consensus suspects members with the aggressive class; keep the short
  // class's monitored set, and consensus's own view, in sync with the view.
  membership_->on_view([this](const View& v) {
    fd_->monitor_group(consensus_fd_class_, v.members);
    consensus_->set_view_members(v.members);
  });
  // Suspicion only slows the channel toward a peer (one probe per backoff
  // period); exclusion, decided by monitoring, is what voids its buffer.
  // It also makes both substrates hand on what they retain of the peer's
  // broadcasts.
  fd_->on_suspect(consensus_fd_class_, [this](ProcessId q) {
    channel_->suspect(q);
    ab_rbcast_->suspect(q);
    gb_rbcast_->suspect(q);
  });
  fd_->on_restore(consensus_fd_class_, [this](ProcessId q) {
    channel_->restore(q);
    ab_rbcast_->restore(q);
    gb_rbcast_->restore(q);
  });
}

void GcsStack::init_view(std::vector<ProcessId> members) {
  membership_->init_view(std::move(members));
  start();
}

void GcsStack::join(ProcessId contact) {
  membership_->join(contact);
  start();
}

void GcsStack::start() {
  fd_->start();
  monitoring_->start();
}

void GcsStack::leave() {
  membership_->on_excluded([this] { fd_->stop(); });
  membership_->leave();
}

void GcsStack::crash() {
  if (oracle_) oracle_->note_crash(ctx_->self());
  ctx_->kill();
  if (network_) network_->crash(ctx_->self());
  // Socket transports must go silent too: the context kill stops timers
  // and sends, but an externally polled transport would otherwise keep
  // dispatching incoming datagrams to this "crashed" process's handlers.
  transport_->kill();
}

void GcsStack::attach_oracle(obs::Oracle& oracle) {
  oracle_ = &oracle;
  obs::Oracle* o = &oracle;
  const ProcessId self = ctx_->self();

  abcast_->set_observer(
      [o, self](const MsgId& m, AtomicBroadcast::SubTag st) { o->on_abcast_submit(self, m); (void)st; },
      [o, self](const MsgId& m, AtomicBroadcast::SubTag st, std::uint64_t k,
                std::uint32_t idx) { o->on_adeliver(self, m, st, k, idx); });

  const auto rb_tap = [o, self](ReliableBroadcast& rb, Tag tag) {
    const auto t = static_cast<std::uint8_t>(tag);
    rb.set_observer([o, self, t](const MsgId& m) { o->on_rb_broadcast(self, t, m); },
                    [o, self, t](const MsgId& m) { o->on_rb_deliver(self, t, m); });
  };
  rb_tap(*ab_rbcast_, Tag::kRbcast);
  rb_tap(*gb_rbcast_, Tag::kGbData);

  gbcast_->set_observer(
      [o, self](const MsgId& m, MsgClass cls) { o->on_gb_submit(self, m, cls); },
      [o, self](const MsgId& m, MsgClass cls, std::uint64_t round, bool fast,
                std::uint32_t pos) { o->on_gdeliver(self, m, cls, round, fast, pos); });

  membership_->set_observer(
      [o, self](std::uint64_t view_id, const std::vector<ProcessId>& members,
                bool via_state_transfer) {
        o->on_view_install(self, view_id, members, via_state_transfer);
      },
      [o, self](ProcessId target, bool voluntary) {
        o->on_remove_proposed(self, target, voluntary);
      });

  monitoring_->set_observer(
      [o, self](ProcessId target, int votes) { o->on_exclusion_decided(self, target, votes); });

  fd_->on_suspect(consensus_fd_class_,
                  [o, self](ProcessId q) { o->on_suspicion(self, q, /*long_class=*/false); });
  fd_->on_restore(consensus_fd_class_,
                  [o, self](ProcessId q) { o->on_restore(self, q, /*long_class=*/false); });
  fd_->on_suspect(monitoring_->fd_class(),
                  [o, self](ProcessId q) { o->on_suspicion(self, q, /*long_class=*/true); });
  fd_->on_restore(monitoring_->fd_class(),
                  [o, self](ProcessId q) { o->on_restore(self, q, /*long_class=*/true); });
}

void GcsStack::attach_telemetry(obs::Telemetry& telemetry) {
  const ProcessId self = ctx_->self();
  telemetry.register_process(self, ctx_->metrics_ptr(), recorder_.get());
  telemetry.add_gauge(self, "probe.channel.send_queue", [this] {
    return static_cast<double>(channel_->total_send_queue());
  });
  telemetry.add_gauge(self, "probe.rbcast.dedup", [this] {
    return static_cast<double>(ab_rbcast_->dedup_size() + gb_rbcast_->dedup_size());
  });
  telemetry.add_gauge(self, "probe.rbcast.retained", [this] {
    return static_cast<double>(ab_rbcast_->retained_size() + gb_rbcast_->retained_size());
  });
  telemetry.add_gauge(self, "probe.abcast.pending", [this] {
    return static_cast<double>(abcast_->pending_count());
  });
  telemetry.add_gauge(self, "probe.abcast.open", [this] {
    return static_cast<double>(abcast_->open_proposals());
  });
  telemetry.add_gauge(self, "probe.consensus.open", [this] {
    return static_cast<double>(consensus_->open_instances());
  });
  telemetry.add_gauge(self, "probe.consensus.deferred", [this] {
    return static_cast<double>(consensus_->deferred_votes());
  });
  telemetry.add_gauge(self, "probe.gb.store", [this] {
    return static_cast<double>(gbcast_->store_size());
  });
  telemetry.add_gauge(self, "probe.gb.fast_ratio", [this] {
    const double total = static_cast<double>(gbcast_->fast_deliveries() +
                                             gbcast_->resolved_deliveries());
    return total == 0 ? 1.0 : static_cast<double>(gbcast_->fast_deliveries()) / total;
  });
  telemetry.add_gauge(self, "probe.fd.suspected", [this] {
    return static_cast<double>(fd_->suspected(consensus_fd_class_).size());
  });
  telemetry.add_gauge(self, "probe.monitoring.votes", [this] {
    return static_cast<double>(monitoring_->open_votes());
  });
}

World::World(Config config)
    : engine_(), network_(engine_, config.n, config.link, config.seed) {
  stacks_.reserve(static_cast<std::size_t>(config.n));
  for (ProcessId p = 0; p < config.n; ++p) {
    stacks_.push_back(
        std::make_unique<GcsStack>(engine_, network_, p, config.seed, config.stack));
  }
}

void World::found_group(const std::vector<ProcessId>& members) {
  for (ProcessId p : members) stack(p).init_view(members);
}

void World::found_group_all() {
  std::vector<ProcessId> all;
  for (int p = 0; p < size(); ++p) all.push_back(p);
  found_group(all);
}

void World::attach_oracle(obs::Oracle& oracle) {
  if (!stacks_.empty()) {
    // All stacks share one StackConfig, hence one conflict relation.
    const ConflictRelation rel = stacks_.front()->generic_broadcast().relation();
    oracle.set_conflicts(
        [rel](std::uint8_t a, std::uint8_t b) { return rel.conflicts(a, b); });
  }
  for (auto& s : stacks_) s->attach_oracle(oracle);
}

void World::enable_telemetry(obs::Telemetry& telemetry, Duration cadence) {
  for (auto& s : stacks_) s->attach_telemetry(telemetry);
  telemetry_timer_.start(engine_, cadence,
                         [&telemetry](TimePoint now) { telemetry.publish(now); });
}

}  // namespace gcs
