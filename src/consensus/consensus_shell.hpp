/// \file consensus_shell.hpp
/// The multi-instance machinery every consensus algorithm here shares.
///
/// An algorithm (Chandra–Toueg rounds, Paxos ballots) decides one instance
/// at a time; around it sits the same bookkeeping, written once here:
///   - the instance table and the decision log, the decide callbacks, the
///     decided count and the forget watermark (stale frames below it are
///     dropped, so a forgotten instance never comes back);
///   - ANNOUNCE: a proposer pulls the other members into the instance with
///     its value, and a member that receives it proposes that value;
///   - DECIDE: the decider sends it to the members; every member echoes the
///     first copy it receives once, records the decision and fires the
///     callbacks (latency and accept-RTT histograms, trace events);
///   - parking a vote that the admission gate holds back.
///
/// Wire: every frame starts with its kind byte and a u64 instance number.
/// The shell owns kinds 5 (DECIDE) and 6 (ANNOUNCE). Kinds 0–4 are the
/// algorithm's per-instance messages; from kind 7 on, the u64 is not an
/// instance (Paxos's ranged floor), so the watermark does not apply.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "channel/reliable_channel.hpp"
#include "consensus/consensus_protocol.hpp"
#include "fd/failure_detector.hpp"
#include "sim/context.hpp"
#include "util/codec.hpp"

namespace gcs {

/// Per-instance state the shell reads; each algorithm's instance derives
/// from it.
struct InstanceCore {
  std::vector<ProcessId> members;
  int majority = 0;
  bool started = false;       ///< propose() ran here (Paxos: or we drive a decree)
  bool decided = false;       ///< we decided it and sent DECIDE
  /// CT: the current round. Paxos: the highest ballot seen for the instance.
  std::int64_t round = 0;
  TimePoint started_at = -1;      ///< propose() ran here (latency metric)
  TimePoint accept_sent_at = -1;  ///< PROPOSE / ACCEPT sent (accept-RTT metric)
};

template <typename Instance>
class ConsensusShell : public ConsensusProtocol {
 public:
  /// Decision callback; fired exactly once per instance, in no particular
  /// instance order (callers sequence instances themselves).
  void on_decide(DecideFn fn) final { decide_fns_.push_back(std::move(fn)); }
  bool decided(std::uint64_t k) const final { return decisions_.count(k) != 0; }
  std::int64_t instances_decided() const final { return ctx_.metrics().counter(m_decided_); }
  std::int64_t open_instances() const final {
    std::int64_t n = 0;
    for (const auto& [k, inst] : instances_) {
      (void)k;
      if (!inst.decided) ++n;
    }
    return n;
  }

  /// Garbage-collect decision values for instances < \p k; keeps memory
  /// bounded on long runs. Later messages for those instances (late DECIDE
  /// echoes, stale ANNOUNCEs) are dropped.
  void forget_below(std::uint64_t k) final {
    forgotten_below_ = std::max(forgotten_below_, k);
    deferred_.erase(deferred_.begin(), deferred_.lower_bound(k));
    for (auto it = decisions_.begin(); it != decisions_.end();) {
      it = (it->first < k) ? decisions_.erase(it) : ++it;
    }
  }

 protected:
  static constexpr std::uint8_t kDecide = 5;
  static constexpr std::uint8_t kAnnounce = 6;
  /// From this kind on, the u64 after the kind byte is not an instance.
  static constexpr std::uint8_t kFirstRangedKind = 7;

  ConsensusShell(sim::Context& ctx, ReliableChannel& channel, FailureDetector& fd,
                 FailureDetector::ClassId fd_class)
      : ctx_(ctx), channel_(channel), fd_(fd), fd_class_(fd_class),
        m_decided_(metric_id("consensus.decided")),
        h_latency_(metric_id("consensus.latency_us")),
        h_propose_wait_(metric_id("consensus.propose_wait_us")),
        h_accept_rtt_(metric_id("consensus.accept_rtt_us")),
        m_deferred_(metric_id("consensus.deferred_votes")) {
    channel_.subscribe(Tag::kConsensus,
                       [this](ProcessId from, BytesView b) { on_message(from, b); });
    fd_.on_suspect(fd_class_, [this](ProcessId q) { on_fd_suspect(q); });
  }

  /// An algorithm message: \p dec is positioned after the kind and \p k.
  virtual void handle(ProcessId from, std::uint8_t kind, std::uint64_t k, Decoder& dec) = 0;
  virtual void on_fd_suspect(ProcessId q) = 0;
  /// The gate held the vote on (\p k, \p round) back for a whole suspicion
  /// timeout.
  virtual void on_deferral_timeout(std::uint64_t k, std::int64_t round) = 0;

  /// propose() of a decided instance re-fires the callbacks (the decision
  /// may have arrived passively); true if it did.
  bool redeliver(std::uint64_t k) {
    auto it = decisions_.find(k);
    if (it == decisions_.end()) return false;
    for (const auto& fn : decide_fns_) fn(k, it->second);
    return true;
  }

  /// Start instance \p k locally among \p members; nullptr if it already
  /// started or decided here.
  Instance* start(std::uint64_t k, const std::vector<ProcessId>& members) {
    assert(!members.empty());
    Instance& inst = get_instance(k, &members);
    if (inst.started || inst.decided) return nullptr;
    inst.started = true;
    inst.started_at = ctx_.now();
    ctx_.trace_begin(obs::Names::get().consensus_instance, MsgId{obs::kConsensusKey, k});
    // The FD must watch everyone who may drive the instance.
    fd_.monitor_group(fd_class_, inst.members);
    return &inst;
  }

  /// Pull the other members into \p k with \p value: a member with nothing
  /// to propose joins with ours (validity holds, it is still a proposal),
  /// so a lone proposer terminates without upper-layer help.
  void announce(std::uint64_t k, const Instance& inst, const Bytes& value) {
    Encoder enc;
    enc.put_byte(kAnnounce);
    enc.put_u64(k);
    enc.put_vector(inst.members, [](Encoder& e, ProcessId p) { e.put_i32(p); });
    enc.put_bytes(value);
    for (ProcessId p : inst.members) {
      if (p != ctx_.self()) channel_.send(p, Tag::kConsensus, enc.bytes());
    }
  }

  /// We decided \p k: send DECIDE to the members (our own copy comes back
  /// through the loopback channel and runs learn()).
  void decide(std::uint64_t k, Instance& inst, const Bytes& value) {
    if (inst.decided) return;
    inst.decided = true;
    channel_.send_group(inst.members, Tag::kConsensus, decide_frame(k, value));
  }

  /// Record the decision of \p k (first time only), echo it once to the
  /// members we know unless we sent it, drop the instance and fire the
  /// callbacks.
  void learn(std::uint64_t k, Bytes value) {
    if (decisions_.count(k)) return;
    decisions_.emplace(k, value);
    deferred_.erase(k);
    decided_frontier_ = std::max(decided_frontier_, k + 1);
    ctx_.metrics().inc(m_decided_);
    const MsgId key{obs::kConsensusKey, k};
    ctx_.trace_instant(obs::Names::get().consensus_decide, key,
                       static_cast<std::int64_t>(value.size()));
    ctx_.trace_end(obs::Names::get().consensus_instance, key);
    if (ctx_.log().enabled(LogLevel::kDebug)) {
      ctx_.log().debug("consensus decide k=" + std::to_string(k) + " bytes=" +
                       std::to_string(value.size()));
    }
    auto it = instances_.find(k);
    if (it != instances_.end()) {
      const Instance& inst = it->second;
      if (inst.started_at >= 0) ctx_.metrics().observe(h_latency_, ctx_.now() - inst.started_at);
      if (inst.accept_sent_at >= 0) {
        // Coordinator / epoch-owner vote-quorum round trip: PROPOSE / ACCEPT
        // out -> decision in.
        ctx_.metrics().observe(h_accept_rtt_, ctx_.now() - inst.accept_sent_at);
        ctx_.trace_end(obs::Names::get().consensus_accept_wait, key, inst.round);
      }
      if (!inst.decided && !inst.members.empty()) {
        channel_.send_group(inst.members, Tag::kConsensus, decide_frame(k, value));
      }
      instances_.erase(it);
    }
    for (const auto& fn : decide_fns_) fn(k, value);
  }

  /// Hold the vote on (\p k, \p round) back until retry_deferred() admits
  /// \p value, or on_deferral_timeout() gives up on it.
  void park_vote(std::uint64_t k, ProcessId from, std::int64_t round, Bytes value) {
    deferred_.insert_or_assign(k, DeferredVote{from, round, std::move(value)});
    ctx_.metrics().inc(m_deferred_);
    ctx_.after(fd_.timeout(fd_class_), [this, k, round] { on_deferral_timeout(k, round); });
  }

  Instance& get_instance(std::uint64_t k, const std::vector<ProcessId>* members_hint) {
    auto it = instances_.find(k);
    if (it == instances_.end()) {
      Instance inst;
      if (members_hint) inst.members = *members_hint;
      inst.majority = inst.members.empty() ? 0 : static_cast<int>(inst.members.size()) / 2 + 1;
      it = instances_.emplace(k, std::move(inst)).first;
    } else if (it->second.members.empty() && members_hint) {
      it->second.members = *members_hint;
      it->second.majority = static_cast<int>(members_hint->size()) / 2 + 1;
    }
    return it->second;
  }

  sim::Context& ctx_;
  ReliableChannel& channel_;
  FailureDetector& fd_;
  FailureDetector::ClassId fd_class_;
  MetricId m_decided_;
  MetricId h_latency_;       ///< propose() -> local decision (time-in-consensus)
  MetricId h_propose_wait_;  ///< the algorithm's phase before its vote round
  MetricId h_accept_rtt_;    ///< PROPOSE / ACCEPT sent -> local decision (its sender)
  MetricId m_deferred_;      ///< votes the admission gate held back
  std::unordered_map<std::uint64_t, Instance> instances_;
  std::unordered_map<std::uint64_t, Bytes> decisions_;
  /// Every instance below this is decided and forgotten (forget_below).
  std::uint64_t forgotten_below_ = 0;
  /// Highest instance decided here + 1 (0 = nothing decided).
  std::uint64_t decided_frontier_ = 0;

 private:
  static Bytes decide_frame(std::uint64_t k, const Bytes& value) {
    Encoder enc;
    enc.put_byte(kDecide);
    enc.put_u64(k);
    enc.put_bytes(value);
    return enc.take();
  }

  void on_message(ProcessId from, BytesView payload) {
    Decoder dec(payload);
    const std::uint8_t kind = dec.get_byte();
    const std::uint64_t k = dec.get_u64();
    // A message for a forgotten instance is a late echo of a decision;
    // acting on it would resurrect the instance (ANNOUNCE would even
    // re-propose it).
    if (kind < kFirstRangedKind && k < forgotten_below_) return;
    if (kind == kDecide) {
      Bytes value = dec.get_bytes();
      if (dec.ok()) learn(k, std::move(value));
    } else if (kind == kAnnounce) {
      auto members = dec.get_vector<ProcessId>([](Decoder& d) { return d.get_i32(); });
      Bytes value = dec.get_bytes();
      if (!dec.ok() || decisions_.count(k)) return;
      const Instance& inst = get_instance(k, &members);
      if (!inst.started && !inst.decided) propose(k, std::move(value), std::move(members));
    } else {
      handle(from, kind, k, dec);
    }
  }

  std::vector<DecideFn> decide_fns_;
};

}  // namespace gcs
