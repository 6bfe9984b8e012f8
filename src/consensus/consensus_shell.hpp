/// \file consensus_shell.hpp
/// The multi-instance machinery every consensus algorithm here shares.
///
/// An algorithm (Chandra–Toueg rounds, Paxos ballots) decides one instance
/// at a time; around it sits the same bookkeeping, written once here:
///   - the instance table and the decision log, the decide callbacks, the
///     decided count and the forget watermark (stale frames below it are
///     dropped, so a forgotten instance never comes back);
///   - ANNOUNCE: a proposer pulls other members into the instance with its
///     value (CT: every member; Paxos: the leader only), and a member that
///     receives it proposes that value;
///   - DECIDE: the decider sends it to the members once, and each member
///     records the decision and fires the callbacks (latency and accept-RTT
///     histograms, trace events). Nobody echoes it. Agreement when the
///     decider crashes mid-send rests on the rbcast rule (DESIGN.md §12):
///     each held decision remembers whom its copy came from; a member that
///     comes to suspect that process relays the decisions it holds from it,
///     and while it suspects it, relays each new one on receipt. Every
///     DECIDE carries the sender's confirmed watermark (all its DECIDE sends
///     numbered below it are acknowledged by every destination still in
///     the view), and a forgotten decision is kept for relay until its
///     source confirms it;
///   - parking a vote that the admission gate holds back.
///
/// Wire: every frame starts with its kind byte and a u64 instance number.
/// The shell owns kinds 5 (DECIDE: send number, confirmed watermark, value)
/// and 6 (ANNOUNCE: member set, value). Kinds 0–4 are the algorithm's
/// per-instance messages; from kind 7 on, the u64 is not an instance
/// (Paxos's ranged floor), so the watermark does not apply.
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
#include "util/ring.hpp"

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

  /// A DECIDE send counts toward our confirmed watermark only while its
  /// destination is in the view: an excluded member never acknowledges,
  /// and DECIDEs of instances begun before its exclusion still go to it.
  void set_view_members(const std::vector<ProcessId>& members) final {
    view_members_ = members;
    for (std::size_t i = 0; i < unacked_to_.size(); ++i) {
      if (!counted(static_cast<ProcessId>(i))) unacked_to_[i].clear();
    }
  }

  /// The stable leader unless it left the view or we suspect it; the hold
  /// is the suspicion timeout, after which we would suspect a leader that
  /// went silent.
  Proposer proposer() const final {
    const ProcessId leader = stable_leader();
    if (leader == kNoProcess || !counted(leader) ||
        (leader != ctx_.self() && fd_.suspects(fd_class_, leader))) {
      return {};
    }
    return {leader, fd_.timeout(fd_class_)};
  }

  /// Forgotten decisions kept for relay (tests).
  std::size_t kept_for_relay() const { return kept_.size(); }
  /// Our DECIDE sends the watermark still waits on (tests).
  std::size_t unconfirmed_decide_sends() {
    confirmed_below();
    std::size_t n = 0;
    for (const auto& sent : unacked_to_) n += sent.size();
    return n;
  }

  /// Garbage-collect decision values for instances < \p k; keeps memory
  /// bounded on long runs. Later messages for those instances (late DECIDE
  /// copies, stale ANNOUNCEs) are dropped. A decision whose source has not
  /// confirmed it yet is kept for relay (kept_) until it does.
  void forget_below(std::uint64_t k) final {
    forgotten_below_ = std::max(forgotten_below_, k);
    deferred_.erase(deferred_.begin(), deferred_.lower_bound(k));
    for (auto it = decisions_.begin(); it != decisions_.end();) {
      if (it->first >= k) {
        ++it;
        continue;
      }
      if (unconfirmed(it->second)) kept_.emplace_back(it->first, std::move(it->second));
      it = decisions_.erase(it);
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
    fd_.on_suspect(fd_class_, [this](ProcessId q) {
      relay_from(q);
      on_fd_suspect(q);
    });
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
    for (const auto& fn : decide_fns_) fn(k, it->second.value);
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
    if (group_ != inst.members) group_ = inst.members;
    return &inst;
  }

  /// Pull other members into \p k with \p value: every other member, or
  /// only \p to. A member with nothing to propose joins with ours (validity
  /// holds, it is still a proposal), so a lone proposer terminates without
  /// upper-layer help.
  void announce(std::uint64_t k, const Instance& inst, const Bytes& value,
                ProcessId to = kNoProcess) {
    Encoder enc;
    enc.put_byte(kAnnounce);
    enc.put_u64(k);
    enc.put_vector(inst.members, [](Encoder& e, ProcessId p) { e.put_i32(p); });
    enc.put_bytes(value);
    if (to != kNoProcess) {
      channel_.send(to, Tag::kConsensus, enc.take());
      return;
    }
    for (ProcessId p : inst.members) {
      if (p != ctx_.self()) channel_.send(p, Tag::kConsensus, enc.bytes());
    }
  }

  /// We decided \p k: send DECIDE to the members, the only copy of a
  /// fault-free instance (ours comes back through the loopback channel and
  /// runs learn()).
  void decide(std::uint64_t k, Instance& inst, const Bytes& value) {
    if (inst.decided) return;
    inst.decided = true;
    send_decide(k, value, inst.members, kNoProcess);
  }

  /// Record the decision of \p k (first time only), which came from
  /// \p from as its DECIDE send number \p send_no; drop the instance and
  /// fire the callbacks. A decision from a process we suspect is relayed at
  /// once.
  void learn(std::uint64_t k, Bytes value, ProcessId from, std::uint64_t send_no) {
    if (k < forgotten_below_ || decisions_.count(k)) return;
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
    Held held{value, from, send_no, {}};
    auto it = instances_.find(k);
    if (it != instances_.end()) {
      Instance& inst = it->second;
      if (inst.started_at >= 0) ctx_.metrics().observe(h_latency_, ctx_.now() - inst.started_at);
      if (inst.accept_sent_at >= 0) {
        // Coordinator / epoch-owner vote-quorum round trip: PROPOSE / ACCEPT
        // out -> decision in.
        ctx_.metrics().observe(h_accept_rtt_, ctx_.now() - inst.accept_sent_at);
        ctx_.trace_end(obs::Names::get().consensus_accept_wait, key, inst.round);
      }
      held.members = std::move(inst.members);
      instances_.erase(it);
    } else {
      held.members = group_;
    }
    Held& h = decisions_.emplace(k, std::move(held)).first->second;
    if (from != ctx_.self() && fd_.suspects(fd_class_, from)) relay(k, h);
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
  /// A decision held here: its value, whom our copy came from (the
  /// decider, a relayer, or ourselves once we relayed it) with that
  /// process's DECIDE send number, and the members its DECIDE went to.
  struct Held {
    Bytes value;
    ProcessId from = kNoProcess;
    std::uint64_t send_no = 0;
    std::vector<ProcessId> members;
  };

  std::unordered_map<std::uint64_t, Instance> instances_;
  std::unordered_map<std::uint64_t, Held> decisions_;
  /// Every instance below this is decided and forgotten (forget_below).
  std::uint64_t forgotten_below_ = 0;
  /// Highest instance decided here + 1 (0 = nothing decided).
  std::uint64_t decided_frontier_ = 0;

  /// The current view's members (set_view_members); empty until set.
  const std::vector<ProcessId>& view_members() const { return view_members_; }

 private:
  /// A DECIDE send not yet acknowledged by its destination.
  struct SentDecide {
    std::uint64_t send_no;
    std::uint64_t seq;  ///< channel seq it took toward the destination
  };

  /// Every DECIDE send numbered below this has been acknowledged at the
  /// channel level by every destination that is still a member.
  std::uint64_t confirmed_below() {
    std::uint64_t below = next_send_no_;
    for (std::size_t i = 0; i < unacked_to_.size(); ++i) {
      Ring<SentDecide>& sent = unacked_to_[i];
      if (sent.empty()) continue;
      const std::uint64_t acked = channel_.acked_below(static_cast<ProcessId>(i));
      while (!sent.empty() && acked > sent.front().seq) sent.pop_front();
      if (!sent.empty()) below = std::min(below, sent.front().send_no);
    }
    return below;
  }

  /// Our DECIDE sends to \p p count toward the watermark: \p p is a member
  /// of the current view (everyone, before set_view_members()).
  bool counted(ProcessId p) const {
    return view_members_.empty() ||
           std::find(view_members_.begin(), view_members_.end(), p) != view_members_.end();
  }

  /// One numbered DECIDE send of (\p k, \p value) to \p group but
  /// \p skip (kNoProcess: all of it, ourselves included; otherwise also
  /// not to ourselves); returns its send number.
  std::uint64_t send_decide(std::uint64_t k, const Bytes& value,
                            const std::vector<ProcessId>& group, ProcessId skip) {
    const std::uint64_t confirmed = confirmed_below();
    const std::uint64_t send_no = next_send_no_++;
    Encoder enc;
    enc.put_byte(kDecide);
    enc.put_u64(k);
    enc.put_u64(send_no);
    enc.put_u64(confirmed);
    enc.put_bytes(value);
    const Payload frame(enc.take());
    for (ProcessId p : group) {
      if (skip != kNoProcess && (p == skip || p == ctx_.self())) continue;
      const std::uint64_t seq = channel_.send(p, Tag::kConsensus, frame);
      if (p == ctx_.self() || !counted(p)) continue;
      const auto idx = static_cast<std::size_t>(p);
      if (idx >= unacked_to_.size()) unacked_to_.resize(idx + 1);
      unacked_to_[idx].push_back(SentDecide{send_no, seq});
    }
    return send_no;
  }

  bool unconfirmed(const Held& h) const {
    if (h.from == ctx_.self()) return false;
    const auto idx = static_cast<std::size_t>(h.from);
    return idx >= confirmed_.size() || h.send_no >= confirmed_[idx];
  }

  /// Send \p h to its members but us and its source, and take it over as
  /// ours: our channel now carries it to them. A member that only ever
  /// learned passively (a Paxos follower that leaves its proposals to the
  /// leader) knows no member set of the instance: it relays to the view.
  void relay(std::uint64_t k, Held& h) {
    h.send_no = send_decide(k, h.value, h.members.empty() ? view_members_ : h.members, h.from);
    h.from = ctx_.self();
  }

  /// The FD came to suspect \p q: relay every decision held from it.
  void relay_from(ProcessId q) {
    for (auto& [k, h] : decisions_) {
      if (h.from == q) relay(k, h);
    }
    for (auto& [k, h] : kept_) {
      if (h.from == q) relay(k, h);
    }
    std::erase_if(kept_, [this](const auto& e) { return !unconfirmed(e.second); });
  }

  /// \p from confirmed its DECIDE sends below \p below.
  void note_confirmed(ProcessId from, std::uint64_t below) {
    const auto idx = static_cast<std::size_t>(from);
    if (idx >= confirmed_.size()) confirmed_.resize(idx + 1, 0);
    if (below <= confirmed_[idx]) return;
    confirmed_[idx] = below;
    if (!kept_.empty()) {
      std::erase_if(kept_, [this](const auto& e) { return !unconfirmed(e.second); });
    }
  }

  void on_message(ProcessId from, BytesView payload) {
    Decoder dec(payload);
    const std::uint8_t kind = dec.get_byte();
    const std::uint64_t k = dec.get_u64();
    // A message for a forgotten instance is a late copy of a decision;
    // acting on it would resurrect the instance (ANNOUNCE would even
    // re-propose it).
    if (kind < kFirstRangedKind && k < forgotten_below_) return;
    if (kind == kDecide) {
      const std::uint64_t send_no = dec.get_u64();
      const std::uint64_t confirmed = dec.get_u64();
      Bytes value = dec.get_bytes();
      if (!dec.ok()) return;
      note_confirmed(from, confirmed);
      learn(k, std::move(value), from, send_no);
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

  /// Forgotten decisions whose source has not confirmed them yet: kept only
  /// to relay if we come to suspect the source.
  std::vector<std::pair<std::uint64_t, Held>> kept_;
  /// Per source, the confirmed watermark its latest DECIDE carried.
  std::vector<std::uint64_t> confirmed_;
  /// Our DECIDE sends, numbered from 0, and per destination those it has
  /// not acknowledged yet, in send order.
  std::uint64_t next_send_no_ = 0;
  std::vector<Ring<SentDecide>> unacked_to_;
  /// The current view's members (set_view_members); empty until set.
  std::vector<ProcessId> view_members_;
  /// Member set of the last instance started here: where a decision learned
  /// without its instance is relayed.
  std::vector<ProcessId> group_;
  std::vector<DecideFn> decide_fns_;
};

}  // namespace gcs
