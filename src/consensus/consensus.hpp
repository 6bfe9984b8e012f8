/// \file consensus.hpp
/// Chandra–Toueg ◇S rotating-coordinator consensus (multi-instance).
///
/// This is the consensus component at the bottom of the paper's new
/// architecture (Fig 6/7/9): it requires only an *eventually strong* (◇S)
/// failure detector — false suspicions are tolerated, so consensus (and the
/// atomic broadcast built on it) never needs a group membership service
/// below it to emulate a perfect failure detector. Tolerates f < n/2
/// crashes among the instance's members.
///
/// Algorithm (per instance, asynchronous rounds r = 0, 1, ...):
///   coordinator c(r) = members[r mod n]
///   phase 1  every process sends (ESTIMATE, r, ts, v) to c(r)
///   phase 2  c(r) collects a majority of estimates, adopts the one with
///            the highest ts, sends (PROPOSE, r, v) to all
///   phase 3  a process either receives PROPOSE (adopts v, ts := r, ACKs)
///            or comes to suspect c(r) (NACKs); either way it proceeds to
///            round r + 1
///   phase 4  c(r) collects a majority of ACKs and broadcasts DECIDE
///
/// DECIDE messages travel over reliable channels to all members, so every
/// correct member terminates. A process that receives round messages for an
/// instance it has not locally started participates passively (it can
/// coordinate and ACK) and starts driving rounds once propose() is called.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <unordered_map>
#include <vector>

#include "channel/reliable_channel.hpp"
#include "consensus/consensus_protocol.hpp"
#include "fd/failure_detector.hpp"
#include "sim/context.hpp"

namespace gcs {

class Consensus final : public ConsensusProtocol {
 public:

  /// \param fd_class   the FD timeout class consensus uses to suspect
  ///                   coordinators; its timeout can be aggressive (◇S).
  /// \param tag        wire tag, so several independent consensus stacks can
  ///                   coexist (the traditional baselines reuse this class).
  Consensus(sim::Context& ctx, ReliableChannel& channel, FailureDetector& fd,
            FailureDetector::ClassId fd_class, Tag tag = Tag::kConsensus);

  /// Propose \p value for instance \p k among \p members (self included).
  /// All correct members must eventually propose for k to guarantee
  /// termination. Proposing for a decided instance re-delivers the decision.
  void propose(std::uint64_t k, Bytes value, std::vector<ProcessId> members) override;

  /// Decision callback; fired exactly once per instance, in no particular
  /// instance order (callers sequence instances themselves).
  void on_decide(DecideFn fn) override { decide_fns_.push_back(std::move(fn)); }

  /// True if instance \p k has decided locally.
  bool decided(std::uint64_t k) const override { return decisions_.count(k) != 0; }

  /// Number of instances decided locally (an "ordering work" metric).
  std::int64_t instances_decided() const override { return decided_count_; }

  std::int64_t open_instances() const override {
    std::int64_t n = 0;
    for (const auto& [k, inst] : instances_) {
      (void)k;
      if (!inst.decided) ++n;
    }
    return n;
  }

  /// Garbage-collect decision values for instances < \p k; keeps memory
  /// bounded on long runs. Later messages for those instances (late DECIDE
  /// echoes, stale ANNOUNCEs) are dropped, so a forgotten instance never
  /// comes back.
  void forget_below(std::uint64_t k) override;

 private:
  void cast_deferred(std::uint64_t k, DeferredVote vote) override {
    handle_propose(vote.from, k, vote.round, std::move(vote.value));
  }

  struct Instance {
    std::vector<ProcessId> members;
    int majority = 0;
    bool started = false;     // have we proposed locally?
    bool decided = false;
    Bytes estimate;
    std::int64_t estimate_ts = -1;
    std::int64_t round = 0;
    bool responded = false;   // ACK/NACK already sent for `round`
    TimePoint started_at = -1;  // when propose() ran locally (latency metric)

    // Coordinator-side per-round state.
    struct RoundState {
      std::vector<std::pair<std::int64_t, Bytes>> estimates;  // (ts, value)
      bool proposed = false;
      Bytes proposal;
      int acks = 0;
      int nacks = 0;
      TimePoint first_estimate_at = -1;  // quorum-assembly start (propose-wait)
    };
    std::map<std::int64_t, RoundState> rounds;
    TimePoint proposed_at = -1;  // when we sent PROPOSE (accept-RTT metric)

    ProcessId coordinator(std::int64_t r) const {
      return members[static_cast<std::size_t>(r) % members.size()];
    }
  };

  void on_message(ProcessId from, BytesView payload);
  void handle_estimate(ProcessId from, std::uint64_t k, std::int64_t r, std::int64_t ts,
                       Bytes value);
  void handle_propose(ProcessId from, std::uint64_t k, std::int64_t r, Bytes value);
  void handle_ack(ProcessId from, std::uint64_t k, std::int64_t r, bool positive);
  void handle_decide(std::uint64_t k, Bytes value);
  void enter_round(std::uint64_t k, Instance& inst, std::int64_t r);
  void nack_round(std::uint64_t k, Instance& inst);
  void maybe_propose_round(std::uint64_t k, Instance& inst, std::int64_t r);
  void decide(std::uint64_t k, Instance& inst, const Bytes& value);
  void on_fd_suspect(ProcessId q);
  /// The gate held round \p r's ACK back for a whole suspicion timeout:
  /// NACK the round, dropping an unlocked estimate the gate refuses.
  void on_deferral_timeout(std::uint64_t k, std::int64_t r);
  Instance& get_instance(std::uint64_t k, const std::vector<ProcessId>* members_hint);

  sim::Context& ctx_;
  ReliableChannel& channel_;
  FailureDetector& fd_;
  FailureDetector::ClassId fd_class_;
  Tag tag_;
  MetricId m_started_;
  MetricId m_rounds_;
  MetricId m_decided_;
  MetricId h_latency_;       ///< propose() -> local decision (time-in-consensus)
  MetricId h_propose_wait_;  ///< first estimate -> PROPOSE (coordinator side)
  MetricId h_accept_rtt_;    ///< PROPOSE sent -> local decision (coordinator side)
  MetricId m_deferred_;      ///< votes the admission gate held back
  std::unordered_map<std::uint64_t, Instance> instances_;
  std::unordered_map<std::uint64_t, Bytes> decisions_;
  std::vector<DecideFn> decide_fns_;
  std::int64_t decided_count_ = 0;
  /// Every instance below this is decided and forgotten (forget_below);
  /// messages for them are dropped.
  std::uint64_t forgotten_below_ = 0;
};

}  // namespace gcs
