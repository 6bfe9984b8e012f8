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
///            or comes to suspect c(r) (NACKs and proceeds to round r + 1)
///   phase 4  c(r) collects a majority of ACKs and sends DECIDE
///
/// An ACKer waits in round r for the DECIDE instead of starting round r + 1
/// at once, so a fault-free instance runs one round. It moves on when it
/// comes to suspect c(r), or when c(r) NACKs the round: a coordinator that
/// receives a NACK for its round sends one NACK of its own to the members
/// (proposed or not, the round may no longer reach a majority) and drops
/// the round.
///
/// DECIDE travels over reliable channels to all members, so every correct
/// member terminates. ANNOUNCE, DECIDE and the decision log live in the
/// multi-instance shell (consensus_shell.hpp). A process that receives
/// round messages for an instance it has not locally started participates
/// passively (it can coordinate and ACK) and starts driving rounds once
/// propose() is called.
#pragma once

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "consensus/consensus_shell.hpp"

namespace gcs {

/// One CT instance: the shell's core plus the estimate and the rounds.
struct CtInstance : InstanceCore {
  Bytes estimate;
  std::int64_t estimate_ts = -1;
  bool responded = false;   // ACK/NACK already sent for `round`

  // Coordinator-side per-round state.
  struct RoundState {
    std::vector<std::pair<std::int64_t, Bytes>> estimates;  // (ts, value)
    bool proposed = false;
    Bytes proposal;
    int acks = 0;
    bool failed = false;  ///< a member NACKed: we told the members, propose no more
    TimePoint first_estimate_at = -1;  // quorum-assembly start (propose-wait)
  };
  std::map<std::int64_t, RoundState> rounds;

  ProcessId coordinator(std::int64_t r) const {
    return members[static_cast<std::size_t>(r) % members.size()];
  }
};

class Consensus final : public ConsensusShell<CtInstance> {
 public:
  /// \param fd_class   the FD timeout class consensus uses to suspect
  ///                   coordinators; its timeout can be aggressive (◇S).
  Consensus(sim::Context& ctx, ReliableChannel& channel, FailureDetector& fd,
            FailureDetector::ClassId fd_class);

  /// Propose \p value for instance \p k among \p members (self included).
  /// All correct members must eventually propose for k to guarantee
  /// termination. Proposing for a decided instance re-delivers the decision.
  void propose(std::uint64_t k, Bytes value, std::vector<ProcessId> members) override;

 private:
  using Instance = CtInstance;

  void cast_deferred(std::uint64_t k, DeferredVote vote) override {
    handle_propose(vote.from, k, vote.round, std::move(vote.value));
  }

  void handle(ProcessId from, std::uint8_t kind, std::uint64_t k, Decoder& dec) override;
  void handle_estimate(ProcessId from, std::uint64_t k, std::int64_t r, std::int64_t ts,
                       Bytes value);
  void handle_propose(ProcessId from, std::uint64_t k, std::int64_t r, Bytes value);
  void handle_ack(std::uint64_t k, std::int64_t r);
  /// A NACK of round \p r: from a member to us as its coordinator, or
  /// from the coordinator to the members (the round failed).
  void handle_nack(ProcessId from, std::uint64_t k, std::int64_t r);
  void enter_round(std::uint64_t k, Instance& inst, std::int64_t r);
  /// Give up on the current round: NACK it to its coordinator, move on.
  void nack_round(std::uint64_t k, Instance& inst);
  /// The current round's coordinator is suspected: NACK the round, or, if
  /// we ACKed it, stop waiting for its DECIDE.
  void leave_round(std::uint64_t k, Instance& inst);
  /// Leave the current round for the next (a passive participant only
  /// moves its round marker).
  void next_round(std::uint64_t k, Instance& inst);
  void send_nack(std::uint64_t k, std::int64_t r, const std::vector<ProcessId>& to);
  void maybe_propose_round(std::uint64_t k, Instance& inst, std::int64_t r);
  void on_fd_suspect(ProcessId q) override;
  /// The gate held round \p r's ACK back for a whole suspicion timeout:
  /// NACK the round, dropping an unlocked estimate the gate refuses.
  void on_deferral_timeout(std::uint64_t k, std::int64_t r) override;

  MetricId m_rounds_;
};

}  // namespace gcs
