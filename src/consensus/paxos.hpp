/// \file paxos.hpp
/// Multi-Paxos with leader leases, under the multi-instance shell of
/// consensus_shell.hpp (decision log, ANNOUNCE, DECIDE, forget watermark).
///
/// The alternative bottom layer proving the architecture's point: any
/// uniform consensus tolerating false suspicions slots under the same
/// atomic broadcast. Ballot b is owned by members[b mod n]; processes
/// monitor the current ballot owner with the ◇S failure-detector class and
/// take over with their next-owned ballot on suspicion — the standard
/// Paxos liveness recipe (safety never depends on the FD).
///
/// Leader-stable (DESIGN.md §15): one *leadership epoch* is a stable
/// ballot covering every instance >= a floor. Phase 1 runs at most once
/// per epoch:
///
///   epoch 0   ballot 0 is implicitly established for its owner — no other
///             process may use ballot 0, so the owner skips phase 1
///             entirely and drives ACCEPT-only decrees from the start. A
///             view change restarts the epoch at its first instance; ballot
///             0 is implicit again only if no higher ballot was ever seen.
///   takeover  on ◇S suspicion of the epoch owner, the next owner sends one
///             *ranged* PREPARE(b, floor) covering all instances >= floor.
///             Acceptors promise b for the whole range and report every
///             decree they have accepted (and every decision they still
///             hold) at instances >= floor. On a majority the new epoch is
///             established: partially accepted decrees are re-proposed with
///             their highest-ballot values, known decisions are adopted,
///             gaps below the decided frontier are filled with no-ops, and
///             all subsequent decrees are again ACCEPT-only (1 RTT).
///
/// Dueling takeover candidates are damped with a bounded, seeded-Rng
/// backoff before each (re-)prepare, so two simultaneous suspectors
/// converge without unbounded ballot churn. A ballot's owner depends on
/// the member set, and members adopt a new set at different times, so a
/// member can see a ballot that names it although it never prepared it;
/// nobody drives that ballot, and the member named contests the epoch as
/// it would a suspected leader's.
///
/// A member that is not the leader ANNOUNCEs its proposal to the leader
/// only, and again to each new leader (a higher epoch seen, or the likely
/// successor of a suspected one) while it is undecided. The others join
/// from the leader's ACCEPT, with the epoch's member set. An accepted but
/// undecided decree is something to lead for: if a leader that proposed
/// alone crashes after its ACCEPT, its acceptors take over and recover it.
///
/// Phase 2 is per instance: the epoch owner sends ACCEPT(b, value);
/// acceptors whose effective promise is <= b record (b, value) and reply
/// ACCEPTED(b), else NACK; on a majority of ACCEPTEDs the owner sends
/// DECIDE to all members over the reliable channel, once.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "consensus/consensus_shell.hpp"

namespace gcs {

/// One Paxos instance: the shell's core (its `round` is the highest ballot
/// seen) plus the acceptor's and the epoch owner's state.
struct PaxosInstance : InstanceCore {
  Bytes my_value;
  bool proposed = false;                 ///< propose() gave us my_value
  ProcessId announced_to = kNoProcess;   ///< leader our ANNOUNCE went to

  // Acceptor state.
  std::int64_t promised = -1;
  std::int64_t accepted_ballot = -1;
  Bytes accepted_value;

  // Proposer (epoch owner) state, per ballot.
  struct Attempt {
    bool accepting = false;
    int accepteds = 0;
    Bytes value;
  };
  std::map<std::int64_t, Attempt> attempts;
};

class PaxosConsensus final : public ConsensusShell<PaxosInstance> {
 public:
  PaxosConsensus(sim::Context& ctx, ReliableChannel& channel, FailureDetector& fd,
                 FailureDetector::ClassId fd_class);

  void propose(std::uint64_t k, Bytes value, std::vector<ProcessId> members) override;
  /// The current epoch owner; before we adopt a member set, the owner of
  /// the highest ballot seen in the current view (kNoProcess without one).
  ProcessId stable_leader() const override;

 private:
  using Instance = PaxosInstance;

  void cast_deferred(std::uint64_t k, DeferredVote vote) override {
    handle_accept(vote.from, k, vote.round, std::move(vote.value));
  }

  /// Leadership-epoch state. One per process; the candidate/owner side of the ranged-prepare state machine.
  struct Epoch {
    std::int64_t ballot = 0;    ///< ballot of the epoch we belong to
    std::uint64_t floor = 0;    ///< epoch covers instances >= floor
    bool mine = false;          ///< self owns the epoch and it is established
    bool preparing = false;     ///< ranged prepare in flight (candidate side)
    int promises = 0;
    TimePoint prepare_at = -1;  ///< ranged PREPARE sent (propose-wait metric)
    /// Highest-ballot accepted decree per instance, merged from ranged
    /// promises (the takeover recovery set).
    std::map<std::uint64_t, std::pair<std::int64_t, Bytes>> recovered;
  };

  void handle(ProcessId from, std::uint8_t kind, std::uint64_t k, Decoder& dec) override;
  /// ANNOUNCE our proposal for \p k to \p leader, unless that is us or
  /// it already has it.
  void announce_to(ProcessId leader, std::uint64_t k, Instance& inst);
  /// A new leader, or the likely successor of a suspected one: ANNOUNCE
  /// every undecided proposal of ours to \p leader.
  void reannounce(ProcessId leader);
  /// Some instance here still needs a leader: one we proposed or drive,
  /// or a decree we accepted.
  bool has_undecided() const;
  /// \p leader, the owner of the highest ballot seen, will not drive: we
  /// suspect it, or it is us although we do not lead (the ballot was
  /// prepared under another member set).
  bool leaderless(ProcessId leader) const {
    return leader == ctx_.self() || fd_.suspects(fd_class_, leader);
  }
  void handle_accept(ProcessId from, std::uint64_t k, std::int64_t b, Bytes v);
  void handle_accepted(ProcessId from, std::uint64_t k, std::int64_t b);
  void handle_nack(std::uint64_t k, std::int64_t b_high);
  void on_fd_suspect(ProcessId q) override;
  /// The gate held this acceptor's vote on (\p k, \p ballot) back for a
  /// whole suspicion timeout. If we drive that decree, drive it again at a
  /// higher ballot, where values the gate refuses become no-ops unless a
  /// majority may already have chosen them.
  void on_deferral_timeout(std::uint64_t k, std::int64_t ballot) override;
  /// \p value, or a no-op if the admission gate refuses it.
  Bytes admissible(const Bytes& value) const { return admitted(value) ? value : Bytes{}; }

  // -- epochs ---------------------------------------------------------------
  ProcessId epoch_owner(std::int64_t ballot) const {
    return epoch_members_[static_cast<std::size_t>(ballot) % epoch_members_.size()];
  }
  int epoch_majority() const { return static_cast<int>(epoch_members_.size()) / 2 + 1; }
  /// Effective promise for instance \p k: the per-instance promise joined
  /// with the ranged (epoch) promise covering k.
  std::int64_t effective_promised(std::uint64_t k, const Instance& inst) const;
  /// First sight of a member set (or a view change): adopt it as the epoch
  /// member set; a changed set restarts the epoch at \p k, and the highest
  /// ballot seen, kept, names its leader under the new set.
  void adopt_epoch_members(std::uint64_t k, const std::vector<ProcessId>& members);
  /// ACCEPT(ballot, value) directly (phase 2 only) for instance \p k.
  void drive_accept(std::uint64_t k, std::int64_t ballot, Bytes value);
  /// Backoff-damped ranged takeover of the current epoch. FD-gated unless
  /// \p force (a NACK of our own decree/candidacy: the blocking promise may
  /// belong to a long-gone candidate the FD will never suspect).
  void maybe_take_over_epoch(bool force);
  /// Send the ranged PREPARE for a new epoch at \p ballot.
  void start_epoch(std::int64_t ballot);
  /// Majority of ranged promises reached: become the leader, re-propose
  /// recovered decrees, fill gaps, drive everything startable.
  void establish_epoch();
  /// Drive every known undecided instance >= floor at the epoch ballot
  /// (no-op fills for gaps below the locally decided frontier).
  void drive_epoch_instances();
  void handle_ranged_prepare(ProcessId from, std::uint64_t floor, std::int64_t b);
  void handle_ranged_promise(ProcessId from, std::uint64_t floor, std::int64_t b,
                             Decoder& dec);
  void handle_ranged_nack(std::int64_t b_high);
  /// A ballot above our epoch's surfaced: remember it and drop leadership
  /// if we held it. If the highest ballot seen names us and we do not lead,
  /// contest the epoch.
  void note_epoch_ballot(std::int64_t b);

  MetricId m_prepares_;      ///< ranged PREPAREs sent (epoch candidacies); 0 across
                             ///< a fault-free run
  MetricId m_noop_fills_;    ///< gap instances decided as no-ops by a new leader

  // Epoch state.
  std::vector<ProcessId> epoch_members_;  ///< member set the epoch runs under
  /// Instance at which epoch_members_ was adopted; late announces carrying
  /// an older member set (k below this) must not re-reset the epoch.
  std::uint64_t epoch_adopted_at_ = 0;
  Epoch epoch_;
  /// Highest epoch ballot observed anywhere (ranged prepares, accepts,
  /// nacks), kept across member-set changes. Its owner is who the FD
  /// watches for takeover.
  std::int64_t epoch_seen_ballot_ = 0;
  /// Acceptor-side ranged promise: for all k >= floor, promised >= ballot.
  /// Updated monotonically (ballot max, floor min) — over-promising is safe.
  std::int64_t epoch_promised_ballot_ = -1;
  std::uint64_t epoch_promised_floor_ = 0;
  /// Consecutive takeover NACKs; widens the backoff window (capped).
  int consecutive_nacks_ = 0;
  bool takeover_pending_ = false;  ///< backoff timer armed
};

}  // namespace gcs
